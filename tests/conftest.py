import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from widgetspace import Database, load_fixture_registry

SRC = Path(__file__).resolve().parent.parent / "src"

# HYPOTHESIS_PROFILE=ci makes every run try the same examples, with no
# deadline for a slow runner and no example database; without it, each run
# explores afresh.
settings.register_profile("ci", derandomize=True, deadline=None, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class Shouting(str):
    """A str subclass that spells differently when lowered: marshal refuses
    it, and its ``repr`` is that of a plain string."""

    def lower(self):
        return str.upper(self)


@pytest.fixture
def registry():
    """A fresh registry with all bundled fixture schemas loaded."""
    reg, _ = load_fixture_registry()
    return reg


@pytest.fixture
def db(tmp_path):
    return Database(tmp_path / "db")


def run_cli(args, *, cwd, env_extra=None, fsize_limit=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr).

    ``fsize_limit`` caps, in bytes, the size of any file the child writes
    (``RLIMIT_FSIZE``), standing in for a full disk: a write past it fails
    with EFBIG, since Python ignores SIGXFSZ.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (fsize_limit, fsize_limit))

    proc = subprocess.run(
        [sys.executable, "-m", "widgetspace", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=None if fsize_limit is None else limit_file_size)
    return proc.returncode, proc.stdout, proc.stderr
