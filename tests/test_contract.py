"""The command line's contract, as cram-style transcripts in ``tests/contract``.

A transcript is text. A line indented by two spaces that starts with ``$ ``
is a command; the indented lines after it are what the command prints: its
standard output, then its standard error with `` (stderr)`` after each line,
then ``[N]`` if it exits with N other than 0. Any other line is a comment,
and ends the output before it. An expected line that ends in `` (re)`` is a
regular expression the printed line, tags included, must match whole. A
printed line that holds an unprintable character is shown with Python's
escapes and `` (esc)`` after it, and a last line that lacks its newline with
`` (no-eol)``.

A command is ``widgetspace`` and its arguments, split as a POSIX shell
splits them; ``$'...'`` is read as the shell's ANSI-C quoting. Each
transcript runs ``cli.main`` in-process, in a fresh directory that holds the
bundled fixture schemas, with no ``WIDGETSPACE_*`` variable set.
"""

import contextlib
import io
import re
import shlex
import shutil
from pathlib import Path

import pytest

from widgetspace import cli, fixture_paths

CONTRACT = Path(__file__).resolve().parent / "contract"
README = CONTRACT.parent.parent / "README.md"
_ANSI_C = re.compile(r"\$'((?:[^'\\]|\\.)*)'")


def parse(text: str) -> list[tuple[str, list[str]]]:
    """``(command, expected lines)`` for each command of a transcript."""
    steps, expected = [], None
    for line in text.splitlines():
        if line.startswith("  $ "):
            expected = []
            steps.append((line[4:], expected))
        elif line.startswith("  "):
            if expected is None:
                raise ValueError(f"output without a command: {line!r}")
            expected.append(line[2:])
        else:
            expected = None
    return steps


def arguments(command: str) -> list[str]:
    """The arguments ``command`` passes to ``widgetspace``."""
    words = shlex.split(_ANSI_C.sub(lambda m: shlex.quote(
        m[1].encode("latin-1", "backslashreplace").decode("unicode_escape")), command))
    if words[:1] != ["widgetspace"]:
        raise ValueError(f"not a widgetspace command: {command!r}")
    return words[1:]


def shown(line: str) -> str:
    """``line`` as a transcript writes it."""
    if line.isprintable():
        return line
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in line) + " (esc)"


def run(command: str) -> list[str]:
    """What ``command`` prints, and its exit code, as transcript lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(arguments(command))
    return (_lines(out.getvalue(), "") + _lines(err.getvalue(), " (stderr)")
            + ([f"[{code}]"] if code else []))


def _lines(text: str, tag: str) -> list[str]:
    *lines, last = text.split("\n")  # last is "" after a final newline
    return [shown(line) + tag for line in lines] + (
        [shown(last) + " (no-eol)" + tag] if last else [])


def matches(expected: str, actual: str) -> bool:
    if expected.endswith(" (re)"):
        return re.fullmatch(expected[:-len(" (re)")], actual) is not None
    return expected == actual


@pytest.mark.parametrize("path", sorted(CONTRACT.glob("*.t")), ids=lambda path: path.name)
def test_transcript(path, tmp_path, monkeypatch):
    for schema in fixture_paths():
        shutil.copy(schema, tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.ENV_DB, raising=False)
    monkeypatch.delenv(cli.ENV_WORKSPACE, raising=False)
    monkeypatch.setenv("COLUMNS", "1000")  # argparse prints its usage on one line
    steps = parse(path.read_text(encoding="utf-8"))
    assert steps
    differ = []
    for command, expected in steps:
        actual = run(command)
        if len(actual) != len(expected) or not all(map(matches, expected, actual)):
            differ.append({"command": command, "expected": expected, "actual": actual})
    assert differ == []


def test_quick_tour_matches_readme():
    """``quick-tour.t`` holds README's quick tour: the same commands and output."""
    section = README.read_text(encoding="utf-8").split("\n## Quick tour\n")[1].split("\n## ")[0]
    readme = [line for block in re.findall(r"```text\n(.*?)```", section, re.S)
              for line in block.splitlines() if line]
    tour = [line[2:].removesuffix(" (stderr)") for line in (CONTRACT / "quick-tour.t")
            .read_text(encoding="utf-8").splitlines()
            if line.startswith("  ") and not re.fullmatch(r"  \[\d+\]", line)]
    assert tour == readme
