"""Access to the bundled jurisdiction schema files."""

from __future__ import annotations

from pathlib import Path

from .compile import LoadReport
from .registry import WidgetRegistry

_DIR = Path(__file__).parent / "fixtures"

# Order matters: the locale tree lives in common.scm, so it loads first.
FIXTURE_NAMES = ("common.scm", "arkansas.scm", "wisconsin.scm")


def fixture_dir() -> Path:
    return _DIR


def fixture_paths() -> list[Path]:
    return [_DIR / name for name in FIXTURE_NAMES]


def load_fixture_registry() -> tuple[WidgetRegistry, LoadReport]:
    """A fresh registry with every bundled schema file loaded."""
    registry = WidgetRegistry()
    report = registry.load_schema_files(fixture_paths())
    return registry, report
