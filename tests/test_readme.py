"""README's tables, checked against the code they document."""

from __future__ import annotations

from pathlib import Path

from stopout.cli import SETTINGS
from stopout.errors import PipelineError

README = Path(__file__).parent.parent / "README.md"


def table(heading: str) -> list[list[str]]:
    """The cells of each body row of the pipe table under README's heading line
    (e.g. '## Configuration'), up to the next heading of its level or above, backticks dropped."""
    level = heading.split(" ", 1)[0]
    text = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    for above in range(1, len(level) + 1):
        text = text.split(f"\n{'#' * above} ", 1)[0]
    rows = [line.strip().strip("|").split("|") for line in text.splitlines() if line.startswith("|")]
    return [[cell.strip().strip("`") for cell in row] for row in rows[2:]]  # after the header and rule


def test_configuration_table_is_settings():
    assert [tuple(row[:3]) for row in table("## Configuration")] == [
        (key, default, f"--{flag}" if flag else "—") for key, (default, _, flag, *_) in SETTINGS.items()
    ]


def test_exit_code_table_is_the_error_classes():
    assert [tuple(row[:3]) for row in table("### Exit codes")] == [("0", "—", "—")] + [
        (str(cls.exit_code), cls.label, getattr(cls, "status", "—")) for cls in PipelineError.__subclasses__()
    ]
