"""README's tables, checked against the code they document."""

from __future__ import annotations

from pathlib import Path

from stopout.cli import SETTINGS

README = Path(__file__).parent.parent / "README.md"


def table(section: str) -> list[list[str]]:
    """The cells of each body row of the pipe table under README's '## <section>', backticks dropped."""
    text = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip().strip("|").split("|") for line in text.splitlines() if line.startswith("|")]
    return [[cell.strip().strip("`") for cell in row] for row in rows[2:]]  # after the header and rule


def test_configuration_table_is_settings():
    assert [tuple(row[:3]) for row in table("Configuration")] == [
        (key, default, f"--{flag}" if flag else "—") for key, (default, _, flag, *_) in SETTINGS.items()
    ]
