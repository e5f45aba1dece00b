"""README's tables and file formats, checked against the code they document."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from stopout.cli import SETTINGS
from stopout.cohorts import COHORT_COLUMNS
from stopout.errors import DegenerateLabelsError, InsufficientDataError, PipelineError
from stopout.evaluator import GRID_COLUMNS, STATUS_OK
from stopout.event_store import DUMP_COLUMNS, EVENT_COLUMNS
from stopout.featurizer import FEATURE_COLUMNS, FEATURE_IDS
from stopout.importance import IMPORTANCE_COLUMNS, PROBLEM_COLUMNS, STATUS_CONSTANT
from stopout.synth import TRUTH_COLUMNS

README = Path(__file__).parent.parent / "README.md"


def section(heading: str) -> str:
    """The text under README's heading line (e.g. '## Configuration'), up to
    the next heading of its level or above."""
    level = heading.split(" ", 1)[0]
    text = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    for above in range(1, len(level) + 1):
        text = text.split(f"\n{'#' * above} ", 1)[0]
    return text


def table(heading: str) -> list[list[str]]:
    """The cells of each body row of the pipe table under heading, backticks dropped."""
    rows = [line.strip().strip("|").split("|") for line in section(heading).splitlines() if line.startswith("|")]
    return [[cell.strip().strip("`") for cell in row] for row in rows[2:]]  # after the header and rule


def file_format(name: str) -> str:
    """The text of the '## File formats' entry whose bold name begins with name."""
    return section("## File formats").split(f"\n- **{name}", 1)[1].split("\n- **", 1)[0]


def test_configuration_table_is_settings():
    assert [tuple(row[:3]) for row in table("## Configuration")] == [
        (key, default, f"--{flag}" if flag else "—") for key, (default, _, flag, *_) in SETTINGS.items()
    ]


def test_exit_code_table_is_the_error_classes():
    assert [tuple(row[:3]) for row in table("### Exit codes")] == [("0", "—", "—")] + [
        (str(cls.exit_code), cls.label, getattr(cls, "status", "—")) for cls in PipelineError.__subclasses__()
    ]


def test_feature_id_table_is_feature_ids():
    assert tuple(row[0] for row in table("## Feature importance")) == FEATURE_IDS


@pytest.mark.parametrize("name, columns", [
    ("events.tsv", EVENT_COLUMNS),
    ("dataset.tsv", DUMP_COLUMNS),
    ("features.tsv", FEATURE_COLUMNS),
    ("cohorts.tsv", COHORT_COLUMNS),
    ("grid_*.tsv", GRID_COLUMNS),
    ("importance.tsv", IMPORTANCE_COLUMNS),
    ("importance_problems.tsv", PROBLEM_COLUMNS),
    ("truth.tsv", TRUTH_COLUMNS),
])
def test_each_file_format_spells_its_header(name, columns):
    # the header is the code span after "header", its tabs shown as spaces (and line breaks)
    assert tuple(re.search(r"header\s+`([^`]+)`", file_format(name))[1].split()) == columns


def test_the_statuses_that_are_not_errors_are_the_code_constants():
    # a grid cell records ok or its error's status; an importance problem may also be constant_features
    grid = re.search(r"it records a status \(([^)]*)\)", section("### Exit codes"))[1]
    assert re.findall(r"`([^`]+)`", grid) == [STATUS_OK, InsufficientDataError.status, DegenerateLabelsError.status]
    # each status in the importance_problems entry is a code span followed by ")" or ":"
    assert re.findall(r"`([a-z_]+)`[):]", file_format("importance_problems.tsv")) == [
        STATUS_OK, InsufficientDataError.status, DegenerateLabelsError.status, STATUS_CONSTANT
    ]
