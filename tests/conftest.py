"""Shared fixtures plus the acceptance-criteria summary printed after each run."""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings

from stopout.cli import DEFAULTS, SYNTH_KEYS, _settings
from stopout.cohorts import assign_cohorts, join_cohorts
from stopout.event_store import ingest
from stopout.featurizer import build_feature_matrix
from stopout.synth import SynthConfig, SynthCourse, generate, write_course

DATA_DIR = Path(__file__).parent / "data"

settings.register_profile("pkg", deadline=None)
settings.load_profile("pkg")

# ---------------------------------------------------------------------------
# release-criteria reporting
#
# Tests marked @pytest.mark.acceptance("NN label") land in a summary section at
# the end of the run, one PASS/FAIL/SKIP line per criterion.

_ACCEPTANCE: dict[str, dict[str, str]] = {}


def pytest_collection_modifyitems(items) -> None:
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker is not None:
            _ACCEPTANCE[item.nodeid] = {"label": marker.args[0], "outcome": "SKIP"}


def pytest_runtest_logreport(report) -> None:
    entry = _ACCEPTANCE.get(report.nodeid)
    if entry is None:
        return
    if report.failed:
        entry["outcome"] = "FAIL"
    elif report.when == "call" and report.passed and entry["outcome"] != "FAIL":
        entry["outcome"] = "PASS"


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for entry in sorted(_ACCEPTANCE.values(), key=lambda e: e["label"]):
        terminalreporter.write_line(f"[{entry['outcome']}] {entry['label']}")
    # ROADMAP aim 2 tracks this number: the same outputs from less code.
    # Code that moves into the test references stays in view below it.
    src = Path(__file__).parent.parent / "src" / "stopout"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    terminalreporter.write_line(f"src/stopout: {lines:,} lines")
    oracles = len(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8").splitlines())
    terminalreporter.write_line(f"tests/oracles.py: {oracles:,} lines")


# ---------------------------------------------------------------------------
# settings: SETTINGS holds the only defaults, and the library has none

def defaults(*keys: str, **overrides) -> dict[str, object]:
    """The configured default of each SETTINGS key, named as the library
    parameter that takes it (no importance_ or synth_ prefix), then overrides."""
    return {**_settings(argparse.Namespace(), DEFAULTS, *keys), **overrides}


def synth_config(**overrides) -> SynthConfig:
    """SynthConfig at the configured defaults, as the synth command builds it."""
    settings = defaults(*SYNTH_KEYS)
    return SynthConfig(**{"num_learners": settings.pop("learners"), "num_weeks": settings.pop("weeks"),
                          **settings, **overrides})


# ---------------------------------------------------------------------------
# hand-checked miniature course

@pytest.fixture(scope="session")
def fixture_dataset():
    return ingest([DATA_DIR / "fixture_events.tsv"], DATA_DIR / "fixture_calendar.tsv")


@pytest.fixture(scope="session")
def _fixture_featurized(fixture_dataset):
    return build_feature_matrix(fixture_dataset)


@pytest.fixture(scope="session")
def fixture_matrix(_fixture_featurized):
    return _fixture_featurized[0]


@pytest.fixture(scope="session")
def fixture_histogram(_fixture_featurized):
    return _fixture_featurized[1]


@pytest.fixture(scope="session")
def fixture_cohorts(fixture_dataset):
    return assign_cohorts(fixture_dataset)


# ---------------------------------------------------------------------------
# generated courses

def drawn(config: SynthConfig) -> SimpleNamespace:
    """A generated course held in memory: its calendar, its learners as a
    list, their truth rows and every event line."""
    course = generate(config)
    learners = list(course.learners)
    return SimpleNamespace(
        course=SynthCourse(course.calendar, learners),
        calendar=course.calendar,
        truth=[t for t, _ in learners],
        events=[line for _, lines in learners for line in lines],
    )


def build_course(root: Path, config: SynthConfig) -> SimpleNamespace:
    """Generate a course, round-trip it through files, and featurize it."""
    events_path = root / "events.tsv"
    calendar_path = root / "calendar.tsv"
    truth_path = root / "truth.tsv"
    course = drawn(config)
    write_course(course.course, root)
    dataset = ingest([events_path], calendar_path)
    matrix, histogram = build_feature_matrix(dataset)
    assignments = assign_cohorts(dataset)
    return SimpleNamespace(
        config=config,
        course=course,
        dataset=dataset,
        matrix=join_cohorts(matrix, assignments),  # as run-all joins them
        histogram=histogram,
        assignments=assignments,
        events_path=events_path,
        calendar_path=calendar_path,
        truth_path=truth_path,
        root=root,
    )


@pytest.fixture(scope="session")
def small_course(tmp_path_factory):
    """300 learners over 8 weeks; big enough for model fits, fast to build."""
    root = tmp_path_factory.mktemp("small_course")
    return build_course(root, synth_config(num_learners=300, num_weeks=8, seed=7))


@pytest.fixture(scope="session")
def planted_course(tmp_path_factory):
    """5000 learners over 14 weeks with the default planted signal."""
    root = tmp_path_factory.mktemp("planted_course")
    t0 = time.monotonic()
    built = build_course(root, synth_config(num_learners=5000, num_weeks=14, seed=42))
    built.build_seconds = time.monotonic() - t0
    return built
