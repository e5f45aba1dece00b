"""Collaboration-cohort assignment and its export."""

from __future__ import annotations

import pytest

from stopout.cohorts import (
    COHORTS,
    FORUM,
    FULL,
    PASSIVE,
    WIKI,
    assign_cohorts,
    cohort_counts,
    export_cohorts,
    join_cohorts,
    load_cohorts,
)
from stopout.dataset_builder import ProblemSpec, flatten
from stopout.errors import DataError
from stopout.event_store import TABLE_SUBMISSION


def test_fixture_assignments(fixture_cohorts):
    # eve's only collaboration is a forum response, which still counts as forum
    assert fixture_cohorts == {
        "alice": FULL,
        "bob": PASSIVE,
        "dave": WIKI,
        "eve": FORUM,
    }


def test_non_participants_get_no_cohort(fixture_cohorts, fixture_dataset):
    assert "carol" not in fixture_cohorts
    submitters = fixture_dataset.table(TABLE_SUBMISSION)["learner_id"].tolist()
    participating = {fixture_dataset.learners[li] for li in submitters}
    assert set(fixture_cohorts) == participating


def test_counts_cover_every_cohort_key(fixture_cohorts):
    counts = cohort_counts(fixture_cohorts)
    assert set(counts) == set(COHORTS)
    assert counts == {PASSIVE: 1, FORUM: 1, WIKI: 1, FULL: 1}
    assert sum(counts.values()) == len(fixture_cohorts)


def test_generated_course_is_partitioned(small_course):
    assignments = small_course.assignments
    assert set(assignments) == set(small_course.matrix.learners)
    assert set(assignments.values()) <= set(COHORTS)
    counts = cohort_counts(assignments)
    assert sum(counts.values()) == small_course.matrix.num_learners


def test_a_learner_the_assignments_do_not_list_is_in_no_cohort(fixture_matrix, fixture_cohorts):
    joined = join_cohorts(fixture_matrix, {lid: c for lid, c in fixture_cohorts.items() if lid != "dave"})
    assert fixture_matrix.cohort is None
    assert joined.learners == ["alice", "bob", "dave", "eve"]
    assert joined.cohort.tolist() == [FULL, PASSIVE, "", FORUM]
    assert flatten(joined, ProblemSpec(1, 1, cohort=WIKI))[2] == []
    assert flatten(join_cohorts(fixture_matrix, {}), ProblemSpec(1, 1, cohort=WIKI))[0].shape == (0, 27)


def test_export_round_trip(fixture_cohorts, tmp_path):
    path = tmp_path / "cohorts.tsv"
    export_cohorts(fixture_cohorts, path)
    assert load_cohorts(path) == fixture_cohorts
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "learner_id\tcohort"
    assert lines[1:] == sorted(lines[1:])


def test_load_rejects_unknown_cohort(tmp_path):
    path = tmp_path / "cohorts.tsv"
    path.write_text("learner_id\tcohort\nalice\tlurker\n", encoding="utf-8")
    with pytest.raises(DataError, match="bad cohort row"):
        load_cohorts(path)


def test_load_rejects_a_second_row_for_one_learner(tmp_path):
    # the last row used to win, so the learner's cohort depended on row order
    path = tmp_path / "cohorts.tsv"
    path.write_text(f"learner_id\tcohort\nL00000\t{PASSIVE}\nL00001\t{WIKI}\nL00000\t{FORUM}\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"cohorts\.tsv:4: second row for learner L00000$"):
        load_cohorts(path)


def test_load_rejects_bad_header_and_missing_file(tmp_path):
    path = tmp_path / "cohorts.tsv"
    path.write_text("who\twhat\n", encoding="utf-8")
    with pytest.raises(DataError, match="cohorts.tsv:1: bad header"):
        load_cohorts(path)
    with pytest.raises(DataError, match="not found"):
        load_cohorts(tmp_path / "absent.tsv")
