"""Partition learners into collaboration cohorts from whole-course totals.

Forum activity counts both posts and responses; wiki activity counts edits.
Every participating learner (at least one submission) lands in exactly one
of the four cohorts, so per-cohort models can be trained on disjoint
populations. Learners who never submitted get no cohort.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .event_store import TABLE_COLLABORATION, TABLE_SUBMISSION, CourseDataset
from .featurizer import FeatureMatrix
from .tsv import read_table, write_table

PASSIVE = "passive_collaborator"
FORUM = "forum_contributor"
WIKI = "wiki_contributor"
FULL = "fully_collaborative"
COHORTS: tuple[str, ...] = (PASSIVE, FORUM, WIKI, FULL)


def assign_cohorts(dataset: CourseDataset) -> dict[str, str]:
    """Map each participating learner id to its cohort name."""
    n = dataset.num_learners
    collaborations = dataset.table(TABLE_COLLABORATION)
    wiki = collaborations["collab_kind"] == dataset.code("collab_kind", "wiki_edit")
    edits = np.bincount(collaborations["learner_id"][wiki], minlength=n)
    # forum_post and forum_response both count as forum activity
    posts = np.bincount(collaborations["learner_id"][~wiki], minlength=n)
    submitted = np.bincount(dataset.table(TABLE_SUBMISSION)["learner_id"], minlength=n)
    # rows: no forum activity, some; columns: no wiki edits, some
    by_activity = np.array([[PASSIVE, WIKI], [FORUM, FULL]])
    names = by_activity[(posts > 0).astype(int), (edits > 0).astype(int)].tolist()
    return {lid: name for lid, name, n in zip(dataset.learners, names, submitted.tolist()) if n}


def cohort_counts(assignments: dict[str, str]) -> dict[str, int]:
    counts = {name: 0 for name in COHORTS}
    for cohort in assignments.values():
        counts[cohort] += 1
    return counts


def join_cohorts(matrix: FeatureMatrix, assignments: dict[str, str]) -> FeatureMatrix:
    """The matrix with each learner's cohort; a learner assignments does not
    list gets "", which is no cohort."""
    return replace(matrix, cohort=np.array([assignments.get(lid, "") for lid in matrix.learners], dtype=str))


COHORT_COLUMNS = ("learner_id", "cohort")


def export_cohorts(assignments: dict[str, str], path: str | Path) -> None:
    write_table(path, COHORT_COLUMNS, sorted(assignments.items()))


def load_cohorts(path: str | Path) -> dict[str, str]:
    """Each listed learner's cohort; an unknown cohort or a second row for one
    learner is a DataError naming its line."""
    assignments: dict[str, str] = {}

    def cohort_row(cells: list[str]) -> list[str]:
        learner, cohort = cells
        if cohort not in COHORTS:
            raise ValueError(f"bad cohort row: unknown cohort {cohort!r}")
        if learner in assignments:
            raise ValueError(f"second row for learner {learner}")
        return cells

    for learner, cohort in read_table(path, COHORT_COLUMNS, cohort_row):
        assignments[learner] = cohort
    return assignments
