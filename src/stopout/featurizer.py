"""Weekly stopout labels and the 27 interpretive per-learner weekly features.

A learner's stopout week is the week after their last submission; learners who
never submit stop out at week 1 and are excluded from the feature matrix. For
every (participating learner, week) a 27-value covariate vector is computed
from that week's events, the learner's past grades, and the submission-ratio
aggregates of the still-active peers of that week.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .event_store import (
    TABLE_COLLABORATION,
    TABLE_OBSERVED,
    TABLE_SUBMISSION,
    CourseCalendar,
    Coder,
    CourseDataset,
    ProblemMeta,
    week_of,
    week_start,
)
from .tsv import line_bound, read_chunks, read_table, write_table

FEATURE_IDS: tuple[str, ...] = (
    "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10", "x11",
    "x12", "x13", "x14", "x15", "x16", "x17", "x18",
    "x201", "x202", "x203", "x204", "x205", "x206", "x207", "x208", "x209", "x210",
)
NUM_FEATURES = len(FEATURE_IDS)
FEATURE_INDEX = {fid: i for i, fid in enumerate(FEATURE_IDS)}


@dataclass
class FeatureMatrix:
    learners: list[str]        # participating learners, sorted by id
    num_weeks: int
    values: np.ndarray         # (L, W, 27) float64, FEATURE_IDS order
    labels: np.ndarray         # (L, W) int8; labels[i, w-1] is x1 for week w
    stopout_week: np.ndarray   # (L,) int
    cohort: np.ndarray | None = None  # (L,) str, "" for no cohort; None when no cohorts were joined

    @property
    def num_learners(self) -> int:
        return len(self.learners)


def stopout_weeks(learner: np.ndarray, timestamp: np.ndarray, calendar: CourseCalendar, num_learners: int) -> np.ndarray:
    """Each learner's stopout week from the (learner, timestamp) submissions.

    The stopout week is the week after the learner's last submission, capped
    at num_weeks+1 (persisted). No submissions at all puts the stopout at
    week 1, and only such learners have it there.
    """
    last_week = np.zeros(num_learners, dtype=np.int64)
    np.maximum.at(last_week, learner, week_of(timestamp, calendar))
    return np.minimum(last_week + 1, calendar.num_weeks + 1)


def peer_percentile(values: np.ndarray, peers: np.ndarray) -> np.ndarray:
    """Mean-rank percentile of each value among the ascending peers: smaller
    peers count 1 and equal ones 1/2, over the peer count (0 with no peers)."""
    if peers.size == 0:
        return np.zeros(values.shape)
    lo = np.searchsorted(peers, values, side="left")
    hi = np.searchsorted(peers, values, side="right")
    return (lo + 0.5 * (hi - lo)) / peers.size


def _ratio(num, den) -> np.ndarray:
    # Guarded division: no-evidence denominators yield 0 to keep vectors finite.
    num, den = np.broadcast_arrays(num, den)
    return np.divide(num, den, out=np.zeros(num.shape), where=den != 0)


def build_feature_matrix(dataset: CourseDataset) -> tuple[FeatureMatrix, np.ndarray]:
    """Featurize a dataset; also return the stopout-week histogram.

    The matrix has one row per (participating learner, week 1..num_weeks);
    the histogram counts stopout weeks over all learners, participants or not,
    indexed 1..num_weeks+1 (index 0 unused). Every feature is a reduction
    over the events grouped by learner-week key row * num_weeks + week - 1.
    """
    cal = dataset.calendar
    num_weeks = cal.num_weeks
    submissions = dataset.table(TABLE_SUBMISSION)
    weeks = stopout_weeks(submissions["learner_id"], submissions["timestamp"], cal, dataset.num_learners)
    histogram = np.bincount(weeks, minlength=num_weeks + 2)
    participants = np.flatnonzero(weeks > 1)
    stopout = weeks[participants]
    L = participants.size
    row_of = np.full(dataset.num_learners, -1)
    row_of[participants] = np.arange(L)

    def grouped(table: str, *columns: str) -> list[np.ndarray]:
        """The named columns over the table's rows of participants, then
        those rows' learner-week keys and weeks.

        Rows are sorted by learner, then timestamp, so the keys ascend.
        """
        rows = dataset.table(table)
        row = row_of[rows["learner_id"]]
        kept = row >= 0
        if kept.all():  # views of the columns, not copies
            kept = slice(None)
        week = week_of(rows["timestamp"][kept], cal)
        return [rows[column][kept] for column in columns] + [row[kept] * num_weeks + week - 1, week]

    values = np.zeros((L, num_weeks, NUM_FEATURES))
    x = values.reshape(L * num_weeks, NUM_FEATURES)  # a view: x[key] is one learner-week

    def feature(fid: str) -> np.ndarray:
        return x[:, FEATURE_INDEX[fid]]

    def count(keys: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        return np.bincount(keys, weights, minlength=L * num_weeks)

    # one function per table, so that a table's temporaries are gone before
    # the next table's are made

    def observed() -> None:
        timestamp, duration, resource_kind, key, week = grouped(TABLE_OBSERVED, "timestamp", "duration",
                                                                "resource_kind")
        feature("x2")[:] = count(key, duration)
        for fid, kind in (("x16", "lecture"), ("x17", "book"), ("x18", "wiki")):
            at = resource_kind == dataset.code("resource_kind", kind)
            feature(fid)[:] = count(key[at], duration[at])
        starts = np.flatnonzero(np.diff(key, prepend=-1))  # each run of a key; keys are >= 0
        groups, sizes = key[starts], np.diff(starts, append=key.size)
        feature("x15")[groups] = np.maximum.reduceat(duration, starts)
        offsets = (timestamp - week_start(week, cal)).astype(np.float64)
        # one row-wise np.var per group size; a row sums as its 1-D slice does, bit for bit
        for size in np.unique(sizes[sizes > 1]).tolist():
            at = np.flatnonzero(sizes == size)
            feature("x13")[groups[at]] = np.var(offsets[starts[at, None] + np.arange(size)], axis=1)

    def collaboration() -> None:
        collab_kind, text_length, key, _ = grouped(TABLE_COLLABORATION, "collab_kind", "text_length")
        post = collab_kind == dataset.code("collab_kind", "forum_post")
        feature("x3")[:] = count(key[post])
        feature("x4")[:] = count(key[collab_kind == dataset.code("collab_kind", "wiki_edit")])
        feature("x5")[:] = _ratio(count(key[post], text_length[post]), feature("x3"))
        feature("x14")[:] = feature("x3") + feature("x4")
        feature("x201")[:] = count(key[collab_kind == dataset.code("collab_kind", "forum_response")])

    def submission() -> None:
        # [:-1] drops the weeks, which are not needed here, before the pairs are made
        timestamp, problem, correct, key = grouped(TABLE_SUBMISSION, "timestamp", "problem_id", "correct")[:-1]
        correct = correct == dataset.code("correct", "1")
        # calendar facts by problem code; "" (the cell of other tables) gets a placeholder
        placeholder = ProblemMeta(assignment_kind="", week_assigned=0, due_timestamp=0)
        meta = [cal.problem_meta.get(pid, placeholder) for pid in dataset.vocab["problem_id"]]
        due = np.array([m.due_timestamp for m in meta], dtype=np.int64)
        assigned_week = np.array([m.week_assigned for m in meta], dtype=np.int64)
        assignment_kind = np.array([m.assignment_kind for m in meta], dtype=str)
        feature("x7")[:] = count(key)
        feature("x208")[:] = count(key[correct])
        feature("x210")[:] = _ratio(count(key, due[problem] - timestamp), feature("x7"))
        # (learner-week, problem) pairs, each a run of the stably sorted pair
        # codes; a run's first row is the pair's earliest submission
        P = max(len(meta), 1)
        pair = key * P + problem
        del key  # the pairs hold the learner-weeks from here on
        order = np.argsort(pair, kind="stable")
        pair = pair[order]
        starts = np.flatnonzero(np.diff(pair, prepend=-1))
        tried, first = pair[starts], order[starts]
        del pair
        solved = tried[np.logical_or.reduceat(correct[order], starts)]
        span = np.maximum.reduceat(timestamp[order], starts) - timestamp[first]
        feature("x6")[:] = count(tried // P)
        feature("x8")[:] = count(solved // P)
        feature("x9")[:] = _ratio(feature("x7"), feature("x6"))
        feature("x10")[:] = _ratio(feature("x2"), feature("x8"))
        feature("x11")[:] = _ratio(feature("x6"), feature("x8"))
        feature("x12")[:] = _ratio(count(tried // P, span), feature("x6"))
        feature("x209")[:] = _ratio(feature("x208"), feature("x7"))

        # a weekly grade is the share of that week's assigned problems of the
        # kind solved that week; its trend subtracts the mean of earlier grades
        solved_problem, solved_week = solved % P, solved // P % num_weeks + 1
        for kind, grade_id, trend_id in (("homework", "x204", "x205"), ("lab", "x206", "x207")):
            weeks_assigned = [m.week_assigned for m in cal.problem_meta.values() if m.assignment_kind == kind]
            assigned = np.bincount(np.array(weeks_assigned, dtype=np.int64), minlength=num_weeks + 1)[1:]
            hit = (assignment_kind[solved_problem] == kind) & (assigned_week[solved_problem] == solved_week)
            grade = _ratio(count(solved[hit] // P).reshape(L, num_weeks), assigned)
            past = np.zeros((L, num_weeks))
            past[:, 1:] = np.cumsum(grade, axis=1)[:, :-1] / np.arange(1, num_weeks)
            values[..., FEATURE_INDEX[grade_id]] = grade
            values[..., FEATURE_INDEX[trend_id]] = grade - past

    observed()  # x10 needs x2
    collaboration()
    submission()

    # Peer aggregates use only learners still active (not yet stopped out)
    # this week; their own x9 values are therefore part of the multiset.
    x9 = values[..., FEATURE_INDEX["x9"]]
    for w in range(num_weeks):
        peers = np.sort(x9[stopout > w + 1, w])
        values[:, w, FEATURE_INDEX["x202"]] = peer_percentile(x9[:, w], peers)
        values[:, w, FEATURE_INDEX["x203"]] = _ratio(x9[:, w], peers[-1] if peers.size else 0.0)

    matrix = FeatureMatrix(
        learners=[dataset.learners[li] for li in participants],
        num_weeks=num_weeks,
        values=values,
        labels=(stopout[:, None] > np.arange(1, num_weeks + 1)).astype(np.int8),
        stopout_week=stopout,
    )
    return matrix, histogram


FEATURE_COLUMNS = ("learner_id", "week", "x1") + FEATURE_IDS


def export_feature_matrix(matrix: FeatureMatrix, path: str | Path) -> None:
    write_table(path, FEATURE_COLUMNS, (
        [lid, w, label, *row]
        for lid, labels, values in zip(matrix.learners, matrix.labels, matrix.values)
        for w, label, row in zip(range(1, matrix.num_weeks + 1), labels.tolist(), values.tolist())
    ))


def _feature_row(cells: list[str]) -> tuple[str, int, int, list[float]]:
    week, label = int(cells[1]), int(cells[2])
    if not 1 <= week < 2**63:  # the weeks are int64
        raise ValueError(f"week {week} is out of range, weeks start at 1")
    if label not in (0, 1):
        raise ValueError(f"label {label} is not 0 or 1")
    return cells[0], week, label, [float(v) for v in cells[3:]]


def _read_features(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The learner ids of a features.tsv in order of appearance, and its rows'
    codes into them, weeks, labels and values. Rows are parsed by column into
    arrays sized by the file's line count; if that fails, the file is read
    again row by row with _feature_row."""
    coder, bound, rows = Coder(), line_bound(path), 0
    codes, weeks, labels = np.empty(bound, np.int64), np.empty(bound, np.int64), np.empty(bound, np.int8)
    values = np.empty((bound, NUM_FEATURES))
    try:
        for chunk in read_chunks(path, FEATURE_COLUMNS):
            lid, week, label, rest = zip(*(row.split("\t", 3) for row in chunk.rows))
            if any(map("".join(rest).__contains__, "\x1c\x1d\x1e\x1f")):
                raise ValueError("np.loadtxt reads these as spaces, float() does not")
            end = rows + len(lid)
            values[rows:end] = np.loadtxt(rest, delimiter="\t", comments=None, ndmin=2)
            weeks[rows:end] = np.fromiter(map(int, week), np.int64, len(week))
            labels[rows:end] = np.fromiter(map(int, label), np.int8, len(label))
            codes[rows:end] = np.fromiter(map(coder.__getitem__, lid), np.int64, len(lid))
            if weeks[rows:end].min() < 1 or not np.isin(labels[rows:end], (0, 1)).all():
                raise ValueError("a week or a label is out of range")
            rows = end
    except (ValueError, OverflowError):
        coder = Coder()
        ids, weeks, labels, values = zip(*read_table(path, FEATURE_COLUMNS, _feature_row))
        codes = np.fromiter(map(coder.__getitem__, ids), np.int64, len(ids))
        return list(coder), codes, np.array(weeks, np.int64), np.array(labels, np.int8), np.array(values)
    return list(coder), codes[:rows], weeks[:rows], labels[:rows], values[:rows]


def _layout_error(learners: list[str], at: tuple[np.ndarray, np.ndarray], num_weeks: int) -> tuple[int, str]:
    """The row and text of the first duplicate learner-week in file order,
    else of the first row of the first learner missing a week."""
    learner, week = at
    order = np.lexsort((week, learner))  # stable: a pair's first row sorts first
    repeated = (np.diff(learner[order]) == 0) & (np.diff(week[order]) == 0)
    if repeated.any():
        row = int(order[1:][repeated].min())
        return row, f"duplicate row for learner {learners[learner[row]]} week {int(week[row]) + 1}"
    gap = int(np.flatnonzero(np.bincount(learner, minlength=len(learners)) < num_weeks)[0])
    own = np.sort(week[learner == gap])  # distinct, so the first week missing is the first j != own[j]
    missing = int(np.flatnonzero(np.append(own != np.arange(own.size), True))[0])
    return int(np.argmax(learner == gap)), f"learner {learners[gap]} has no row for week {missing + 1}"


def _raise_at(path: str | Path, row: int, text: str) -> None:
    for chunk in read_chunks(path, FEATURE_COLUMNS):  # read again for the line of the row-th data row
        if row < len(chunk.rows):
            raise chunk.error(row, text)
        row -= len(chunk.rows)


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    """Read a features.tsv export; every learner needs exactly one row per
    week 1..W, where W is the largest week in the file. Rows in the order
    export_feature_matrix writes them are read into the matrix itself; rows
    in any other order are put in it with one more copy."""
    words, codes, weeks, labels, values = _read_features(path)
    if not weeks.size:
        raise DataError(f"{path}: no data rows")
    learners = sorted(words)
    index = {lid: i for i, lid in enumerate(learners)}
    at = (np.fromiter(map(index.__getitem__, words), np.int64, len(words))[codes], weeks - 1)
    num_weeks = int(weeks.max())
    # every learner-week exactly once: as many rows as learner-weeks, checked
    # first so that a far-off week is reported, not allocated, and no key twice
    if weeks.size != len(learners) * num_weeks or np.bincount(at[0] * num_weeks + at[1]).max() > 1:
        _raise_at(path, *_layout_error(learners, at, num_weeks))
    key = at[0] * num_weeks + at[1]
    if not (key == np.arange(key.size)).all():
        labels[key], values[key] = labels.copy(), values.copy()
    values = values.reshape(len(learners), num_weeks, NUM_FEATURES)
    labels = labels.reshape(len(learners), num_weeks)
    # a learner who stops out stays out: the first file row labelled 1 after a 0 is an error
    if (back := np.flatnonzero(np.diff(labels, axis=1, prepend=1).ravel()[key] > 0)).size:
        learner, week = divmod(int(key[back[0]]), num_weeks)
        _raise_at(path, int(back[0]), f"learner {learners[learner]} week {week + 1}: label 1 after label 0")
    # stopout week: the first week labelled 0, else num_weeks + 1
    stopout = np.where(labels == 0, np.arange(1, num_weeks + 1), num_weeks + 1).min(axis=1)
    return FeatureMatrix(learners=learners, num_weeks=num_weeks, values=values, labels=labels, stopout_week=stopout)


def export_histogram(histogram: np.ndarray, path: str | Path) -> None:
    write_table(path, ("week", "count"), enumerate(histogram.tolist()[1:], start=1))
