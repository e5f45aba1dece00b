"""Weekly stopout labels and the 27 interpretive per-learner weekly features.

A learner's stopout week is the week after their last submission; learners who
never submit stop out at week 1 and are excluded from the feature matrix. For
every (participating learner, week) a 27-value covariate vector is computed
from that week's events, the learner's past grades, and the submission-ratio
aggregates of the still-active peers of that week.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .event_store import CourseDataset, CourseCalendar, week_of, week_start
from .errors import DataError
from .tsv import read_table, row_line, write_table

FEATURE_IDS: tuple[str, ...] = (
    "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10", "x11",
    "x12", "x13", "x14", "x15", "x16", "x17", "x18",
    "x201", "x202", "x203", "x204", "x205", "x206", "x207", "x208", "x209", "x210",
)
NUM_FEATURES = len(FEATURE_IDS)
FEATURE_INDEX = {fid: i for i, fid in enumerate(FEATURE_IDS)}

FEATURE_NAMES = {
    "x2": "total resource time",
    "x3": "forum posts",
    "x4": "wiki edits",
    "x5": "avg forum post length",
    "x6": "distinct problems attempted",
    "x7": "submissions",
    "x8": "distinct problems correct",
    "x9": "submissions per problem",
    "x10": "time per correct problem",
    "x11": "attempts per correct problem",
    "x12": "avg first-to-last submission span",
    "x13": "event time variance",
    "x14": "collaborations",
    "x15": "max event duration",
    "x16": "lecture time",
    "x17": "book time",
    "x18": "wiki time",
    "x201": "forum responses",
    "x202": "submission ratio percentile",
    "x203": "submission ratio vs week max",
    "x204": "homework grade",
    "x205": "homework grade trend",
    "x206": "lab grade",
    "x207": "lab grade trend",
    "x208": "correct submissions",
    "x209": "correct submission ratio",
    "x210": "avg pre-deadline margin",
}


@dataclass(frozen=True, slots=True)
class StopoutProfile:
    learner: int
    stopout_week: int  # in 1..num_weeks+1; num_weeks+1 means persisted to the end
    participated: bool


@dataclass(frozen=True)
class WeekContext:
    """Calendar-derived facts shared by every learner's extraction for one week."""

    week: int
    week_start: int
    hw_problems: frozenset[str]
    lab_problems: frozenset[str]
    due: dict[str, int]


@dataclass
class PeerStats:
    """Week-level aggregates of x9 over participating, still-active learners."""

    sorted_ratios: np.ndarray  # ascending x9 values, one per active learner
    max_ratio: float

    @property
    def count(self) -> int:
        return int(self.sorted_ratios.size)


@dataclass
class FeatureMatrix:
    learners: list[str]        # participating learners, sorted by id
    num_weeks: int
    values: np.ndarray         # (L, W, 27) float64, FEATURE_IDS order
    labels: np.ndarray         # (L, W) int8; labels[i, w-1] is x1 for week w
    stopout_week: np.ndarray   # (L,) int

    @property
    def num_learners(self) -> int:
        return len(self.learners)


def compute_stopout(submission_timestamps: Sequence[int], calendar: CourseCalendar) -> tuple[int, bool]:
    """Stopout week and participation flag from one learner's submission times.

    The stopout week is the week after the last submission, capped at
    num_weeks+1 (persisted). No submissions at all puts the stopout at week 1.
    """
    if not submission_timestamps:
        return 1, False
    last_week = week_of(max(submission_timestamps), calendar)
    return min(last_week + 1, calendar.num_weeks + 1), True


def stopout_profiles(dataset: CourseDataset) -> list[StopoutProfile]:
    per_learner: dict[int, int] = {}
    for sub in dataset.submissions:
        prev = per_learner.get(sub.learner)
        if prev is None or sub.timestamp > prev:
            per_learner[sub.learner] = sub.timestamp
    profiles = []
    for li in range(dataset.num_learners):
        ts = per_learner.get(li)
        week, participated = compute_stopout([] if ts is None else [ts], dataset.calendar)
        profiles.append(StopoutProfile(learner=li, stopout_week=week, participated=participated))
    return profiles


def _percentile_sorted(value: float, stats: PeerStats) -> float:
    if stats.count == 0:
        return 0.0
    lo = int(np.searchsorted(stats.sorted_ratios, value, side="left"))
    hi = int(np.searchsorted(stats.sorted_ratios, value, side="right"))
    return (lo + 0.5 * (hi - lo)) / stats.count


def _ratio(num: float, den: float) -> float:
    # Guarded division: no-evidence denominators yield 0 to keep vectors finite.
    return num / den if den else 0.0


def extract_week(
    observed: Sequence[tuple[int, str, int]],
    submissions: Sequence[tuple[int, str, bool, str]],
    collaborations: Sequence[tuple[str, int]],
    ctx: WeekContext,
    past_hw_grades: Sequence[float],
    past_lab_grades: Sequence[float],
    peers: PeerStats,
) -> np.ndarray:
    """Compute one learner-week's 27 features.

    observed rows are (timestamp, resource_kind, duration), submissions are
    (timestamp, problem_id, correct, assignment_kind), collaborations are
    (kind, text_length). History supplies the learner's past weekly homework
    and lab grades; peers supplies this week's active-learner x9 aggregates.
    """
    x = np.zeros(NUM_FEATURES)

    durations = [d for _, _, d in observed]
    x[FEATURE_INDEX["x2"]] = sum(durations)
    x[FEATURE_INDEX["x15"]] = max(durations, default=0)
    x[FEATURE_INDEX["x16"]] = sum(d for _, k, d in observed if k == "lecture")
    x[FEATURE_INDEX["x17"]] = sum(d for _, k, d in observed if k == "book")
    x[FEATURE_INDEX["x18"]] = sum(d for _, k, d in observed if k == "wiki")
    if observed:
        offsets = np.array([ts - ctx.week_start for ts, _, _ in observed], dtype=float)
        x[FEATURE_INDEX["x13"]] = float(np.var(offsets))

    post_lengths = [n for k, n in collaborations if k == "forum_post"]
    x[FEATURE_INDEX["x3"]] = len(post_lengths)
    x[FEATURE_INDEX["x4"]] = sum(1 for k, _ in collaborations if k == "wiki_edit")
    x[FEATURE_INDEX["x5"]] = _ratio(sum(post_lengths), len(post_lengths))
    x[FEATURE_INDEX["x14"]] = x[FEATURE_INDEX["x3"]] + x[FEATURE_INDEX["x4"]]
    x[FEATURE_INDEX["x201"]] = sum(1 for k, _ in collaborations if k == "forum_response")

    by_problem: dict[str, list[int]] = {}
    correct_problems: set[str] = set()
    n_correct_subs = 0
    margin_total = 0
    for ts, pid, correct, _kind in submissions:
        by_problem.setdefault(pid, []).append(ts)
        if correct:
            correct_problems.add(pid)
            n_correct_subs += 1
        margin_total += ctx.due[pid] - ts

    x6 = len(by_problem)
    x7 = len(submissions)
    x8 = len(correct_problems)
    x[FEATURE_INDEX["x6"]] = x6
    x[FEATURE_INDEX["x7"]] = x7
    x[FEATURE_INDEX["x8"]] = x8
    x9 = _ratio(x7, x6)
    x[FEATURE_INDEX["x9"]] = x9
    x[FEATURE_INDEX["x10"]] = _ratio(x[FEATURE_INDEX["x2"]], x8)
    x[FEATURE_INDEX["x11"]] = _ratio(x6, x8)
    if by_problem:
        spans = [max(tss) - min(tss) for tss in by_problem.values()]
        x[FEATURE_INDEX["x12"]] = sum(spans) / len(spans)
    x[FEATURE_INDEX["x208"]] = n_correct_subs
    x[FEATURE_INDEX["x209"]] = _ratio(n_correct_subs, x7)
    x[FEATURE_INDEX["x210"]] = _ratio(margin_total, x7)

    x[FEATURE_INDEX["x202"]] = _percentile_sorted(x9, peers)
    x[FEATURE_INDEX["x203"]] = _ratio(x9, peers.max_ratio)

    hw_grade = _ratio(len(correct_problems & ctx.hw_problems), len(ctx.hw_problems))
    lab_grade = _ratio(len(correct_problems & ctx.lab_problems), len(ctx.lab_problems))
    past_hw = sum(past_hw_grades) / len(past_hw_grades) if past_hw_grades else 0.0
    past_lab = sum(past_lab_grades) / len(past_lab_grades) if past_lab_grades else 0.0
    x[FEATURE_INDEX["x204"]] = hw_grade
    x[FEATURE_INDEX["x205"]] = hw_grade - past_hw
    x[FEATURE_INDEX["x206"]] = lab_grade
    x[FEATURE_INDEX["x207"]] = lab_grade - past_lab
    return x


def week_contexts(calendar: CourseCalendar) -> list[WeekContext]:
    due = {pid: m.due_timestamp for pid, m in calendar.problem_meta.items()}
    contexts = []
    for w in range(1, calendar.num_weeks + 1):
        hw = frozenset(
            pid for pid, m in calendar.problem_meta.items()
            if m.week_assigned == w and m.assignment_kind == "homework"
        )
        lab = frozenset(
            pid for pid, m in calendar.problem_meta.items()
            if m.week_assigned == w and m.assignment_kind == "lab"
        )
        contexts.append(WeekContext(week=w, week_start=week_start(w, calendar), hw_problems=hw, lab_problems=lab, due=due))
    return contexts


def build_feature_matrix(dataset: CourseDataset) -> tuple[FeatureMatrix, np.ndarray]:
    """Featurize a dataset; also return the stopout-week histogram.

    The matrix has one row per (participating learner, week 1..num_weeks);
    the histogram counts stopout weeks over all learners, participants or not,
    indexed 1..num_weeks+1 (index 0 unused).
    """
    cal = dataset.calendar
    num_weeks = cal.num_weeks
    profiles = stopout_profiles(dataset)

    histogram = np.zeros(num_weeks + 2, dtype=np.int64)
    for p in profiles:
        histogram[p.stopout_week] += 1

    participants = [p.learner for p in profiles if p.participated]
    row_of = {li: i for i, li in enumerate(participants)}
    stopout = np.array([profiles[li].stopout_week for li in participants], dtype=np.int64)
    L = len(participants)

    obs_by: dict[tuple[int, int], list] = {}
    for ev in dataset.observed:
        if ev.learner in row_of:
            w = week_of(ev.timestamp, cal)
            obs_by.setdefault((row_of[ev.learner], w), []).append((ev.timestamp, ev.resource_kind, ev.duration))
    sub_by: dict[tuple[int, int], list] = {}
    for ev in dataset.submissions:
        if ev.learner in row_of:
            w = week_of(ev.timestamp, cal)
            sub_by.setdefault((row_of[ev.learner], w), []).append(
                (ev.timestamp, ev.problem_id, ev.correct, ev.assignment_kind)
            )
    col_by: dict[tuple[int, int], list] = {}
    for ev in dataset.collaborations:
        if ev.learner in row_of:
            w = week_of(ev.timestamp, cal)
            col_by.setdefault((row_of[ev.learner], w), []).append((ev.kind, ev.text_length))

    contexts = week_contexts(cal)
    values = np.zeros((L, num_weeks, NUM_FEATURES))
    labels = np.zeros((L, num_weeks), dtype=np.int8)
    hw_hist: list[list[float]] = [[] for _ in range(L)]
    lab_hist: list[list[float]] = [[] for _ in range(L)]
    i204 = FEATURE_INDEX["x204"]
    i206 = FEATURE_INDEX["x206"]

    for ctx in contexts:
        w = ctx.week
        # Peer aggregates use only learners still active (not yet stopped out)
        # this week; their own x9 values are therefore part of the multiset.
        ratios = np.empty(L)
        for i in range(L):
            subs = sub_by.get((i, w), ())
            distinct = len({pid for _, pid, _, _ in subs})
            ratios[i] = _ratio(len(subs), distinct)
        active = stopout > w
        peer_vals = np.sort(ratios[active])
        peers = PeerStats(
            sorted_ratios=peer_vals,
            max_ratio=float(peer_vals[-1]) if peer_vals.size else 0.0,
        )
        for i in range(L):
            row = extract_week(
                obs_by.get((i, w), ()),
                sub_by.get((i, w), ()),
                col_by.get((i, w), ()),
                ctx,
                hw_hist[i],
                lab_hist[i],
                peers,
            )
            values[i, w - 1] = row
            labels[i, w - 1] = 1 if stopout[i] > w else 0
            hw_hist[i].append(row[i204])
            lab_hist[i].append(row[i206])

    matrix = FeatureMatrix(
        learners=[dataset.learners[li] for li in participants],
        num_weeks=num_weeks,
        values=values,
        labels=labels,
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
    week = int(cells[1])
    if week < 1:
        raise ValueError(f"week {week} is out of range, weeks start at 1")
    return cells[0], week, int(cells[2]), [float(v) for v in cells[3:]]


def _check_learner_weeks(path, ids, keys, counts, learners, num_weeks) -> None:
    """DataError at the first duplicate (learner, week) row, else at the
    first row of the first learner missing a week."""
    _, first = np.unique(keys, return_index=True)
    repeated = np.setdiff1d(np.arange(keys.size), first)
    if repeated.size:
        i = int(repeated[0])
        raise DataError(f"{path}:{row_line(path, i)}: duplicate row for learner {ids[i]} "
                        f"week {int(keys[i]) % num_weeks + 1}")
    gap = int(np.flatnonzero(counts == 0)[0])
    lid = learners[gap // num_weeks]
    raise DataError(f"{path}:{row_line(path, ids.index(lid))}: learner {lid} has no row "
                    f"for week {gap % num_weeks + 1}")


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    """Read a features.tsv export; every learner needs exactly one row per
    week 1..W, where W is the largest week in the file."""
    # rows stream into flat buffers (8 bytes per feature value) until the
    # learner and week counts are known
    ids, weeks, flat_labels = [], [], []
    flat_values = array("d")
    for lid, week, label, row in read_table(path, FEATURE_COLUMNS, _feature_row):
        ids.append(lid)
        weeks.append(week - 1)
        flat_labels.append(label)
        flat_values.extend(row)
    learners = sorted(set(ids))
    num_weeks = max(weeks, default=-1) + 1
    index = {lid: i for i, lid in enumerate(learners)}
    at = (np.array([index[lid] for lid in ids], dtype=np.int64), np.array(weeks, dtype=np.int64))
    keys = at[0] * num_weeks + at[1]
    counts = np.bincount(keys, minlength=len(learners) * num_weeks)
    if counts.size and (counts.max() > 1 or counts.min() == 0):
        _check_learner_weeks(path, ids, keys, counts, learners, num_weeks)
    values = np.zeros((len(learners), num_weeks, NUM_FEATURES))
    values[at] = np.frombuffer(flat_values).reshape(-1, NUM_FEATURES)
    labels = np.zeros((len(learners), num_weeks), dtype=np.int8)
    labels[at] = flat_labels
    # stopout week: the first week labelled 0, else num_weeks + 1
    stopout = np.where(labels == 0, np.arange(1, num_weeks + 1), num_weeks + 1).min(axis=1, initial=num_weeks + 1)
    return FeatureMatrix(
        learners=learners,
        num_weeks=num_weeks,
        values=values,
        labels=labels,
        stopout_week=stopout,
    )


def export_histogram(histogram: np.ndarray, path: str | Path) -> None:
    write_table(path, ("week", "count"), enumerate(histogram.tolist()[1:], start=1))
