"""Stopout labels, the 27 weekly features, and the matrix exports."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import feature_matrix_reference, percentile_rank
from stopout.errors import DataError
from stopout.event_store import (
    ASSIGNMENT_KINDS,
    COLLAB_KINDS,
    EVENT_COLUMNS,
    RESOURCE_KINDS,
    TABLE_SUBMISSION,
    WEEK_SECONDS,
    CourseCalendar,
    CourseDataset,
    ingest,
)
from stopout.featurizer import (
    FEATURE_COLUMNS,
    FEATURE_IDS,
    FEATURE_INDEX,
    NUM_FEATURES,
    FeatureMatrix,
    build_feature_matrix,
    export_feature_matrix,
    export_histogram,
    load_feature_matrix,
    peer_percentile,
    stopout_weeks,
)
from stopout import tsv
from stopout.tsv import write_table

START = 1600000000
BARE_CAL = CourseCalendar(course_start=START, num_weeks=14, problem_meta={})


def week_ts(week: int, offset: int = 0) -> int:
    return START + (week - 1) * WEEK_SECONDS + offset


def compute_stopout(submission_timestamps) -> tuple[int, bool]:
    """One learner's stopout week and participation flag, via stopout_weeks."""
    ts = np.array(submission_timestamps, dtype=np.int64)
    week = int(stopout_weeks(np.zeros(ts.size, dtype=np.int64), ts, BARE_CAL, 1)[0])
    return week, week > 1


def ingest_course(root: Path, num_weeks: int, problems, events) -> CourseDataset:
    """Ingest a course from (pid, kind, week, due) problems and event rows
    given as EVENT_COLUMNS tuples."""
    calendar = root / "calendar.tsv"
    lines = [f"{START}\t{num_weeks}"] + ["\t".join(map(str, problem)) for problem in problems]
    calendar.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_table(root / "events.tsv", EVENT_COLUMNS, events)
    return ingest([root / "events.tsv"], calendar)


def submission(learner: str, ts: int, pid: str, correct: int = 1) -> tuple:
    return ("submission", learner, ts, "", "", pid, correct, "homework", "", "")


# ---------------------------------------------------------------------------
# stopout

def test_stopout_week_follows_last_submission():
    assert compute_stopout([week_ts(3)]) == (4, True)
    assert compute_stopout([week_ts(1), week_ts(3), week_ts(2)]) == (4, True)


def test_stopout_without_submissions():
    assert compute_stopout([]) == (1, False)


def test_stopout_persisted_to_the_end_caps_at_15():
    everything = [week_ts(w) for w in range(1, 15)]
    assert compute_stopout(everything) == (15, True)
    assert compute_stopout([week_ts(14)]) == (15, True)
    # post-course timestamps clamp into the final week first
    assert compute_stopout([START + 40 * WEEK_SECONDS]) == (15, True)


@given(st.lists(st.integers(0, 20 * WEEK_SECONDS), min_size=1, max_size=20))
def test_stopout_bounds(offsets):
    week, participated = compute_stopout([START + off for off in offsets])
    assert participated
    assert 2 <= week <= BARE_CAL.num_weeks + 1


def test_fixture_profiles(fixture_dataset):
    submissions = fixture_dataset.table(TABLE_SUBMISSION)
    weeks = stopout_weeks(submissions["learner_id"], submissions["timestamp"],
                          fixture_dataset.calendar, fixture_dataset.num_learners)
    profiles = dict(zip(fixture_dataset.learners, weeks.tolist()))
    assert profiles["carol"] == 1  # never submitted: did not participate
    assert profiles["alice"] == 3
    assert profiles["bob"] == 2
    assert profiles["dave"] == 3
    assert profiles["eve"] == 2


# ---------------------------------------------------------------------------
# percentile

def test_percentile_examples():
    assert percentile_rank(5, [1, 2, 5]) == 2.5 / 3
    assert percentile_rank(7, [7, 7, 7, 7]) == 0.5
    assert percentile_rank(9, [1, 2, 3, 9]) == 0.875
    assert percentile_rank(1, []) == 0.0


@given(
    st.floats(-1e6, 1e6),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
)
def test_percentile_routes_agree(value, others):
    peers = others + [value]
    brute = percentile_rank(value, peers)
    assert peer_percentile(np.array([value]), np.sort(np.array(peers)))[0] == brute
    assert 0.0 < brute < 1.0  # the value itself is one of the peers


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=20), st.randoms())
def test_percentile_is_permutation_invariant(peers, rnd):
    shuffled = peers[:]
    rnd.shuffle(shuffled)
    assert percentile_rank(peers[0], shuffled) == percentile_rank(peers[0], peers)


# ---------------------------------------------------------------------------
# single-week extraction, on tiny courses built here

def test_empty_week_is_all_zero_except_grade_trends(tmp_path):
    # homework grades 1/2 in week 1 and 1/4 in week 2; week 3 assigns p1 and
    # has no events
    problems = [("h1", "homework", 1, week_ts(2)), ("h2", "homework", 1, week_ts(2)),
                *((f"h{i}", "homework", 2, week_ts(3)) for i in range(3, 7)),
                ("p1", "homework", 3, week_ts(4))]
    ds = ingest_course(tmp_path, 3, problems, [submission("a", week_ts(1, 10), "h1"),
                                               submission("a", week_ts(2, 10), "h3")])
    matrix, _ = build_feature_matrix(ds)
    x = matrix.values[0, 2]
    expected = np.zeros(NUM_FEATURES)
    expected[FEATURE_INDEX["x205"]] = -0.375  # 0 minus mean past homework grade
    assert np.array_equal(x, expected)


def test_repeat_attempts_on_one_problem(tmp_path):
    events = [submission("a", START + 10, "p1", 0), submission("a", START + 40, "p1", 1)]
    ds = ingest_course(tmp_path, 2, [("p1", "homework", 1, START + 100)], events)
    x = build_feature_matrix(ds)[0].values[0, 0]
    assert x[FEATURE_INDEX["x9"]] == 2.0
    assert x[FEATURE_INDEX["x6"]] == 1.0
    assert x[FEATURE_INDEX["x7"]] == 2.0
    assert x[FEATURE_INDEX["x12"]] == 30.0
    assert x[FEATURE_INDEX["x209"]] == 0.5
    assert x[FEATURE_INDEX["x210"]] == (90 + 60) / 2


def test_grade_guard_when_week_has_no_assigned_problems(tmp_path):
    # p9 belongs to week 2, so week 1 assigns nothing
    ds = ingest_course(tmp_path, 2, [("p9", "homework", 2, START + 50)], [submission("a", START + 10, "p9")])
    x = build_feature_matrix(ds)[0].values[0, 0]
    assert x[FEATURE_INDEX["x204"]] == 0.0
    assert x[FEATURE_INDEX["x206"]] == 0.0


# ---------------------------------------------------------------------------
# the grouped featurizer against the per-learner-week reference

def assert_matches_reference(dataset: CourseDataset) -> None:
    matrix, histogram = build_feature_matrix(dataset)
    ref, ref_histogram = feature_matrix_reference(dataset)
    assert matrix.learners == ref.learners and matrix.num_weeks == ref.num_weeks
    assert np.array_equal(matrix.values, ref.values)
    assert np.array_equal(matrix.labels, ref.labels)
    assert np.array_equal(matrix.stopout_week, ref.stopout_week)
    assert np.array_equal(histogram, ref_histogram)


def test_fixture_and_synthetic_courses_match_the_reference(fixture_dataset, small_course, planted_course):
    for dataset in (fixture_dataset, small_course.dataset, planted_course.dataset):
        assert_matches_reference(dataset)


@st.composite
def random_courses(draw):
    """A small course: problems of every kind, some never attempted, some
    submitted in other weeks than their own, repeated attempts, post-course
    timestamps that clamp into the last week, and learners who never submit."""
    num_weeks = draw(st.integers(2, 5))
    problems = [(f"p{i}", draw(st.sampled_from(sorted(ASSIGNMENT_KINDS))), draw(st.integers(1, num_weeks)),
                 START + draw(st.integers(0, (num_weeks + 1) * WEEK_SECONDS)))
                for i in range(draw(st.integers(1, 8)))]
    learners = st.sampled_from([f"u{i}" for i in range(draw(st.integers(1, 6)))])
    timestamps = st.integers(START, START + (num_weeks + 1) * WEEK_SECONDS)

    def submission(learner, problem, own_week, offset, ts, correct, kind):
        if own_week:  # in the week the problem is assigned
            ts = week_ts(problem[2], offset)
        return ("submission", learner, ts, "", "", problem[0], correct, kind, "", "")

    observed = st.builds(lambda l, ts, r, k: ("observed", l, ts, f"r{r}", k, "", "", "", "", ""),
                         learners, timestamps, st.integers(0, 3), st.sampled_from(sorted(RESOURCE_KINDS)))
    submitted = st.builds(submission, learners, st.sampled_from(problems), st.booleans(),
                          st.integers(0, WEEK_SECONDS - 1), timestamps, st.integers(0, 1),
                          st.sampled_from(sorted(ASSIGNMENT_KINDS)))
    collaborated = st.builds(lambda l, ts, k, n: ("collaboration", l, ts, "", "", "", "", "", k, n),
                             learners, timestamps, st.sampled_from(sorted(COLLAB_KINDS)), st.integers(0, 500))
    events = draw(st.lists(st.one_of(observed, submitted, collaborated), max_size=60))
    return num_weeks, problems, events


@given(random_courses())
def test_random_courses_match_the_reference(course):
    with tempfile.TemporaryDirectory() as root:
        assert_matches_reference(ingest_course(Path(root), *course))


def test_x13_matches_one_variance_per_learner_week(tmp_path):
    # one learner-week of every size 1..300: x13 is computed once per size
    # over all groups of that size, and must equal np.var of each group's slice
    rng = np.random.default_rng(3)
    offsets = {f"L{size:03d}": rng.integers(0, WEEK_SECONDS, size) for size in range(1, 301)}
    events = [("observed", lid, START + int(o), "r1", "lecture", "", "", "", "", "")
              for lid, offs in offsets.items() for o in offs]
    events += [submission(lid, week_ts(2), "p1") for lid in offsets]
    matrix, _ = build_feature_matrix(ingest_course(tmp_path, 3, [("p1", "homework", 1, week_ts(3))], events))
    assert matrix.learners == list(offsets)
    expected = [np.var(np.sort(offs).astype(np.float64)) for offs in offsets.values()]
    assert np.array_equal(matrix.values[:, 0, FEATURE_INDEX["x13"]], expected)


# ---------------------------------------------------------------------------
# hand-checked fixture values

ALICE_WEEK1 = {
    "x2": 9200.0,
    "x3": 2.0,
    "x4": 1.0,
    "x5": 50.0,
    "x6": 3.0,
    "x7": 5.0,
    "x8": 2.0,
    "x9": 5 / 3,
    "x10": 4600.0,
    "x11": 1.5,
    "x12": 20000 / 3,
    "x13": pytest.approx(56e6 / 9, rel=1e-12),
    "x14": 3.0,
    "x15": 3600.0,
    "x16": 5600.0,
    "x17": 3600.0,
    "x18": 0.0,
    "x201": 1.0,
    "x202": 0.625,
    "x203": (5 / 3) / 2.0,
    "x204": 2 / 3,
    "x205": 2 / 3,
    "x206": 0.0,
    "x207": 0.0,
    "x208": 2.0,
    "x209": 0.4,
    "x210": 553200.0,
}


def test_fixture_alice_week1_full_vector(fixture_matrix):
    row = fixture_matrix.values[fixture_matrix.learners.index("alice"), 0]
    for fid, expected in ALICE_WEEK1.items():
        assert row[FEATURE_INDEX[fid]] == expected, fid


def test_fixture_spot_values(fixture_matrix):
    m = fixture_matrix
    alice = m.learners.index("alice")
    bob = m.learners.index("bob")
    dave = m.learners.index("dave")
    eve = m.learners.index("eve")
    assert m.values[alice, 1, FEATURE_INDEX["x204"]] == 0.5
    assert m.values[alice, 1, FEATURE_INDEX["x205"]] == 0.5 - 2 / 3
    assert m.values[alice, 1, FEATURE_INDEX["x202"]] == 0.5
    assert m.values[alice, 1, FEATURE_INDEX["x203"]] == 1.0
    assert m.values[dave, 0, FEATURE_INDEX["x202"]] == 0.875
    assert m.values[dave, 0, FEATURE_INDEX["x203"]] == 1.0
    assert m.values[dave, 0, FEATURE_INDEX["x206"]] == 1.0
    assert m.values[dave, 0, FEATURE_INDEX["x9"]] == 2.0
    assert m.values[dave, 1, FEATURE_INDEX["x207"]] == -1.0
    assert m.values[eve, 0, FEATURE_INDEX["x202"]] == 0.25
    assert m.values[bob, 1, FEATURE_INDEX["x205"]] == -1 / 3
    assert m.values[bob, 1, FEATURE_INDEX["x207"]] == 0.0
    assert m.values[bob, 1, FEATURE_INDEX["x2"]] == 0.0
    assert m.values[bob, 1, FEATURE_INDEX["x7"]] == 0.0


def test_fixture_matrix_shape_and_labels(fixture_matrix):
    m = fixture_matrix
    assert m.learners == ["alice", "bob", "dave", "eve"]  # carol never submitted
    assert m.values.shape == (4, 2, 27)
    assert m.labels.tolist() == [[1, 1], [1, 0], [1, 1], [1, 0]]
    assert m.stopout_week.tolist() == [3, 2, 3, 2]


def test_fixture_histogram_counts_everyone(fixture_matrix, fixture_histogram):
    assert fixture_histogram.tolist() == [0, 1, 2, 2]
    assert fixture_histogram.sum() == 5
    assert fixture_histogram.sum() - fixture_histogram[1] == fixture_matrix.num_learners


# ---------------------------------------------------------------------------
# structural invariants on a generated course

def test_feature_identities(small_course):
    v = small_course.matrix.values
    idx = FEATURE_INDEX
    x2, x3, x4 = v[..., idx["x2"]], v[..., idx["x3"]], v[..., idx["x4"]]
    x6, x7, x8, x9 = v[..., idx["x6"]], v[..., idx["x7"]], v[..., idx["x8"]], v[..., idx["x9"]]
    x10, x11, x14 = v[..., idx["x10"]], v[..., idx["x11"]], v[..., idx["x14"]]
    x208, x209 = v[..., idx["x208"]], v[..., idx["x209"]]
    assert np.array_equal(x14, x3 + x4)
    attempted = x6 > 0
    assert np.allclose(x9[attempted] * x6[attempted], x7[attempted], rtol=1e-12)
    assert np.all(x7[~attempted] == 0) and np.all(x9[~attempted] == 0)
    solved = x8 > 0
    assert np.allclose(x11[solved] * x8[solved], x6[solved], rtol=1e-12)
    assert np.allclose(x10[solved] * x8[solved], x2[solved], rtol=1e-12)
    assert np.all(x11[~solved] == 0) and np.all(x10[~solved] == 0)
    assert np.allclose(x209 * x7, x208, rtol=1e-12)


def test_labels_monotone_and_match_stopout(small_course):
    m = small_course.matrix
    assert np.all(np.diff(m.labels.astype(int), axis=1) <= 0)
    for w in range(1, m.num_weeks + 1):
        assert np.array_equal(m.labels[:, w - 1], (m.stopout_week > w).astype(np.int8))


def test_peer_relative_features_are_calibrated(small_course):
    m = small_course.matrix
    idx202, idx203 = FEATURE_INDEX["x202"], FEATURE_INDEX["x203"]
    assert np.all(m.values[..., idx202] >= 0) and np.all(m.values[..., idx202] <= 1)
    assert np.all(m.values[..., idx203] >= 0) and np.all(m.values[..., idx203] <= 1 + 1e-12)
    for w in range(1, m.num_weeks + 1):
        active = m.stopout_week > w
        ratios = m.values[active, w - 1, FEATURE_INDEX["x9"]]
        if active.any() and ratios.max() > 0:
            assert m.values[active, w - 1, idx203].max() == pytest.approx(1.0)


def test_weeks_after_stopout_are_inactive(small_course):
    m = small_course.matrix
    trend_only = {FEATURE_INDEX["x202"], FEATURE_INDEX["x205"], FEATURE_INDEX["x207"]}
    zero_cols = [i for i in range(NUM_FEATURES) if i not in trend_only]
    for i in range(m.num_learners):
        for w in range(int(m.stopout_week[i]), m.num_weeks + 1):
            assert m.labels[i, w - 1] == 0
            assert np.all(m.values[i, w - 1, zero_cols] == 0)
            assert m.values[i, w - 1, FEATURE_INDEX["x205"]] <= 0
            assert m.values[i, w - 1, FEATURE_INDEX["x207"]] <= 0


def test_histogram_partitions_learners(small_course):
    hist = small_course.histogram
    assert hist[0] == 0
    assert hist.sum() == small_course.dataset.num_learners
    assert hist.sum() - hist[1] == small_course.matrix.num_learners


# ---------------------------------------------------------------------------
# exports

def test_feature_matrix_round_trip(fixture_matrix, tmp_path):
    path = tmp_path / "features.tsv"
    export_feature_matrix(fixture_matrix, path)
    again = load_feature_matrix(path)
    assert again.learners == fixture_matrix.learners
    assert again.num_weeks == fixture_matrix.num_weeks
    assert np.array_equal(again.values, fixture_matrix.values)
    assert np.array_equal(again.labels, fixture_matrix.labels)
    assert np.array_equal(again.stopout_week, fixture_matrix.stopout_week)


def test_feature_matrix_export_header(fixture_matrix, tmp_path):
    path = tmp_path / "features.tsv"
    export_feature_matrix(fixture_matrix, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header.split("\t") == ["learner_id", "week", "x1", *FEATURE_IDS]


def test_load_feature_matrix_errors(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_feature_matrix(tmp_path / "absent.tsv")
    junk = tmp_path / "junk.tsv"
    junk.write_text("learner\toops\n", encoding="utf-8")
    with pytest.raises(DataError, match="junk.tsv:1: bad header"):
        load_feature_matrix(junk)


def _features_file(path, learner_weeks):
    """A features.tsv with one row of constant features per (learner, week)."""
    write_table(path, FEATURE_COLUMNS, ([lid, week, 1] + [0.5] * NUM_FEATURES for lid, week in learner_weeks))
    return path


def test_load_feature_matrix_rejects_week_below_one(tmp_path):
    # before this check, week 0 overwrote week 2 through negative indexing
    path = _features_file(tmp_path / "features.tsv", [("a", 1), ("a", 2), ("a", 0)])
    with pytest.raises(DataError, match=r"features.tsv:4: week 0 is out of range"):
        load_feature_matrix(path)
    path = _features_file(tmp_path / "negative.tsv", [("a", -3), ("a", 1)])
    with pytest.raises(DataError, match=r"negative.tsv:2: week -3 is out of range"):
        load_feature_matrix(path)


def test_a_bad_week_is_reported_before_a_later_bad_row(tmp_path, monkeypatch):
    # the week check is made a chunk at a time, so it keeps line order
    monkeypatch.setattr(tsv, "CHUNK_BYTES", 1)
    path = _features_file(tmp_path / "features.tsv", [("a", 1), ("a", 0), ("a", 2)])
    path.write_text(path.read_text(encoding="utf-8") + "b\t1\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"features.tsv:3: week 0 is out of range"):
        load_feature_matrix(path)


def test_load_feature_matrix_rejects_duplicate_learner_week(tmp_path):
    path = _features_file(tmp_path / "features.tsv", [("a", 1), ("a", 2), ("b", 1), ("b", 2), ("a", 2)])
    with pytest.raises(DataError, match=r"features.tsv:6: duplicate row for learner a week 2"):
        load_feature_matrix(path)


@pytest.mark.parametrize("reverse, line", [(False, 4), (True, 7)])
def test_load_feature_matrix_rejects_a_label_back_to_one_after_zero(tmp_path, reverse, line):
    # a's labels 1, 0, 1, 1 made stopout week 2, yet flatten(lead=2, lag=1) kept a with y = 1;
    # the error names the first offending row in file order (week 3: week 4 follows a 1)
    rows = [[lid, week, label] + [0.5] * NUM_FEATURES
            for lid, labels in (("a", (1, 0, 1, 1)), ("b", (1, 1, 0, 0))) for week, label in enumerate(labels, 1)]
    path = tmp_path / "features.tsv"
    write_table(path, FEATURE_COLUMNS, rows[::-1] if reverse else rows)
    with pytest.raises(DataError, match=rf"features.tsv:{line}: learner a week 3: label 1 after label 0$"):
        load_feature_matrix(path)


def test_load_feature_matrix_rejects_missing_learner_week(tmp_path):
    # b lacks week 2; the error points at b's first row, after a blank line
    path = tmp_path / "features.tsv"
    _features_file(path, [("a", 1), ("a", 2), ("b", 1), ("c", 1), ("c", 2)])
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:3] + ["\n"] + lines[3:]), encoding="utf-8")
    with pytest.raises(DataError, match=r"features.tsv:5: learner b has no row for week 2"):
        load_feature_matrix(path)


@pytest.mark.parametrize(
    "column,value,message",
    [
        (2, "5", "label 5 is not 0 or 1"),
        (2, "-1", "label -1 is not 0 or 1"),
        (2, "300", "label 300 is not 0 or 1"),  # past int8
        (1, "99999999999999999999", "week 99999999999999999999 is out of range"),  # past int64
    ],
)
def test_load_feature_matrix_rejects_bad_labels_and_weeks(tmp_path, column, value, message):
    path = _features_file(tmp_path / "features.tsv", [("a", 1), ("a", 2), ("b", 1), ("b", 2)])
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[3].split("\t")
    cells[column] = value
    lines[3] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"features.tsv:4: {message}"):
        load_feature_matrix(path)


def test_a_far_off_week_is_a_missing_week_not_an_allocation(tmp_path):
    # 2 learners x 2**62 weeks would be far too large an array to count in
    path = _features_file(tmp_path / "features.tsv", [("a", 1), ("a", 2), ("b", 1), ("b", 2**62)])
    with pytest.raises(DataError, match=r"features.tsv:2: learner a has no row for week 3"):
        load_feature_matrix(path)


def test_load_feature_matrix_accepts_rows_in_any_order(fixture_matrix, tmp_path):
    path = tmp_path / "features.tsv"
    export_feature_matrix(fixture_matrix, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(header + "".join(reversed(rows)), encoding="utf-8")
    again = load_feature_matrix(path)
    assert again.learners == fixture_matrix.learners
    assert np.array_equal(again.values, fixture_matrix.values)
    assert np.array_equal(again.stopout_week, fixture_matrix.stopout_week)


def test_histogram_export(fixture_histogram, tmp_path):
    path = tmp_path / "hist.tsv"
    export_histogram(fixture_histogram, path)
    assert path.read_text(encoding="utf-8").splitlines() == [
        "week\tcount",
        "1\t1",
        "2\t2",
        "3\t2",
    ]
