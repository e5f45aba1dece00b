"""Ingestion, calendar, and duration-derivation behavior."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dump_dataset_reference, ingest_reference, parse_event_reference
from stopout import event_store, tsv
from stopout.errors import DataError
from stopout.event_store import (
    DEFAULT_TAIL,
    DUMP_COLUMNS,
    EVENT_COLUMNS,
    SESSION_CAP,
    TABLE_COLLABORATION,
    TABLE_OBSERVED,
    TABLE_SUBMISSION,
    WEEK_SECONDS,
    CourseCalendar,
    ProblemMeta,
    derive_durations,
    dump_calendar,
    dump_dataset,
    ingest,
    load_calendar,
    load_dump,
    week_of,
    week_start,
)

START = 1600000000


def make_calendar(tmp_path: Path, problems=(), start: int = START, weeks: int = 2, name: str = "calendar.tsv") -> Path:
    lines = [f"{start}\t{weeks}"]
    for pid, kind, week, due in problems:
        lines.append(f"{pid}\t{kind}\t{week}\t{due}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def event_row(table: str, learner: str, ts, columns=EVENT_COLUMNS, **fields) -> str:
    row = {c: "" for c in EVENT_COLUMNS}
    row["table"] = table
    row["learner_id"] = learner
    row["timestamp"] = str(ts)
    for key, value in fields.items():
        row[key] = str(value)
    return "\t".join(row[c] for c in columns)


def write_event_file(path: Path, rows, columns=EVENT_COLUMNS) -> Path:
    path.write_text("\n".join(["\t".join(columns), *rows]) + "\n", encoding="utf-8")
    return path


def observed_row(learner: str, ts, rid: str = "r1", kind: str = "lecture", **kw) -> str:
    return event_row("observed", learner, ts, resource_id=rid, resource_kind=kind, **kw)


def submission_row(learner: str, ts, pid: str = "p1", correct: str = "1", kind: str = "homework", **kw) -> str:
    return event_row("submission", learner, ts, problem_id=pid, correct=correct, assignment_kind=kind, **kw)


def collab_row(learner: str, ts, kind: str = "forum_post", length: str = "10", **kw) -> str:
    return event_row("collaboration", learner, ts, collab_kind=kind, text_length=length, **kw)


DEFAULT_PROBLEMS = (("p1", "homework", 1, START + 600000),)


def table_size(dataset, table: str) -> int:
    return dataset.table(table)["timestamp"].size


def assert_same_events(a, b) -> None:
    assert a.vocab == b.vocab
    assert a.events.keys() == b.events.keys()
    for column in a.events:
        assert np.array_equal(a.events[column], b.events[column]), column


# ---------------------------------------------------------------------------
# ingest basics

def test_malformed_row_is_counted_not_fatal(tmp_path):
    cal = make_calendar(tmp_path, DEFAULT_PROBLEMS)
    events = write_event_file(
        tmp_path / "events.tsv",
        [
            observed_row("a", START + 10),
            event_row("observed", "a", "not-a-number", resource_id="r1", resource_kind="lecture"),
            submission_row("a", START + 20),
        ],
    )
    ds = ingest([events], cal)
    assert ds.stats.total == 3
    assert ds.stats.accepted == 2
    assert ds.stats.rejected == 1
    assert ds.stats.reject_reasons == {"bad_timestamp": 1}


def test_empty_path_list_gives_empty_dataset(tmp_path):
    cal = make_calendar(tmp_path, DEFAULT_PROBLEMS)
    ds = ingest([], cal)
    assert ds.learners == []
    assert all(values.size == 0 for values in ds.events.values())
    assert ds.stats.total == 0 and ds.stats.accepted == 0 and ds.stats.rejected == 0


def test_header_column_order_is_free(tmp_path):
    cal = make_calendar(tmp_path, DEFAULT_PROBLEMS)
    canonical = write_event_file(
        tmp_path / "a.tsv", [observed_row("a", START + 10), submission_row("a", START + 20)]
    )
    permuted_cols = tuple(reversed(EVENT_COLUMNS))
    permuted = write_event_file(
        tmp_path / "b.tsv",
        [
            observed_row("a", START + 10, columns=permuted_cols),
            submission_row("a", START + 20, columns=permuted_cols),
        ],
        columns=permuted_cols,
    )
    ds_a, ds_b = ingest([canonical], cal), ingest([permuted], cal)
    assert_same_events(ds_a, ds_b)


def test_wrong_field_count_rejected_as_bad_columns(tmp_path):
    cal = make_calendar(tmp_path, DEFAULT_PROBLEMS)
    events = write_event_file(
        tmp_path / "events.tsv", [observed_row("a", START + 10) + "\textra"]
    )
    ds = ingest([events], cal)
    assert ds.stats.reject_reasons == {"bad_columns": 1}


@pytest.mark.parametrize(
    "row,reason",
    [
        (event_row("grading", "a", START + 1), "bad_table"),
        (event_row("observed", "", START + 1, resource_id="r", resource_kind="book"), "missing_learner"),
        (observed_row("a", START - 1), "before_start"),
        (observed_row("a", 2**63), "bad_timestamp"),  # does not fit the int64 column
        (observed_row("a", START + 1, kind="movie"), "bad_resource_kind"),
        (observed_row("a", START + 1, rid=""), "missing_resource"),
        (submission_row("a", START + 1, pid=""), "missing_problem"),
        (submission_row("a", START + 1, correct="yes"), "bad_correct_flag"),
        (submission_row("a", START + 1, kind="quiz"), "bad_assignment_kind"),
        (collab_row("a", START + 1, kind="chat"), "bad_collab_kind"),
        (collab_row("a", START + 1, length="long"), "bad_text_length"),
        (collab_row("a", START + 1, length="-3"), "negative_text_length"),
        (collab_row("a", START + 1, length=str(2**63)), "bad_text_length"),
    ],
)
def test_reject_reasons(tmp_path, row, reason):
    cal = make_calendar(tmp_path, DEFAULT_PROBLEMS)
    events = write_event_file(tmp_path / "events.tsv", [row])
    ds = ingest([events], cal)
    assert ds.stats.accepted == 0
    assert ds.stats.reject_reasons == {reason: 1}


def test_zero_text_length_is_accepted(tmp_path):
    cal = make_calendar(tmp_path, DEFAULT_PROBLEMS)
    events = write_event_file(tmp_path / "events.tsv", [collab_row("a", START + 1, length="0")])
    ds = ingest([events], cal)
    assert ds.stats.accepted == 1
    assert ds.table(TABLE_COLLABORATION)["text_length"].tolist() == [0]


def test_post_course_timestamp_accepted_and_tallied(tmp_path):
    cal = make_calendar(tmp_path, DEFAULT_PROBLEMS, weeks=2)
    late = START + 2 * WEEK_SECONDS + 5
    events = write_event_file(tmp_path / "events.tsv", [submission_row("a", late)])
    ds = ingest([events], cal)
    assert ds.stats.accepted == 1
    assert ds.stats.clamped == 1
    assert ds.table(TABLE_SUBMISSION)["timestamp"].tolist() == [late]
    assert week_of(late, ds.calendar) == 2


def test_unknown_problem_ids_listed_sorted(tmp_path):
    cal = make_calendar(tmp_path, DEFAULT_PROBLEMS)
    events = write_event_file(
        tmp_path / "events.tsv",
        [submission_row("a", START + 1, pid="zz"), submission_row("a", START + 2, pid="aa")],
    )
    with pytest.raises(DataError, match=r"\['aa', 'zz'\]"):
        ingest([events], cal)


def test_bad_header_raises(tmp_path):
    cal = make_calendar(tmp_path, DEFAULT_PROBLEMS)
    bad = tmp_path / "events.tsv"
    bad.write_text("table\tlearner_id\ttimestamp\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        ingest([bad], cal)


def test_missing_event_file_raises(tmp_path):
    cal = make_calendar(tmp_path, DEFAULT_PROBLEMS)
    with pytest.raises(DataError, match="not found"):
        ingest([tmp_path / "nope.tsv"], cal)


def test_input_line_order_does_not_matter(tmp_path):
    cal = make_calendar(tmp_path, DEFAULT_PROBLEMS)
    rows = [
        observed_row("b", START + 50),
        submission_row("a", START + 10),
        collab_row("c", START + 30),
        observed_row("a", START + 20, rid="r2", kind="book"),
        submission_row("b", START + 40, correct="0"),
    ]
    shuffled = rows[:]
    random.Random(3).shuffle(shuffled)
    ds1 = ingest([write_event_file(tmp_path / "a.tsv", rows)], cal)
    ds2 = ingest([write_event_file(tmp_path / "b.tsv", shuffled)], cal)
    dump_dataset(ds1, tmp_path / "d1.tsv")
    dump_dataset(ds2, tmp_path / "d2.tsv")
    assert (tmp_path / "d1.tsv").read_bytes() == (tmp_path / "d2.tsv").read_bytes()


def test_stats_total_is_accepted_plus_rejected(fixture_dataset):
    s = fixture_dataset.stats
    assert s.total == s.accepted + s.rejected
    assert s.rejected == sum(s.reject_reasons.values())


# ---------------------------------------------------------------------------
# hand-checked fixture

def test_fixture_table_counts(fixture_dataset):
    assert fixture_dataset.learners == ["alice", "bob", "carol", "dave", "eve"]
    assert table_size(fixture_dataset, TABLE_OBSERVED) == 5
    assert table_size(fixture_dataset, TABLE_SUBMISSION) == 11
    assert table_size(fixture_dataset, TABLE_COLLABORATION) == 6
    assert fixture_dataset.stats.accepted == 22
    assert fixture_dataset.stats.rejected == 0
    assert fixture_dataset.stats.clamped == 0


def test_fixture_durations(fixture_dataset):
    alice = fixture_dataset.learners.index("alice")
    carol = fixture_dataset.learners.index("carol")
    observed = fixture_dataset.table(TABLE_OBSERVED)
    alice_durations = observed["duration"][observed["learner_id"] == alice].tolist()
    carol_durations = observed["duration"][observed["learner_id"] == carol].tolist()
    assert alice_durations == [2000, 3600, 3600, 60]
    assert carol_durations == [60]


def test_dump_round_trip(fixture_dataset, tmp_path):
    path = tmp_path / "dump.tsv"
    dump_dataset(fixture_dataset, path)
    again = load_dump(path, fixture_dataset.calendar)
    assert again.learners == fixture_dataset.learners
    assert_same_events(again, fixture_dataset)


def test_a_shuffled_dump_loads_as_the_canonical_one(small_course, tmp_path):
    dataset = small_course.dataset
    dump_dataset(dataset, tmp_path / "dataset.tsv")
    header, *rows = (tmp_path / "dataset.tsv").read_text(encoding="utf-8").splitlines()
    random.Random(5).shuffle(rows)
    (tmp_path / "shuffled.tsv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    canonical = load_dump(tmp_path / "dataset.tsv", dataset.calendar)
    assert_same_events(canonical, dataset)
    assert_same_events(load_dump(tmp_path / "shuffled.tsv", dataset.calendar), canonical)


def test_a_canonical_dump_loads_without_a_sort(small_course, tmp_path, monkeypatch):
    dump_dataset(small_course.dataset, tmp_path / "dataset.tsv")

    def no_sort(keys):
        raise AssertionError("lexsort called")

    monkeypatch.setattr(np, "lexsort", no_sort)
    assert_same_events(load_dump(tmp_path / "dataset.tsv", small_course.dataset.calendar), small_course.dataset)


@given(st.lists(st.tuples(*[st.integers(0, 2)] * len(EVENT_COLUMNS)), max_size=12))
def test_rows_count_as_canonical_exactly_when_the_sort_keeps_them(rows):
    columns = np.array(rows, dtype=np.int64).reshape(len(rows), len(EVENT_COLUMNS)).T
    events = dict(zip(EVENT_COLUMNS, columns))
    keeps = np.array_equal(np.lexsort(columns[::-1]), np.arange(len(rows)))
    assert event_store._canonical(events) == keeps


def test_load_dump_rejects_other_files(tmp_path, fixture_dataset):
    path = tmp_path / "junk.tsv"
    path.write_text("nope\n", encoding="utf-8")
    with pytest.raises(DataError, match="bad header"):
        load_dump(path, fixture_dataset.calendar)


def test_line_ends_of_any_kind_read_alike(tmp_path):
    cal = make_calendar(tmp_path, DEFAULT_PROBLEMS)
    rows = [observed_row("a", START + 20), submission_row("a", START + 10), collab_row("b", START + 30)]
    text = "\n".join(["\t".join(EVENT_COLUMNS), *rows])
    want = ingest([write_event_file(tmp_path / "lf.tsv", rows)], cal)
    for name, end in (("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.tsv"
        path.write_bytes(text.replace("\n", end).encode("utf-8"))  # no line end after the last row
        assert tsv.line_bound(path) == 3 * len(end) + 1
        assert_same_events(ingest([path], cal), want)


# ---------------------------------------------------------------------------
# memory: the events are held once, plus a chunk or a block of rows

def traced_peak(func, *args):
    """func's result, and the most memory it held at once beyond what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        return func(*args), tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def tiled_events(small_course, tmp_path_factory) -> Path:
    """small_course's events four times over, each copy with learner ids of its own."""
    header, *rows = small_course.events_path.read_text(encoding="utf-8").splitlines()
    learner = header.split("\t").index("learner_id")
    lines = [header]
    for copy in range(4):
        for row in rows:
            cells = row.split("\t")
            cells[learner] += f"~{copy}"
            lines.append("\t".join(cells))
    path = tmp_path_factory.mktemp("tiled") / "events.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_ingest_and_load_dump_hold_the_events_once(small_course, tiled_events, tmp_path, monkeypatch):
    # small chunks, so that the columns, not a chunk's cells, set the peak
    monkeypatch.setattr(tsv, "CHUNK_BYTES", 1 << 12)
    chunk = 16 * tsv.CHUNK_BYTES  # a chunk's text as cell strings and arrays
    dataset, peak = traced_peak(ingest, [tiled_events], small_course.calendar_path)
    columns = sum(values.nbytes for values in dataset.events.values())
    assert columns > 50 * chunk
    assert peak <= 1.5 * columns + chunk
    dump_dataset(dataset, tmp_path / "dataset.tsv")
    again, peak = traced_peak(load_dump, tmp_path / "dataset.tsv", dataset.calendar)
    assert_same_events(again, dataset)
    assert peak <= 1.5 * columns + chunk


def test_dump_dataset_memory_does_not_grow_with_the_rows(small_course, tmp_path):
    dataset = small_course.dataset
    assert dataset.events["table"].size > event_store.DUMP_ROWS
    tiled = dataclasses.replace(dataset, events={name: np.tile(values, 4) for name, values in dataset.events.items()})
    _, peak = traced_peak(dump_dataset, dataset, tmp_path / "one.tsv")
    _, tiled_peak = traced_peak(dump_dataset, tiled, tmp_path / "four.tsv")
    assert tiled_peak <= 1.25 * peak


@pytest.mark.parametrize("block", ["1", "7", "rows-1", "rows", "rows+1"])
def test_dump_dataset_matches_the_whole_column_reference(fixture_dataset, small_course, tmp_path, monkeypatch,
                                                         block):
    for name, dataset in (("fixture", fixture_dataset), ("small", small_course.dataset)):
        rows = dataset.events["table"].size
        monkeypatch.setattr(event_store, "DUMP_ROWS", eval(block, {"rows": rows}))
        dump_dataset(dataset, tmp_path / f"{name}.tsv")
        dump_dataset_reference(dataset, tmp_path / f"{name}_reference.tsv")
        assert (tmp_path / f"{name}.tsv").read_bytes() == (tmp_path / f"{name}_reference.tsv").read_bytes(), name


# ---------------------------------------------------------------------------
# the columnar checks against the row-by-row reference

# cells of every kind ingest accepts or rejects, int() edge forms (spaces,
# signs, underscores, other digits, past int64) and separators that are not
# line ends inside cells
CELLS = {
    "table": ["observed", "submission", "collaboration", "grading", ""],
    "learner_id": ["a", "b", "c\x1cd", "e\u2028f", "g\x85", ""],
    "timestamp": [str(START + 5), f" {START + 7}", f"+{START + 9}", "1_600_000_100", "١٦٠٠٠٠٠٠١٠",
                  str(START + 2 * WEEK_SECONDS + 3), str(START - 1), str(2**63), "-1", "12x", ""],
    "resource_id": ["r1", "r2", "r\u2028", ""],
    "resource_kind": ["lecture", "book", "movie", ""],
    "problem_id": ["p1", "p2", "p1", "p2", "", "zz"],
    "correct": ["0", "1", "yes", " 1", ""],
    "assignment_kind": ["homework", "lab", "quiz", ""],
    "collab_kind": ["forum_post", "wiki_edit", "chat", ""],
    "text_length": ["10", "0", "-3", "long", " 7", "+2", "1_0", "٣", str(2**63), ""],
}
PROBLEMS = (("p1", "homework", 1, START + 600000), ("p2", "lab", 2, START + 700000))

event_cells = st.fixed_dictionaries({column: st.sampled_from(words) for column, words in CELLS.items()})
# a row, a row one cell long or short, or a blank line
event_line = st.tuples(event_cells, st.sampled_from(["", "", "", "", "\textra", "cut", "blank"]))


def event_file(path: Path, header, lines) -> Path:
    text = ["\t".join(header)]
    for cells, change in lines:
        line = "\t".join(cells[column] for column in header)
        text.append("" if change == "blank" else line.rsplit("\t", 1)[0] if change == "cut" else line + change)
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    return path


@given(
    st.lists(st.tuples(st.permutations(EVENT_COLUMNS), st.lists(event_line, max_size=30)), min_size=1, max_size=2),
    st.sampled_from([1, 80, 1 << 20]),
)
def test_ingest_matches_the_row_reference(tmp_path_factory, files, chunk_bytes):
    root = tmp_path_factory.mktemp("ingest")
    calendar_path = make_calendar(root, PROBLEMS)
    paths = [event_file(root / f"events{i}.tsv", header, lines) for i, (header, lines) in enumerate(files)]
    saved, tsv.CHUNK_BYTES = tsv.CHUNK_BYTES, chunk_bytes
    try:
        try:
            stats, events, vocab = ingest_reference(paths, load_calendar(calendar_path))
        except DataError as exc:
            with pytest.raises(DataError) as got:
                ingest(paths, calendar_path)
            assert str(got.value) == str(exc)
            return
        dataset = ingest(paths, calendar_path)
    finally:
        tsv.CHUNK_BYTES = saved
    assert dataset.stats == stats
    assert dataset.vocab == vocab
    assert dataset.events.keys() == events.keys()
    for column in events:
        assert np.array_equal(dataset.events[column], events[column]), column


@given(st.data(), st.sampled_from([1, 300, 1 << 20]))
def test_load_dump_names_a_corrupt_row_and_its_reason(tmp_path_factory, fixture_dataset, data, chunk_bytes):
    path = tmp_path_factory.mktemp("dump") / "dataset.tsv"
    dump_dataset(fixture_dataset, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    row = data.draw(st.integers(0, len(rows) - 1))
    cells = rows[row].split("\t")
    column = data.draw(st.integers(0, len(DUMP_COLUMNS) - 1))
    name = DUMP_COLUMNS[column]
    cells[column] = data.draw(st.sampled_from(CELLS.get(name, ["60", "-4", "6o", " 9", ""])))
    rows[row] = "\t".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    saved, tsv.CHUNK_BYTES = tsv.CHUNK_BYTES, chunk_bytes
    try:
        parse_event_reference(cells, fixture_dataset.calendar, dump=True)
    except ValueError as exc:
        with pytest.raises(DataError) as got:
            load_dump(path, fixture_dataset.calendar)
        assert str(got.value) == f"{path}:{row + 2}: {exc}"
    else:
        load_dump(path, fixture_dataset.calendar)
    finally:
        tsv.CHUNK_BYTES = saved


# ---------------------------------------------------------------------------
# durations

def durations(learners, timestamps) -> list[int]:
    return derive_durations(np.array(learners), np.array(timestamps)).tolist()


def test_duration_examples():
    base = [START, START + 30, START + 30 + 7200]
    assert durations([0, 0, 0], base) == [30, SESSION_CAP, DEFAULT_TAIL]
    assert durations([0], base[:1]) == [DEFAULT_TAIL]


def test_duration_gap_crosses_learner_boundary():
    assert durations([0, 1], [START, START + 5]) == [DEFAULT_TAIL, DEFAULT_TAIL]


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 10_000)),
        min_size=1,
        max_size=25,
    )
)
def test_duration_rule_matches_brute_force(pairs):
    events = sorted((l, START + off) for l, off in pairs)
    learners = np.array([l for l, _ in events])
    timestamps = np.array([ts for _, ts in events])
    derived = derive_durations(learners, timestamps)
    assert derived.shape == timestamps.shape
    # the events themselves are left as they were
    assert list(zip(learners.tolist(), timestamps.tolist())) == events
    for i, (learner, ts) in enumerate(events):
        if events[i + 1 : i + 2] and events[i + 1][0] == learner:
            expected = min(events[i + 1][1] - ts, SESSION_CAP)
        else:
            expected = DEFAULT_TAIL
        assert derived[i] == expected
        assert 0 <= derived[i] <= SESSION_CAP


# ---------------------------------------------------------------------------
# calendar and weeks

def test_week_of_boundaries(fixture_dataset):
    cal = fixture_dataset.calendar
    assert week_of(cal.course_start, cal) == 1
    assert week_of(cal.course_start + WEEK_SECONDS - 1, cal) == 1
    assert week_of(cal.course_start + WEEK_SECONDS, cal) == 2
    assert week_of(cal.course_start + 10 * WEEK_SECONDS, cal) == cal.num_weeks
    with pytest.raises(ValueError, match="precedes"):
        week_of(cal.course_start - 1, cal)


def test_week_start_inverts_week_of(fixture_dataset):
    cal = fixture_dataset.calendar
    for week in range(1, cal.num_weeks + 1):
        assert week_of(week_start(week, cal), cal) == week


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_week_of_is_monotone(a, b):
    cal = CourseCalendar(course_start=START, num_weeks=14, problem_meta={})
    lo, hi = sorted((a, b))
    assert week_of(START + lo, cal) <= week_of(START + hi, cal)
    assert 1 <= week_of(START + lo, cal) <= 14


def test_calendar_round_trip(tmp_path, fixture_dataset):
    path = tmp_path / "cal.tsv"
    dump_calendar(fixture_dataset.calendar, path)
    again = load_calendar(path)
    assert again == fixture_dataset.calendar


def test_problem_ids_may_hold_separators_that_end_no_line(tmp_path):
    # str.splitlines() splits at these; the calendar, like the event files, splits at "\n" alone
    ids = ["hw\u2028one", "lab\x85two"]
    cal = make_calendar(tmp_path, ((ids[0], "homework", 1, START + 600000), (ids[1], "lab", 2, START + 700000)))
    assert list(load_calendar(cal).problem_meta) == ids
    events = write_event_file(tmp_path / "events.tsv", [
        submission_row("a", START + 1, pid=ids[0]),
        submission_row("a", START + WEEK_SECONDS + 1, pid=ids[1], kind="lab"),
    ])
    ds = ingest([events], cal)
    assert (ds.stats.accepted, ds.stats.rejected) == (2, 0)
    assert [ds.vocab["problem_id"][code] for code in ds.table(TABLE_SUBMISSION)["problem_id"]] == ids
    dump_calendar(ds.calendar, tmp_path / "again.tsv")
    assert load_calendar(tmp_path / "again.tsv") == ds.calendar


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty"),
        ("1600000000\n", "line 1"),
        ("x\t14\n", "not integers"),
        ("1600000000\t1\n", "at least 2 weeks"),
        ("1600000000\t2\np1\thomework\t1\n", "4 fields"),
        ("1600000000\t2\np1\tquiz\t1\t1600000500\n", "assignment kind"),
        ("1600000000\t2\np1\thomework\tone\t1600000500\n", "not integers"),
        ("1600000000\t2\np1\thomework\t3\t1600000500\n", "outside"),
        ("1600000000\t2\np1\thomework\t1\t1599999999\n", "due before course start"),
        ("1600000000\t2\np1\thomework\t1\t1600000500\np1\thomework\t2\t1600700000\n", "duplicate"),
        ("\n\n1600000000\n", "line 1"),  # line 1 is the first line that is not blank
        ("1600000000\t2\n\n\np1\thomework\t1\n", "4 fields"),
    ],
)
def test_calendar_validation(tmp_path, text, match):
    path = tmp_path / "cal.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=match) as raised:
        load_calendar(path)
    if text:  # each error is at the file's last line, blank ones counted
        line = text.rstrip("\n").count("\n") + 1
        assert str(raised.value).startswith(f"{path}:{line}: ")


def test_missing_calendar_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_calendar(tmp_path / "absent.tsv")


def test_problem_meta_fields(fixture_dataset):
    meta = fixture_dataset.calendar.problem_meta
    assert set(meta) == {"p1", "p2", "p3", "p4", "p5", "l1", "l2"}
    assert meta["p1"] == ProblemMeta(assignment_kind="homework", week_assigned=1, due_timestamp=1600583200)
    assert meta["l2"].assignment_kind == "lab"
    assert meta["p4"].week_assigned == 2
