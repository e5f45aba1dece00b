"""Columnar in-memory event store for weekly-structured online courses.

Raw activity arrives as line-delimited, tab-separated event files plus a
course calendar. Ingestion validates every line, tallies rejects instead of
silently dropping them, interns learner ids to dense indices, sorts the
events canonically, and infers observed-event durations from click gaps.
The events are held as one numpy array per dump column, with strings as
codes into each column's sorted vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError
from .tsv import read_table, write_table

WEEK_SECONDS = 604800

# Click-gap heuristic: an observed event is credited min(gap to next event,
# SESSION_CAP) seconds; a learner's final event gets DEFAULT_TAIL seconds.
SESSION_CAP = 3600
DEFAULT_TAIL = 60

RESOURCE_KINDS = frozenset({"lecture", "book", "wiki", "forum", "problem", "other"})
ASSIGNMENT_KINDS = frozenset({"homework", "lab", "exam", "other"})
COLLAB_KINDS = frozenset({"forum_post", "forum_response", "wiki_edit"})

EVENT_COLUMNS = (
    "table",
    "learner_id",
    "timestamp",
    "resource_id",
    "resource_kind",
    "problem_id",
    "correct",
    "assignment_kind",
    "collab_kind",
    "text_length",
)
DUMP_COLUMNS = EVENT_COLUMNS + ("duration",)
# held as int64 arrays of their values; every other column is held as codes
INT_COLUMNS = frozenset({"table", "timestamp", "text_length", "duration"})

TABLE_OBSERVED = "observed"
TABLE_SUBMISSION = "submission"
TABLE_COLLABORATION = "collaboration"
# canonical (and dump) order of the tables; the table column holds indices into it
TABLE_ORDER = (TABLE_OBSERVED, TABLE_SUBMISSION, TABLE_COLLABORATION)
TABLE_CODE = {name: code for code, name in enumerate(TABLE_ORDER)}


@dataclass(frozen=True, slots=True)
class ProblemMeta:
    assignment_kind: str
    week_assigned: int
    due_timestamp: int


@dataclass(frozen=True)
class CourseCalendar:
    """Course start, length in whole weeks, and per-problem deadline metadata."""

    course_start: int
    num_weeks: int
    problem_meta: dict[str, ProblemMeta]

    def __post_init__(self) -> None:
        if self.num_weeks < 2:
            raise DataError(f"calendar needs at least 2 weeks, got {self.num_weeks}")
        for pid, meta in self.problem_meta.items():
            if meta.due_timestamp < self.course_start:
                raise DataError(f"problem {pid} due before course start")
            if not 1 <= meta.week_assigned <= self.num_weeks:
                raise DataError(f"problem {pid} assigned to week {meta.week_assigned}, outside 1..{self.num_weeks}")

    @property
    def course_end(self) -> int:
        return self.course_start + self.num_weeks * WEEK_SECONDS


@dataclass
class IngestStats:
    total: int = 0
    accepted: int = 0
    rejected: int = 0
    clamped: int = 0  # accepted records timestamped past the final week
    reject_reasons: dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected += 1
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1


@dataclass
class CourseDataset:
    """Immutable-after-construction course dataset shared by all later stages.

    events maps each DUMP_COLUMNS name to one int64 array with a cell per
    event, in canonical order: the tables in TABLE_ORDER, each sorted by
    learner, then timestamp, then its remaining cells. table holds indices
    into TABLE_ORDER, and every string column indices into its sorted
    vocabulary, so codes sort as the strings do. A cell its table does not
    use is "" in a string column and -1 in text_length and duration.
    """

    calendar: CourseCalendar
    events: dict[str, np.ndarray]
    vocab: dict[str, list[str]]  # string column -> its sorted distinct values
    stats: IngestStats

    @property
    def learners(self) -> list[str]:
        """Dense learner index -> original learner id, sorted."""
        return self.vocab["learner_id"]

    @property
    def num_learners(self) -> int:
        return len(self.learners)

    def code(self, column: str, value: str) -> int:
        """The code of value in a string column; -1 if no event has it."""
        words = self.vocab[column]
        return words.index(value) if value in words else -1

    def table(self, name: str) -> dict[str, np.ndarray]:
        """Views of the columns over one table's rows, a contiguous block."""
        code = TABLE_CODE[name]
        lo, hi = np.searchsorted(self.events["table"], (code, code + 1))
        return {column: values[lo:hi] for column, values in self.events.items()}


def week_of(timestamp, calendar: CourseCalendar) -> np.ndarray:
    """1-based week index of each timestamp; weeks are fixed 604800 s slices.

    Timestamps past the final week clamp to the final week (callers tally).
    """
    timestamp = np.asarray(timestamp, dtype=np.int64)
    if (timestamp < calendar.course_start).any():
        raise ValueError(f"timestamp {timestamp.min()} precedes course start {calendar.course_start}")
    return np.minimum((timestamp - calendar.course_start) // WEEK_SECONDS + 1, calendar.num_weeks)


def week_start(week, calendar: CourseCalendar):
    return calendar.course_start + (week - 1) * WEEK_SECONDS


def derive_durations(learner: np.ndarray, timestamp: np.ndarray) -> np.ndarray:
    """Durations from gaps between consecutive events of the same learner.

    Input must be sorted by (learner, timestamp). Every event with a successor
    gets min(gap, SESSION_CAP); each learner's final event gets DEFAULT_TAIL.
    """
    duration = np.full(len(learner), DEFAULT_TAIL, dtype=np.int64)
    same = learner[1:] == learner[:-1]
    duration[:-1][same] = np.minimum(np.diff(timestamp)[same], SESSION_CAP)
    return duration


def load_calendar(path: str | Path) -> CourseCalendar:
    """Parse a calendar file: line 1 is course_start<TAB>num_weeks, each later
    line is problem_id<TAB>assignment_kind<TAB>week_assigned<TAB>due_timestamp."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"calendar file not found: {path}")
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln]
    if not lines:
        raise DataError(f"calendar file is empty: {path}")
    head = lines[0].split("\t")
    if len(head) != 2:
        raise DataError(f"calendar line 1 must be course_start<TAB>num_weeks, got {lines[0]!r}")
    try:
        course_start, num_weeks = int(head[0]), int(head[1])
    except ValueError as exc:
        raise DataError(f"calendar line 1 not integers: {lines[0]!r}") from exc
    meta: dict[str, ProblemMeta] = {}
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 4:
            raise DataError(f"calendar problem row needs 4 fields, got {ln!r}")
        pid, kind, week_s, due_s = parts
        if kind not in ASSIGNMENT_KINDS:
            raise DataError(f"unknown assignment kind {kind!r} for problem {pid}")
        try:
            week, due = int(week_s), int(due_s)
        except ValueError as exc:
            raise DataError(f"calendar problem row not integers: {ln!r}") from exc
        if pid in meta:
            raise DataError(f"duplicate calendar entry for problem {pid}")
        meta[pid] = ProblemMeta(assignment_kind=kind, week_assigned=week, due_timestamp=due)
    return CourseCalendar(course_start=course_start, num_weeks=num_weeks, problem_meta=meta)


def _parse_int(text: str, reason: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(reason) from None
    if not -(2**63) <= value < 2**63:  # the columns are int64
        raise ValueError(reason)
    return value


def _parse_event(cells: Sequence[str], course_start: int) -> tuple:
    """One event row, cells in EVENT_COLUMNS order, as a tuple in that order
    with the table coded, integers parsed, and the cells its table does not
    use blanked. A row ingest rejects raises ValueError naming the reason."""
    table, learner_id, ts, rid, rkind, pid, correct, akind, ckind, length = cells
    code = TABLE_CODE.get(table)
    if code is None:
        raise ValueError("bad_table")
    if not learner_id:
        raise ValueError("missing_learner")
    timestamp = _parse_int(ts, "bad_timestamp")
    if timestamp < course_start:
        raise ValueError("before_start")
    if table == TABLE_OBSERVED:
        if rkind not in RESOURCE_KINDS:
            raise ValueError("bad_resource_kind")
        if not rid:
            raise ValueError("missing_resource")
        return code, learner_id, timestamp, rid, rkind, "", "", "", "", -1
    if table == TABLE_SUBMISSION:
        if not pid:
            raise ValueError("missing_problem")
        if correct not in ("0", "1"):
            raise ValueError("bad_correct_flag")
        if akind not in ASSIGNMENT_KINDS:
            raise ValueError("bad_assignment_kind")
        return code, learner_id, timestamp, "", "", pid, correct, akind, "", -1
    if ckind not in COLLAB_KINDS:
        raise ValueError("bad_collab_kind")
    text_length = _parse_int(length, "bad_text_length")
    if text_length < 0:
        raise ValueError("negative_text_length")
    return code, learner_id, timestamp, "", "", "", "", "", ckind, text_length


def ingest(paths: list[str | Path], calendar_path: str | Path) -> CourseDataset:
    """Parse event files against a calendar into a validated CourseDataset.

    Malformed lines and pre-course timestamps are counted and skipped; a
    submission referencing a problem the calendar does not know is a hard
    error. Events are canonically sorted, so the result is independent of
    input line order.
    """
    calendar = load_calendar(calendar_path)
    stats = IngestStats()
    dataset = _build_dataset(calendar, _accepted_rows(paths, calendar, stats), stats)
    vocab = dataset.vocab["problem_id"]
    problems = {vocab[code] for code in np.unique(dataset.table(TABLE_SUBMISSION)["problem_id"]).tolist()}
    missing = sorted(problems - calendar.problem_meta.keys())
    if missing:
        raise DataError(f"submissions reference problems missing from the calendar: {missing}")
    observed = dataset.table(TABLE_OBSERVED)
    observed["duration"][:] = derive_durations(observed["learner_id"], observed["timestamp"])
    return dataset


def _accepted_rows(paths: list[str | Path], calendar: CourseCalendar, stats: IngestStats) -> Iterator[tuple]:
    """Yield each row of the event files that ingest accepts, as _parse_event
    returns it plus a duration to derive (-1), and tally every row in stats."""
    for path in paths:
        path = Path(path)
        if not path.exists():
            raise DataError(f"event file not found: {path}")
        with path.open(encoding="utf-8") as fh:
            header_line = fh.readline().rstrip("\n")
            header = header_line.split("\t")
            if sorted(header) != sorted(EVENT_COLUMNS):
                raise DataError(f"{path}: header must name columns {sorted(EVENT_COLUMNS)}, got {header}")
            in_event_order = itemgetter(*(header.index(column) for column in EVENT_COLUMNS))
            for raw in fh:
                line = raw.rstrip("\n")
                if not line:
                    continue
                stats.total += 1
                parts = line.split("\t")
                if len(parts) != len(header):
                    stats.reject("bad_columns")
                    continue
                try:
                    row = _parse_event(in_event_order(parts), calendar.course_start)
                except ValueError as exc:
                    stats.reject(str(exc))
                    continue
                if row[2] >= calendar.course_end:
                    stats.clamped += 1
                stats.accepted += 1
                yield row + (-1,)


def _build_dataset(calendar: CourseCalendar, rows: Iterable[tuple], stats: IngestStats) -> CourseDataset:
    """Code each string column by its sorted vocabulary (learner ids become
    dense sorted indices) and sort the rows canonically.

    rows are DUMP_COLUMNS tuples as _parse_event returns them plus a duration.
    To keep the peak memory low they are read into one list per column, and
    each list is dropped once its array is built.
    """
    columns: list[list] = [[] for _ in DUMP_COLUMNS]
    for row in rows:
        for column, value in zip(columns, row):
            column.append(value)
    events, vocab = {}, {}
    for name in DUMP_COLUMNS:
        values = columns.pop(0)
        if name in INT_COLUMNS:
            events[name] = np.array(values, dtype=np.int64)
        else:
            vocab[name] = sorted(set(values))
            rank = {word: code for code, word in enumerate(vocab[name])}
            events[name] = np.fromiter(map(rank.__getitem__, values), dtype=np.int64, count=len(values))
    # lexsort's last key is the primary one; the sort is stable
    order = np.lexsort([events[name] for name in reversed(EVENT_COLUMNS)])
    for name in events:
        events[name] = events[name][order]
    return CourseDataset(calendar=calendar, events=events, vocab=vocab, stats=stats)


def dump_dataset(dataset: CourseDataset, path: str | Path) -> None:
    """Write the canonical sorted tab-separated export used for golden tests."""
    cells = {column: values.tolist() for column, values in dataset.events.items()}
    cells["table"] = [TABLE_ORDER[code] for code in cells["table"]]
    for column, words in dataset.vocab.items():
        cells[column] = [words[code] for code in cells[column]]
    for column in ("text_length", "duration"):
        cells[column] = ["" if value < 0 else value for value in cells[column]]
    write_table(path, DUMP_COLUMNS, zip(*(cells[column] for column in DUMP_COLUMNS)))


def _dump_row(cells: list[str], calendar: CourseCalendar) -> tuple:
    row = _parse_event(cells[:-1], calendar.course_start)
    if row[0] == TABLE_CODE[TABLE_SUBMISSION] and row[5] not in calendar.problem_meta:
        raise ValueError(f"problem {row[5]!r} is not in the calendar")
    return row + (_parse_int(cells[-1], "bad_duration") if row[0] == TABLE_CODE[TABLE_OBSERVED] else -1,)


def load_dump(path: str | Path, calendar: CourseCalendar) -> CourseDataset:
    """Reload a dataset dump produced by dump_dataset (durations included).

    Every row must pass ingest's checks and name a calendar problem; the
    first that does not is a DataError naming its line.
    """
    rows = read_table(path, DUMP_COLUMNS, partial(_dump_row, calendar=calendar))
    dataset = _build_dataset(calendar, rows, IngestStats())
    dataset.stats.total = dataset.stats.accepted = dataset.events["table"].size
    return dataset


def dump_calendar(calendar: CourseCalendar, path: str | Path) -> None:
    """Write the canonical calendar copy kept alongside pipeline outputs."""
    rows = [f"{calendar.course_start}\t{calendar.num_weeks}"]
    for pid in sorted(calendar.problem_meta):
        m = calendar.problem_meta[pid]
        rows.append(f"{pid}\t{m.assignment_kind}\t{m.week_assigned}\t{m.due_timestamp}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
