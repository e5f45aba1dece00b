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
from itertools import compress, count
from pathlib import Path

import numpy as np

from .errors import DataError
from .tsv import line_bound, read_chunks, read_lines, write_table

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

    def reject(self, reason: str, count: int) -> None:
        if count:
            self.rejected += count
            self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + count


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
    duration = np.empty(len(learner), dtype=np.int64)
    np.subtract(timestamp[1:], timestamp[:-1], out=duration[:-1])
    np.minimum(duration, SESSION_CAP, out=duration)
    duration[-1:] = DEFAULT_TAIL
    duration[:-1][learner[1:] != learner[:-1]] = DEFAULT_TAIL
    return duration


def load_calendar(path: str | Path) -> CourseCalendar:
    """Parse a calendar file: line 1 is course_start<TAB>num_weeks, each later
    line is problem_id<TAB>assignment_kind<TAB>week_assigned<TAB>due_timestamp."""
    lines = [(number, ln) for number, ln in enumerate(read_lines(path), 1) if ln]
    if not lines:
        raise DataError(f"calendar file is empty: {path}")
    (first, head_line), *rows = lines
    head = head_line.split("\t")
    if len(head) != 2:
        raise DataError(f"{path}:{first}: calendar line 1 must be course_start<TAB>num_weeks, got {head_line!r}")
    try:
        calendar = CourseCalendar(course_start=int(head[0]), num_weeks=int(head[1]), problem_meta={})
    except ValueError as exc:
        raise DataError(f"{path}:{first}: calendar line 1 not integers: {head_line!r}") from exc
    except DataError as exc:  # too few weeks
        raise DataError(f"{path}:{first}: {exc}") from None
    meta = calendar.problem_meta
    for number, ln in rows:
        where = f"{path}:{number}:"
        parts = ln.split("\t")
        if len(parts) != 4:
            raise DataError(f"{where} calendar problem row needs 4 fields, got {ln!r}")
        pid, kind, week_s, due_s = parts
        if kind not in ASSIGNMENT_KINDS:
            raise DataError(f"{where} unknown assignment kind {kind!r} for problem {pid}")
        try:
            week, due = int(week_s), int(due_s)
        except ValueError as exc:
            raise DataError(f"{where} calendar problem row not integers: {ln!r}") from exc
        if pid in meta:
            raise DataError(f"{where} duplicate calendar entry for problem {pid}")
        if due < calendar.course_start:
            raise DataError(f"{where} problem {pid} due before course start")
        if not 1 <= week <= calendar.num_weeks:
            raise DataError(f"{where} problem {pid} assigned to week {week}, outside 1..{calendar.num_weeks}")
        meta[pid] = ProblemMeta(assignment_kind=kind, week_assigned=week, due_timestamp=due)
    return calendar


# The row checks in the order they are made; a row is rejected for the first
# it fails. The last two are load_dump's alone: a submission's problem must be
# in the calendar, and an observed row's duration a non-negative integer.
REASONS = ("bad_table", "missing_learner", "bad_timestamp", "before_start", "bad_resource_kind", "missing_resource",
           "missing_problem", "bad_correct_flag", "bad_assignment_kind", "bad_collab_kind", "bad_text_length",
           "negative_text_length", "problem {!r} is not in the calendar", "bad_duration")


class Coder(dict):
    """word -> code; a word not yet coded gets the next free code."""

    def __missing__(self, word: str) -> int:
        self[word] = code = len(self)
        return code


def _coders(calendar: CourseCalendar) -> dict[str, Coder]:
    """A coder per string column: table's starts as TABLE_CODE, each other's as
    "" (0), then the words its cells may hold if a closed set (1, 2, ...)."""
    closed = {"resource_kind": sorted(RESOURCE_KINDS), "problem_id": sorted(calendar.problem_meta),
              "correct": ["0", "1"], "assignment_kind": sorted(ASSIGNMENT_KINDS), "collab_kind": sorted(COLLAB_KINDS)}
    strings = [name for name in EVENT_COLUMNS if name not in INT_COLUMNS]
    return {"table": Coder(TABLE_CODE), **{name: Coder(zip(["", *closed.get(name, [])], count())) for name in strings}}


def _int64(cells: list[str], rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int() of the cells at the rows of a mask as int64 (the others read -1),
    and a mask of the cells where that fails: no integer, or outside int64."""
    values, bad = np.full(rows.size, -1, dtype=np.int64), np.zeros(rows.size, dtype=bool)
    cells = list(compress(cells, rows.tolist()))
    try:
        values[rows] = np.fromiter(map(int, cells), np.int64, len(cells))
    except (ValueError, OverflowError):  # a cell fails: try them one by one
        for row, cell in zip(np.flatnonzero(rows).tolist(), cells):
            try:
                values[row] = int(cell)
            except (ValueError, OverflowError):
                bad[row] = True
    return values, bad


def _check_events(cells: dict[str, list[str]], coders: dict[str, Coder],
                  calendar: CourseCalendar) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Each row's first failing check as an index into REASONS (len(REASONS)
    if none), and the rows' DUMP_COLUMNS arrays with strings coded and the
    cells a row's table does not use blanked; only a dump's cells, which have
    durations, read them (else -1) and check problems against the calendar."""
    dump = "duration" in cells
    code = {name: np.fromiter(map(coder.__getitem__, cells[name]), np.int64, len(cells[name]))
            for name, coder in coders.items()}
    observed, submission, collab = (code["table"] == TABLE_CODE[name] for name in TABLE_ORDER)

    def one_of(name: str, words) -> np.ndarray:  # words follow "" in the column's coder
        return (code[name] >= 1) & (code[name] <= len(words))

    timestamp, bad_timestamp = _int64(cells["timestamp"], np.ones(observed.size, dtype=bool))
    text_length, bad_text_length = _int64(cells["text_length"], collab)
    duration, _ = _int64(cells.get("duration", []), observed & dump)  # a cell that fails reads -1
    reason = np.select([  # in REASONS order
        code["table"] >= len(TABLE_ORDER), code["learner_id"] == 0, bad_timestamp, timestamp < calendar.course_start,
        observed & ~one_of("resource_kind", RESOURCE_KINDS), observed & (code["resource_id"] == 0),
        submission & (code["problem_id"] == 0), submission & ~one_of("correct", ("0", "1")),
        submission & ~one_of("assignment_kind", ASSIGNMENT_KINDS),
        collab & ~one_of("collab_kind", COLLAB_KINDS), bad_text_length, collab & (text_length < 0),
        submission & ~one_of("problem_id", calendar.problem_meta) & dump, observed & dump & (duration < 0),
    ], list(range(len(REASONS))), len(REASONS))
    for rows, names in ((observed, ("resource_id", "resource_kind")), (collab, ("collab_kind",)),
                        (submission, ("problem_id", "correct", "assignment_kind"))):
        for name in names:
            code[name][~rows] = 0
    return reason, {**code, "timestamp": timestamp, "text_length": text_length, "duration": duration}


def _append(events: dict[str, np.ndarray], filled: int, values: dict[str, np.ndarray]) -> int:
    """Copy each column of values into the arrays of events after their first
    filled rows; the rows now filled. The arrays are allocated once, at a
    bound on the rows, so that the events are never held twice."""
    end = filled + values["table"].size
    for name, column in values.items():
        events[name][filled:end] = column
    return end


def ingest(paths: list[str | Path], calendar_path: str | Path) -> CourseDataset:
    """Parse event files against a calendar into a validated CourseDataset.

    A file's header names EVENT_COLUMNS in any order. Malformed lines and
    pre-course timestamps are counted and skipped; a submission referencing a
    problem the calendar does not know is a hard error. Events are
    canonically sorted, so the result is independent of input line order.
    Accepted rows go straight into one array per column, sized by the files'
    line counts, so the events are held once, plus one chunk.
    """
    calendar = load_calendar(calendar_path)
    stats, coders, bound, filled = IngestStats(), _coders(calendar), sum(map(line_bound, paths)), 0
    events = {name: np.empty(bound, np.int64) for name in DUMP_COLUMNS}
    for path in paths:
        for chunk in read_chunks(path, EVENT_COLUMNS, lenient=True):
            stats.total += len(chunk.rows) + chunk.dropped
            stats.reject("bad_columns", chunk.dropped)
            reason, values = _check_events(chunk.columns(), coders, calendar)
            for name, count in zip(REASONS, np.bincount(reason, minlength=len(REASONS)).tolist()):
                stats.reject(name, count)
            ok = reason == len(REASONS)
            filled = _append(events, filled, {name: column[ok] for name, column in values.items()})
    stats.accepted, stats.clamped = filled, int((events["timestamp"][:filled] >= calendar.course_end).sum())
    dataset = _build_dataset(calendar, coders, events, filled, stats)
    # the problem_id words besides "" are those of accepted submissions
    missing = sorted(set(dataset.vocab["problem_id"]) - calendar.problem_meta.keys() - {""})
    if missing:
        raise DataError(f"submissions reference problems missing from the calendar: {missing}")
    observed = dataset.table(TABLE_OBSERVED)
    observed["duration"][:] = derive_durations(observed["learner_id"], observed["timestamp"])
    return dataset


def _canonical(events: dict[str, np.ndarray]) -> bool:
    """Whether each row is <= the next under the EVENT_COLUMNS keys, the
    first one primary: then the stable canonical sort would leave every row
    where it is. A key decides only the pairs that all earlier keys tie."""
    tied = np.ones_like(events["table"][1:], dtype=bool)  # one flag per pair of rows (i, i + 1)
    for name in EVENT_COLUMNS:
        before, after = events[name][:-1], events[name][1:]
        if (tied & (before > after)).any():
            return False
        tied &= before == after
    return True


def _build_dataset(calendar: CourseCalendar, coders: dict[str, Coder], events: dict[str, np.ndarray],
                   rows: int, stats: IngestStats) -> CourseDataset:
    """Take the first rows of each column, recode each string column by the
    sorted words its rows use (learner ids become dense sorted indices), and
    sort canonically unless the rows are already in that order, as a dump's
    are. Each column of events is replaced in place, a column at a time, so
    one column is held twice at most; the caller hands events over and keeps
    no other reference to its arrays."""
    for name in DUMP_COLUMNS:
        events[name] = events[name][:rows]
    vocab = {}
    for name, words in ((name, list(coder)) for name, coder in coders.items() if name != "table"):
        used = sorted(np.flatnonzero(np.bincount(events[name], minlength=len(words))).tolist(), key=words.__getitem__)
        rank = np.zeros(len(words), dtype=np.int64)
        rank[used] = np.arange(len(used))
        events[name], vocab[name] = rank[events[name]], [words[code] for code in used]
    if not _canonical(events):
        # lexsort's last key is the primary one; the sort is stable
        order = np.lexsort([events[name] for name in reversed(EVENT_COLUMNS)])
        for name in DUMP_COLUMNS:
            events[name] = events[name][order]
    return CourseDataset(calendar=calendar, events=events, vocab=vocab, stats=stats)


# rows dump_dataset turns into cells at a time, so that its memory does not
# grow with the dataset; larger blocks write no faster
DUMP_ROWS = 1 << 12


def dump_dataset(dataset: CourseDataset, path: str | Path) -> None:
    """Write the canonical sorted tab-separated export used for golden tests,
    DUMP_ROWS rows at a time."""
    words = {"table": TABLE_ORDER, **dataset.vocab}

    def rows():
        for start in range(0, dataset.events["table"].size, DUMP_ROWS):
            cells = {column: values[start:start + DUMP_ROWS].tolist() for column, values in dataset.events.items()}
            for column, vocab in words.items():
                cells[column] = [vocab[code] for code in cells[column]]
            for column in ("text_length", "duration"):
                cells[column] = ["" if value < 0 else value for value in cells[column]]
            yield from zip(*(cells[column] for column in DUMP_COLUMNS))
            del cells  # before the next block's are made

    write_table(path, DUMP_COLUMNS, rows())


def load_dump(path: str | Path, calendar: CourseCalendar) -> CourseDataset:
    """Reload a dataset dump produced by dump_dataset (durations included).

    Every row must pass ingest's checks and name a calendar problem; the
    first that does not is a DataError naming its line. Rows go straight
    into one array per column, as in ingest.
    """
    coders, bound, rows = _coders(calendar), line_bound(path), 0
    events = {name: np.empty(bound, np.int64) for name in DUMP_COLUMNS}
    for chunk in read_chunks(path, DUMP_COLUMNS):
        cells = chunk.columns()
        reason, values = _check_events(cells, coders, calendar)
        bad = np.flatnonzero(reason < len(REASONS))
        if bad.size:
            raise chunk.error(bad[0], REASONS[reason[bad[0]]].format(cells["problem_id"][bad[0]]))
        rows = _append(events, rows, values)
    return _build_dataset(calendar, coders, events, rows, IngestStats(total=rows, accepted=rows))


def dump_calendar(calendar: CourseCalendar, path: str | Path) -> None:
    """Write the canonical calendar copy kept alongside pipeline outputs."""
    rows = [f"{calendar.course_start}\t{calendar.num_weeks}"]
    for pid in sorted(calendar.problem_meta):
        m = calendar.problem_meta[pid]
        rows.append(f"{pid}\t{m.assignment_kind}\t{m.week_assigned}\t{m.due_timestamp}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
