"""Normalized in-memory event store for weekly-structured online courses.

Raw activity arrives as line-delimited, tab-separated event files plus a
course calendar. Ingestion validates every line, tallies rejects instead of
silently dropping them, interns learner ids to dense indices, sorts each
table canonically, and infers observed-event durations from click gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

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

TABLE_OBSERVED = "observed"
TABLE_SUBMISSION = "submission"
TABLE_COLLABORATION = "collaboration"
TABLES = frozenset({TABLE_OBSERVED, TABLE_SUBMISSION, TABLE_COLLABORATION})


@dataclass(frozen=True, slots=True)
class ObservedEvent:
    learner: int
    timestamp: int
    resource_id: str
    resource_kind: str
    duration: int = 0


@dataclass(frozen=True, slots=True)
class SubmissionEvent:
    learner: int
    timestamp: int
    problem_id: str
    correct: bool
    assignment_kind: str


@dataclass(frozen=True, slots=True)
class CollaborationEvent:
    learner: int
    timestamp: int
    kind: str
    text_length: int


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
    """Immutable-after-construction course dataset shared by all later stages."""

    calendar: CourseCalendar
    learners: list[str]  # dense index -> original learner id, sorted
    observed: list[ObservedEvent]
    submissions: list[SubmissionEvent]
    collaborations: list[CollaborationEvent]
    stats: IngestStats

    @property
    def num_learners(self) -> int:
        return len(self.learners)


def week_of(timestamp: int, calendar: CourseCalendar) -> int:
    """1-based week index of a timestamp; weeks are fixed 604800 s slices.

    Timestamps past the final week clamp to the final week (callers tally).
    """
    if timestamp < calendar.course_start:
        raise ValueError(f"timestamp {timestamp} precedes course start {calendar.course_start}")
    week = (timestamp - calendar.course_start) // WEEK_SECONDS + 1
    return min(week, calendar.num_weeks)


def week_start(week: int, calendar: CourseCalendar) -> int:
    return calendar.course_start + (week - 1) * WEEK_SECONDS


def derive_durations(events: list[ObservedEvent]) -> list[ObservedEvent]:
    """Fill durations from gaps between consecutive events of the same learner.

    Input must be sorted by (learner, timestamp). Every event with a successor
    gets min(gap, SESSION_CAP); each learner's final event gets DEFAULT_TAIL.
    """
    out: list[ObservedEvent] = []
    for i, ev in enumerate(events):
        nxt = events[i + 1] if i + 1 < len(events) else None
        if nxt is not None and nxt.learner == ev.learner:
            duration = min(nxt.timestamp - ev.timestamp, SESSION_CAP)
        else:
            duration = DEFAULT_TAIL
        out.append(replace(ev, duration=duration))
    return out


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
        return int(text)
    except ValueError:
        raise ValueError(reason) from None


def _parse_line(row: dict[str, str], calendar: CourseCalendar, stats: IngestStats):
    """Parse one event row into a (table, record-tuple) pair, or None if rejected."""
    table = row["table"]
    if table not in TABLES:
        stats.reject("bad_table")
        return None
    learner_id = row["learner_id"]
    if not learner_id:
        stats.reject("missing_learner")
        return None
    try:
        timestamp = _parse_int(row["timestamp"], "bad_timestamp")
        if timestamp < calendar.course_start:
            stats.reject("before_start")
            return None
        if table == TABLE_OBSERVED:
            kind = row["resource_kind"]
            if kind not in RESOURCE_KINDS:
                raise ValueError("bad_resource_kind")
            if not row["resource_id"]:
                raise ValueError("missing_resource")
            record = (learner_id, timestamp, row["resource_id"], kind)
        elif table == TABLE_SUBMISSION:
            if not row["problem_id"]:
                raise ValueError("missing_problem")
            if row["correct"] not in ("0", "1"):
                raise ValueError("bad_correct_flag")
            kind = row["assignment_kind"]
            if kind not in ASSIGNMENT_KINDS:
                raise ValueError("bad_assignment_kind")
            record = (learner_id, timestamp, row["problem_id"], row["correct"] == "1", kind)
        else:
            kind = row["collab_kind"]
            if kind not in COLLAB_KINDS:
                raise ValueError("bad_collab_kind")
            length = _parse_int(row["text_length"], "bad_text_length")
            if length < 0:
                raise ValueError("negative_text_length")
            record = (learner_id, timestamp, kind, length)
    except ValueError as exc:
        stats.reject(str(exc))
        return None
    if timestamp >= calendar.course_end:
        stats.clamped += 1
    stats.accepted += 1
    return table, record


def ingest(paths: list[str | Path], calendar_path: str | Path) -> CourseDataset:
    """Parse event files against a calendar into a validated CourseDataset.

    Malformed lines and pre-course timestamps are counted and skipped; a
    submission referencing a problem the calendar does not know is a hard
    error. Output tables are canonically sorted, so the result is independent
    of input line order.
    """
    calendar = load_calendar(calendar_path)
    stats = IngestStats()
    rows: dict[str, list[tuple]] = {t: [] for t in TABLES}
    for path in paths:
        path = Path(path)
        if not path.exists():
            raise DataError(f"event file not found: {path}")
        with path.open(encoding="utf-8") as fh:
            header_line = fh.readline().rstrip("\n")
            header = header_line.split("\t")
            if sorted(header) != sorted(EVENT_COLUMNS):
                raise DataError(f"{path}: header must name columns {sorted(EVENT_COLUMNS)}, got {header}")
            for raw in fh:
                line = raw.rstrip("\n")
                if not line:
                    continue
                stats.total += 1
                parts = line.split("\t")
                if len(parts) != len(header):
                    stats.reject("bad_columns")
                    continue
                parsed = _parse_line(dict(zip(header, parts)), calendar, stats)
                if parsed is not None:
                    rows[parsed[0]].append(parsed[1])

    missing = sorted({r[2] for r in rows[TABLE_SUBMISSION]} - set(calendar.problem_meta))
    if missing:
        raise DataError(f"submissions reference problems missing from the calendar: {missing}")
    dataset = _build_dataset(calendar, rows, stats)
    dataset.observed = derive_durations(dataset.observed)
    return dataset


def _build_dataset(calendar: CourseCalendar, rows: dict[str, list[tuple]], stats: IngestStats) -> CourseDataset:
    """Intern learner ids to dense sorted indices and sort each table canonically.

    rows maps each table name to record tuples whose first field is the
    learner id and whose rest are that table's event fields in order.
    """
    learner_ids = sorted({r[0] for table in rows.values() for r in table})
    index = {lid: i for i, lid in enumerate(learner_ids)}

    def events(cls, table: str) -> list:
        return sorted((cls(index[r[0]], *r[1:]) for r in rows[table]), key=dataclass_tuple)

    return CourseDataset(
        calendar=calendar,
        learners=learner_ids,
        observed=events(ObservedEvent, TABLE_OBSERVED),
        submissions=events(SubmissionEvent, TABLE_SUBMISSION),
        collaborations=events(CollaborationEvent, TABLE_COLLABORATION),
        stats=stats,
    )


def dataclass_tuple(ev) -> tuple:
    if isinstance(ev, ObservedEvent):
        return (ev.learner, ev.timestamp, ev.resource_id, ev.resource_kind)
    if isinstance(ev, SubmissionEvent):
        return (ev.learner, ev.timestamp, ev.problem_id, ev.correct, ev.assignment_kind)
    return (ev.learner, ev.timestamp, ev.kind, ev.text_length)


def dump_dataset(dataset: CourseDataset, path: str | Path) -> None:
    """Write the canonical sorted tab-separated export used for golden tests."""
    ids = dataset.learners
    write_table(path, DUMP_COLUMNS, chain(
        ((TABLE_OBSERVED, ids[ev.learner], ev.timestamp, ev.resource_id, ev.resource_kind,
          "", "", "", "", "", ev.duration) for ev in dataset.observed),
        ((TABLE_SUBMISSION, ids[ev.learner], ev.timestamp, "", "", ev.problem_id,
          "1" if ev.correct else "0", ev.assignment_kind, "", "", "") for ev in dataset.submissions),
        ((TABLE_COLLABORATION, ids[ev.learner], ev.timestamp, "", "", "", "", "", ev.kind,
          ev.text_length, "") for ev in dataset.collaborations),
    ))


def _dump_row(cells: list[str]) -> tuple[str, tuple]:
    table, lid, ts, rid, rkind, pid, correct, akind, ckind, length, duration = cells
    if table == TABLE_OBSERVED:
        return table, (lid, int(ts), rid, rkind, int(duration))
    if table == TABLE_SUBMISSION:
        return table, (lid, int(ts), pid, correct == "1", akind)
    if table == TABLE_COLLABORATION:
        return table, (lid, int(ts), ckind, int(length))
    raise ValueError(f"unknown table {table!r} in dump")


def load_dump(path: str | Path, calendar: CourseCalendar) -> CourseDataset:
    """Reload a dataset dump produced by dump_dataset (durations included)."""
    rows: dict[str, list[tuple]] = {t: [] for t in TABLES}
    for table, record in read_table(path, DUMP_COLUMNS, _dump_row):
        rows[table].append(record)
    total = sum(len(table) for table in rows.values())
    return _build_dataset(calendar, rows, IngestStats(total=total, accepted=total))


def dump_calendar(calendar: CourseCalendar, path: str | Path) -> None:
    """Write the canonical calendar copy kept alongside pipeline outputs."""
    rows = [f"{calendar.course_start}\t{calendar.num_weeks}"]
    for pid in sorted(calendar.problem_meta):
        m = calendar.problem_meta[pid]
        rows.append(f"{pid}\t{m.assignment_kind}\t{m.week_assigned}\t{m.due_timestamp}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
