"""Synthetic course generator with known per-learner stopout ground truth.

Each learner draws three latent drivers (volume, timeliness, grades) uniform
on [-1, 1]. A weekly hazard decides when they stop out: with all slopes and
noise at zero the baseline makes every stopout week from 2 to num_weeks+1
equally likely, and negative slopes let strong drivers delay stopout. Active
weeks always contain at least one submission, so the ingested data replays
the planted stopout week exactly.

Learners are drawn one at a time and written as text as they are drawn, so
memory stays flat however many learners a course has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .cohorts import COHORTS, FORUM, FULL, PASSIVE, WIKI
from .errors import ConfigError
from .event_store import (
    EVENT_COLUMNS,
    TABLE_COLLABORATION,
    TABLE_OBSERVED,
    TABLE_SUBMISSION,
    WEEK_SECONDS,
    CourseCalendar,
    ProblemMeta,
    dump_calendar,
)

DUE_OFFSET = 6 * 3600  # assignments close six hours before the week ends

# The course design every synthetic course shares. A fading stopout's last
# two active weeks scale engagement by FADE_RAMP, then FADE_DEPTH; persisters
# never fade, and a 1-FADE_PROB share of stopouts quit with no warning at all.
COURSE_START = 1_600_000_000
HW_PER_WEEK = 4
LABS_PER_WEEK = 2
FADE_DEPTH = 0.5
FADE_RAMP = 0.8
FADE_PROB = 0.7
COHORT_MIX = (0.55, 0.25, 0.10, 0.10)  # passive, forum, wiki, fully-collaborative shares


@dataclass(frozen=True, kw_only=True)
class SynthConfig:
    num_learners: int
    num_weeks: int
    seed: int
    volume_slope: float
    timeliness_slope: float
    grades_slope: float
    hazard_noise: float

    def __post_init__(self) -> None:
        if self.num_learners < 0:
            raise ConfigError(f"num_learners must be >= 0, got {self.num_learners}")
        if self.num_weeks < 2:
            raise ConfigError(f"num_weeks must be >= 2, got {self.num_weeks}")
        if self.seed < 0:  # numpy's default_rng takes no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("volume_slope", "timeliness_slope", "grades_slope"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.hazard_noise < math.inf:
            raise ConfigError(f"hazard_noise must be finite and >= 0, got {self.hazard_noise}")


@dataclass(frozen=True, slots=True)
class TruthRow:
    learner_id: str
    cohort: str
    stopout_week: int
    volume: float
    timeliness: float
    grades: float


@dataclass
class SynthCourse:
    calendar: CourseCalendar
    # each learner's truth row and event lines, in learner order; generate()
    # gives an iterator that draws each learner as it is read
    learners: Iterable[tuple[TruthRow, list[str]]]


def build_calendar(config: SynthConfig) -> CourseCalendar:
    meta: dict[str, ProblemMeta] = {}
    for w in range(1, config.num_weeks + 1):
        due = COURSE_START + w * WEEK_SECONDS - DUE_OFFSET
        for j in range(1, HW_PER_WEEK + 1):
            meta[f"w{w:02d}_hw{j}"] = ProblemMeta("homework", w, due)
        for j in range(1, LABS_PER_WEEK + 1):
            meta[f"w{w:02d}_lab{j}"] = ProblemMeta("lab", w, due)
    return CourseCalendar(course_start=COURSE_START, num_weeks=config.num_weeks, problem_meta=meta)


def _logit(q: float) -> float:
    return math.log(q / (1.0 - q))


def sample_stopout(
    config: SynthConfig,
    volume: float,
    timeliness: float,
    grades: float,
    rng: np.random.Generator,
) -> int:
    """Draw a stopout week from the latent-driver hazard chain."""
    W = config.num_weeks
    shift = (
        config.volume_slope * volume
        + config.timeliness_slope * timeliness
        + config.grades_slope * grades
    )
    for s in range(2, W + 1):
        base = _logit(1.0 / (W + 2 - s))
        noise = rng.normal(0.0, config.hazard_noise) if config.hazard_noise > 0 else 0.0
        z = base + shift + noise
        hazard = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        if rng.random() < hazard:
            return s
    return W + 1


def generate(config: SynthConfig) -> SynthCourse:
    """A course whose learners are drawn as they are read, from one RNG stream
    seeded by config.seed, so the course is reproducible. Each event line is in
    EVENT_COLUMNS order and ends in a newline."""
    calendar = build_calendar(config)
    return SynthCourse(calendar, _draw_learners(config, calendar))


def _draw_learners(config: SynthConfig, calendar: CourseCalendar) -> Iterator[tuple[TruthRow, list[str]]]:
    rng = np.random.default_rng(config.seed)
    week_problems: dict[int, list[tuple[str, str]]] = {
        w: sorted(
            (pid, m.assignment_kind)
            for pid, m in calendar.problem_meta.items()
            if m.week_assigned == w
        )
        for w in range(1, config.num_weeks + 1)
    }
    digits = max(5, len(str(config.num_learners)))

    for i in range(config.num_learners):
        lid = f"L{i:0{digits}d}"
        volume, timeliness, grades = rng.uniform(-1.0, 1.0, size=3).tolist()
        cohort = COHORTS[int(rng.choice(4, p=COHORT_MIX))]
        stopout = sample_stopout(config, volume, timeliness, grades, rng)
        truth = TruthRow(lid, cohort, stopout, volume, timeliness, grades)
        fades = bool(rng.random() < FADE_PROB)
        sub = f"{TABLE_SUBMISSION}\t{lid}\t"
        obs = f"{TABLE_OBSERVED}\t{lid}\t"
        collab = f"{TABLE_COLLABORATION}\t{lid}\t"
        lines: list[str] = []

        for w in range(1, stopout):
            week_s = COURSE_START + (w - 1) * WEEK_SECONDS
            problems = week_problems[w]
            due = calendar.problem_meta[problems[0][0]].due_timestamp
            max_margin = due - week_s

            # learners who are about to stop out disengage first: the last
            # active week (and, milder, the one before) shrinks their volume,
            # deadline margin, and correctness
            fade = 1.0
            if fades and stopout <= config.num_weeks:
                if w == stopout - 1:
                    fade = FADE_DEPTH
                elif w == stopout - 2:
                    fade = FADE_RAMP
            p_correct = 1.0 / (1.0 + math.exp(-(0.9 + 1.6 * grades - 1.5 * (1.0 - fade))))

            # submissions: count rides the volume driver, earliness rides
            # timeliness, correctness rides grades; min(max()) clips a scalar
            # as np.clip does, at a fraction of its cost
            k = min(max(round((3.0 + 1.8 * volume) * fade + rng.normal(0.0, 0.6)), 1), len(problems))
            picked = rng.choice(len(problems), size=k, replace=False)
            for pi in sorted(picked.tolist()):
                pid, kind = problems[pi]
                frac = (0.35 + 0.30 * timeliness) * fade * rng.uniform(0.5, 1.0)
                t_final = due - int(min(max(frac * max_margin, 60), max_margin - 60))
                correct = int(rng.random() < p_correct)
                retries = int(rng.poisson(0.5 + 0.4 * max(0.0, -grades)))
                for r in range(retries, 0, -1):
                    t_retry = max(week_s, t_final - r * int(rng.integers(300, 7200)))
                    lines.append(f"{sub}{t_retry}\t\t\t{pid}\t0\t{kind}\t\t\n")
                lines.append(f"{sub}{t_final}\t\t\t{pid}\t{correct}\t{kind}\t\t\n")

            n_obs = min(max(round((4.0 + 3.0 * volume) * fade + rng.normal(0.0, 0.8)), 1), 12)
            ts_list = sorted(rng.integers(week_s, week_s + WEEK_SECONDS, size=n_obs).tolist())
            for j, ts in enumerate(ts_list):
                kind = ("lecture", "lecture", "book", "wiki", "forum")[int(rng.integers(0, 5))]
                lines.append(f"{obs}{ts}\t{kind}_{w:02d}_{j}\t{kind}\t\t\t\t\t\n")

            wants_forum = cohort in (FORUM, FULL)
            wants_wiki = cohort in (WIKI, FULL)
            if wants_forum and (w == 1 or rng.random() < 0.3):
                ts = int(rng.integers(week_s, week_s + WEEK_SECONDS))
                lines.append(f"{collab}{ts}\t\t\t\t\t\tforum_post\t{int(rng.integers(10, 400))}\n")
                if rng.random() < 0.4:
                    ts = int(rng.integers(week_s, week_s + WEEK_SECONDS))
                    lines.append(f"{collab}{ts}\t\t\t\t\t\tforum_response\t{int(rng.integers(5, 200))}\n")
            if wants_wiki and (w == 1 or rng.random() < 0.25):
                ts = int(rng.integers(week_s, week_s + WEEK_SECONDS))
                lines.append(f"{collab}{ts}\t\t\t\t\t\twiki_edit\t{int(rng.integers(20, 800))}\n")

        yield truth, lines


TRUTH_COLUMNS = ("learner_id", "cohort", "stopout_week", "volume", "timeliness", "grades")


def write_course(course: SynthCourse, out: str | Path) -> None:
    """Write events.tsv and truth.tsv under out a learner at a time, so a
    generated course holds one learner's lines at once, then calendar.tsv."""
    out = Path(out)
    with open(out / "events.tsv", "w", encoding="utf-8") as events, \
            open(out / "truth.tsv", "w", encoding="utf-8") as truth:
        events.write("\t".join(EVENT_COLUMNS) + "\n")
        truth.write("\t".join(TRUTH_COLUMNS) + "\n")
        for t, lines in course.learners:
            events.writelines(lines)
            truth.write(f"{t.learner_id}\t{t.cohort}\t{t.stopout_week}\t{t.volume}\t{t.timeliness}\t{t.grades}\n")
    dump_calendar(course.calendar, out / "calendar.tsv")
