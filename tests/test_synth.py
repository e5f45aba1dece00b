"""Tests for the synthetic course generator.

The generator has to produce files the rest of the pipeline accepts without
a single reject, and its ground-truth sidecar has to agree exactly with what
the feature stage reconstructs from the events.
"""

from __future__ import annotations

import collections
import hashlib
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import drawn, synth_config
from hypothesis import given
from hypothesis import strategies as st
from oracles import synth_reference

from stopout.cli import main
from stopout.cohorts import COHORTS, assign_cohorts
from stopout.errors import ConfigError
from stopout.event_store import ingest
from stopout.featurizer import build_feature_matrix
from stopout.synth import (
    COHORT_MIX,
    COURSE_START,
    DUE_OFFSET,
    HW_PER_WEEK,
    LABS_PER_WEEK,
    TRUTH_COLUMNS,
    TruthRow,
    build_calendar,
    generate,
    sample_stopout,
    write_course,
)
from stopout.tsv import read_table

WEEK = 7 * 86400


def read_truth(path):
    return [
        TruthRow(lid, cohort, int(week), float(volume), float(timeliness), float(grades))
        for lid, cohort, week, volume, timeliness, grades in read_table(path, TRUTH_COLUMNS)
    ]


# ---------------------------------------------------------------------------
# configuration validation


def _rejected(kwargs, message, index):
    # an explicit index, so each case keeps its test id when other cases go
    return pytest.param(kwargs, message, id=f"kwargs{index}-{message}")


@pytest.mark.parametrize(
    "kwargs,message",
    [
        _rejected({"num_learners": -1}, "num_learners must be >= 0", 0),
        _rejected({"num_weeks": 1}, "num_weeks must be >= 2", 1),
        _rejected({"volume_slope": math.nan}, "volume_slope must be finite", 12),
        _rejected({"timeliness_slope": math.inf}, "timeliness_slope must be finite", 13),
        _rejected({"grades_slope": -math.inf}, "grades_slope must be finite", 14),
        _rejected({"hazard_noise": -1.0}, "hazard_noise must be finite and >= 0", 15),
        _rejected({"hazard_noise": math.inf}, "hazard_noise must be finite and >= 0", 16),
        _rejected({"hazard_noise": math.nan}, "hazard_noise must be finite and >= 0", 17),
        _rejected({"seed": -1}, "seed must be >= 0, got -1", 18),  # numpy's default_rng raised on it
    ],
)
def test_config_rejects_bad_values(kwargs, message):
    base = {"num_learners": 10, "num_weeks": 4}
    base.update(kwargs)
    with pytest.raises(ConfigError, match=message):
        synth_config(**base)


def test_config_accepts_boundary_values():
    synth_config(num_learners=0, num_weeks=2, hazard_noise=0.0)
    synth_config(num_learners=1, num_weeks=2)


@pytest.mark.parametrize("key,value", [
    ("synth_hazard_noise", "-1"), ("synth_hazard_noise", "inf"), ("synth_volume_slope", "nan"),
])
def test_synth_rejects_a_bad_config_value_with_exit_2(tmp_path, capsys, key, value):
    path = tmp_path / "synth.cfg"
    path.write_text(f"{key}={value}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", "--out", str(out), "--learners", "50", "--weeks", "4", "--config", str(path)]) == 2
    assert f"config error: {key.removeprefix('synth_')} must be finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# calendar layout


def test_calendar_one_due_date_per_week():
    cfg = synth_config(num_learners=1, num_weeks=4)
    cal = build_calendar(cfg)
    assert cal.num_weeks == 4
    assert cal.course_start == COURSE_START
    assert len(cal.problem_meta) == 4 * (HW_PER_WEEK + LABS_PER_WEEK) == 24
    assert sorted(cal.problem_meta)[:7] == ["w01_hw1", "w01_hw2", "w01_hw3", "w01_hw4", "w01_lab1", "w01_lab2", "w02_hw1"]
    for pid, meta in cal.problem_meta.items():
        week = int(pid[1:3])
        assert meta.week_assigned == week
        # every problem is due six hours before its week closes
        assert meta.due_timestamp == cal.course_start + week * WEEK - DUE_OFFSET
        assert meta.assignment_kind == ("homework" if "_hw" in pid else "lab")


# ---------------------------------------------------------------------------
# stopout sampling


def test_zero_slope_stopout_is_uniform():
    # with flat drivers and no hazard noise the chain reduces to a uniform
    # draw over weeks 2..W+1; check a 6000-draw histogram at W=6
    cfg = synth_config(
        num_learners=1,
        num_weeks=6,
        volume_slope=0.0,
        timeliness_slope=0.0,
        grades_slope=0.0,
        hazard_noise=0.0,
    )
    rng = np.random.default_rng(0)
    counts = collections.Counter(
        sample_stopout(cfg, 0.0, 0.0, 0.0, rng) for _ in range(6000)
    )
    assert sorted(counts) == [2, 3, 4, 5, 6, 7]
    # expected 1000 per bucket, binomial sd ~29; 120 is a 4-sigma envelope
    assert max(abs(n - 1000) for n in counts.values()) < 120


def test_stopout_stays_in_range():
    cfg = synth_config(num_learners=1, num_weeks=5)
    rng = np.random.default_rng(3)
    for _ in range(500):
        s = sample_stopout(cfg, *rng.uniform(-1.0, 1.0, size=3), rng)
        assert 2 <= s <= cfg.num_weeks + 1


# ---------------------------------------------------------------------------
# generated courses


def test_zero_learners_yields_header_only_files(tmp_path):
    course = drawn(synth_config(num_learners=0, num_weeks=3, seed=1))
    assert course.events == [] and course.truth == []
    events_path = tmp_path / "events.tsv"
    calendar_path = tmp_path / "calendar.tsv"
    truth_path = tmp_path / "truth.tsv"
    write_course(course.course, tmp_path)
    assert len(events_path.read_text(encoding="utf-8").splitlines()) == 1
    assert len(truth_path.read_text(encoding="utf-8").splitlines()) == 1
    # the empty course still flows through ingest and featurization
    dataset = ingest([events_path], calendar_path)
    assert dataset.stats.accepted == 0 and dataset.stats.rejected == 0
    matrix, histogram = build_feature_matrix(dataset)
    assert matrix.values.shape == (0, 3, 27)
    assert histogram.tolist() == [0, 0, 0, 0, 0]
    assert assign_cohorts(dataset) == {}
    assert read_truth(truth_path) == []


def test_same_seed_reproduces_files_byte_for_byte(tmp_path):
    paths = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        write_course(generate(synth_config(num_learners=60, num_weeks=4, seed=21)), out)
        paths.append(((out / "events.tsv").read_bytes(), (out / "truth.tsv").read_bytes()))
    assert paths[0] == paths[1]


def test_different_seed_changes_output():
    a = drawn(synth_config(num_learners=60, num_weeks=4, seed=21))
    b = drawn(synth_config(num_learners=60, num_weeks=4, seed=22))
    assert a.events != b.events


def test_learner_ids_are_zero_padded_and_distinct():
    course = drawn(synth_config(num_learners=30, num_weeks=3, seed=2))
    ids = [t.learner_id for t in course.truth]
    assert len(set(ids)) == 30
    assert all(i.startswith("L") and len(i) == 6 and i[1:].isdigit() for i in ids)
    assert ids == sorted(ids)


def test_generated_events_ingest_without_rejects(small_course):
    stats = small_course.dataset.stats
    assert stats.rejected == 0
    assert stats.clamped == 0
    assert stats.accepted == len(small_course.course.events)
    assert len(small_course.dataset.learners) == small_course.config.num_learners


def test_events_stay_inside_the_course_window(small_course):
    cal = small_course.course.calendar
    end = cal.course_start + cal.num_weeks * WEEK
    for line in small_course.course.events:
        assert cal.course_start <= int(line.split("\t")[2]) < end


def test_truth_stopout_replays_through_the_pipeline(small_course):
    # the featurizer's stopout reconstruction must agree with the generator's
    # intent for every learner, and every learner must participate
    matrix = small_course.matrix
    truth = small_course.course.truth
    assert matrix.learners == [t.learner_id for t in truth]
    for i, row in enumerate(truth):
        assert matrix.stopout_week[i] == row.stopout_week


def test_truth_cohorts_replay_through_the_pipeline(small_course):
    truth = {t.learner_id: t.cohort for t in small_course.course.truth}
    assert small_course.assignments == truth


def test_cohort_mix_is_respected(small_course):
    counts = collections.Counter(t.cohort for t in small_course.course.truth)
    n = small_course.config.num_learners
    for cohort, share in zip(COHORTS, COHORT_MIX):
        # multinomial draw: allow a generous 4-sigma band around the mean
        sd = (n * share * (1 - share)) ** 0.5
        assert abs(counts.get(cohort, 0) - n * share) < 4 * sd + 1


def test_truth_file_round_trips(small_course):
    assert read_truth(small_course.truth_path) == small_course.course.truth


def test_load_truth_skips_blank_lines(tmp_path):
    course = drawn(synth_config(num_learners=3, num_weeks=2, seed=5))
    path = tmp_path / "truth.tsv"
    write_course(course.course, tmp_path)
    path.write_text(path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
    assert read_truth(path) == course.truth


# ---------------------------------------------------------------------------
# pinned output bytes

# sha256 of each file `stopout synth` writes, computed with numpy 2.4.6; a
# numpy release that changes default_rng's streams changes these as well
GOLDEN = {
    (400, 6, 7): {
        "events.tsv": "e4b7ef973409baec2153b998cf720d08f7f107c2e32fd3d2dc1ba37965d25515",
        "truth.tsv": "cdda158d9646c490f967a068aeeffd8e9d2a5144697d1a7d7eb7121b14d292b0",
        "calendar.tsv": "0760f319d49b5dbe05d58e2870bcf062b6908ac9a6077a42e2afab8f54b3c354",
    },
    (1500, 14, 1): {
        "events.tsv": "711e765e02c4f8dd004437deda2ce0ba7d12664ef28fdffddb338988b3432ba1",
        "truth.tsv": "4ca9cc5dc837850e2bcb2c1f0bb029990de896d018085567a8fff5947fddb3ca",
        "calendar.tsv": "cec22a7171b4c8a1931b2b8893f9e38bcc4a519fcd1946aa4b2d301769fb995a",
    },
}


@pytest.mark.parametrize("learners,weeks,seed", sorted(GOLDEN))
def test_synth_files_match_their_pinned_hashes(tmp_path, capsys, learners, weeks, seed):
    out = tmp_path / "course"
    assert main(["synth", "--out", str(out), "--learners", str(learners),
                 "--weeks", str(weeks), "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == f"synth: {learners} learners, {weeks} weeks -> {out}\n"
    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[learners, weeks, seed]}
    assert hashes == GOLDEN[learners, weeks, seed]


# ---------------------------------------------------------------------------
# streaming writer against the whole-course reference


slopes = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@given(
    learners=st.integers(0, 40),
    weeks=st.integers(2, 6),
    seed=st.integers(0, 2**64 - 1),
    hazard_noise=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    volume_slope=slopes,
    timeliness_slope=slopes,
    grades_slope=slopes,
)
def test_streamed_course_equals_the_reference(learners, weeks, **kwargs):
    config = synth_config(num_learners=learners, num_weeks=weeks, **kwargs)
    with tempfile.TemporaryDirectory() as tmp:
        streamed, reference = Path(tmp, "streamed"), Path(tmp, "reference")
        streamed.mkdir()
        reference.mkdir()
        write_course(generate(config), streamed)
        synth_reference(config, reference / "events.tsv", reference / "truth.tsv")
        for name in ("events.tsv", "truth.tsv"):
            assert (streamed / name).read_bytes() == (reference / name).read_bytes(), name


def written_peak(root: Path, learners: int) -> int:
    """The most memory writing a 2-week course held at once beyond what was held before."""
    out = root / str(learners)
    out.mkdir()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_course(generate(synth_config(num_learners=learners, num_weeks=2, seed=1)), out)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_writing_a_course_holds_one_learner_at_a_time(tmp_path):
    written_peak(tmp_path, 5)  # first-call allocations (numpy's, the interpreter's) out of the way
    assert written_peak(tmp_path, 800) < 1.5 * written_peak(tmp_path, 200)
