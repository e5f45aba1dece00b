"""Release acceptance suite.

Each test carries an `acceptance` marker; the conftest hook prints one
PASS/FAIL line per criterion after the run. Tolerances and runtime budgets
are asserted inside the tests themselves.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import defaults, synth_config
from oracles import grid_mle_ll, pairwise_auc, penalized_gradient, read_manifest_reference
from test_evaluator import run_grid
from test_featurizer import ALICE_WEEK1

from stopout.cli import IMPORTANCE_KEYS, main
from stopout.dataset_builder import ProblemSpec, enumerate_problems, flatten
from stopout.evaluator import _roc_counts, _sweep_rates, roc_auc
from stopout.event_store import ingest
from stopout.featurizer import FEATURE_INDEX, build_feature_matrix
from stopout.importance import run_importance
from stopout.logistic_model import add_intercept, penalized_ll, train
from stopout.synth import SynthConfig, generate, write_course

COLLABORATION_FEATURES = {"x3", "x4", "x5", "x14", "x201"}


def _synth_course_files(root, learners: int, weeks: int, seed: int):
    out = root / f"course_{learners}x{weeks}_{seed}"
    rc = main(["synth", "--out", str(out), "--learners", str(learners),
               "--weeks", str(weeks), "--seed", str(seed)])
    assert rc == 0
    return out / "events.tsv", out / "calendar.tsv"


def _course_matrix(root, config: SynthConfig):
    out = root / f"course_{config.seed}"
    out.mkdir()
    write_course(generate(config), out)
    matrix, _ = build_feature_matrix(ingest([out / "events.tsv"], out / "calendar.tsv"))
    return matrix


def _run_all(events, calendar, out, config_path, extra=()):
    return main([
        "run-all", "--events", str(events), "--calendar", str(calendar),
        "--out", str(out), "--config", str(config_path), "--seed", "0", *extra,
    ])


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text("folds = 2\nimportance_subsamples = 25\n", encoding="utf-8")
    return path


@pytest.mark.acceptance("01 AUC: sweep, rank, and pairwise routes agree to 1e-9 on 1000 instances")
def test_auc_three_routes_agree():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = rng.integers(-5, 6, size=n).astype(np.float64)
        rank = roc_auc(y, scores)
        exact = pairwise_auc(scores, y)
        fpr, tpr = _sweep_rates(*_roc_counts(y, scores))
        sweep = float(np.trapezoid(tpr, fpr))
        assert abs(rank - float(exact)) <= 1e-9
        assert abs(sweep - float(exact)) <= 1e-9
    assert time.monotonic() - start < 10.0


@pytest.mark.acceptance("02 MLE: trainer log-likelihood within 1e-6 of a grid-refinement oracle on 50 instances")
def test_trainer_matches_grid_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    ridge = 1e-2
    for _ in range(50):
        n = int(rng.integers(8, 41))
        X = rng.normal(size=(n, 2))
        y = (X @ rng.normal(size=2) + 0.3 * rng.normal(size=n) > 0).astype(np.float64)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        model = train(X, y, ridge=ridge)
        X1 = add_intercept(X)
        ll = penalized_ll(X1 @ model.beta, 1.0 - 2.0 * y, model.beta, ridge)
        assert abs(ll - grid_mle_ll(X, y, ridge)) <= 1e-6
    assert time.monotonic() - start < 60.0


@pytest.mark.acceptance("03 gradient: analytic form matches central differences to 1e-5 at 100 points")
def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(6, 30))
        X1 = add_intercept(rng.normal(size=(n, 3)))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        ridge = float(rng.choice([0.0, 1e-4, 1e-2]))
        sign = 1.0 - 2.0 * y
        for _ in range(5):
            beta = rng.normal(scale=1.5, size=4)
            analytic = penalized_gradient(beta, X1, y, ridge)
            fd = np.empty_like(beta)
            for j in range(beta.size):
                h = 1e-6 * max(1.0, abs(beta[j]))
                up, down = beta.copy(), beta.copy()
                up[j] += h
                down[j] -= h
                fd[j] = (penalized_ll(X1 @ up, sign, up, ridge) - penalized_ll(X1 @ down, sign, down, ridge)) / (2 * h)
            assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-7)
            checked += 1
    assert checked == 100


@pytest.mark.acceptance("04 features: hand-computed vector reproduced exactly, identities hold on synthetic courses")
def test_feature_formulas_and_identities(fixture_matrix, small_course, planted_course):
    row = fixture_matrix.values[fixture_matrix.learners.index("alice"), 0]
    for fid, expected in ALICE_WEEK1.items():
        assert row[FEATURE_INDEX[fid]] == expected, fid

    for matrix in (fixture_matrix, small_course.matrix, planted_course.matrix):
        v = matrix.values
        x3, x4, x14 = (v[..., FEATURE_INDEX[f]] for f in ("x3", "x4", "x14"))
        x6, x7, x9 = (v[..., FEATURE_INDEX[f]] for f in ("x6", "x7", "x9"))
        assert np.array_equal(x14, x3 + x4)
        attempted = x6 > 0
        assert np.allclose(x9[attempted] * x6[attempted], x7[attempted], rtol=1e-12)
        assert np.all(x7[~attempted] == 0) and np.all(x9[~attempted] == 0)


@pytest.mark.acceptance("05 grid: 91 problems enumerated at 14 weeks, a full run attempts 364 cells")
def test_full_run_attempts_every_cell(tmp_path, fast_config):
    specs = enumerate_problems(14)
    assert len(specs) == 91
    assert len({(s.lead, s.lag) for s in specs}) == 91
    events, calendar = _synth_course_files(tmp_path, 120, 14, 11)
    out = tmp_path / "full"
    assert _run_all(events, calendar, out, fast_config) == 0
    man = read_manifest_reference(out / "manifest.tsv")
    assert len(man["cell"]) == 364
    assert {row[0] for row in man["cell"]} == {
        "passive_collaborator", "forum_contributor", "wiki_contributor", "fully_collaborative",
    }


@pytest.mark.acceptance("06 exclusion: zero design rows violate the stopout > lag rule, every cell checked")
def test_exclusion_rule_holds_in_every_cell(planted_course):
    matrix = planted_course.matrix
    stopout = {lid: int(matrix.stopout_week[i]) for i, lid in enumerate(matrix.learners)}
    for spec in enumerate_problems(matrix.num_weeks):
        X, y, learners = flatten(matrix, spec)
        assert all(stopout[lid] > spec.lag for lid in learners)
        assert len(learners) == int(np.sum(matrix.stopout_week > spec.lag))
        assert np.all(np.isfinite(X))
        assert y.size == len(learners)


@pytest.mark.acceptance("07 planted signal: diagonal mean AUC >= 0.85, lag helps on average, shuffled control at chance")
def test_planted_signal_reproduction(planted_course):
    start = time.monotonic()
    matrix = planted_course.matrix
    specs = [ProblemSpec(lead=1, lag=lag) for lag in range(1, matrix.num_weeks)]
    specs += [ProblemSpec(lead=pw - 1, lag=1) for pw in range(8, matrix.num_weeks + 1)]
    grid = run_grid(matrix, seed=0, folds=2, specs=specs)
    cell = {(c.lead, c.lag): c for c in grid.cells}

    diagonal = [cell[1, lag].test_auc for lag in range(1, matrix.num_weeks)]
    assert all(a is not None for a in diagonal)
    assert float(np.mean(diagonal)) >= 0.85

    for pw in range(8, matrix.num_weeks + 1):
        shortest = cell[pw - 1, 1].test_auc
        longest = cell[1, pw - 1].test_auc
        # telescoped mean of successive lag differences at this predicted week
        assert (longest - shortest) / (pw - 2) >= -0.02

    shuffled = run_grid(matrix, seed=0, folds=2, shuffle_labels=True)
    control = [c.test_auc for c in shuffled.cells if c.test_auc is not None]
    assert len(control) == len(enumerate_problems(matrix.num_weeks))
    assert 0.45 <= float(np.mean(control)) <= 0.55

    elapsed = time.monotonic() - start + planted_course.build_seconds
    assert elapsed < 900.0


@pytest.mark.acceptance("08 importance: planted drivers take all top-3 slots in >= 9 of 10 master seeds")
def test_importance_recovers_planted_drivers(tmp_path):
    start = time.monotonic()
    hits = 0
    for master_seed in range(10):
        matrix = _course_matrix(tmp_path, synth_config(num_learners=800, num_weeks=8, seed=master_seed))
        report = run_importance(
            matrix, [ProblemSpec(lead=1, lag=2)],
            **defaults(*IMPORTANCE_KEYS, seed=master_seed, subsamples=200, target_support=8, min_rows=10),
        )
        top3 = {fid for fid, _ in report.ranked()[:3]}
        if not top3 & COLLABORATION_FEATURES:
            hits += 1
    assert hits >= 9
    assert time.monotonic() - start < 600.0


@pytest.mark.acceptance("09 determinism: two identical runs produce byte-identical outputs")
def test_identical_runs_are_byte_identical(tmp_path, fast_config):
    events, calendar = _synth_course_files(tmp_path, 200, 6, 17)
    first, second = tmp_path / "first", tmp_path / "second"
    assert _run_all(events, calendar, first, fast_config) == 0
    assert _run_all(events, calendar, second, fast_config) == 0
    names_first = {p.relative_to(first).as_posix() for p in first.rglob("*") if p.is_file()}
    names_second = {p.relative_to(second).as_posix() for p in second.rglob("*") if p.is_file()}
    assert names_first == names_second
    for rel in sorted(names_first):
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


@pytest.mark.acceptance("10 robustness: a 50-learner course yields typed cell statuses and never crashes")
def test_tiny_course_never_crashes(tmp_path, fast_config):
    events, calendar = _synth_course_files(tmp_path, 50, 14, 23)
    out = tmp_path / "tiny"
    assert _run_all(events, calendar, out, fast_config) == 0
    man = read_manifest_reference(out / "manifest.tsv")
    assert len(man["cell"]) == 364
    statuses = {row[3] for row in man["cell"]}
    assert statuses <= {"ok", "insufficient_data", "degenerate_labels"}
    assert "insufficient_data" in statuses
    for cohort in ("wiki_contributor", "fully_collaborative"):
        assert (out / f"grid_{cohort}.tsv").exists()
