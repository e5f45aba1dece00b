"""Stability-selection feature importance and its l1 machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import l1_logistic_reference

from stopout.cohorts import WIKI
from stopout.dataset_builder import ProblemSpec, column_names, normalize
from stopout.errors import DataError, InsufficientDataError
from stopout.evaluator import STATUS_DEGENERATE, STATUS_INSUFFICIENT, STATUS_OK
from stopout.featurizer import FEATURE_IDS, NUM_FEATURES, FeatureMatrix
from stopout.importance import (
    IMPORTANCE_COLUMNS,
    ImportanceReport,
    ProblemImportance,
    calibrate_lambda,
    combine_problems,
    export_importance,
    l1_logistic,
    problem_importance,
    run_importance,
    soft_threshold,
    stability_select,
)
from stopout.logistic_model import predict_proba, sigmoid, train
from stopout.tsv import read_table

LAG1_COLUMNS = column_names(1)

# planted stopout hazard never involves the collaboration features
COLLABORATION_FEATURES = {"x3", "x4", "x5", "x14", "x201"}


def planted_instance(seed: int, n: int = 200) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, NUM_FEATURES))
    z = 1.5 * X[:, 0] - 1.2 * X[:, 5] + 0.8 * X[:, 10]
    y = (rng.random(n) < 1 / (1 + np.exp(-z))).astype(float)
    return X, y


def noise_feature_matrix(seed: int, num_learners: int = 500, num_weeks: int = 14) -> FeatureMatrix:
    """Random features, random stopout: no real signal anywhere."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(num_learners, num_weeks, NUM_FEATURES))
    stopout = rng.integers(2, num_weeks + 2, size=num_learners)
    labels = np.zeros((num_learners, num_weeks), dtype=np.int8)
    for w in range(1, num_weeks + 1):
        labels[:, w - 1] = (stopout > w).astype(np.int8)
    return FeatureMatrix(
        learners=[f"L{i:04d}" for i in range(num_learners)],
        num_weeks=num_weeks,
        values=values,
        labels=labels,
        stopout_week=stopout,
    )


# ---------------------------------------------------------------------------
# l1 pieces

def test_soft_threshold():
    v = np.array([3.0, -2.0, 0.5, 0.0])
    assert soft_threshold(v, np.full(4, 1.0)).tolist() == [2.0, -1.0, 0.0, 0.0]
    per_coord = soft_threshold(v, np.array([0.0, 3.0, 0.25, 1.0]))
    assert per_coord.tolist() == [3.0, 0.0, 0.25, 0.0]


def test_l1_heavy_penalty_keeps_only_intercept():
    X, y = planted_instance(1)
    beta = l1_logistic(X, y, lam=10.0)
    assert np.all(beta[1:] == 0.0)
    assert sigmoid(np.array([beta[0]]))[0] == pytest.approx(y.mean(), abs=1e-4)


def test_l1_without_penalty_matches_smooth_trainer():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 3))
    z = X @ np.array([1.0, -1.5, 0.0])
    y = (rng.random(80) < 1 / (1 + np.exp(-z))).astype(float)
    beta = l1_logistic(X, y, lam=0.0, tol=1e-10, max_iter=20000)
    smooth = train(X, y)
    assert smooth.converged
    p_l1 = sigmoid(beta[0] + X @ beta[1:])
    p_irls = predict_proba(smooth, X)
    assert p_l1 == pytest.approx(p_irls, abs=1e-5)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_l1_logistic_is_bitwise_the_reference(seed, weighted):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 40)), int(rng.integers(1, 7))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 4.0, size=d)
    y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
    lam = float(10.0 ** rng.uniform(-4.0, 0.0))
    weights = rng.uniform(0.5, 1.0, size=d) if weighted else None
    max_iter = int(rng.integers(1, 400))
    ours = l1_logistic(X, y, lam, weights=weights, max_iter=max_iter)
    assert np.array_equal(ours, l1_logistic_reference(X, y, lam, weights=weights, max_iter=max_iter))


def test_calibrated_lambda_hits_target_support():
    for seed in (4000, 4001):
        X, y = planted_instance(seed)
        Xn, _, _, _ = normalize(X)
        lam = calibrate_lambda(Xn, y, LAG1_COLUMNS)
        beta = l1_logistic(Xn, y, lam)
        support = {
            col.split("_", 1)[1]
            for j, col in enumerate(LAG1_COLUMNS)
            if abs(beta[j + 1]) > 1e-6
        }
        assert len(support) == 8


def test_calibrate_lambda_rejects_constant_labels():
    X, _ = planted_instance(2)
    with pytest.raises(DataError, match="constant labels"):
        calibrate_lambda(normalize(X)[0], np.ones(X.shape[0]), LAG1_COLUMNS)


# ---------------------------------------------------------------------------
# stability selection

def test_degenerate_parameters_reduce_to_single_fit():
    X, y = planted_instance(77, n=60)
    lam = 0.03
    res = stability_select(
        X, y, LAG1_COLUMNS, np.random.default_rng(0),
        subsamples=1, fraction=1.0, weight_floor=1.0, lam=lam,
    )
    order = np.lexsort(np.vstack([X.T, y[None, :]]))  # the canonical row order
    Xn, _, _, _ = normalize(X[order])
    beta = l1_logistic(Xn, y[order], lam)
    assert np.array_equal(res.column_freq, (np.abs(beta[1:]) > 1e-6).astype(float))
    assert res.lam == lam and res.subsamples == 1


def test_frequencies_ignore_row_order():
    X, y = planted_instance(3, n=120)
    a = stability_select(X, y, LAG1_COLUMNS, np.random.default_rng(9), subsamples=40)
    perm = np.random.default_rng(1).permutation(y.size)
    b = stability_select(X[perm], y[perm], LAG1_COLUMNS, np.random.default_rng(9), subsamples=40)
    assert np.array_equal(a.column_freq, b.column_freq)
    assert a.base_freq == b.base_freq
    assert a.lam == b.lam


def test_duplicating_a_column_leaves_unrelated_features_alone():
    # paired master seeds; 0.2 covers Monte Carlo drift at 200 subsamples
    # (worst observed increase over 4 calibration seeds was 0.125)
    rng = np.random.default_rng(3000)
    X = rng.normal(size=(200, NUM_FEATURES))
    z = 1.5 * X[:, 0] - 1.2 * X[:, 5]
    y = (rng.random(200) < 1 / (1 + np.exp(-z))).astype(float)
    base = stability_select(X, y, LAG1_COLUMNS, np.random.default_rng(0), subsamples=200)
    dup = stability_select(
        np.hstack([X, X[:, [0]]]),
        y,
        LAG1_COLUMNS + ["w2_x2"],
        np.random.default_rng(0),
        subsamples=200,
    )
    for fid in base.base_freq:
        if fid != "x2":
            assert dup.base_freq[fid] - base.base_freq[fid] <= 0.2, fid


def test_base_score_is_max_over_lag_copies():
    X, y = planted_instance(6, n=90)
    doubled = np.hstack([X, np.zeros_like(X)])  # week-2 copies carry nothing
    cols = column_names(2)
    res = stability_select(doubled, y, cols, np.random.default_rng(2), subsamples=20)
    for j, col in enumerate(cols):
        fid = col.split("_", 1)[1]
        assert res.base_freq[fid] >= res.column_freq[j]
    assert set(res.base_freq) == set(FEATURE_IDS)


# ---------------------------------------------------------------------------
# run_importance

def test_planted_course_puts_driver_features_on_top(small_course):
    report = run_importance(
        small_course.matrix, [ProblemSpec(lead=1, lag=2)], seed=5, subsamples=200
    )
    top3 = [fid for fid, _ in report.ranked()[:3]]
    assert set(top3) & COLLABORATION_FEATURES == set()


def test_pure_noise_frequencies_stay_diluted():
    # No-signal control at default parameters over the default problem trio.
    # Monte Carlo over data seeds 2000..2004 put the max mean frequency in
    # [0.79, 0.93]; this fixed seed lands at 0.863 and reruns bit-identically.
    matrix = noise_feature_matrix(2000)
    trio = [ProblemSpec(13, 1), ProblemSpec(3, 6), ProblemSpec(6, 4)]
    report = run_importance(matrix, trio, seed=0, subsamples=200)
    assert max(report.base_freq.values()) <= 0.9


def test_report_covers_all_features_within_bounds(small_course):
    report = run_importance(
        small_course.matrix, [ProblemSpec(lead=1, lag=1)], seed=3, subsamples=25
    )
    assert set(report.base_freq) == set(FEATURE_IDS)
    assert all(0.0 <= v <= 1.0 for v in report.base_freq.values())
    assert report.statuses == [("all", 1, 1, STATUS_OK)]
    assert len(report.lams) == 1


def test_run_importance_is_seed_deterministic(small_course):
    a = run_importance(small_course.matrix, [ProblemSpec(1, 1)], seed=6, subsamples=20)
    b = run_importance(small_course.matrix, [ProblemSpec(1, 1)], seed=6, subsamples=20)
    assert a.base_freq == b.base_freq and a.lams == b.lams


def test_statuses_are_typed_per_problem():
    # 30 learners, three weeks: week-2 persistence is 29 vs 1 (degenerate),
    # week-3 persistence is 20 vs 10 (usable)
    rng = np.random.default_rng(12)
    stopout = np.array([4] * 20 + [3] * 9 + [2])
    labels = np.zeros((30, 3), dtype=np.int8)
    for w in range(1, 4):
        labels[:, w - 1] = (stopout > w).astype(np.int8)
    matrix = FeatureMatrix(
        learners=[f"L{i:02d}" for i in range(30)],
        num_weeks=3,
        values=rng.normal(size=(30, 3, NUM_FEATURES)),
        labels=labels,
        stopout_week=stopout,
    )
    assignments = {lid: WIKI for lid in matrix.learners[:3]}
    report = run_importance(
        matrix,
        [ProblemSpec(1, 1), ProblemSpec(2, 1), ProblemSpec(1, 1, cohort=WIKI)],
        assignments=assignments,
        seed=0,
        subsamples=10,
    )
    assert report.statuses == [
        ("all", 1, 1, STATUS_DEGENERATE),
        ("all", 2, 1, STATUS_OK),
        (WIKI, 1, 1, STATUS_INSUFFICIENT),
    ]
    assert report.cohort == "mixed"
    assert len(report.lams) == 1


PROBLEMS = [ProblemSpec(1, 1), ProblemSpec(2, 1), ProblemSpec(1, 2), ProblemSpec(1, 1, cohort=WIKI),
            ProblemSpec(7, 1)]


@settings(max_examples=6)
@given(st.permutations(PROBLEMS), st.integers(1, len(PROBLEMS)), st.integers(0, 3))
def test_run_importance_is_its_problems_combined_in_spec_order(small_course, order, k, seed):
    # each problem seeds itself from its own key, so one computed alone (as a
    # run-all pool task is) is the same as one computed within a list
    specs = order[:k]
    kwargs = {"seed": seed, "subsamples": 4, "min_rows": 10}
    matrix, assignments = small_course.matrix, small_course.assignments
    parts = [problem_importance(matrix, spec, assignments, **kwargs) for spec in specs]
    if not any(p.status == STATUS_OK for p in parts):
        with pytest.raises(InsufficientDataError):
            run_importance(matrix, specs, assignments, **kwargs)
        return
    report = run_importance(matrix, specs, assignments, **kwargs)
    assert report == combine_problems(parts)
    assert report.statuses == [(p.cohort, p.lead, p.lag, p.status) for p in parts]


def test_combine_averages_only_the_problems_that_ran():
    ran = [ProblemImportance("all", 1, 1, STATUS_OK, lam=0.5, base_freq={"x2": 0.25, "x3": 1.0}),
           ProblemImportance("all", 2, 1, STATUS_DEGENERATE),
           ProblemImportance("all", 1, 2, STATUS_OK, lam=0.25, base_freq={"x2": 0.75})]
    report = combine_problems(ran)
    assert report.cohort == "all" and report.lams == [0.5, 0.25]
    assert report.base_freq["x2"] == 0.5 and report.base_freq["x3"] == 0.5
    assert report.base_freq["x9"] == 0.0
    assert report.statuses[1] == ("all", 2, 1, STATUS_DEGENERATE)


def test_no_usable_problem_raises(fixture_matrix):
    with pytest.raises(InsufficientDataError, match="enough usable rows"):
        run_importance(fixture_matrix, [ProblemSpec(1, 1)], seed=0)


# ---------------------------------------------------------------------------
# report and export

def test_ranked_breaks_ties_in_feature_order():
    report = ImportanceReport(
        cohort="all", statuses=[], base_freq={"x9": 0.5, "x2": 0.5, "x210": 0.9},
    )
    assert report.ranked() == [("x210", 0.9), ("x2", 0.5), ("x9", 0.5)]


def test_export_round_trip(tmp_path):
    a = ImportanceReport(cohort="all", statuses=[], base_freq={"x2": 1 / 3, "x9": 0.25})
    b = ImportanceReport(cohort=WIKI, statuses=[], base_freq={"x2": 0.75})
    path = tmp_path / "importance.tsv"
    export_importance([a, b], path)
    loaded = {(cohort, fid): float(freq) for cohort, fid, freq in read_table(path, IMPORTANCE_COLUMNS)}
    assert loaded == {("all", "x2"): 1 / 3, ("all", "x9"): 0.25, (WIKI, "x2"): 0.75}
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "cohort\tfeature_id\tfrequency"
    assert lines[1].startswith("all\tx2")  # ranked within each cohort

