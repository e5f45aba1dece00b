"""Stability-selection feature importance and its l1 machinery."""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import defaults
from oracles import calibrate_lambda_reference, l1_kkt_violation, l1_logistic_reference

from stopout import importance
from stopout.cli import IMPORTANCE_KEYS
from stopout.cohorts import WIKI, join_cohorts
from stopout.dataset_builder import ProblemSpec, column_names, normalize
from stopout.errors import DataError, DegenerateLabelsError, InsufficientDataError
from stopout.evaluator import STATUS_OK
from stopout.featurizer import FEATURE_IDS, FEATURE_INDEX, NUM_FEATURES, FeatureMatrix
from stopout.importance import (
    CALIBRATION_STEPS,
    IMPORTANCE_COLUMNS,
    PROBLEM_COLUMNS,
    STATUS_CONSTANT,
    ImportanceReport,
    L1Fit,
    ProblemImportance,
    _stratified_subsample,
    calibrate_lambda,
    combine_problems,
    export_importance,
    export_problems,
    l1_logistic,
    problem_importance,
    run_importance,
    soft_threshold,
    stability_select,
)
from stopout.logistic_model import add_intercept, predict_proba, sigmoid, train
from stopout.tsv import read_table

STATUS_INSUFFICIENT, STATUS_DEGENERATE = InsufficientDataError.status, DegenerateLabelsError.status
LAG1_COLUMNS = column_names(1)
# the settings stability_select takes
STABILITY_KEYS = ("importance_subsamples", "importance_fraction", "importance_weight_floor",
                  "importance_target_support")

# planted stopout hazard never involves the collaboration features
COLLABORATION_FEATURES = {"x3", "x4", "x5", "x14", "x201"}


def statuses(report: ImportanceReport) -> list[tuple[str, int, int, str]]:
    return [(p.cohort, p.lead, p.lag, p.status) for p in report.problems]


def lams(report: ImportanceReport) -> list[float]:
    return [p.lam for p in report.problems if p.status == STATUS_OK]


def freqs(**by_id: float) -> np.ndarray:
    """A frequency per feature in FEATURE_IDS order: the given ones, 0.0 for the rest."""
    return np.array([by_id.get(fid, 0.0) for fid in FEATURE_IDS])


def plain(report: ImportanceReport) -> dict:
    """The report's fields as dicts and lists, each frequency array a list, so == compares them one by one
    (the records compare by identity)."""
    listed = lambda freq: None if freq is None else freq.tolist()  # noqa: E731
    return asdict(replace(report, base_freq=listed(report.base_freq),
                          problems=[replace(p, base_freq=listed(p.base_freq)) for p in report.problems]))


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
        values=values,
        labels=labels,
    )


def fit_one(X, y, lam, weights=None, init=None) -> L1Fit:
    """One l1 fit at lam * weights (lam alone when None): a stack of one."""
    X = np.asarray(X, dtype=np.float64)
    penalty = lam * (np.ones(X.shape[1]) if weights is None else weights)
    [fit] = l1_logistic(add_intercept(X)[None], np.asarray(y, dtype=np.float64)[None], penalty[None], init=init)
    return fit


def column_freq(fits: list[L1Fit], subsamples: int) -> np.ndarray:
    """Each column's selection frequency over the last subsamples fits, the
    rounds stability_select returns after its calibration's fits."""
    betas = np.array([fit.beta for fit in fits[-subsamples:]])
    return np.count_nonzero(np.abs(betas[:, 1:]) > 1e-6, axis=0) / subsamples


def blas_versions() -> str:
    """numpy and BLAS versions, for a bitwise failure that a numpy or BLAS
    change in how a stacked matmul is dispatched would cause."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


# ---------------------------------------------------------------------------
# l1 pieces

def test_soft_threshold():
    v = np.array([3.0, -2.0, 0.5, 0.0])
    assert soft_threshold(v, np.full(4, 1.0)).tolist() == [2.0, -1.0, 0.0, 0.0]
    per_coord = soft_threshold(v, np.array([0.0, 3.0, 0.25, 1.0]))
    assert per_coord.tolist() == [3.0, 0.0, 0.25, 0.0]


def test_l1_heavy_penalty_keeps_only_intercept():
    X, y = planted_instance(1)
    beta = fit_one(X, y, 10.0).beta
    assert np.all(beta[1:] == 0.0)
    assert sigmoid(np.array([beta[0]]))[0] == pytest.approx(y.mean(), abs=1e-4)


def test_l1_without_penalty_matches_smooth_trainer(monkeypatch):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 3))
    z = X @ np.array([1.0, -1.5, 0.0])
    y = (rng.random(80) < 1 / (1 + np.exp(-z))).astype(float)
    monkeypatch.setattr(importance, "TOL", 1e-10)
    monkeypatch.setattr(importance, "MAX_ITER", 20000)
    beta = fit_one(X, y, 0.0).beta
    smooth = train(X, y, **defaults("ridge"))
    assert smooth.converged
    p_l1 = sigmoid(beta[0] + X @ beta[1:])
    p_irls = predict_proba(smooth, X)
    assert p_l1 == pytest.approx(p_irls, abs=1e-5)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_l1_logistic_is_bitwise_the_reference(seed, weighted, warm):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 40)), int(rng.integers(1, 7))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 4.0, size=d)
    y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
    lam = float(10.0 ** rng.uniform(-4.0, 0.0))
    weights = rng.uniform(0.5, 1.0, size=d) if weighted else None
    max_iter = int(rng.integers(1, 400))
    init = rng.normal(size=d + 1) if warm else None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importance, "MAX_ITER", max_iter)
        ours = fit_one(X, y, lam, weights=weights, init=init)
    beta, iterations, converged = l1_logistic_reference(
        X, y, lam, weights=weights, max_iter=max_iter, init=init)
    assert np.array_equal(ours.beta, beta)
    assert (ours.iterations, ours.converged) == (iterations, converged)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans())
@example(seed=4, size=4, warm=False)  # a member whose squared norm is 1 ulp off when squared as an array
def test_each_stacked_member_is_bitwise_its_reference_fit(seed, size, warm):
    # members share n and d but differ in rows, labels and penalty; the cap is
    # the median member's own iteration count, so in most stacks some members
    # converge early and leave while others run into the cap
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 40)), int(rng.integers(1, 7))
    X = rng.normal(size=(size, n, d)) * rng.uniform(0.1, 4.0, size=(size, 1, d))
    y = (rng.random((size, n)) < rng.uniform(0.1, 0.9, size=(size, 1))).astype(float)
    penalty = 10.0 ** rng.uniform(-4.0, 0.0, size=(size, 1)) * rng.uniform(0.5, 1.0, size=(size, d))
    init = rng.normal(size=d + 1) if warm else None
    uncapped = [l1_logistic_reference(X[s], y[s], 1.0, weights=penalty[s], init=init)[1] for s in range(size)]
    max_iter = sorted(uncapped)[size // 2]
    X1 = np.stack([add_intercept(X[s]) for s in range(size)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importance, "MAX_ITER", max_iter)
        fits = l1_logistic(X1, y, penalty, init=init)
    assert len(fits) == size
    for s, fit in enumerate(fits):
        beta, iterations, converged = l1_logistic_reference(
            X[s], y[s], 1.0, weights=penalty[s], max_iter=max_iter, init=init)
        assert np.array_equal(fit.beta, beta), (s, blas_versions())
        assert (fit.iterations, fit.converged) == (iterations, converged), (s, blas_versions())


# planted problems the solver oracles run on
PLANTED_SEEDS = (1, 3, 6, 77, 4000, 4001)


def _support(beta: np.ndarray) -> np.ndarray:
    return np.abs(beta[1:]) > 1e-6


def test_converged_fits_meet_the_kkt_conditions_on_random_problems():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(20, 200)), int(rng.integers(1, 20))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d)
        y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        lam = float(10.0 ** rng.uniform(-3.0, -0.5))
        weights = rng.uniform(0.5, 1.0, size=d)
        fit = fit_one(X, y, lam, weights=weights)
        assert fit.converged and 1 <= fit.iterations < 1000, seed
        assert l1_kkt_violation(fit.beta, X, y, lam, weights) <= 1e-5, seed


def test_planted_fits_converge_and_warm_starts_keep_the_support():
    # the stability-selection pattern: calibrate on the full data, then fit
    # reweighted subsamples from the full-data solution
    for seed in PLANTED_SEEDS:
        X, y = planted_instance(seed)
        Xn, _, _, _ = normalize(X)
        cal = calibrate_lambda(Xn, y, **defaults("importance_target_support"))
        assert cal.fit.converged
        assert l1_kkt_violation(cal.fit.beta, Xn, y, cal.lam) <= 1e-5
        rng = np.random.default_rng(seed)
        for _ in range(10):
            weights = rng.uniform(0.5, 1.0, size=Xn.shape[1])
            idx = _stratified_subsample(y, 0.75, rng)
            cold = fit_one(Xn[idx], y[idx], cal.lam, weights=weights)
            warm = fit_one(Xn[idx], y[idx], cal.lam, weights=weights, init=cal.fit.beta)
            assert cold.converged and warm.converged
            assert l1_kkt_violation(warm.beta, Xn[idx], y[idx], cal.lam, weights) <= 1e-5
            assert np.array_equal(_support(warm.beta), _support(cold.beta)), seed


def test_warm_started_calibration_picks_the_cold_start_lambda():
    for seed in PLANTED_SEEDS:
        X, y = planted_instance(seed)
        Xn, _, _, _ = normalize(X)
        # the bisection written out, every fit from zero
        n = Xn.shape[0]
        lam_max = float(np.max(np.abs(Xn.T @ (y - y.mean())))) / n
        lo, hi = lam_max * 1e-4, lam_max
        best_lam, best_diff = hi, 8
        for _ in range(25):
            mid = float(np.sqrt(lo * hi))
            beta = fit_one(Xn, y, mid).beta
            support = len({col.split("_", 1)[1] for col, on in zip(LAG1_COLUMNS, _support(beta)) if on})
            diff = abs(support - 8)
            if diff < best_diff or (diff == best_diff and mid > best_lam):
                best_lam, best_diff = mid, diff
            if support > 8:
                lo = mid
            else:
                hi = mid
        cal = calibrate_lambda(Xn, y, target_support=8)
        assert cal.lam == best_lam, seed
        # all steps ran, or the bisection stopped at the fit it returns
        assert len(cal.fits) == CALIBRATION_STEPS or cal.fit is cal.fits[-1]


@pytest.mark.parametrize("target", [0, 1, 3, 8, 20, len(FEATURE_IDS)])
def test_calibration_stopping_early_returns_the_full_bisection(target):
    for seed in PLANTED_SEEDS:
        X, y = planted_instance(seed)
        Xn, _, _, _ = normalize(X)
        lam, (beta, iterations, converged) = calibrate_lambda_reference(Xn, y, LAG1_COLUMNS, target)
        cal = calibrate_lambda(Xn, y, target_support=target)
        assert cal.lam == lam, (seed, target)
        assert np.array_equal(cal.fit.beta, beta), (seed, target)
        assert (cal.fit.iterations, cal.fit.converged) == (iterations, converged)
        assert len(cal.fits) <= CALIBRATION_STEPS + 1


def test_calibrated_lambda_hits_target_support():
    for seed in (4000, 4001):
        X, y = planted_instance(seed)
        Xn, _, _, _ = normalize(X)
        lam = calibrate_lambda(Xn, y, target_support=8).lam
        beta = fit_one(Xn, y, lam).beta
        support = {
            col.split("_", 1)[1]
            for j, col in enumerate(LAG1_COLUMNS)
            if abs(beta[j + 1]) > 1e-6
        }
        assert len(support) == 8


def test_calibration_without_a_better_midpoint_fits_lam_max():
    # a target of 0 features is met by lam_max itself, which no midpoint beats
    X, y = planted_instance(4000)
    Xn, _, _, _ = normalize(X)
    cal = calibrate_lambda(Xn, y, target_support=0)
    assert cal.lam == float(np.max(np.abs(Xn.T @ (y - y.mean())))) / y.size
    # the bisection stops at its first all-zero midpoint, then fits lam_max
    *kept, last, _ = cal.fits
    assert all(_support(f.beta).any() for f in kept) and not _support(last.beta).any()
    assert cal.fit is cal.fits[-1]
    assert cal.fit.converged and not _support(cal.fit.beta).any()


def test_calibrate_lambda_rejects_constant_labels():
    X, _ = planted_instance(2)
    with pytest.raises(DataError, match="constant labels"):
        calibrate_lambda(normalize(X)[0], np.ones(X.shape[0]), **defaults("importance_target_support"))


# ---------------------------------------------------------------------------
# stability selection

def test_degenerate_parameters_reduce_to_single_fit():
    # one round of every row at unit weights refits the calibrated problem from its own solution
    X, y = planted_instance(77, n=60)
    settings = defaults(*STABILITY_KEYS, subsamples=1, fraction=1.0, weight_floor=1.0)
    lam, _, fits = stability_select(X, y, np.random.default_rng(0), **settings)
    order = np.lexsort(np.vstack([X.T, y[None, :]]))  # the canonical row order
    Xn, _, _, _ = normalize(X[order])
    cal = calibrate_lambda(Xn, y[order], target_support=settings["target_support"])
    beta = fit_one(Xn, y[order], cal.lam, init=cal.fit.beta).beta
    assert lam == cal.lam and len(fits) == len(cal.fits) + 1  # the calibration's fits, then one subsample
    assert np.array_equal(fits[-1].beta, beta)
    assert np.array_equal(column_freq(fits, 1), (np.abs(beta[1:]) > 1e-6).astype(float))


def test_frequencies_ignore_row_order():
    X, y = planted_instance(3, n=120)
    settings = defaults(*STABILITY_KEYS, subsamples=40)
    a_lam, a_base, a_fits = stability_select(X, y, np.random.default_rng(9), **settings)
    perm = np.random.default_rng(1).permutation(y.size)
    b_lam, b_base, b_fits = stability_select(X[perm], y[perm], np.random.default_rng(9), **settings)
    assert np.array_equal(column_freq(a_fits, 40), column_freq(b_fits, 40))
    assert np.array_equal(a_base, b_base)
    assert a_lam == b_lam


def test_duplicating_a_column_leaves_unrelated_features_alone():
    # paired master seeds; 0.2 covers Monte Carlo drift at 200 subsamples
    # (worst observed increase over 4 calibration seeds was 0.125)
    rng = np.random.default_rng(3000)
    X = rng.normal(size=(200, NUM_FEATURES))
    z = 1.5 * X[:, 0] - 1.2 * X[:, 5]
    y = (rng.random(200) < 1 / (1 + np.exp(-z))).astype(float)
    _, base, _ = stability_select(
        X, y, np.random.default_rng(0), **defaults(*STABILITY_KEYS, subsamples=200))
    week2 = np.zeros_like(X)  # a second week whose only varying column repeats x2
    week2[:, FEATURE_INDEX["x2"]] = X[:, FEATURE_INDEX["x2"]]
    _, dup, _ = stability_select(
        np.hstack([X, week2]),
        y,
        np.random.default_rng(0),
        **defaults(*STABILITY_KEYS, subsamples=200),
    )
    for fid, j in FEATURE_INDEX.items():
        if fid != "x2":
            assert dup[j] - base[j] <= 0.2, fid


def test_base_score_is_max_over_lag_copies():
    X, y = planted_instance(6, n=90)
    doubled = np.hstack([X, np.zeros_like(X)])  # week-2 copies carry nothing
    cols = column_names(2)
    _, base, fits = stability_select(doubled, y, np.random.default_rng(2),
                                     **defaults(*STABILITY_KEYS, subsamples=20))
    freq = column_freq(fits, 20)
    assert base.shape == (NUM_FEATURES,)
    for j, fid in enumerate(FEATURE_IDS):
        assert base[j] == max(f for col, f in zip(cols, freq) if col.split("_", 1)[1] == fid)


def test_stability_select_counts_every_l1_fit():
    X, y = planted_instance(6, n=90)
    settings = defaults(*STABILITY_KEYS, subsamples=12)
    lam, _, fits = stability_select(X, y, np.random.default_rng(2), **settings)
    order = np.lexsort(np.vstack([X.T, y[None, :]]))  # the canonical row order
    cal = calibrate_lambda(normalize(X[order])[0], y[order], target_support=settings["target_support"])
    assert lam == cal.lam
    assert len(fits) == len(cal.fits) + 12  # the bisection's fits, then one per subsample
    assert all(np.array_equal(ours.beta, theirs.beta) for ours, theirs in zip(fits, cal.fits))
    assert all(1 <= fit.iterations <= importance.MAX_ITER for fit in fits)


def test_each_fit_starts_from_its_nearest_solved_neighbour(monkeypatch):
    calls = []
    real = importance.l1_logistic

    def spy(X1, y, penalty, step=None, init=None, **kwargs):
        fits = real(X1, y, penalty, step, init, **kwargs)
        calls.append((init, fits))
        return fits

    monkeypatch.setattr(importance, "l1_logistic", spy)
    X, y = planted_instance(6, n=90)
    stability_select(X, y, np.random.default_rng(2), **defaults(*STABILITY_KEYS, subsamples=5))
    *bisection, (rounds_init, rounds) = calls  # the five rounds make one stack
    assert len(rounds) == 5 and all(len(fits) == 1 for _, fits in bisection)
    assert bisection[0][0] is None
    for (init, _), (_, [previous]) in zip(bisection[1:], bisection):
        assert init is previous.beta  # the previous midpoint
    assert any(rounds_init is fit.beta for _, [fit] in bisection)  # the calibration's own fit


def test_rounds_are_stacked_in_blocks_of_at_most_stack_bytes(monkeypatch):
    X, y = planted_instance(6, n=90)
    settings = defaults(*STABILITY_KEYS, subsamples=7)
    whole_lam, _, whole = stability_select(X, y, np.random.default_rng(2), **settings)
    sizes = []
    real = importance.l1_logistic

    def spy(X1, *args, **kwargs):
        sizes.append(X1.shape[0])
        assert X1.nbytes <= importance.STACK_BYTES or X1.shape[0] == 1
        return real(X1, *args, **kwargs)

    monkeypatch.setattr(importance, "l1_logistic", spy)
    member = 68 * (len(LAG1_COLUMNS) + 1) * 8  # a 0.75 subsample of 90 rows keeps 68
    monkeypatch.setattr(importance, "STACK_BYTES", 3 * member)
    blocked_lam, _, blocked = stability_select(X, y, np.random.default_rng(2), **settings)
    assert sizes[-3:] == [3, 3, 1]
    assert blocked_lam == whole_lam and len(blocked) == len(whole)
    assert all(np.array_equal(a.beta, b.beta) and a[1:] == b[1:] for a, b in zip(blocked, whole))


# ---------------------------------------------------------------------------
# run_importance

def test_planted_course_puts_driver_features_on_top(small_course):
    report = run_importance(
        small_course.matrix, [ProblemSpec(lead=1, lag=2)], **defaults(*IMPORTANCE_KEYS, seed=5, subsamples=200)
    )
    top3 = [fid for fid, _ in report.ranked()[:3]]
    assert set(top3) & COLLABORATION_FEATURES == set()


def test_pure_noise_frequencies_stay_diluted():
    # No-signal control at default parameters over the default problem trio.
    # Monte Carlo over data seeds 2000..2004 put the max mean frequency in
    # [0.79, 0.93]; this fixed seed lands at 0.863 and reruns bit-identically.
    matrix = noise_feature_matrix(2000)
    trio = [ProblemSpec(13, 1), ProblemSpec(3, 6), ProblemSpec(6, 4)]
    report = run_importance(matrix, trio, **defaults(*IMPORTANCE_KEYS, seed=0, subsamples=200))
    assert report.base_freq.max() <= 0.9


def test_report_covers_all_features_within_bounds(small_course):
    report = run_importance(
        small_course.matrix, [ProblemSpec(lead=1, lag=1)], **defaults(*IMPORTANCE_KEYS, seed=3, subsamples=25)
    )
    assert report.base_freq.shape == (NUM_FEATURES,) and report.base_freq.dtype == np.float64
    assert all(0.0 <= v <= 1.0 for v in report.base_freq)
    assert statuses(report) == [("all", 1, 1, STATUS_OK)]
    assert len(lams(report)) == 1


def test_run_importance_is_seed_deterministic(small_course):
    a = run_importance(small_course.matrix, [ProblemSpec(1, 1)], **defaults(*IMPORTANCE_KEYS, seed=6, subsamples=20))
    b = run_importance(small_course.matrix, [ProblemSpec(1, 1)], **defaults(*IMPORTANCE_KEYS, seed=6, subsamples=20))
    assert np.array_equal(a.base_freq, b.base_freq) and lams(a) == lams(b)


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
        values=rng.normal(size=(30, 3, NUM_FEATURES)),
        labels=labels,
    )
    report = run_importance(
        join_cohorts(matrix, {lid: WIKI for lid in matrix.learners[:3]}),
        [ProblemSpec(1, 1), ProblemSpec(2, 1), ProblemSpec(1, 1, cohort=WIKI)],
        **defaults(*IMPORTANCE_KEYS, seed=0, subsamples=10),
    )
    assert statuses(report) == [
        ("all", 1, 1, STATUS_DEGENERATE),
        ("all", 2, 1, STATUS_OK),
        (WIKI, 1, 1, STATUS_INSUFFICIENT),
    ]
    assert report.cohort == "mixed"
    assert len(lams(report)) == 1



def test_a_problem_with_no_varying_column_is_skipped(tmp_path):
    # both classes at week 2 in each cohort, but every feature cell of the wiki learners is 0.5;
    # calibrating lam on them used to raise "constant labels", and run-all with it
    stopout = np.tile([2, 3, 4], 10)
    labels = (np.arange(1, 4) < stopout[:, None]).astype(np.int8)
    values = np.random.default_rng(8).normal(size=(30, 3, NUM_FEATURES))
    values[:10] = 0.5
    matrix = FeatureMatrix(learners=[f"L{i:02d}" for i in range(30)], values=values, labels=labels)
    specs = [ProblemSpec(1, 1), ProblemSpec(1, 1, cohort=WIKI)]
    matrix = join_cohorts(matrix, {lid: WIKI for lid in matrix.learners[:10]})
    report = run_importance(matrix, specs, **defaults(*IMPORTANCE_KEYS, seed=0, subsamples=5))
    assert statuses(report) == [("all", 1, 1, STATUS_OK), (WIKI, 1, 1, STATUS_CONSTANT)]
    export_problems(report.problems, tmp_path / "problems.tsv")
    assert list(read_table(tmp_path / "problems.tsv", PROBLEM_COLUMNS))[1] == [
        WIKI, "1", "1", "constant_features", "", "0", "0", "0"]

PROBLEMS = [ProblemSpec(1, 1), ProblemSpec(2, 1), ProblemSpec(1, 2), ProblemSpec(1, 1, cohort=WIKI),
            ProblemSpec(7, 1)]


@settings(max_examples=6)
@given(st.permutations(PROBLEMS), st.integers(1, len(PROBLEMS)), st.integers(0, 3))
def test_run_importance_is_its_problems_combined_in_spec_order(small_course, order, k, seed):
    # each problem seeds itself from its own key, so one computed alone (as a
    # run-all pool task is) is the same as one computed within a list
    specs = order[:k]
    kwargs = defaults(*IMPORTANCE_KEYS, seed=seed, subsamples=4, min_rows=10)
    matrix = small_course.matrix
    parts = [problem_importance(matrix, spec, **kwargs) for spec in specs]
    report = run_importance(matrix, specs, **kwargs)
    assert plain(report) == plain(combine_problems(parts))
    assert statuses(report) == [(p.cohort, p.lead, p.lag, p.status) for p in parts]
    assert (report.base_freq is not None) == any(p.status == STATUS_OK for p in parts)


def test_combine_averages_only_the_problems_that_ran():
    ran = [ProblemImportance("all", 1, 1, STATUS_OK, lam=0.5, base_freq=freqs(x2=0.25, x3=1.0)),
           ProblemImportance("all", 2, 1, STATUS_DEGENERATE),
           ProblemImportance("all", 1, 2, STATUS_OK, lam=0.25, base_freq=freqs(x2=0.75))]
    report = combine_problems(ran)
    assert report.cohort == "all" and lams(report) == [0.5, 0.25]
    assert np.array_equal(report.base_freq, freqs(x2=0.5, x3=0.5))
    assert statuses(report)[1] == ("all", 2, 1, STATUS_DEGENERATE)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 91), st.integers(0, 20), st.integers(0, 2**32 - 1))
@example(91, 20, 0)  # all 91 problems of a 14-week course
def test_combine_is_the_in_order_mean_bit_for_bit(ok, skipped, seed):
    # frequencies k/200, as 200 subsamples give; skipped problems carry
    # frequencies too, which must not reach the average
    rng = np.random.default_rng(seed)
    kinds = rng.permutation([STATUS_OK] * ok + [STATUS_DEGENERATE] * skipped)
    problems = [ProblemImportance("all", 1, 1, str(status), base_freq=rng.integers(0, 201, NUM_FEATURES) / 200)
                for status in kinds]
    sums = [0.0] * NUM_FEATURES
    for p in problems:
        if p.status == STATUS_OK:
            sums = [total + float(f) for total, f in zip(sums, p.base_freq)]
    expected = np.array([total / ok for total in sums])
    assert combine_problems(problems).base_freq.tobytes() == expected.tobytes()


def test_problems_carry_their_solver_counts(small_course):
    ran = problem_importance(small_course.matrix, ProblemSpec(1, 1), **defaults(*IMPORTANCE_KEYS, seed=1, subsamples=6))
    skipped = problem_importance(small_course.matrix, ProblemSpec(1, 1),
                                 **defaults(*IMPORTANCE_KEYS, seed=1, subsamples=6, min_rows=10**9))
    assert ran.status == STATUS_OK and ran.l1_iterations >= ran.l1_fits
    assert 6 < ran.l1_fits <= CALIBRATION_STEPS + 1 + 6  # the bisection's fits, then one per subsample
    assert skipped.status == STATUS_INSUFFICIENT and skipped.lam is None
    assert (skipped.l1_fits, skipped.l1_iterations, skipped.l1_unconverged) == (0, 0, 0)


def test_comparing_two_runs_of_one_problem_does_not_raise(small_course):
    # a generated __eq__ compared the frequency arrays with ==, and an array's truth value raised
    first, second = (problem_importance(small_course.matrix, ProblemSpec(1, 1),
                                        **defaults(*IMPORTANCE_KEYS, seed=1, subsamples=4)) for _ in range(2))
    assert np.array_equal(first.base_freq, second.base_freq)
    assert first == first and first != second  # records compare by identity
    assert combine_problems([first]) != combine_problems([second])


def test_no_usable_problem_leaves_the_report_empty(fixture_matrix):
    report = run_importance(fixture_matrix, [ProblemSpec(1, 1)], **defaults(*IMPORTANCE_KEYS))
    assert report.base_freq is None and report.ranked() == []
    assert statuses(report) == [("all", 1, 1, STATUS_INSUFFICIENT)]


# ---------------------------------------------------------------------------
# report and export

def test_ranked_breaks_ties_in_feature_order():
    report = ImportanceReport(cohort="all", base_freq=freqs(x9=0.5, x2=0.5, x210=0.9))
    assert report.ranked() == [("x210", 0.9), ("x2", 0.5), ("x9", 0.5)] + [
        (fid, 0.0) for fid in FEATURE_IDS if fid not in ("x2", "x9", "x210")]


def test_export_round_trip(tmp_path):
    a = ImportanceReport(cohort="all", base_freq=freqs(x2=1 / 3, x9=0.25))
    b = ImportanceReport(cohort=WIKI, base_freq=freqs(x2=0.75))
    path = tmp_path / "importance.tsv"
    export_importance([a, b], path)
    loaded = {(cohort, fid): float(freq) for cohort, fid, freq in read_table(path, IMPORTANCE_COLUMNS)}
    expected = {(cohort, fid): 0.0 for cohort in ("all", WIKI) for fid in FEATURE_IDS}
    assert loaded == expected | {("all", "x2"): 1 / 3, ("all", "x9"): 0.25, (WIKI, "x2"): 0.75}
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "cohort\tfeature_id\tfrequency"
    assert lines[1].startswith("all\tx2")  # ranked within each cohort


def test_export_problems_round_trip(tmp_path):
    problems = [
        ProblemImportance("all", 1, 1, STATUS_OK, lam=1 / 3, l1_fits=35, l1_iterations=4138,
                          l1_unconverged=2),
        ProblemImportance(WIKI, 2, 1, STATUS_DEGENERATE),
    ]
    path = tmp_path / "importance_problems.tsv"
    export_problems(problems, path)
    rows = list(read_table(path, PROBLEM_COLUMNS))
    assert rows == [["all", "1", "1", STATUS_OK, repr(1 / 3), "35", "4138", "2"],
                    [WIKI, "2", "1", STATUS_DEGENERATE, "", "0", "0", "0"]]
