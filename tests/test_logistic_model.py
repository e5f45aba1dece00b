"""Penalized logistic regression: numerics, training, and persistence."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import defaults
from oracles import grid_mle_ll, penalized_gradient, penalized_ll_reference, read_model_reference, sigmoid_reference
from stopout import logistic_model
from stopout.errors import DataError, DegenerateLabelsError
from stopout.logistic_model import (
    TrainedModel,
    _dual_direction,
    add_intercept,
    penalized_ll,
    predict_proba,
    save_model,
    sigmoid,
    train,
)


# ---------------------------------------------------------------------------
# sigmoid

def test_sigmoid_examples():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([np.log(3.0)]))[0] == pytest.approx(0.75, rel=1e-15)
    low = sigmoid(np.array([-1000.0]))[0]
    assert 0.0 < low <= 1e-300
    high = sigmoid(np.array([1000.0]))[0]
    assert 1.0 - 1e-15 <= high <= 1.0


@given(st.floats(-1e308, 1e308))
def test_sigmoid_complement(z):
    arr = np.array([z, -z])
    p = sigmoid(arr)
    assert p[0] + p[1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(p))


SIGN_BIT = np.uint64(1 << 63)
SIGMOID_EDGES = [
    709.0, -709.0, 710.0, -710.0, 0.0, -0.0, 708.9999999999999, -708.9999999999999,
    5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072009e-308,
    36.7, -36.7, 1e308, -1e308,
]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
       st.lists(st.sampled_from(SIGMOID_EDGES), max_size=8))
def test_sigmoid_is_bitwise_the_reference(values, edges):
    z = np.array(values + edges + SIGMOID_EDGES, dtype=np.float64)
    assert np.array_equal(_bits(sigmoid(z)), _bits(sigmoid_reference(z)))


def test_sigmoid_keeps_nan_up_to_its_sign():
    z = np.array([np.nan, -np.nan, 1.0, np.nan, -2.0])
    ours, ref = sigmoid(z), sigmoid_reference(z)
    assert np.array_equal(np.isnan(ours), np.isnan(z))
    assert np.array_equal(_bits(ours) & ~SIGN_BIT, _bits(ref) & ~SIGN_BIT)


def test_sigmoid_strictly_increasing():
    # strictness holds until float64 saturation near |z| ~ 36.7
    grid = sigmoid(np.linspace(-30.0, 30.0, 201))
    assert np.all(np.diff(grid) > 0)


def test_add_intercept():
    X1 = add_intercept(np.array([[2.0], [3.0]]))
    assert X1.tolist() == [[1.0, 2.0], [1.0, 3.0]]


# ---------------------------------------------------------------------------
# objective and gradient

def ll_of(beta, X1, y, ridge):
    """penalized_ll at beta, from the design and labels it is a function of."""
    return penalized_ll(X1 @ beta, 1.0 - 2.0 * y, beta, ridge)


@given(st.integers(0, 2**31), st.integers(1, 3), st.sampled_from([0.0, 1e-6, 1e-2, 1.0]))
def test_penalized_ll_matches_reference(seed, d, ridge):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    X = rng.normal(size=(n, d)) * 3
    y = rng.integers(0, 2, size=n).astype(float)
    beta = rng.normal(size=d + 1) * 2
    ours = ll_of(beta, add_intercept(X), y, ridge)
    assert ours == pytest.approx(penalized_ll_reference(beta, X, y, ridge), rel=1e-12)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.floats(-700.0, 700.0), st.sampled_from([0.0, 1.0])), min_size=1, max_size=30),
       st.sampled_from([0.0, 1e-6, 1.0]))
def test_penalized_ll_is_exact_per_row_up_to_z_700(rows, ridge):
    # one column holding z itself, so every margin up to |z| = 700 is reached
    z = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    beta = np.array([0.0, 1.0])
    ours = ll_of(beta, add_intercept(z[:, None]), y, ridge)
    assert ours == pytest.approx(penalized_ll_reference(beta, z[:, None], y, ridge), rel=1e-12, abs=0)


def test_penalized_ll_keeps_the_digits_of_well_fit_rows():
    # each row adds -log1p(e^-15); y*z - log(1 + e^z) would leave ~8 digits
    z = np.full(4, 15.0)
    ll = ll_of(np.array([0.0, 1.0]), add_intercept(z[:, None]), np.ones(4), 0.0)
    assert ll == pytest.approx(-4.0 * math.log1p(math.exp(-15.0)), rel=1e-15, abs=0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    X = rng.normal(size=(25, 3))
    X1 = add_intercept(X)
    y = rng.integers(0, 2, size=25).astype(float)
    h = 1e-6
    for _ in range(5):
        beta = rng.normal(size=4)
        ridge = float(rng.uniform(0, 0.5))
        grad = penalized_gradient(beta, X1, y, ridge)
        for j in range(beta.size):
            step = np.zeros_like(beta)
            step[j] = h
            fd = (
                ll_of(beta + step, X1, y, ridge)
                - ll_of(beta - step, X1, y, ridge)
            ) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_ridge_leaves_intercept_unpenalized():
    X1 = np.ones((4, 1))
    y = np.array([0.0, 1.0, 1.0, 1.0])
    beta = np.array([2.5])
    assert ll_of(beta, X1, y, 10.0) == ll_of(beta, X1, y, 0.0)


# ---------------------------------------------------------------------------
# training

def test_train_toy_separable_matches_grid_search():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = train(X, y, ridge=1e-2)
    assert model.converged
    assert model.beta[1] > 0
    ll = ll_of(model.beta, add_intercept(X), y, 1e-2)
    assert ll == pytest.approx(grid_mle_ll(X, y, 1e-2), abs=1e-6)


def test_train_rejects_single_class():
    X = np.zeros((3, 1))
    with pytest.raises(DegenerateLabelsError):
        train(X, np.ones(3), **defaults("ridge"))
    with pytest.raises(DegenerateLabelsError):
        train(X, np.zeros(3), **defaults("ridge"))


def test_train_rejects_bad_inputs():
    with pytest.raises(DataError, match="shape"):
        train(np.zeros((3, 1)), np.array([0.0, 1.0]), **defaults("ridge"))
    with pytest.raises(DataError, match="0 or 1"):
        train(np.zeros((2, 1)), np.array([0.0, 2.0]), **defaults("ridge"))


def test_train_without_covariates_fits_base_rate():
    X = np.zeros((6, 0))
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    model = train(X, y, **defaults("ridge"))
    assert model.beta.size == 1
    assert model.beta[0] == pytest.approx(0.0, abs=1e-9)
    assert predict_proba(model, X) == pytest.approx(0.5)

    y_skewed = np.array([1.0, 1.0, 1.0, 0.0])
    skewed = train(np.zeros((4, 0)), y_skewed, **defaults("ridge"))
    assert skewed.beta[0] == pytest.approx(np.log(3.0), rel=1e-6)


def test_accepted_likelihoods_are_monotone(monkeypatch):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 4))
    z = X @ np.array([1.0, -2.0, 0.5, 0.0])
    y = (rng.random(60) < 1 / (1 + np.exp(-z))).astype(float)
    real_ll = logistic_model.penalized_ll
    seen = []

    def recorder(z, sign, beta, ridge):
        seen.append(real_ll(z, sign, beta, ridge))
        return seen[-1]

    monkeypatch.setattr(logistic_model, "penalized_ll", recorder)
    model = train(X, y, ridge=1e-4)
    assert model.converged
    # the start, then each step's likelihood once a halving stops it getting worse
    path = seen[:1]
    for ll in seen[1:]:
        if ll >= path[-1]:
            path.append(ll)
    assert len(path) == model.iterations + 1
    assert np.all(np.diff(path) >= 0.0)
    assert path[-1] == ll_of(model.beta, add_intercept(X), y, 1e-4)


def test_each_step_takes_the_linear_predictor_of_the_step_it_accepted(monkeypatch):
    # one X1 @ beta per step: sigmoid gets the z the accepted likelihood was taken at
    X, y = _logistic_problem(4)
    real_ll, real_sigmoid = logistic_model.penalized_ll, logistic_model.sigmoid
    lls, sigmoid_inputs = [], []

    def recording_ll(z, sign, beta, ridge):
        lls.append((z, real_ll(z, sign, beta, ridge)))
        return lls[-1][1]

    def recording_sigmoid(z):
        sigmoid_inputs.append(z)
        return real_sigmoid(z)

    monkeypatch.setattr(logistic_model, "penalized_ll", recording_ll)
    monkeypatch.setattr(logistic_model, "sigmoid", recording_sigmoid)
    model = train(X, y, ridge=1e-6)
    accepted, best = [lls[0][0]], lls[0][1]  # the start, then each likelihood no worse than the last kept
    for z, ll in lls[1:]:
        if ll >= best:
            accepted.append(z)
            best = ll
    assert model.converged and len(sigmoid_inputs) == model.iterations
    assert all(taken is z for taken, z in zip(sigmoid_inputs, accepted))


@pytest.mark.parametrize("ridge", [1e-6, 1e-4, 1e-2])
def test_separable_fit_converges_at_the_given_ridge(ridge):
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = train(X, y, ridge=ridge)
    assert model.ridge == ridge and model.converged
    assert model.beta[1] > 0
    probs = predict_proba(model, X)
    assert np.all(probs[y == 1] > 0.5) and np.all(probs[y == 0] < 0.5)


def test_separable_wide_fit_converges_at_1e_6():
    # 16 rows, 36 z-scored count columns: separable, so at ridge 1e-6 every
    # row ends up fit to a wide margin. With y*z - log(1 + e^z) the rounding
    # noise outgrew the last Newton steps' real gain and no halving improved.
    rng = np.random.default_rng(38)
    X = rng.poisson(1.0, size=(16, 36)).astype(float)
    y = (np.arange(16) % 2).astype(float)
    X = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
    model = train(X, y, ridge=1e-6)
    assert model.ridge == 1e-6 and model.converged
    assert np.all((predict_proba(model, X) > 0.5) == (y == 1))


def test_dual_direction_is_the_full_hessian_solve():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(n + 1, 3 * n + 5))
        ridge = float(rng.choice([1e-6, 1e-4, 1e-2, 1.0]))
        X1 = add_intercept(rng.normal(size=(n, d)))
        y = rng.integers(0, 2, size=n).astype(float)
        beta = rng.normal(size=d + 1)
        p = sigmoid(X1 @ beta)
        w = p * (1.0 - p)
        penalty = np.full(d + 1, ridge)
        penalty[0] = 0.0
        grad = X1.T @ (y - p) - penalty * beta
        full = np.linalg.solve(X1.T @ (X1 * w[:, None]) + np.diag(penalty), grad)
        Z = X1[:, 1:]
        dual = _dual_direction(Z, Z @ Z.T, w, grad, ridge)
        assert np.linalg.norm(dual - full) <= 1e-8 * np.linalg.norm(full)


def test_zero_columns_are_left_out_and_get_exactly_zero(tmp_path):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 3))
    y = (rng.random(40) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
    padded = np.zeros((40, 5))
    padded[:, [0, 2, 4]] = X
    model = train(padded, y, ridge=1e-6)
    assert model.ridge == 1e-6
    assert model.beta[2] == 0.0 and model.beta[4] == 0.0
    alone = train(X, y, ridge=1e-6)
    assert np.array_equal(model.beta[[0, 1, 3, 5]], alone.beta)
    assert model.iterations == alone.iterations
    path = tmp_path / "model.txt"
    save_model(model, [], path)
    assert np.array_equal(read_model_reference(path)[0].beta, model.beta)
    assert read_model_reference(path)[0].beta.size == 6


def test_a_failed_warm_start_reruns_cold():
    rng = np.random.default_rng(3)
    for n, d in ((60, 4), (20, 45)):  # the primal and the dual step
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
        cold = train(X, y, ridge=1e-4)
        for bad in (np.full(d + 1, np.nan), np.full(d + 1, 1e300)):
            with np.errstate(over="ignore", invalid="ignore"):  # the garbage is the point
                warm = train(X, y, ridge=1e-4, beta0=bad)
            assert warm.ridge == cold.ridge
            assert np.array_equal(warm.beta, cold.beta)
        near = train(X, y, ridge=1e-4, beta0=cold.beta + 1e-3)
        assert near.converged and near.iterations < cold.iterations
        assert near.beta == pytest.approx(cold.beta, abs=1e-7)


def _logistic_problem(seed: int, n: int = 60, d: int = 3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    return X, (rng.random(n) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)


def test_a_step_no_halving_improves_at_the_optimum_has_converged(monkeypatch):
    X, y = _logistic_problem(21)
    optimum = train(X, y, ridge=1e-6).beta
    real_ll = logistic_model.penalized_ll

    def fit_where_no_step_improves(beta0=None):  # every likelihood after the start reads -inf
        calls = itertools.count()
        monkeypatch.setattr(logistic_model, "penalized_ll",
                            lambda z, sign, beta, ridge: real_ll(z, sign, beta, ridge) if next(calls) == 0 else -np.inf)
        return train(X, y, ridge=1e-6, beta0=beta0)

    # 1e-9 off the optimum the predicted gain is ~3e-17, below n * eps * |ll| ~ 4e-13
    start = optimum + 1e-9
    model = fit_where_no_step_improves(start)
    assert model.converged and model.iterations == 1 and model.ridge == 1e-6
    assert np.array_equal(model.beta, start)
    # from zeros the gain is far above the floor, so that step failed
    with pytest.raises(DataError, match="failed at ridge 1e-06: no improving Newton step"):
        fit_where_no_step_improves()
    # 1e-6 off the optimum it is ~3e-11: the warm start fails, and so does the
    # cold rerun, whose start is no longer the first likelihood read
    with pytest.raises(DataError, match="failed at ridge 1e-06"):
        fit_where_no_step_improves(optimum + 1e-6)


def test_a_negative_predicted_gain_never_passes_as_converged(monkeypatch):
    # an uphill direction from near the optimum: its predicted gain is below
    # the rounding floor in size but negative, so it is a failed fit
    X, y = _logistic_problem(22)
    near = train(X, y, ridge=1e-6).beta + 1e-3
    real_solve = logistic_model._solve
    monkeypatch.setattr(logistic_model, "_solve", lambda a, b: -real_solve(a, b))
    with pytest.raises(DataError, match="failed at ridge 1e-06: no improving Newton step"):
        train(X, y, ridge=1e-6, beta0=near)


def test_ridge_0_on_a_collinear_design_fails_naming_ridge_0():
    # x14 = x3 + x4, as in every week the featurizer builds
    X, y = _logistic_problem(23)
    collinear = np.column_stack([X, X[:, 1] + X[:, 2]])
    with pytest.raises(DataError, match="failed at ridge 0.0"):
        train(collinear, y, ridge=0.0)
    assert train(collinear, y, **defaults("ridge")).converged


def test_rescaling_a_column_preserves_predictions():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 2))
    z = 0.8 * X[:, 0] - 0.5 * X[:, 1]
    y = (rng.random(50) < 1 / (1 + np.exp(-z))).astype(float)
    scaled = X.copy()
    scaled[:, 0] *= 3.5
    base = train(X, y, ridge=0.0)
    other = train(scaled, y, ridge=0.0)
    assert base.converged and other.converged
    p_base = predict_proba(base, X)
    p_other = predict_proba(other, scaled)
    assert p_base == pytest.approx(p_other, abs=1e-6)
    assert np.array_equal(np.argsort(p_base), np.argsort(p_other))
    assert other.beta[1] == pytest.approx(base.beta[1] / 3.5, rel=1e-6)


# ---------------------------------------------------------------------------
# prediction

def test_predict_proba_hand_value():
    model = TrainedModel(
        beta=np.array([0.1, 0.2]), ridge=0.0, converged=True, iterations=1
    )
    probs = predict_proba(model, np.array([[1.0], [-3.0]]))
    assert probs[0] == sigmoid(np.array([0.1 + 0.2 * 1.0]))[0]
    assert probs[1] == sigmoid(np.array([0.1 + 0.2 * -3.0]))[0]


def test_predict_proba_checks_width():
    model = TrainedModel(
        beta=np.array([0.1, 0.2]), ridge=0.0, converged=True, iterations=1
    )
    with pytest.raises(DataError, match="expects 1 columns"):
        predict_proba(model, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# persistence

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 3))
    y = (rng.random(30) < 0.5).astype(float)
    columns = ["w1_x2", "w1_x3", "w1_x4"]
    model = train(X, y, ridge=1e-4)
    model.norm_means = X.mean(axis=0)
    model.norm_scales = X.std(axis=0)
    path = tmp_path / "model.txt"
    save_model(model, columns, path)
    again, again_columns = read_model_reference(path)
    assert np.array_equal(again.beta, model.beta)
    assert again.ridge == model.ridge
    assert again.converged == model.converged
    assert again.iterations == model.iterations
    assert again_columns == columns
    assert np.array_equal(again.norm_means, model.norm_means)
    assert np.array_equal(again.norm_scales, model.norm_scales)


def test_save_load_handles_absent_optionals(tmp_path):
    model = TrainedModel(beta=np.array([1.5]), ridge=0.0, converged=False, iterations=7)
    path = tmp_path / "model.txt"
    save_model(model, [], path)
    again, again_columns = read_model_reference(path)
    assert np.array_equal(again.beta, model.beta)
    assert again_columns is None
    assert again.norm_means is None and again.norm_scales is None
    assert again.converged is False


def test_model_file_lines_end_at_newline_alone(tmp_path):
    # lines end at \n alone, so a column name may hold U+2028, U+0085 or \x1c
    columns = ["w1_a\u2028b", "w1_c\x85d", "w1_e\x1cf"]
    model = TrainedModel(beta=np.array([0.5, 1.0, -1.0, 2.0]), ridge=1e-6, converged=True, iterations=3)
    path = tmp_path / "model.txt"
    save_model(model, columns, path)
    assert read_model_reference(path)[1] == columns
