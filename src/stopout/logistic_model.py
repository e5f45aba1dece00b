"""Binary logistic regression trained by Newton-Raphson (IRLS), from scratch.

The optimizer maximizes the ridge-penalized log-likelihood; the intercept is
never penalized. Every fit uses the ridge it is given; a numerical failure
(singular Hessian, non-finite values) raises DataError.

Exactly-zero (zero-variance) columns are left out of the fit and get
coefficient 0. With a ridge and more columns than rows, each Newton step is
one n x n Woodbury solve instead of a d x d one. A fit that fails or stops
short from a warm start (beta0) is rerun from zeros, so a warm start can only
save steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DegenerateLabelsError

TOL = 1e-8  # a Newton step that moves no coefficient by this much ends the fit
MAX_ITER = 100
MAX_HALVINGS = 30
EPS = float(np.finfo(np.float64).eps)


class _NumericalFailure(Exception):
    pass


Z_CLAMP = 709.0  # largest |z| exp() survives; keeps sigmoid(-1000) positive


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function; never underflows to 0 or NaN."""
    z = z.clip(-Z_CLAMP, Z_CLAMP)
    # e^-|z| <= 1 cannot overflow; it is e^-z on one side of 0 and e^z on the other
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def add_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((X.shape[0], 1)), X])


def penalized_ll(z: np.ndarray, sign: np.ndarray, beta: np.ndarray, ridge: float) -> float:
    """Ridge-penalized Bernoulli log-likelihood at the linear predictor
    z = X1 @ beta, where sign is 1 - 2y; beta[0] is the unpenalized intercept.

    Each row adds -log(1 + e^-m) for its margin m = (2y - 1) * z = -sign * z,
    via logaddexp: no overflow, and none of the cancellation of
    y*z - log(1 + e^z), which loses ~8 digits per row at z ~ 15, more than a
    late Newton step gains. Taking z rather than X1 lets the solver reuse the
    product of the step it accepts.
    """
    ll = -float(np.logaddexp(0.0, sign * z).sum())
    return ll - 0.5 * ridge * float((beta[1:] ** 2).sum())


@dataclass
class TrainedModel:
    beta: np.ndarray           # intercept first, then one weight per column
    ridge: float
    converged: bool
    iterations: int
    # z-score statistics of the training matrix, so a serialized model can be
    # applied to raw (unnormalized) rows later
    norm_means: np.ndarray | None = None
    norm_scales: np.ndarray | None = None


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise _NumericalFailure("singular Hessian") from exc


def _dual_direction(Z: np.ndarray, gram: np.ndarray, w: np.ndarray, grad: np.ndarray,
                    ridge: float) -> np.ndarray:
    """Newton direction from one n x n solve, for more columns than rows.

    With s = sqrt(w), S = diag(s) and M = ridge*I + S Z Z^T S, the penalized
    block inverts by Woodbury as (g - Z^T S M^-1 S Z g) / ridge, and the
    intercept's Schur complement is ridge * s^T M^-1 s, which has no
    cancellation in it. gram is Z Z^T, the same at every step.
    """
    s = np.sqrt(w)
    m = s[:, None] * gram
    m *= s
    m.ravel()[::s.size + 1] += ridge  # the diagonal, as a strided view of m
    gz = grad[1:]
    rhs = np.empty((s.size, 2))
    np.multiply(s, Z @ gz, out=rhs[:, 0])
    rhs[:, 1] = s
    sol = _solve(m, rhs)
    back = Z.T @ (s[:, None] * sol)
    d0 = (grad[0] - s @ sol[:, 0]) / (ridge * (s @ sol[:, 1]))
    return np.concatenate(([d0], (gz - back[:, 0]) / ridge - d0 * back[:, 1]))


def _irls(X1: np.ndarray, y: np.ndarray, ridge: float, beta0: np.ndarray | None) -> TrainedModel:
    n, d = X1.shape
    beta = np.zeros(d) if beta0 is None else beta0.copy()
    sign = 1.0 - 2.0 * y
    penalty = np.zeros(d)
    penalty[1:] = ridge
    dual = ridge > 0.0 and d - 1 > n  # then the n x n system is the smaller one
    if dual:
        Z = X1[:, 1:]
        gram = Z @ Z.T
    z = X1 @ beta
    ll = penalized_ll(z, sign, beta, ridge)
    if not np.isfinite(ll):
        raise _NumericalFailure("non-finite starting likelihood")
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        p = sigmoid(z)
        w = p * (1.0 - p)
        grad = X1.T @ (y - p)
        grad -= penalty * beta
        if dual:
            direction = _dual_direction(Z, gram, w, grad, ridge)
        else:
            hessian = X1.T @ (X1 * w[:, None])
            hessian.ravel()[::d + 1] += penalty  # the diagonal, as a strided view
            direction = _solve(hessian, grad)
        if not np.isfinite(direction).all():
            raise _NumericalFailure("non-finite Newton direction")

        # Damped Newton: halve the step until the penalized likelihood stops
        # getting worse, so overshoot on steep slices cannot diverge. When no
        # halving improves, the fit is at its optimum if the predicted gain is
        # below the rounding error of summing n likelihood terms; otherwise
        # the solve produced a junk direction (numerically singular Hessian).
        # The accepted candidate's z is the next step's linear predictor.
        eta = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = beta + eta * direction
            z_new = X1 @ candidate
            ll_new = penalized_ll(z_new, sign, candidate, ridge)
            if np.isfinite(ll_new) and ll_new >= ll:
                break
            eta *= 0.5
        else:
            if 0.0 <= grad @ direction <= n * EPS * abs(ll):
                converged = True
                break
            raise _NumericalFailure("no improving Newton step")
        if not np.isfinite(candidate).all():
            raise _NumericalFailure("non-finite coefficients")
        step = eta * direction
        beta, z, ll = candidate, z_new, ll_new
        if float(np.abs(step).max()) < TOL:
            converged = True
            break
    return TrainedModel(beta=beta, ridge=ridge, converged=converged, iterations=iterations)


def train(
    X: np.ndarray,
    y: np.ndarray,
    *,
    ridge: float,
    beta0: np.ndarray | None = None,
) -> TrainedModel:
    """Fit a logistic model at the given ridge.

    beta0 (intercept first, then one entry per column of X) is tried as the
    start before zeros. Raises DegenerateLabelsError unless y contains both
    classes, and DataError if the fit fails numerically.
    """
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise DataError(f"shape mismatch: X {X.shape}, y {y.shape}")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise DataError("labels must be 0 or 1")
    if (y == y[0]).all():
        raise DegenerateLabelsError("labels contain a single class")
    fitted = np.concatenate(([True], (X != 0.0).any(axis=0)))
    X1 = add_intercept(X[:, fitted[1:]])
    start = None if beta0 is None else beta0[fitted]
    for beta_start in (None,) if start is None else (start, None):
        try:
            model = _irls(X1, y, ridge, beta_start)
        except _NumericalFailure as exc:
            failure = exc
            continue
        if model.converged or beta_start is None:
            beta = np.zeros(fitted.size)
            beta[fitted] = model.beta
            model.beta = beta
            return model
    raise DataError(f"logistic training failed at ridge {ridge}: {failure}") from failure


def predict_proba(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != model.beta.size - 1:
        raise DataError(
            f"model expects {model.beta.size - 1} columns, got {X.shape[1]}"
        )
    return sigmoid(model.beta[0] + X @ model.beta[1:])


def _vec(values: np.ndarray | None) -> str:
    return "" if values is None else ",".join(repr(float(v)) for v in values)


def save_model(model: TrainedModel, columns: list[str], path: str | Path) -> None:
    """model.txt: the model with the name of each of its columns."""
    lines = [
        "stopout-model-v1",
        f"ridge={model.ridge!r}",
        f"converged={int(model.converged)}",
        f"iterations={model.iterations}",
        "columns=" + ",".join(columns),
        "norm_means=" + _vec(model.norm_means),
        "norm_scales=" + _vec(model.norm_scales),
        "beta=" + ",".join(repr(float(b)) for b in model.beta),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
