"""Independent reference implementations used only by tests.

Deliberately slow and simple: AUC by exhaustive pair counting in exact
rational arithmetic, logistic maximum likelihood by a dense coefficient grid
search with iterative refinement, and peer percentiles by counting. Production code has to match these,
never the other way around.

The sigmoid and FISTA references are the plain forms of the production
kernels (two masked exps; every product recomputed inside the loop), kept so
the lean kernels can be checked bit for bit against them. The l1 KKT
violation checks any l1 fit against the optimality conditions themselves.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def pairwise_auc(scores, labels) -> Fraction:
    """Exact AUC: over all (positive, negative) pairs, wins count 1 and ties
    count 1/2. No floating-point accumulation anywhere."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        raise ValueError("need both classes")
    twice = 0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                twice += 2
            elif sp == sn:
                twice += 1
    return Fraction(twice, 2 * len(pos) * len(neg))


def percentile_rank(value: float, peers) -> float:
    """Mean-rank percentile of value within peers (peers include the value itself).

    Strictly smaller peers count 1, equal peers count 1/2, all over the peer
    count, so the result is permutation-invariant and lies in [0, 1].
    """
    n = len(peers)
    if n == 0:
        return 0.0
    below = sum(1 for p in peers if p < value)
    ties = sum(1 for p in peers if p == value)
    return (below + 0.5 * ties) / n


def penalized_ll_reference(beta: np.ndarray, X: np.ndarray, y: np.ndarray, ridge: float) -> float:
    """Same objective the trainer maximizes, written independently."""
    X1 = np.hstack([np.ones((X.shape[0], 1)), np.asarray(X, dtype=np.float64)])
    z = X1 @ np.asarray(beta, dtype=np.float64)
    ll = float(np.sum(np.asarray(y, dtype=np.float64) * z - np.logaddexp(0.0, z)))
    return ll - 0.5 * ridge * float(np.sum(np.asarray(beta)[1:] ** 2))


def grid_mle_ll(
    X: np.ndarray,
    y: np.ndarray,
    ridge: float,
    span: float = 8.0,
    points: int = 13,
    rounds: int = 25,
    shrink: float = 0.45,
) -> float:
    """Best penalized log-likelihood found by a recentering dense grid search.

    Each round lays a points^d grid of width +-span around the incumbent and
    jumps to its argmax. The window only shrinks when the argmax is interior,
    so optima outside the initial window are reachable by walking.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    X1 = np.hstack([np.ones((X.shape[0], 1)), X])
    d = X1.shape[1]

    def batch_ll(B: np.ndarray) -> np.ndarray:
        Z = X1 @ B.T
        data = np.sum(y[:, None] * Z - np.logaddexp(0.0, Z), axis=0)
        return data - 0.5 * ridge * np.sum(B[:, 1:] ** 2, axis=1)

    center = np.zeros(d)
    width = span
    best = -np.inf
    for _ in range(rounds):
        axes = [np.linspace(c - width, c + width, points) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        B = np.stack([m.ravel() for m in mesh], axis=1)
        vals = batch_ll(B)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            center = B[k]
        idx = np.unravel_index(k, (points,) * d)
        on_edge = any(i == 0 or i == points - 1 for i in idx)
        if not on_edge:
            width *= shrink
    return best


Z_CLAMP = 709.0


def sigmoid_reference(z: np.ndarray) -> np.ndarray:
    """Clipped logistic function with one exp per sign branch."""
    z = np.clip(np.asarray(z, dtype=np.float64), -Z_CLAMP, Z_CLAMP)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def penalized_gradient(beta: np.ndarray, X1: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """Gradient of the ridge-penalized log-likelihood; beta[0] is unpenalized."""
    p = sigmoid_reference(X1 @ beta)
    grad = X1.T @ (y - p)
    grad[1:] -= ridge * beta[1:]
    return grad


def l1_logistic_reference(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    weights: np.ndarray | None = None,
    tol: float = 1e-7,
    max_iter: int = 1000,
    init: np.ndarray | None = None,
) -> tuple[np.ndarray, int, bool]:
    """FISTA with gradient-scheme adaptive restart for mean logistic loss +
    lam * sum_j weights_j |beta_j|, intercept first, from init (or zeros).

    Returns (beta, iterations run, whether a step moved every coordinate by
    less than tol).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    X1 = np.hstack([np.ones((n, 1)), X])
    if weights is None:
        weights = np.ones(d)
    tau = np.zeros(d + 1)
    tau[1:] = lam * weights

    lipschitz = np.linalg.norm(X1, ord=2) ** 2 / (4.0 * n)
    step = 1.0 / lipschitz
    beta = np.zeros(d + 1) if init is None else np.array(init, dtype=np.float64)
    look = beta
    t = 1.0
    for k in range(max_iter):
        p = sigmoid_reference(X1 @ look)
        grad = X1.T @ (p - y) / n
        v = look - step * grad
        new_beta = np.sign(v) * np.maximum(np.abs(v) - step * tau, 0.0)
        if np.dot(look - new_beta, new_beta - beta) > 0.0:
            t = 1.0  # the step went against the momentum: drop it
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        look = new_beta + ((t - 1.0) / t_new) * (new_beta - beta)
        delta = float(np.max(np.abs(new_beta - beta)))
        beta = new_beta
        t = t_new
        if delta < tol:
            return beta, k + 1, True
    return beta, max_iter, False


def l1_kkt_violation(
    beta: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    weights: np.ndarray | None = None,
) -> float:
    """Largest breach of the optimality conditions of mean logistic loss +
    lam * sum_j weights_j |beta_j| (intercept beta[0] unpenalized).

    With g the loss gradient: g_0 = 0; g_j = -lam w_j sign(beta_j) where
    beta_j != 0; |g_j| <= lam w_j where beta_j = 0. Zero at the exact optimum.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    n, d = X.shape
    X1 = np.hstack([np.ones((n, 1)), X])
    g = X1.T @ (sigmoid_reference(X1 @ beta) - y) / n
    bound = lam * (np.ones(d) if weights is None else np.asarray(weights, dtype=np.float64))
    worst = abs(float(g[0]))
    for j in range(d):
        if beta[j + 1] != 0.0:
            breach = abs(float(g[j + 1]) + bound[j] * np.sign(beta[j + 1]))
        else:
            breach = max(abs(float(g[j + 1])) - bound[j], 0.0)
        worst = max(worst, breach)
    return worst
