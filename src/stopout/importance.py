"""Feature importance by stability selection over l1 logistic models.

Many stratified subsamples are fit with an l1 penalty whose per-column
weights are randomly rescaled; a feature's importance is how often its
coefficient survives. Columns repeat once per lag week, in flatten's layout,
so a base feature's score is the max over its copies, then averaged across
prediction problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset_builder import ProblemSpec, class_shuffles, flatten, normalize
from .errors import DataError, DegenerateLabelsError, InsufficientDataError
from .evaluator import STATUS_OK, cell_seed
from .featurizer import FEATURE_IDS, NUM_FEATURES, FeatureMatrix
from .logistic_model import add_intercept, sigmoid
from .tsv import write_table

SELECT_EPS = 1e-6  # a coefficient counts as selected when its magnitude clears this
TOL = 1e-7  # a FISTA step that moves no coordinate by this much ends the fit
MAX_ITER = 1000
CALIBRATION_STEPS = 25
# Cap on the rows of one stack of subsample fits. On a 1k-learner course,
# stacks of 1 to 16 MiB fit at the same speed; a larger cap only costs memory.
STACK_BYTES = 4 << 20
STATUS_CONSTANT = "constant_features"  # no column varies, so no l1 strength can be calibrated


def soft_threshold(v: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """sign(v) * max(|v| - tau, 0), in one new array."""
    shrunk = np.abs(v)
    shrunk -= tau
    np.maximum(shrunk, 0.0, out=shrunk)
    shrunk *= np.sign(v)
    return shrunk


class L1Fit(NamedTuple):
    """One l1 fit: beta with intercept first, the FISTA iterations it ran,
    and whether it stopped by meeting TOL rather than at MAX_ITER."""

    beta: np.ndarray
    iterations: int
    converged: bool


def lipschitz_steps(X1: np.ndarray) -> np.ndarray:
    """FISTA step of each member of an (S, n, d + 1) stack: one over the mean
    logistic loss's exact Lipschitz bound ||X1[s]||_2^2 / 4n."""
    n = X1.shape[1]
    # squared one float64 scalar at a time: a scalar's ** is C pow, which can
    # differ in the last bit from an array's ** 2, a plain multiply
    return np.array([1.0 / (norm ** 2 / (4.0 * n)) for norm in np.linalg.norm(X1, ord=2, axis=(1, 2))])


def l1_logistic(
    X1: np.ndarray,
    y: np.ndarray,
    penalty: np.ndarray,
    step: np.ndarray | None = None,
    init: np.ndarray | None = None,
) -> list[L1Fit]:
    """l1-penalized logistic fits of a stack of problems by FISTA with adaptive restart.

    Member s has the rows X1[s], intercept column first, and the labels y[s].
    It minimizes mean logistic loss plus sum_j penalty[s, j] * |beta_j| over
    the non-intercept coordinates at step size step[s] (lipschitz_steps of X1
    when None), so no line search is needed. Every member starts from init
    (zeros when None). Momentum restarts whenever the proximal step points
    against it (O'Donoghue & Candes 2015, gradient scheme). A member has
    converged when a step moves none of its coordinates by TOL or more; it
    then leaves the stack, as it does after MAX_ITER steps. X1 is compacted
    in place when some members finish before others, so a stack of more than
    one is scratch once this returns. Each product is one BLAS call per
    member, as in a fit of that member alone, so every member's fit is
    bitwise the one it would get alone.
    """
    S, n, d1 = X1.shape
    step = (lipschitz_steps(X1) if step is None else step)[:, None]
    step_tau = np.zeros((S, d1))
    step_tau[:, 1:] = step * penalty
    beta = np.zeros((S, d1)) if init is None else np.tile(init, (S, 1))
    look = beta
    t = np.ones((S, 1))
    members = np.arange(S)  # the member at each stack position
    fits: list[L1Fit] = [None] * S
    for iteration in range(1, MAX_ITER + 1):
        p = sigmoid(X1 @ look[:, :, None])[:, :, 0]
        grad = (X1.transpose(0, 2, 1) @ (p - y)[:, :, None])[:, :, 0]
        grad /= n
        grad *= step
        new_beta = soft_threshold(look - grad, step_tau)
        moved = new_beta - beta
        # restart: this step takes no momentum; a (1, d) @ (d, 1) product is
        # one dot, here of look - new_beta, written over the spent gradient
        back = np.subtract(look, new_beta, out=grad)
        t = np.where((back[:, None, :] @ moved[:, :, None])[:, 0] > 0.0, 1.0, t)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        look = new_beta + ((t - 1.0) / t_new) * moved
        beta = new_beta
        t = t_new
        converged = np.abs(moved).max(axis=1) < TOL
        done = converged | (iteration == MAX_ITER)
        if done.any():
            for k in np.flatnonzero(done):
                fits[members[k]] = L1Fit(beta[k].copy(), iteration, bool(converged[k]))
            if done.all():
                break
            keep = np.flatnonzero(~done)
            for i, k in enumerate(keep):  # compact X1 in place: slots below i are final, k >= i
                if k > i:
                    X1[i] = X1[k]
            X1 = X1[:keep.size]
            members, y, step, step_tau, beta, look, t = (a[keep] for a in (members, y, step, step_tau, beta, look, t))
    return fits


class Calibration(NamedTuple):
    lam: float
    fit: L1Fit  # the full-data fit at lam
    fits: list[L1Fit]  # every fit the calibration ran, in order


def calibrate_lambda(
    X: np.ndarray,
    y: np.ndarray,
    *,
    target_support: int,
) -> Calibration:
    """Pick the l1 strength whose full-data support is closest to the target.

    Support counts base features, not columns: X's columns are weeks of
    NUM_FEATURES features each, as flatten lays them out. CALIBRATION_STEPS
    of geometric bisection between a tiny penalty and the smallest all-zero
    penalty; ties prefer the sparser (larger) lambda. Each step starts from
    the previous step's solution, whose lambda is an endpoint of the current
    interval. The bisection stops at the first midpoint whose support is the
    target: every later midpoint is smaller, and a tie keeps the larger
    lambda, so none of them could replace it.
    """
    n, d = X.shape
    resid = y - float(np.mean(y))
    lam_max = float(np.max(np.abs(X.T @ resid))) / n
    if lam_max <= 0.0:
        raise DataError("cannot calibrate l1 strength on constant labels")
    X1, y1 = add_intercept(X)[None], y[None]  # a stack of one, built once
    step = lipschitz_steps(X1)
    lo, hi = lam_max * 1e-4, lam_max
    best_lam, best_diff, best_fit = hi, abs(0 - target_support), None
    fits: list[L1Fit] = []
    for _ in range(CALIBRATION_STEPS):
        mid = float(np.sqrt(lo * hi))
        [fit] = l1_logistic(X1, y1, np.full((1, d), mid), step, init=fits[-1].beta if fits else None)
        fits.append(fit)
        support = np.count_nonzero((np.abs(fit.beta[1:]) > SELECT_EPS).reshape(-1, NUM_FEATURES).any(axis=0))
        diff = abs(support - target_support)
        if diff < best_diff or (diff == best_diff and mid > best_lam):
            best_lam, best_diff, best_fit = mid, diff, fit
        if support == target_support:
            break
        if support > target_support:
            lo = mid
        else:
            hi = mid
    if best_fit is None:  # no midpoint beat the all-zero lam_max
        [best_fit] = l1_logistic(X1, y1, np.full((1, d), best_lam), step)
        fits.append(best_fit)
    return Calibration(best_lam, best_fit, fits)


def _stratified_subsample(y: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    return np.sort(np.concatenate([m[:max(1, int(round(fraction * m.size)))] for m in class_shuffles(y, rng)]))


def stability_select(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    *,
    subsamples: int,
    fraction: float,
    weight_floor: float,
    target_support: int,
) -> tuple[float, np.ndarray, list[L1Fit]]:
    """Selection frequencies from repeated randomized-l1 fits: the calibrated
    lambda, each base feature's frequency in FEATURE_IDS order, and every l1
    fit run, the calibration's first and then one per round.

    Each round draws fresh per-column penalty weights uniform on
    [weight_floor, 1] and a stratified row subsample; a column counts as
    selected when its coefficient magnitude clears SELECT_EPS. Base-feature
    scores take the max over that feature's weekly copies. Every round starts
    from the calibration's full-data solution. All rounds are drawn first, in
    round order, then fit as stacks of at most STACK_BYTES of rows.
    """
    # Canonical row order: shuffled copies of one dataset must give bitwise
    # equal frequencies, and float sums depend on row order. Ties are only
    # between identical rows, which are interchangeable.
    order = np.lexsort(np.vstack([X.T, y[None, :]]))
    X = X[order]
    y = y[order]
    Xn, _, _, _ = normalize(X)
    X1 = add_intercept(Xn)
    d = X.shape[1]
    lam, full, fits = calibrate_lambda(Xn, y, target_support=target_support)
    rounds = [(rng.uniform(weight_floor, 1.0, size=d), _stratified_subsample(y, fraction, rng))
              for _ in range(subsamples)]
    weights = np.array([w for w, _ in rounds])
    rows = np.array([r for _, r in rounds])  # one length: every round keeps as many of each class
    block = max(1, STACK_BYTES // (rows.shape[1] * X1.shape[1] * X1.itemsize))
    for start in range(0, subsamples, block):
        idx = rows[start:start + block]
        fits += l1_logistic(X1[idx], y[idx], lam * weights[start:start + block], init=full.beta)
    betas = np.array([fit.beta for fit in fits[-subsamples:]])
    freq = np.count_nonzero(np.abs(betas[:, 1:]) > SELECT_EPS, axis=0) / subsamples
    return lam, freq.reshape(-1, NUM_FEATURES).max(axis=0), fits


@dataclass(eq=False)  # == on its frequency array is elementwise, so a generated __eq__ would raise
class ProblemImportance:
    """One problem's stability selection, or the status that skipped it."""

    cohort: str
    lead: int
    lag: int
    status: str
    lam: float | None = None
    base_freq: np.ndarray | None = None  # one frequency per feature, FEATURE_IDS order
    l1_fits: int = 0
    l1_iterations: int = 0
    l1_unconverged: int = 0


def problem_importance(
    matrix: FeatureMatrix,
    spec: ProblemSpec,
    *,
    seed: int,
    subsamples: int,
    fraction: float,
    weight_floor: float,
    target_support: int,
    min_rows: int,
) -> ProblemImportance:
    """Stability selection on one problem, seeded by the problem alone.

    A problem with too few usable rows, fewer than two examples of a class
    or no column that varies is skipped with a typed status, not raised.
    """
    X, y, _ = flatten(matrix, spec)
    pos = int(np.sum(y == 1))
    status = (InsufficientDataError.status if y.size < min_rows
              else DegenerateLabelsError.status if min(pos, y.size - pos) < 2
              else STATUS_CONSTANT if (X == X[0]).all() else STATUS_OK)
    if status != STATUS_OK:
        return ProblemImportance(spec.cohort, spec.lead, spec.lag, status)
    rng = np.random.default_rng(cell_seed(seed, f"importance|{spec.cohort}", spec.lead, spec.lag))
    lam, base_freq, fits = stability_select(
        X, y, rng,
        subsamples=subsamples, fraction=fraction,
        weight_floor=weight_floor, target_support=target_support,
    )
    return ProblemImportance(spec.cohort, spec.lead, spec.lag, STATUS_OK, lam, base_freq, l1_fits=len(fits),
                             l1_iterations=sum(f.iterations for f in fits),
                             l1_unconverged=sum(not f.converged for f in fits))


@dataclass(eq=False)  # as ProblemImportance
class ImportanceReport:
    cohort: str
    problems: list[ProblemImportance] = field(default_factory=list)
    base_freq: np.ndarray | None = None  # FEATURE_IDS order; None when no problem ran

    def ranked(self) -> list[tuple[str, float]]:
        """(feature id, frequency) by descending frequency, ties in FEATURE_IDS order."""
        freq = [] if self.base_freq is None else self.base_freq.tolist()
        return sorted(zip(FEATURE_IDS, freq), key=lambda kv: -kv[1])


def combine_problems(problems: list[ProblemImportance]) -> ImportanceReport:
    """Average base-feature frequencies over the problems that ran, in order."""
    used = [p.base_freq for p in problems if p.status == STATUS_OK]
    labels = {p.cohort for p in problems}
    return ImportanceReport(
        cohort=labels.pop() if len(labels) == 1 else "mixed",
        problems=list(problems),
        base_freq=np.mean(used, axis=0) if used else None,
    )


def run_importance(matrix: FeatureMatrix, specs: list[ProblemSpec], **settings) -> ImportanceReport:
    """Stability selection over a set of problems, averaged per base feature.

    settings are problem_importance's keyword arguments. Problems that cannot
    run keep a recorded status.
    """
    return combine_problems([problem_importance(matrix, spec, **settings) for spec in specs])


IMPORTANCE_COLUMNS = ("cohort", "feature_id", "frequency")
PROBLEM_COLUMNS = ("cohort", "lead", "lag", "status", "lam", "l1_fits", "l1_iterations", "l1_unconverged")


def export_importance(reports: list[ImportanceReport], path: str | Path) -> None:
    write_table(path, IMPORTANCE_COLUMNS, (
        (report.cohort, fid, freq) for report in reports for fid, freq in report.ranked()
    ))


def export_problems(problems: list[ProblemImportance], path: str | Path) -> None:
    """One row per problem: its status, calibrated lambda and l1 solver counts."""
    write_table(path, PROBLEM_COLUMNS, (
        (p.cohort, p.lead, p.lag, p.status, "" if p.lam is None else p.lam,
         p.l1_fits, p.l1_iterations, p.l1_unconverged)
        for p in problems
    ))
