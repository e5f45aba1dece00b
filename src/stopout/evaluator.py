"""Model evaluation: ROC AUC, stratified cross-validation, lead/lag grids.

AUC is computed by two routes on every call from the same per-score class
counts (threshold sweep with trapezoids, and the rank statistic with midrank
tie handling in exact integer arithmetic); a disagreement beyond 1e-9 is a
hard error, not a warning. evaluate_cell is the one scorer of a lead/lag cell,
for run-all grids and for train-eval alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset_builder import ALL_COHORT, ProblemSpec, class_shuffles, flatten, normalize, stratified_split
from .errors import DataError, DegenerateLabelsError
from .featurizer import FeatureMatrix
from .logistic_model import TrainedModel, predict_proba, train
from .tsv import read_table, write_table

STATUS_OK = "ok"
STATUS_INSUFFICIENT = "insufficient_data"
STATUS_DEGENERATE = "degenerate_labels"
AUC_ROUTE_TOL = 1e-9


def _counts(y: np.ndarray) -> tuple[int, int]:
    pos = int(np.sum(y == 1))
    neg = int(np.sum(y == 0))
    return pos, neg


def _roc_counts(y: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Checked inputs as positives and negatives at each distinct score, in
    ascending score order, then the two class totals."""
    if y.shape != s.shape or y.ndim != 1:
        raise DataError(f"shape mismatch: labels {y.shape}, scores {s.shape}")
    if not np.all(np.isfinite(s)):
        raise DataError("scores must be finite")
    pos, neg = _counts(y)
    if pos == 0 or neg == 0:
        raise DegenerateLabelsError("ROC needs both classes present")
    distinct, group = np.unique(s, return_inverse=True)
    is_pos = y == 1
    return (np.bincount(group[is_pos], minlength=distinct.size),
            np.bincount(group[~is_pos], minlength=distinct.size), pos, neg)


def _auc_rank(pos_g: np.ndarray, neg_g: np.ndarray, pos: int, neg: int) -> float:
    # Mann-Whitney with midranks, kept in integers until the final division:
    # each positive beats every negative scored strictly below it and half-wins
    # each tied negative, so 2*U stays integral.
    neg_below = np.cumsum(neg_g) - neg_g
    return int(np.sum(pos_g * (2 * neg_below + neg_g))) / (2 * pos * neg)


def _sweep_rates(pos_g: np.ndarray, neg_g: np.ndarray, pos: int, neg: int) -> tuple[np.ndarray, np.ndarray]:
    # Sweep the decision threshold down through every distinct score; each
    # stop adds one (fpr, tpr) operating point after the (0, 0) sentinel.
    fpr = np.concatenate(([0.0], np.cumsum(neg_g[::-1]) / neg))
    tpr = np.concatenate(([0.0], np.cumsum(pos_g[::-1]) / pos))
    return fpr, tpr


def roc_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve; ties earn half credit.

    Raises DegenerateLabelsError when either class is absent.
    """
    counts = _roc_counts(y_true, scores)
    by_rank = _auc_rank(*counts)
    fpr, tpr = _sweep_rates(*counts)
    by_sweep = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]))) / 2.0  # trapezoids
    if abs(by_rank - by_sweep) > AUC_ROUTE_TOL:
        raise DataError(
            f"AUC routes disagree: rank={by_rank!r} sweep={by_sweep!r}"
        )
    return by_rank


def _fold_count(y: np.ndarray, folds: int) -> int:
    """Folds cross-validation can use: at most the minority count, at least 2."""
    pos, neg = _counts(y)
    k = min(folds, pos, neg)
    if k < 2:
        raise DegenerateLabelsError(
            f"cross-validation needs 2+ of each class, got {pos} pos / {neg} neg"
        )
    return k


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    *,
    folds: int,
    ridge: float,
    beta0: np.ndarray | None = None,
) -> list[float]:
    """Stratified k-fold AUCs; k shrinks to the minority count when needed.

    Folds are assigned round-robin within each shuffled class, so every fold
    holds at least one example of each class. Normalization statistics are
    recomputed inside each fold from its own training split. beta0, when
    given, is a model on X's raw scale, intercept first. Each fold fit
    starts from it in that fold's z-scores, where it scores the fold's rows
    as beta0 does; train reruns a start that fails from zeros.
    """
    k = _fold_count(y, folds)
    if k < folds:
        warnings.warn(
            f"reducing cross-validation folds from {folds} to {k} "
            f"(minority class has {k} rows)",
            RuntimeWarning,
            stacklevel=2,
        )
    fold_id = np.empty(y.size, dtype=np.int64)
    for members in class_shuffles(y, rng):
        fold_id[members] = np.arange(members.size) % k
    aucs = []
    for f in range(k):
        test_mask = fold_id == f
        Xtr, Xte, means, scales = normalize(X[~test_mask], X[test_mask])
        start = None if beta0 is None else np.concatenate(([beta0[0] + beta0[1:] @ means], beta0[1:] * scales))
        model = train(Xtr, y[~test_mask], ridge=ridge, beta0=start)
        aucs.append(roc_auc(y[test_mask], predict_proba(model, Xte)))
    return aucs


@dataclass
class CellResult:
    cohort: str
    lead: int
    lag: int
    predicted_week: int
    status: str
    n_rows: int
    n_train: int = 0
    n_test: int = 0
    cv_mean: float | None = None
    train_auc: float | None = None
    test_auc: float | None = None
    folds_used: int = 0  # cross-validation AUCs behind cv_mean


def evaluate_problem(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    cell: CellResult,
    *,
    ratio: float,
    ridge: float,
    folds: int,
) -> TrainedModel:
    """Split, fit on full train and score both sides, then cross-validate;
    write the scores into cell and return the full-train model.

    The folds start from the full-train fit, put on X's raw scale once
    (w = beta[1:] / scales, intercept beta[0] - w . means) and then into
    each fold's own z-scores by cross_validate. The start only saves Newton
    steps: each fold converges to its own optimum. rng draws only the split
    and the folds, so fitting first changes no draw; a cell that cannot
    cross-validate raises before anything is fit, and a raise leaves cell unscored.
    """
    train_idx, test_idx = stratified_split(y, ratio, rng)
    X_train, y_train = X[train_idx], y[train_idx]
    X_test, y_test = X[test_idx], y[test_idx]
    _fold_count(y_train, folds)
    Xtr, Xte, means, scales = normalize(X_train, X_test)
    model = train(Xtr, y_train, ridge=ridge)
    model.norm_means = means
    model.norm_scales = scales
    train_auc = roc_auc(y_train, predict_proba(model, Xtr))
    test_auc = roc_auc(y_test, predict_proba(model, Xte))
    del Xtr, Xte  # not held while the folds allocate their own
    w = model.beta[1:] / scales
    raw = np.concatenate(([model.beta[0] - w @ means], w))
    cv_aucs = cross_validate(X_train, y_train, rng, folds=folds, ridge=ridge, beta0=raw)
    cell.n_train, cell.n_test = int(train_idx.size), int(test_idx.size)
    cell.cv_mean = sum(cv_aucs) / len(cv_aucs)
    cell.train_auc, cell.test_auc = train_auc, test_auc
    cell.folds_used = len(cv_aucs)
    return model


def cell_seed(master_seed: int, cohort: str, lead: int, lag: int) -> int:
    """Stable per-cell RNG seed, independent of grid iteration order."""
    import hashlib  # here, not at the top: it loads OpenSSL, which the ETL commands never need
    key = f"{master_seed}|{cohort}|{lead}|{lag}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:16], "big")


@dataclass
class GridResult:
    cohort: str
    cells: list[CellResult] = field(default_factory=list)


def evaluate_cell(
    matrix: FeatureMatrix,
    spec: ProblemSpec,
    *,
    seed: int,
    min_rows: int,
    ratio: float,
    ridge: float,
    folds: int,
    shuffle_labels: bool = False,
) -> tuple[CellResult, TrainedModel | None]:
    """Evaluate one lead/lag problem: its grid cell and its full-train model.

    A cell that cannot be evaluated gets a typed status, and no model,
    instead of raising: too few eligible learners, or a single-class label
    vector somewhere in the pipeline. shuffle_labels permutes y before
    splitting, as a no-signal control.
    """
    X, y, _ = flatten(matrix, spec)
    cell = CellResult(
        cohort=spec.cohort,
        lead=spec.lead,
        lag=spec.lag,
        predicted_week=spec.predicted_week,
        status=STATUS_OK,
        n_rows=int(y.size),
    )
    if y.size < min_rows:
        cell.status = STATUS_INSUFFICIENT
        return cell, None
    rng = np.random.default_rng(cell_seed(seed, spec.cohort, spec.lead, spec.lag))
    if shuffle_labels:
        y = y[rng.permutation(y.size)]
    try:
        model = evaluate_problem(X, y, rng, cell, ratio=ratio, ridge=ridge, folds=folds)
    except DegenerateLabelsError:
        cell.status = STATUS_DEGENERATE
        return cell, None
    return cell, model


GRID_COLUMNS = (
    "cohort", "lead", "lag", "predicted_week", "status",
    "n_rows", "n_train", "n_test", "cv_mean", "train_auc", "test_auc", "folds_used",
)


def _fmt(value: float | None) -> str | float:
    return "" if value is None else float(value)


def export_grid(grid: GridResult, path: str | Path) -> None:
    write_table(path, GRID_COLUMNS, (
        (c.cohort, c.lead, c.lag, c.predicted_week, c.status, c.n_rows, c.n_train, c.n_test,
         _fmt(c.cv_mean), _fmt(c.train_auc), _fmt(c.test_auc), c.folds_used)
        for c in sorted(grid.cells, key=lambda c: (c.lag, c.lead))
    ))


def heatmap_rows(grid: GridResult, value: str) -> list[list[float | None]]:
    """The lag-by-predicted-week matrix of a grid's value: rows are lag
    1..W-1, columns predicted week 2..W, where W, the grid's span, is the
    largest predicted week of its cells, whatever their status. A cell that
    is not ok, has no value, or lies outside the triangle (predicted week
    <= lag) is None.
    """
    span = max((c.predicted_week for c in grid.cells), default=0)
    by_pos = {(c.lag, c.predicted_week): getattr(c, value) for c in grid.cells if c.status == STATUS_OK}
    return [[by_pos.get((lag, pw)) for pw in range(2, span + 1)] for lag in range(1, span)]


def export_heatmap_matrix(grid: GridResult, path: str | Path, value: str = "test_auc") -> None:
    """heatmap_rows as a table: a lag column, then one column per predicted
    week; None cells are empty strings."""
    matrix = heatmap_rows(grid, value)
    rows = ([lag, *map(_fmt, row)] for lag, row in enumerate(matrix, 1))
    write_table(path, ["lag", *map(str, range(2, len(matrix) + 2))], rows)


def load_grid(path: str | Path) -> GridResult:
    """A grid file's cells; a row of a second cohort, a second row for one
    (lead, lag), a predicted_week other than lead + lag or an AUC not in
    [0, 1] is a DataError naming its line."""
    seen: dict[tuple[int, int], str] = {}  # (lead, lag) -> cohort

    def grid_cell(cells: list[str]) -> CellResult:
        cohort, lead, lag, predicted_week, status, n_rows, n_train, n_test, *aucs, folds_used = cells
        first = next(iter(seen.values()), cohort)
        if cohort != first:
            raise ValueError(f"cohort {cohort} after cohort {first}; a grid file holds one cohort")
        if (int(lead), int(lag)) in seen:
            raise ValueError(f"second row for lead {lead} lag {lag}")
        seen[int(lead), int(lag)] = cohort
        if int(predicted_week) != int(lead) + int(lag):
            raise ValueError(f"predicted_week {predicted_week} is not lead + lag = {int(lead) + int(lag)}")
        if bad := [f"{name} {v}" for name, v in zip(GRID_COLUMNS[8:-1], aucs) if v and not 0.0 <= float(v) <= 1.0]:
            raise ValueError(f"{bad[0]} is not an AUC in [0, 1]")  # nan fails the range test too
        return CellResult(cohort, int(lead), int(lag), int(predicted_week), status, int(n_rows), int(n_train),
                          int(n_test), *(float(v) if v else None for v in aucs), int(folds_used))

    cells = list(read_table(path, GRID_COLUMNS, grid_cell))
    return GridResult(cohort=cells[-1].cohort if cells else ALL_COHORT, cells=cells)
