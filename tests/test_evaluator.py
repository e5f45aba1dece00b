"""ROC computation, cross-validation, and the lead/lag evaluation grid."""

from __future__ import annotations

import copy
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_course, defaults, synth_config
from oracles import irls_reference, pairwise_auc
from stopout import evaluator
from stopout.cli import CELL_KEYS
from stopout.cohorts import COHORTS, PASSIVE
from stopout.dataset_builder import ALL_COHORT, ProblemSpec, enumerate_problems, flatten, stratified_split
from stopout.errors import DataError, DegenerateLabelsError, InsufficientDataError
from stopout.evaluator import (
    STATUS_OK,
    CellResult,
    cell_seed,
    cross_validate,
    evaluate_cell,
    evaluate_problem,
    export_grid,
    export_heatmap_matrix,
    load_grid,
    _roc_counts,
    _sweep_rates,
    roc_auc,
)
from stopout.logistic_model import train
from stopout.tsv import read_table

STATUS_INSUFFICIENT, STATUS_DEGENERATE = InsufficientDataError.status, DegenerateLabelsError.status


def run_grid(matrix, cohort=ALL_COHORT, specs=None, **settings) -> list[CellResult]:
    """Every lead/lag cell of one population, or just the cells of specs, at
    the configured settings but for those given."""
    if specs is None:
        specs = enumerate_problems(matrix.num_weeks, cohort=cohort)
    return [evaluate_cell(matrix, spec, **defaults(*CELL_KEYS, **settings))[0] for spec in specs]

def labelled_scores(max_n: int, score: st.SearchStrategy) -> st.SearchStrategy:
    """Labels with both classes present, then one score per label."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
                lambda ls: 0 < sum(ls) < len(ls)
            ),
            st.lists(score, min_size=n, max_size=n),
        )
    )


# small integer scores, to exercise ties and mid cases
binary_case = labelled_scores(25, st.integers(-5, 5))
# real-valued scores, mostly distinct
float_case = labelled_scores(60, st.floats(-1e6, 1e6))


# ---------------------------------------------------------------------------
# roc_auc

def test_auc_examples():
    assert roc_auc(np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert roc_auc(np.array([1, 1, 0, 0]), np.array([0.1, 0.2, 0.8, 0.9])) == 0.0
    assert roc_auc(np.array([0, 1, 0, 1]), np.array([0.4, 0.4, 0.4, 0.4])) == 0.5
    assert roc_auc(np.array([1, 0, 1, 0]), np.array([0.9, 0.8, 0.7, 0.6])) == 0.75
    assert roc_auc(np.array([1, 0]), np.array([0.5, 0.5])) == 0.5


def test_auc_errors():
    with pytest.raises(DegenerateLabelsError):
        roc_auc(np.array([1, 1]), np.array([0.1, 0.2]))
    with pytest.raises(DataError, match="shape"):
        roc_auc(np.array([1, 0]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(DataError, match="finite"):
        roc_auc(np.array([1, 0]), np.array([np.nan, 0.2]))


@given(binary_case)
def test_auc_matches_pairwise_oracle(case):
    labels, scores = case
    y = np.array(labels, dtype=float)
    s = np.array(scores, dtype=float)
    assert roc_auc(y, s) == float(pairwise_auc(s, y))


@given(binary_case)
def test_auc_complement_identity(case):
    labels, scores = case
    y = np.array(labels, dtype=float)
    s = np.array(scores, dtype=float)
    assert roc_auc(y, s) + roc_auc(y, -s) == pytest.approx(1.0, abs=1e-12)
    assert pairwise_auc(s, y) + pairwise_auc(-s, y) == Fraction(1)


@given(binary_case)
def test_auc_invariant_under_monotone_transform(case):
    labels, scores = case
    y = np.array(labels, dtype=float)
    s = np.array(scores, dtype=float)
    assert roc_auc(y, 3.0 * s + 10.0) == roc_auc(y, s)


# ---------------------------------------------------------------------------
# ROC points: the sweep route roc_auc integrates

def roc_points(y_true, scores) -> list[tuple[float, float]]:
    fpr, tpr = _sweep_rates(*_roc_counts(y_true, scores))
    return list(zip(fpr.tolist(), tpr.tolist()))


def test_roc_points_shape_and_area():
    y = np.array([1, 0, 1, 0, 1])
    s = np.array([0.9, 0.8, 0.7, 0.3, 0.2])
    pts = roc_points(y, s)
    assert pts[0] == (0.0, 0.0)
    assert pts[-1] == (1.0, 1.0)
    assert len(pts) == 6  # distinct thresholds + sentinel
    xs, ys = zip(*pts)
    assert all(a <= b for a, b in zip(xs, xs[1:]))
    assert all(a <= b for a, b in zip(ys, ys[1:]))
    area = sum(
        (x1 - x0) * (y1 + y0) / 2 for (x0, y0), (x1, y1) in zip(pts, pts[1:])
    )
    assert area == pytest.approx(roc_auc(y, s), abs=1e-9)


def test_roc_points_merges_ties():
    pts = roc_points(np.array([1, 0, 1, 0]), np.array([0.5, 0.5, 0.5, 0.5]))
    assert pts == [(0.0, 0.0), (1.0, 1.0)]


def test_roc_points_needs_both_classes():
    with pytest.raises(DegenerateLabelsError):
        roc_points(np.array([0, 0]), np.array([0.1, 0.2]))


def test_roc_points_checks_scores_as_roc_auc_does():
    with pytest.raises(DataError, match="finite"):
        roc_points(np.array([1, 0, 1]), np.array([np.nan, 0.2, np.nan]))
    with pytest.raises(DataError, match="shape"):
        roc_points(np.array([1, 0]), np.array([0.1, 0.2, 0.3]))


@given(binary_case | float_case)
def test_roc_points_equal_direct_threshold_counts(case):
    # after (0, 0), one point per distinct score t, highest first: the share
    # of each class scored t or above
    labels, scores = case
    pos, neg = sum(labels), len(labels) - sum(labels)
    expected = [(0.0, 0.0)] + [
        (sum(1 for label, score in zip(labels, scores) if label == 0 and score >= t) / neg,
         sum(1 for label, score in zip(labels, scores) if label == 1 and score >= t) / pos)
        for t in sorted(set(scores), reverse=True)
    ]
    assert roc_points(np.array(labels, dtype=float), np.array(scores, dtype=float)) == expected


# ---------------------------------------------------------------------------
# cross-validation

def balanced_problem(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    z = X @ np.array([2.0, -1.0, 0.0])
    y = (rng.random(n) < 1 / (1 + np.exp(-z))).astype(float)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y


def blank_cell() -> CellResult:
    return CellResult(cohort=ALL_COHORT, lead=1, lag=1, predicted_week=2, status=STATUS_OK, n_rows=0)


def test_cv_returns_one_auc_per_fold():
    X, y = balanced_problem(100)
    aucs = cross_validate(X, y, np.random.default_rng(0), folds=10, **defaults("ridge"))
    assert len(aucs) == 10
    assert all(0.0 <= a <= 1.0 for a in aucs)


def test_cv_is_seed_deterministic():
    X, y = balanced_problem(80, seed=3)
    a = cross_validate(X, y, np.random.default_rng(5), folds=5, **defaults("ridge"))
    b = cross_validate(X, y, np.random.default_rng(5), folds=5, **defaults("ridge"))
    assert a == b


def test_cv_reduces_folds_to_the_minority_count():
    # the reduction shows as the number of AUCs (a cell's folds_used), and nowhere else
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 2))
    y = np.zeros(40)
    y[:3] = 1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        aucs = cross_validate(X, y, np.random.default_rng(0), folds=10, **defaults("ridge"))
    assert len(aucs) == 3
    assert caught == []


def test_cv_floor_is_two_folds():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 2))
    y = np.zeros(20)
    y[0] = 1.0
    with pytest.raises(DegenerateLabelsError, match="cross-validation"):
        cross_validate(X, y, np.random.default_rng(0), folds=10, **defaults("ridge"))


def test_folds_start_from_the_full_train_fit(monkeypatch):
    # each fold starts from the full-train model in that fold's own z-scores,
    # so on the fold's training rows the start predicts what the model does
    X, y = balanced_problem(80, seed=4)
    settings = defaults("ratio", "ridge")
    # a column constant (3.0) in the one fold that holds out its single 5.0:
    # train drops it there, and its 3.0 goes into the start's intercept
    row = stratified_split(y, settings["ratio"], np.random.default_rng(3))[0][0]
    X = np.column_stack([X, np.full(80, 3.0)])
    X[row, -1] = 5.0
    raw_rows, calls = [], []
    real_normalize = evaluator.normalize

    def normalize_spy(X_train, X_test):
        raw_rows.append(X_train)
        return real_normalize(X_train, X_test)

    def train_spy(X, y, **kwargs):
        calls.append((X, kwargs.get("beta0")))
        return train(X, y, **kwargs)

    monkeypatch.setattr(evaluator, "normalize", normalize_spy)
    monkeypatch.setattr(evaluator, "train", train_spy)
    model = evaluate_problem(X, y, np.random.default_rng(3), blank_cell(), folds=5, **settings)
    assert len(calls) == len(raw_rows) == 6 and calls[0][1] is None
    assert model.beta[-1] != 0.0
    constant = []
    for raw, (Xz, start) in zip(raw_rows[1:], calls[1:]):
        ours = start[0] + Xz @ start[1:]
        full = model.beta[0] + ((raw - model.norm_means) / model.norm_scales) @ model.beta[1:]
        assert np.abs(ours - full).max() <= 1e-12 * np.abs(full).max()
        constant.append(not Xz[:, -1].any())
    assert sum(constant) == 1


def test_warm_started_folds_score_as_cold_started_ones(tmp_path, monkeypatch):
    # the full-train beta is a speed device only: from zeros, with the same
    # fold draw, every fold of every ok cell of run-all's pinned course scores the same AUC
    m = build_course(tmp_path, synth_config(num_learners=400, num_weeks=6, seed=7)).matrix
    same, real = [], evaluator.cross_validate

    def warm_and_cold(X, y, rng, **kwargs):
        cold = real(X, y, copy.deepcopy(rng), **{**kwargs, "beta0": None})
        warm = real(X, y, rng, **kwargs)
        same.append(warm == cold)
        return warm

    monkeypatch.setattr(evaluator, "cross_validate", warm_and_cold)
    specs = [s for cohort in (ALL_COHORT, *COHORTS) for s in enumerate_problems(m.num_weeks, cohort=cohort)]
    cells = run_grid(m, specs=specs, seed=0)
    assert len(same) == sum(c.status == STATUS_OK for c in cells) >= len(specs) // 2
    assert [cell for cell, equal in zip((c for c in cells if c.status == STATUS_OK), same) if not equal] == []


def test_a_cell_that_cannot_cross_validate_fits_nothing(monkeypatch):
    X, y = balanced_problem(30, seed=1)
    y[:] = 0.0
    y[:2] = 1.0  # one positive reaches the train split: no 2-fold CV

    def fail(*args, **kwargs):
        raise AssertionError("train called")

    monkeypatch.setattr(evaluator, "train", fail)
    cell = blank_cell()
    with pytest.raises(DegenerateLabelsError, match="cross-validation"):
        evaluate_problem(X, y, np.random.default_rng(0), cell, folds=10, **defaults("ratio", "ridge"))
    assert cell == blank_cell()


def test_a_cell_whose_folds_fail_keeps_no_scores(monkeypatch):
    X, y = balanced_problem(80, seed=4)

    def fail(*args, **kwargs):
        raise DegenerateLabelsError("a fold lost a class")

    monkeypatch.setattr(evaluator, "cross_validate", fail)
    cell = blank_cell()
    with pytest.raises(DegenerateLabelsError, match="a fold lost a class"):
        evaluate_problem(X, y, np.random.default_rng(3), cell, folds=5, **defaults("ratio", "ridge"))
    assert cell == blank_cell()  # the train and test AUCs were computed, not kept


def test_grid_scores_equal_the_reference_fitter(small_course, monkeypatch):
    m = small_course.matrix
    specs = [s for cohort in COHORTS for s in enumerate_problems(m.num_weeks, cohort=cohort)]

    def scores():
        cells = run_grid(m, specs=specs, seed=4, folds=5)
        return [(c.status, c.cv_mean, c.train_auc, c.test_auc, c.folds_used) for c in cells]

    ours = scores()
    monkeypatch.setattr(evaluator, "train", irls_reference)
    reference = scores()
    assert sum(s[0] == STATUS_OK for s in ours) >= len(specs) // 2
    assert any(s[0] == STATUS_OK and s[-1] < 5 for s in ours)  # the small cohorts' minority classes hold < 5 rows
    assert ours == reference


def test_cv_tracks_heldout_auc_on_planted_cell(planted_course):
    X, y, _ = flatten(planted_course.matrix, ProblemSpec(lead=1, lag=3))
    cell = blank_cell()
    model = evaluate_problem(X, y, np.random.default_rng(11), cell, folds=10, **defaults("ratio", "ridge"))
    assert abs(cell.cv_mean - cell.test_auc) < 0.05
    assert cell.n_train + cell.n_test == y.size and cell.folds_used == 10
    assert model.norm_means is not None and model.norm_means.size == X.shape[1]
    assert model.beta.size == X.shape[1] + 1


# ---------------------------------------------------------------------------
# grid

def test_grid_on_tiny_course_is_insufficient(fixture_matrix):
    grid = run_grid(fixture_matrix, seed=0)
    assert len(grid) == 1
    cell = grid[0]
    assert cell.status == STATUS_INSUFFICIENT
    assert cell.n_rows == 4
    assert cell.cv_mean is None and cell.test_auc is None


def test_grid_degenerate_cell_is_typed(fixture_matrix):
    grid = run_grid(fixture_matrix, seed=0, min_rows=3)
    assert grid[0].status == STATUS_DEGENERATE


def test_grid_covers_all_problems(small_course):
    m = small_course.matrix
    grid = run_grid(m, seed=9, ridge=1e-6, folds=5)
    assert len(grid) == (m.num_weeks - 1) * m.num_weeks // 2
    stopout = m.stopout_week
    for cell in grid:
        assert cell.status in (STATUS_OK, STATUS_INSUFFICIENT, STATUS_DEGENERATE)
        assert cell.predicted_week == cell.lead + cell.lag
        assert cell.n_rows == int(np.sum(stopout > cell.lag))
        if cell.status == STATUS_OK:
            assert cell.n_train + cell.n_test == cell.n_rows
            for v in (cell.cv_mean, cell.train_auc, cell.test_auc):
                assert v is not None and 0.0 <= v <= 1.0
    assert any(c.status == STATUS_OK for c in grid)


def test_cell_records_the_folds_cross_validation_used(small_course):
    m = small_course.matrix
    full, _ = evaluate_cell(m, ProblemSpec(lead=1, lag=1), **defaults(*CELL_KEYS, seed=4, folds=4))
    assert full.status == STATUS_OK and full.folds_used == 4
    reduced, _ = evaluate_cell(m, ProblemSpec(lead=1, lag=1), **defaults(*CELL_KEYS, seed=4, folds=1000))
    # the train split the cell draws first from its own generator, and its minority count
    y = flatten(m, ProblemSpec(lead=1, lag=1))[1]
    rng = np.random.default_rng(cell_seed(4, ALL_COHORT, 1, 1))
    y_train = y[stratified_split(y, defaults("ratio")["ratio"], rng)[0]]
    k = min(1000, int(np.sum(y_train == 1)), int(np.sum(y_train == 0)))
    assert reduced.folds_used == k and 2 <= k < 1000
    skipped, no_model = evaluate_cell(m, ProblemSpec(lead=1, lag=1), **defaults(*CELL_KEYS, min_rows=10**9))
    assert skipped.status == STATUS_INSUFFICIENT and skipped.folds_used == 0
    assert no_model is None


def test_grid_cells_do_not_depend_on_iteration_order(small_course):
    m = small_course.matrix
    specs = [ProblemSpec(lead=1, lag=1), ProblemSpec(lead=2, lag=3), ProblemSpec(lead=3, lag=2)]
    a = run_grid(m, seed=4, folds=4, specs=specs)
    b = run_grid(m, seed=4, folds=4, specs=list(reversed(specs)))
    by_key = {(c.lead, c.lag): c for c in b}
    for cell in a:
        assert by_key[(cell.lead, cell.lag)] == cell


def test_grid_label_shuffle_is_deterministic_and_destroys_signal(small_course):
    m = small_course.matrix
    specs = [ProblemSpec(lead=1, lag=2)]
    a = run_grid(m, seed=4, folds=4, specs=specs, shuffle_labels=True)
    b = run_grid(m, seed=4, folds=4, specs=specs, shuffle_labels=True)
    assert a[0] == b[0]
    real = run_grid(m, seed=4, folds=4, specs=specs)
    assert real[0].test_auc != a[0].test_auc


def test_grid_cohort_restriction(small_course):
    grid = run_grid(
        small_course.matrix,
        cohort=PASSIVE,
        seed=1,
        folds=4,
        specs=[ProblemSpec(lead=1, lag=1, cohort=PASSIVE)],
    )
    assert grid[0].cohort == PASSIVE
    in_cohort = sum(1 for c in small_course.assignments.values() if c == PASSIVE)
    stopout = small_course.matrix.stopout_week
    eligible = {
        lid
        for lid, so in zip(small_course.matrix.learners, stopout.tolist())
        if so > 1 and small_course.assignments.get(lid) == PASSIVE
    }
    assert grid[0].n_rows == len(eligible) <= in_cohort


def test_cell_seed_is_stable_and_distinct():
    base = cell_seed(42, "all", 1, 2)
    assert base == cell_seed(42, "all", 1, 2)
    others = {
        cell_seed(42, "all", 2, 1),
        cell_seed(42, "passive_collaborator", 1, 2),
        cell_seed(43, "all", 1, 2),
    }
    assert base not in others
    assert 0 <= base < 2**128


# ---------------------------------------------------------------------------
# exports

def test_grid_round_trip(small_course, tmp_path):
    grid = run_grid(small_course.matrix, seed=2, folds=4, specs=[
        ProblemSpec(lead=1, lag=1), ProblemSpec(lead=1, lag=2), ProblemSpec(lead=5, lag=1),
    ])
    path = tmp_path / "grid.tsv"
    export_grid(grid, path)
    again = load_grid(path)
    assert sorted(
        (c.lead, c.lag) for c in again
    ) == sorted((c.lead, c.lag) for c in grid)
    by_key = {(c.lead, c.lag): c for c in again}
    for cell in grid:
        assert by_key[(cell.lead, cell.lag)] == cell


def test_grid_round_trip_keeps_folds_used(tmp_path):
    grid = [
        CellResult(cohort="all", lead=1, lag=1, predicted_week=2, status=STATUS_OK, n_rows=12,
                   n_train=8, n_test=4, cv_mean=0.75, train_auc=1.0, test_auc=0.5, folds_used=3),
        CellResult(cohort="all", lead=2, lag=1, predicted_week=3, status=STATUS_INSUFFICIENT, n_rows=3),
    ]
    path = tmp_path / "grid.tsv"
    export_grid(grid, path)
    header, ok_row, skipped_row = path.read_text(encoding="utf-8").splitlines()
    assert header.split("\t")[-1] == "folds_used"
    assert ok_row.split("\t")[-1] == "3" and skipped_row.split("\t")[-1] == "0"
    assert load_grid(path) == grid


def test_grid_export_is_sorted_by_lag_then_lead(small_course, tmp_path):
    grid = run_grid(small_course.matrix, seed=2, folds=4)
    path = tmp_path / "grid.tsv"
    export_grid(grid, path)
    rows = [ln.split("\t") for ln in path.read_text(encoding="utf-8").splitlines()[1:]]
    keys = [(int(r[2]), int(r[1])) for r in rows]
    assert keys == sorted(keys)


def read_heatmap(path, num_weeks):
    """A heatmap matrix as {(lag, predicted_week): value}, read through the codec."""
    weeks = range(2, num_weeks + 1)
    return {
        (int(row[0]), pw): float(cell)
        for row in read_table(path, ["lag", *map(str, weeks)])
        for pw, cell in zip(weeks, row[1:])
        if cell
    }


def test_heatmap_matrix_round_trip(small_course, tmp_path):
    grid = run_grid(small_course.matrix, seed=2, folds=4)
    path = tmp_path / "heat.tsv"
    export_heatmap_matrix(grid, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    W = small_course.matrix.num_weeks
    assert lines[0].split("\t") == ["lag"] + [str(pw) for pw in range(2, W + 1)]
    assert len(lines) == W  # header + one row per lag
    loaded = read_heatmap(path, W)
    expected = {
        (c.lag, c.predicted_week): c.test_auc
        for c in grid
        if c.status == STATUS_OK
    }
    assert loaded == expected  # repr round-trips floats bit-exactly


def test_heatmap_matrix_leaves_invalid_cells_empty(tmp_path):
    grid = [
        CellResult(cohort="all", lead=1, lag=1, predicted_week=2, status=STATUS_OK,
                   n_rows=50, n_train=35, n_test=15, cv_mean=0.8, train_auc=0.9, test_auc=0.85),
        CellResult(cohort="all", lead=2, lag=1, predicted_week=3, status=STATUS_INSUFFICIENT, n_rows=3),
        CellResult(cohort="all", lead=1, lag=2, predicted_week=3, status=STATUS_DEGENERATE, n_rows=40),
    ]
    path = tmp_path / "heat.tsv"
    export_heatmap_matrix(grid, path)
    assert read_heatmap(path, 3) == {(1, 2): 0.85}
    row_lag1 = path.read_text(encoding="utf-8").splitlines()[1].split("\t")
    assert row_lag1 == ["1", "0.85", ""]


def test_load_grid_rejects_a_second_row_for_one_cell(tmp_path):
    # two heatmaps of this grid would differ: the matrix keeps the ok cell, the SVG the last one
    grid = [
        CellResult(cohort="all", lead=1, lag=1, predicted_week=2, status=STATUS_OK, n_rows=50,
                   n_train=35, n_test=15, cv_mean=0.8, train_auc=0.9, test_auc=0.85, folds_used=3),
        CellResult(cohort="all", lead=1, lag=1, predicted_week=2, status=STATUS_INSUFFICIENT, n_rows=3),
    ]
    path = tmp_path / "grid.tsv"
    export_grid(grid, path)
    with pytest.raises(DataError, match=r"grid\.tsv:3: second row for lead 1 lag 1$"):
        load_grid(path)


def test_load_grid_rejects_rows_of_a_second_cohort(tmp_path):
    grid = [
        CellResult(cohort="all", lead=1, lag=1, predicted_week=2, status=STATUS_INSUFFICIENT, n_rows=3),
        CellResult(cohort=PASSIVE, lead=2, lag=1, predicted_week=3, status=STATUS_INSUFFICIENT, n_rows=3),
    ]
    path = tmp_path / "grid.tsv"
    export_grid(grid, path)
    with pytest.raises(DataError, match=rf"grid\.tsv:3: cohort {PASSIVE} after cohort all; a grid file holds one cohort"):
        load_grid(path)


def test_loaders_reject_junk(tmp_path):
    junk = tmp_path / "junk.tsv"
    junk.write_text("nope\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_grid(junk)
    with pytest.raises(DataError, match="not found"):
        load_grid(tmp_path / "absent.tsv")
