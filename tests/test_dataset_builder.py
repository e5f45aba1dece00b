"""Problem enumeration, flattening, splitting, and normalization."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import fold_ids_reference, stratified_split_reference, stratified_subsample_reference
from stopout import evaluator
from stopout.cohorts import WIKI, join_cohorts
from stopout.dataset_builder import (
    ProblemSpec,
    class_shuffles,
    column_names,
    enumerate_problems,
    flatten,
    normalize,
    stratified_split,
)
from stopout.errors import ConfigError
from stopout.evaluator import cross_validate
from stopout.featurizer import FEATURE_IDS, NUM_FEATURES, FeatureMatrix
from stopout.importance import _stratified_subsample


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_counts():
    assert len(enumerate_problems(14)) == 91
    assert enumerate_problems(2) == [ProblemSpec(lead=1, lag=1)]


def test_predicted_week_is_lead_plus_lag():
    assert ProblemSpec(lead=5, lag=3).predicted_week == 8


@given(st.integers(2, 30))
def test_enumerate_structure(num_weeks):
    specs = enumerate_problems(num_weeks)
    assert len(specs) == (num_weeks - 1) * num_weeks // 2
    assert len({(s.lead, s.lag) for s in specs}) == len(specs)
    assert all(2 <= s.predicted_week <= num_weeks for s in specs)
    for lag in range(1, num_weeks):
        assert sum(1 for s in specs if s.lag == lag) == num_weeks - lag


def test_enumerate_carries_cohort():
    specs = enumerate_problems(4, cohort=WIKI)
    assert all(s.cohort == WIKI for s in specs)


def test_spec_rejects_nonpositive_lead_lag():
    with pytest.raises(ConfigError):
        ProblemSpec(lead=0, lag=1)
    with pytest.raises(ConfigError):
        ProblemSpec(lead=1, lag=-2)


# ---------------------------------------------------------------------------
# flattening

def test_column_names_are_week_major():
    cols = column_names(2)
    assert len(cols) == 2 * NUM_FEATURES == 54
    assert cols[0] == "w1_x2"
    assert cols[NUM_FEATURES - 1] == "w1_x210"
    assert cols[NUM_FEATURES] == "w2_x2"
    assert cols[-1] == "w2_x210"


def test_flatten_fixture_lead1_lag1(fixture_matrix):
    X, y, learners = flatten(fixture_matrix, ProblemSpec(lead=1, lag=1))
    assert learners == ["alice", "bob", "dave", "eve"]
    assert X.shape == (4, NUM_FEATURES)
    assert y.tolist() == [1.0, 0.0, 1.0, 0.0]


def test_flatten_is_a_view_of_the_cube(small_course):
    m = small_course.matrix
    spec = ProblemSpec(lead=2, lag=3)
    X, y, learners = flatten(m, spec)
    assert X.shape == (len(learners), 3 * NUM_FEATURES)
    row_of = {lid: i for i, lid in enumerate(m.learners)}
    for r, lid in enumerate(learners):
        cube_rows = m.values[row_of[lid], :3, :].reshape(-1)
        assert np.array_equal(X[r], cube_rows)
        assert y[r] == m.labels[row_of[lid], spec.predicted_week - 1]


def test_flatten_excludes_learners_alive_only_during_lag(small_course):
    m = small_course.matrix
    stopout = dict(zip(m.learners, m.stopout_week.tolist()))
    for spec in enumerate_problems(m.num_weeks):
        _, _, learners = flatten(m, spec)
        assert all(stopout[lid] > spec.lag for lid in learners)
        expected = int(np.sum(m.stopout_week > spec.lag))
        assert len(learners) == expected


def test_flatten_cohort_restriction(fixture_matrix, fixture_cohorts):
    X, y, learners = flatten(join_cohorts(fixture_matrix, fixture_cohorts), ProblemSpec(lead=1, lag=1, cohort=WIKI))
    assert learners == ["dave"]
    assert y.tolist() == [1.0]


def test_flatten_cohort_needs_assignments(fixture_matrix):
    with pytest.raises(ConfigError, match="assignments"):
        flatten(fixture_matrix, ProblemSpec(lead=1, lag=1, cohort=WIKI))


def test_flatten_rejects_predicted_week_past_course(fixture_matrix):
    with pytest.raises(ConfigError, match="exceeds"):
        flatten(fixture_matrix, ProblemSpec(lead=2, lag=1))


def test_flatten_empty_cell_keeps_column_width():
    # every learner stops before surviving a lag-2 window, so the design is
    # empty; its width must still be lag * features, not an inference error
    rng = np.random.default_rng(0)
    matrix = FeatureMatrix(
        learners=["a", "b"],
        num_weeks=4,
        values=rng.normal(size=(2, 4, NUM_FEATURES)),
        labels=np.zeros((2, 4), dtype=np.int8),
        stopout_week=np.array([2, 2]),
    )
    matrix.labels[:, 0] = 1
    X, y, learners = flatten(matrix, ProblemSpec(lead=1, lag=2))
    assert X.shape == (0, 2 * NUM_FEATURES)
    assert y.shape == (0,)
    assert learners == []


# ---------------------------------------------------------------------------
# splitting

def test_split_example_five_and_five():
    y = np.array([0.0] * 5 + [1.0] * 5)
    train, test = stratified_split(y, 0.7, np.random.default_rng(0))
    assert train.size == 7 and test.size == 3
    for cls in (0.0, 1.0):
        assert int(np.sum(y[train] == cls)) in (3, 4)
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(10))


def test_split_is_seed_deterministic():
    y = (np.arange(40) % 3 == 0).astype(float)
    a_train, a_test = stratified_split(y, 0.7, np.random.default_rng(11))
    b_train, b_test = stratified_split(y, 0.7, np.random.default_rng(11))
    assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)
    c_train, _ = stratified_split(y, 0.7, np.random.default_rng(12))
    assert not np.array_equal(a_train, c_train)


def test_split_rejects_degenerate_ratio():
    y = np.array([0.0, 1.0])
    for ratio in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ConfigError, match="ratio"):
            stratified_split(y, ratio, np.random.default_rng(0))


@given(
    st.lists(st.integers(0, 2), min_size=2, max_size=60),
    st.one_of(st.floats(0.05, 0.95), st.sampled_from([1e-9, 1 - 2**-53])),
    st.integers(0, 2**31),
)
def test_split_is_stratified(labels, ratio, seed):
    y = np.array(labels, dtype=float)
    train, test = stratified_split(y, ratio, np.random.default_rng(seed))
    assert train.size == int(round(ratio * y.size))
    assert train.size + test.size == y.size
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(y.size))
    assert np.array_equal(train, np.sort(train))
    for cls in np.unique(y):
        n_cls = int(np.sum(y == cls))
        got = int(np.sum(y[train] == cls))
        assert got in (int(ratio * n_cls), int(ratio * n_cls) + 1)


def fold_test_rows(y: np.ndarray, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """The test rows of each fold cross_validate runs, read off the rows it
    normalizes; every fit and score is stubbed out, so rng draws only the folds."""
    seen = []

    def spy(X_train, X_test):
        seen.append(X_test[:, 0].astype(np.int64))
        return X_train, X_test, None, None

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # fewer folds than asked for
        mp.setattr(evaluator, "normalize", spy)
        mp.setattr(evaluator, "train", lambda X, y, **kw: None)
        mp.setattr(evaluator, "predict_proba", lambda model, X: np.zeros(len(X)))
        mp.setattr(evaluator, "roc_auc", lambda y, scores: 0.5)
        cross_validate(np.arange(y.size, dtype=float)[:, None], y, rng, folds=folds, ridge=1.0)
    return seen


def same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and np.array_equal(got, want)


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=60),  # stability_select never sees an empty problem
    st.lists(st.integers(0, 2), max_size=60),
    st.one_of(st.floats(0.05, 0.95), st.sampled_from([1e-9, 1 - 2**-53])),
    st.one_of(st.floats(0.01, 1.0), st.sampled_from([1e-9, 1.0])),
    st.integers(2, 12),
    st.integers(0, 2**31),
)
def test_stratified_draws_match_the_samplers_they_replace(labels, split_labels, ratio, fraction, folds, seed):
    """Same indices, and the generator left in the same state: the next draw is equal."""
    y, y3 = np.array(labels, dtype=float), np.array(split_labels, dtype=float)
    shuffles = class_shuffles(y3, np.random.default_rng(seed))
    assert [np.sort(s).tolist() for s in shuffles] == [np.flatnonzero(y3 == c).tolist() for c in np.unique(y3)]

    new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = stratified_split(y3, ratio, new), stratified_split_reference(y3, ratio, ref)
    assert same(got[0], want[0]) and same(got[1], want[1])
    assert new.random() == ref.random()

    new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert same(_stratified_subsample(y, fraction, new), stratified_subsample_reference(y, fraction, ref))
    assert new.random() == ref.random()

    k = min(folds, labels.count(0), labels.count(1))
    if k >= 2:  # else cross_validate raises before it draws
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        fold_id = fold_ids_reference(y, k, ref)
        got = fold_test_rows(y, folds, new)
        assert len(got) == k and all(same(g, np.flatnonzero(fold_id == f)) for f, g in enumerate(got))
        assert new.random() == ref.random()


# ---------------------------------------------------------------------------
# normalization

def test_normalize_example():
    X_train = np.array([[8.0], [12.0]])
    X_test = np.array([[14.0]])
    train, test, means, scales = normalize(X_train, X_test)
    assert means.tolist() == [10.0] and scales.tolist() == [2.0]
    assert test.tolist() == [[2.0]]
    assert train.tolist() == [[-1.0], [1.0]]


def test_normalize_constant_column_is_centered_only():
    X_train = np.array([[5.0, 1.0], [5.0, 3.0]])
    train, _, means, scales = normalize(X_train)
    assert scales.tolist() == [1.0, 1.0]
    assert train[:, 0].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("value,rows", [(0.1, 3), (0.7, 7), (1 / 3, 10), (2.2, 13)])
def test_normalize_turns_an_inexact_constant_column_into_zeros(value, rows):
    # the mean of these rows is not exactly the value, and np.std is ~1e-17, not 0
    X_train = np.column_stack([np.full(rows, value), np.arange(rows, dtype=float)])
    train, test, means, scales = normalize(X_train, np.full((2, 2), value))
    assert means[0] == value and scales[0] == 1.0
    assert np.array_equal(train[:, 0], np.zeros(rows)) and np.array_equal(test[:, 0], np.zeros(2))


def test_normalize_statistics_come_from_train_only():
    rng = np.random.default_rng(5)
    X_train = rng.normal(size=(30, 4))
    _, _, means_a, scales_a = normalize(X_train, rng.normal(10, 5, size=(10, 4)))
    _, _, means_b, scales_b = normalize(X_train, None)
    assert np.array_equal(means_a, means_b) and np.array_equal(scales_a, scales_b)


@given(st.integers(0, 2**31))
def test_normalized_columns_are_standard(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(3.0, 7.0, size=(20, 3))
    train, _, _, _ = normalize(X)
    assert np.all(np.abs(train.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(train.std(axis=0) - 1.0) < 1e-9)
