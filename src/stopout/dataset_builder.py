"""Turn the weekly feature cube into flat train/test design matrices.

A prediction problem is a (lead, lag) pair, optionally restricted to one
cohort: the features of weeks 1..lag predict the persistence label at week
lag+lead. Learners who stopped out during the lag window are excluded since
their outcome is already decided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .featurizer import FEATURE_IDS, NUM_FEATURES, FeatureMatrix

ALL_COHORT = "all"  # the label of a problem over the whole population


@dataclass(frozen=True, slots=True)
class ProblemSpec:
    lead: int
    lag: int
    cohort: str = ALL_COHORT

    def __post_init__(self) -> None:
        if self.lead < 1 or self.lag < 1:
            raise ConfigError(f"lead and lag must be >= 1, got lead={self.lead} lag={self.lag}")

    @property
    def predicted_week(self) -> int:
        return self.lead + self.lag


def enumerate_problems(num_weeks: int, cohort: str = ALL_COHORT) -> list[ProblemSpec]:
    """All (lead, lag) pairs whose predicted week fits inside the course.

    The final week's label is constant by construction (nobody can stop out
    after it), so predicted weeks run only up to num_weeks.
    """
    specs = []
    for lag in range(1, num_weeks):
        for lead in range(1, num_weeks - lag + 1):
            specs.append(ProblemSpec(lead=lead, lag=lag, cohort=cohort))
    return specs


def column_names(lag: int) -> list[str]:
    """The printed name of each of flatten's columns at this lag."""
    return [f"w{w}_{fid}" for w in range(1, lag + 1) for fid in FEATURE_IDS]


def flatten(matrix: FeatureMatrix, spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Build (X, y, learner_ids) for one prediction problem.

    Rows keep only learners still active after the lag window (stopout week
    strictly beyond lag) and, when the spec names a cohort, only the
    learners the matrix's cohort column puts in it.
    X stacks weeks 1..lag left to right, each week in FEATURE_IDS order, so
    X.reshape(-1, lag, NUM_FEATURES) indexes a row by (week - 1, feature).
    X and y are float64 ndarrays, and the layers below take them as they are.
    """
    pw = spec.predicted_week
    if pw > matrix.num_weeks:
        raise ConfigError(
            f"predicted week {pw} exceeds course length {matrix.num_weeks}"
        )
    keep = matrix.stopout_week > spec.lag
    if spec.cohort != ALL_COHORT:
        if matrix.cohort is None:
            raise ConfigError("cohort-restricted problem needs cohort assignments")
        keep &= matrix.cohort == spec.cohort

    idx = np.flatnonzero(keep)
    # explicit width: reshape(-1) cannot infer columns when no row survives
    X = matrix.values[idx, : spec.lag, :].reshape(idx.size, spec.lag * NUM_FEATURES)
    y = matrix.labels[idx, pw - 1].astype(np.float64)
    return X, y, [matrix.learners[i] for i in idx]


def class_shuffles(y: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """Each class's row indices, classes in ascending order, each reordered by
    one rng.permutation: the one draw behind every stratified sample (the
    split, the cross-validation folds, the stability subsamples)."""
    return [members[rng.permutation(members.size)] for members in (np.flatnonzero(y == c) for c in np.unique(y))]


def stratified_split(
    y: np.ndarray, ratio: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split row indices into (train, test) with per-class largest-remainder counts.

    The train side gets round(ratio * N) rows overall; each class contributes
    floor(ratio * n_c), and the leftover goes to the classes with the largest
    fractional remainders. Returned index arrays are sorted ascending.
    """
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must be in (0, 1), got {ratio}")
    shuffles = class_shuffles(y, rng)
    counts = [members.size for members in shuffles]
    take = [int(ratio * n) for n in counts]
    # Largest fractional remainder first; break ties toward the bigger class,
    # then the smaller label, so the allocation is deterministic. The leftover
    # is at most the number of classes, and ratio < 1 keeps each floor below its count.
    order = sorted(range(len(counts)), key=lambda i: (-(ratio * counts[i] - take[i]), -counts[i], i))
    for i in order[:int(round(ratio * y.size)) - sum(take)]:
        take[i] += 1
    in_train = np.zeros(y.size, dtype=bool)
    for members, n in zip(shuffles, take):
        in_train[members[:n]] = True
    return np.flatnonzero(in_train), np.flatnonzero(~in_train)


def normalize(
    X_train: np.ndarray, X_test: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Z-score with train-set statistics; constant columns are only centered.

    Returns (train, test, means, scales); scales holds the divisor actually
    used, 1.0 wherever the train column had zero variance.
    """
    means, stds = X_train.mean(axis=0), X_train.std(axis=0)
    constant = (X_train == X_train[0]).all(axis=0)  # centered on its value, such a column is exact zeros
    means[constant], stds[constant] = X_train[0, constant], 0.0
    scales = np.where(stds > 0.0, stds, 1.0)
    train = (X_train - means) / scales
    test = None if X_test is None else (X_test - means) / scales
    return train, test, means, scales
