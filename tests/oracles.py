"""Independent reference implementations used only by tests.

Deliberately slow and simple: AUC by exhaustive pair counting in exact
rational arithmetic, logistic maximum likelihood by a dense coefficient grid
search with iterative refinement, and peer percentiles by counting. Production code has to match these,
never the other way around.

The IRLS reference is the trainer without its shortcuts (no warm start, no
dropped zero columns, no dual step), so a grid scored with it in train's
place must give the same AUCs. The sigmoid and FISTA references are the
plain forms of the production kernels (two masked exps; every product
recomputed inside the loop), kept so the lean kernels can be checked bit for
bit against them. The calibration reference runs all 25 bisection steps,
where calibrate_lambda stops once no later step can change its answer. The
l1 KKT violation checks any l1 fit against the optimality conditions
themselves.
The reference featurizer computes the 27 features one learner-week at a time
from per-event tuples, in the same floating-point order as the grouped
reductions of build_feature_matrix, so the two must agree bit for bit.
The event references check one row at a time, as ingest and load_dump did
before they checked whole columns, and build a dataset by sorting tuples.
The dump reference writes dataset.tsv from whole columns at once, as
dump_dataset did before it wrote a block of rows at a time. The synth
reference draws a whole course before it writes it, as the generator did
before it streamed a learner at a time. The three sampler references are the
split, the fold assignment and the stability subsample as each wrote its own
per-class shuffle, before all three took class_shuffles; the new draws must
return the same indices and leave the generator in the same state.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np

from stopout.cohorts import COHORTS, FORUM, FULL, WIKI
from stopout.event_store import (
    ASSIGNMENT_KINDS,
    COLLAB_KINDS,
    DEFAULT_TAIL,
    DUMP_COLUMNS,
    EVENT_COLUMNS,
    RESOURCE_KINDS,
    SESSION_CAP,
    TABLE_CODE,
    TABLE_COLLABORATION,
    TABLE_OBSERVED,
    TABLE_ORDER,
    TABLE_SUBMISSION,
    WEEK_SECONDS,
    IngestStats,
)
from stopout.errors import DataError
from stopout.featurizer import FEATURE_INDEX, NUM_FEATURES, FeatureMatrix
from stopout.logistic_model import TrainedModel
from stopout.synth import (
    COHORT_MIX,
    COURSE_START,
    FADE_DEPTH,
    FADE_PROB,
    FADE_RAMP,
    TRUTH_COLUMNS,
    SynthConfig,
    TruthRow,
    build_calendar,
    sample_stopout,
)
from stopout.tsv import write_table


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
    """Same objective the trainer maximizes, one row at a time in math.

    A row with margin m = (2y - 1) * z adds -log(1 + e^-m), taken as
    log1p(e^-|m|) + max(-m, 0) so that no exp can overflow and no two large
    numbers are subtracted; the rows are summed exactly by fsum.
    """
    X1 = np.hstack([np.ones((X.shape[0], 1)), np.asarray(X, dtype=np.float64)])
    z = X1 @ np.asarray(beta, dtype=np.float64)
    margins = [zi if yi == 1 else -zi for zi, yi in zip(z.tolist(), np.asarray(y).tolist())]
    ll = -math.fsum(math.log1p(math.exp(-abs(m))) + max(-m, 0.0) for m in margins)
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


def irls_reference(X: np.ndarray, y: np.ndarray, *, ridge: float, beta0: np.ndarray | None = None) -> TrainedModel:
    """Plain damped Newton at the given ridge, in train's place.

    It starts from zeros and solves the full Hessian (beta0 is accepted and
    ignored). When no halving improves, a predicted gain within the rounding
    of the likelihood sum is convergence; any other such step, or a singular
    Hessian, is a DataError. Zero columns are fit like any other.
    """
    X1 = np.hstack([np.ones((len(y), 1)), np.asarray(X, dtype=np.float64)])
    sign = 1.0 - 2.0 * np.asarray(y, dtype=np.float64)
    penalty = np.full(X1.shape[1], ridge)
    penalty[0] = 0.0

    def objective(beta):
        return -np.sum(np.logaddexp(0.0, sign * (X1 @ beta))) - 0.5 * ridge * np.sum(beta[1:] ** 2)

    beta = np.zeros(X1.shape[1])
    ll = objective(beta)
    for iteration in range(1, 101):
        p = sigmoid_reference(X1 @ beta)
        hessian = X1.T @ (X1 * (p * (1.0 - p))[:, None]) + np.diag(penalty)
        grad = X1.T @ (y - p) - penalty * beta
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError as exc:
            raise DataError(f"reference fit failed at ridge {ridge}: singular Hessian") from exc
        gain = grad @ step
        for _ in range(31):
            new_ll = objective(beta + step)
            if np.isfinite(new_ll) and new_ll >= ll:
                break
            step = step / 2.0
        else:
            if 0.0 <= gain <= len(y) * np.finfo(np.float64).eps * abs(ll):
                return TrainedModel(beta, ridge, True, iteration)
            raise DataError(f"reference fit failed at ridge {ridge}: no improving Newton step")
        beta, ll = beta + step, new_ll
        if np.max(np.abs(step)) < 1e-8:
            return TrainedModel(beta, ridge, True, iteration)
    return TrainedModel(beta, ridge, False, 100)


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


def calibrate_lambda_reference(
    X: np.ndarray, y: np.ndarray, columns: list[str], target_support: int,
) -> tuple[float, tuple[np.ndarray, int, bool]]:
    """The full 25-step warm-started bisection for the l1 strength whose
    support (distinct base features, the part of a column name after its
    first "_") is closest to target_support, ties to the larger lambda.

    Returns (lambda, its fit as l1_logistic_reference returns it). When no
    midpoint beats the all-zero lam_max, the fit is a cold one at lam_max.
    """
    n = X.shape[0]
    lam_max = float(np.max(np.abs(X.T @ (y - float(np.mean(y)))))) / n
    lo, hi = lam_max * 1e-4, lam_max
    best_lam, best_diff, best_fit = hi, target_support, None
    init = None
    for _ in range(25):
        mid = float(np.sqrt(lo * hi))
        fit = l1_logistic_reference(X, y, mid, init=init)
        init = fit[0]
        support = len({col.split("_", 1)[1] for col, b in zip(columns, fit[0][1:]) if abs(b) > 1e-6})
        diff = abs(support - target_support)
        if diff < best_diff or (diff == best_diff and mid > best_lam):
            best_lam, best_diff, best_fit = mid, diff, fit
        if support > target_support:
            lo = mid
        else:
            hi = mid
    if best_fit is None:
        best_fit = l1_logistic_reference(X, y, best_lam)
    return best_lam, best_fit


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


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _extract_week(observed, submissions, collaborations, week_start, hw_problems, lab_problems, due,
                  past_hw_grades, past_lab_grades, sorted_peers) -> np.ndarray:
    """One learner-week's 27 features.

    observed rows are (timestamp, resource_kind, duration), submissions are
    (timestamp, problem_id, correct), collaborations are (kind, text_length);
    sorted_peers are this week's active learners' x9 values, ascending.
    """
    x = np.zeros(NUM_FEATURES)

    durations = [d for _, _, d in observed]
    x[FEATURE_INDEX["x2"]] = sum(durations)
    x[FEATURE_INDEX["x15"]] = max(durations, default=0)
    x[FEATURE_INDEX["x16"]] = sum(d for _, k, d in observed if k == "lecture")
    x[FEATURE_INDEX["x17"]] = sum(d for _, k, d in observed if k == "book")
    x[FEATURE_INDEX["x18"]] = sum(d for _, k, d in observed if k == "wiki")
    if observed:
        offsets = np.array([ts - week_start for ts, _, _ in observed], dtype=float)
        x[FEATURE_INDEX["x13"]] = float(np.var(offsets))

    post_lengths = [n for k, n in collaborations if k == "forum_post"]
    x[FEATURE_INDEX["x3"]] = len(post_lengths)
    x[FEATURE_INDEX["x4"]] = sum(1 for k, _ in collaborations if k == "wiki_edit")
    x[FEATURE_INDEX["x5"]] = _ratio(sum(post_lengths), len(post_lengths))
    x[FEATURE_INDEX["x14"]] = x[FEATURE_INDEX["x3"]] + x[FEATURE_INDEX["x4"]]
    x[FEATURE_INDEX["x201"]] = sum(1 for k, _ in collaborations if k == "forum_response")

    by_problem: dict[str, list[int]] = {}
    correct_problems: set[str] = set()
    n_correct_subs = 0
    margin_total = 0
    for ts, pid, correct in submissions:
        by_problem.setdefault(pid, []).append(ts)
        if correct:
            correct_problems.add(pid)
            n_correct_subs += 1
        margin_total += due[pid] - ts

    x6 = len(by_problem)
    x7 = len(submissions)
    x8 = len(correct_problems)
    x[FEATURE_INDEX["x6"]] = x6
    x[FEATURE_INDEX["x7"]] = x7
    x[FEATURE_INDEX["x8"]] = x8
    x9 = _ratio(x7, x6)
    x[FEATURE_INDEX["x9"]] = x9
    x[FEATURE_INDEX["x10"]] = _ratio(x[FEATURE_INDEX["x2"]], x8)
    x[FEATURE_INDEX["x11"]] = _ratio(x6, x8)
    if by_problem:
        spans = [max(tss) - min(tss) for tss in by_problem.values()]
        x[FEATURE_INDEX["x12"]] = sum(spans) / len(spans)
    x[FEATURE_INDEX["x208"]] = n_correct_subs
    x[FEATURE_INDEX["x209"]] = _ratio(n_correct_subs, x7)
    x[FEATURE_INDEX["x210"]] = _ratio(margin_total, x7)

    if sorted_peers:
        lo, hi = bisect_left(sorted_peers, x9), bisect_right(sorted_peers, x9)
        x[FEATURE_INDEX["x202"]] = (lo + 0.5 * (hi - lo)) / len(sorted_peers)
    x[FEATURE_INDEX["x203"]] = _ratio(x9, sorted_peers[-1] if sorted_peers else 0.0)

    hw_grade = _ratio(len(correct_problems & hw_problems), len(hw_problems))
    lab_grade = _ratio(len(correct_problems & lab_problems), len(lab_problems))
    past_hw = sum(past_hw_grades) / len(past_hw_grades) if past_hw_grades else 0.0
    past_lab = sum(past_lab_grades) / len(past_lab_grades) if past_lab_grades else 0.0
    x[FEATURE_INDEX["x204"]] = hw_grade
    x[FEATURE_INDEX["x205"]] = hw_grade - past_hw
    x[FEATURE_INDEX["x206"]] = lab_grade
    x[FEATURE_INDEX["x207"]] = lab_grade - past_lab
    return x


def feature_matrix_reference(dataset) -> tuple[FeatureMatrix, np.ndarray]:
    """build_feature_matrix computed per learner-week from per-event tuples.

    Stopout is the week after the last submission (capped at num_weeks+1),
    week 1 without submissions; events are grouped by (participant, week)
    into lists, and each learner-week's vector comes from _extract_week.
    """
    cal = dataset.calendar
    num_weeks = cal.num_weeks

    def week_of(ts: int) -> int:
        assert ts >= cal.course_start
        return min((ts - cal.course_start) // WEEK_SECONDS + 1, num_weeks)

    def rows(table: str):
        """The table's events as tuples of cell values, codes decoded."""
        columns = dataset.table(table)
        return zip(*(
            [dataset.vocab[c][code] for code in values.tolist()] if c in dataset.vocab else values.tolist()
            for c, values in columns.items()
        ))

    last_submission: dict[str, int] = {}
    for _, li, ts, *_ in rows(TABLE_SUBMISSION):
        last_submission[li] = max(ts, last_submission.get(li, ts))
    histogram = np.zeros(num_weeks + 2, dtype=np.int64)
    stopout_of = {}
    for li in dataset.learners:
        week = min(week_of(last_submission[li]) + 1, num_weeks + 1) if li in last_submission else 1
        histogram[week] += 1
        if li in last_submission:
            stopout_of[li] = week
    participants = sorted(stopout_of)
    row_of = {li: i for i, li in enumerate(participants)}
    stopout = np.array([stopout_of[li] for li in participants], dtype=np.int64)
    L = len(participants)

    obs_by: dict[tuple[int, int], list] = {}
    sub_by: dict[tuple[int, int], list] = {}
    col_by: dict[tuple[int, int], list] = {}
    for _, li, ts, _, kind, _, _, _, _, _, duration in rows(TABLE_OBSERVED):
        if li in row_of:
            obs_by.setdefault((row_of[li], week_of(ts)), []).append((ts, kind, duration))
    for _, li, ts, _, _, pid, correct, _, _, _, _ in rows(TABLE_SUBMISSION):
        if li in row_of:
            sub_by.setdefault((row_of[li], week_of(ts)), []).append((ts, pid, correct == "1"))
    for _, li, ts, _, _, _, _, _, kind, length, _ in rows(TABLE_COLLABORATION):
        if li in row_of:
            col_by.setdefault((row_of[li], week_of(ts)), []).append((kind, length))

    meta = cal.problem_meta
    due = {pid: m.due_timestamp for pid, m in meta.items()}
    values = np.zeros((L, num_weeks, NUM_FEATURES))
    labels = np.zeros((L, num_weeks), dtype=np.int8)
    hw_hist: list[list[float]] = [[] for _ in range(L)]
    lab_hist: list[list[float]] = [[] for _ in range(L)]
    for w in range(1, num_weeks + 1):
        hw = {pid for pid, m in meta.items() if m.week_assigned == w and m.assignment_kind == "homework"}
        lab = {pid for pid, m in meta.items() if m.week_assigned == w and m.assignment_kind == "lab"}
        ratios = []
        for i in range(L):
            subs = sub_by.get((i, w), ())
            ratios.append(_ratio(len(subs), len({pid for _, pid, _ in subs})))
        peers = sorted(r for r, s in zip(ratios, stopout) if s > w)
        for i in range(L):
            row = _extract_week(
                obs_by.get((i, w), ()), sub_by.get((i, w), ()), col_by.get((i, w), ()),
                cal.course_start + (w - 1) * WEEK_SECONDS, hw, lab, due, hw_hist[i], lab_hist[i], peers,
            )
            values[i, w - 1] = row
            labels[i, w - 1] = 1 if stopout[i] > w else 0
            hw_hist[i].append(row[FEATURE_INDEX["x204"]])
            lab_hist[i].append(row[FEATURE_INDEX["x206"]])

    matrix = FeatureMatrix(
        learners=participants,
        values=values,
        labels=labels,
    )
    return matrix, histogram


def _parse_int(text: str, reason: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(reason) from None
    if not -(2**63) <= value < 2**63:  # the columns are int64
        raise ValueError(reason)
    return value


def parse_event_reference(cells, calendar, dump: bool = False) -> tuple:
    """One event row, cells in EVENT_COLUMNS order (then duration, with
    dump), as a DUMP_COLUMNS tuple: the table coded, integers parsed, the
    cells its table does not use blanked, duration -1 unless dump reads it.
    A row that fails a check raises ValueError naming the reason; dump also
    needs a submission's problem in the calendar and an observed duration >= 0."""
    table, learner_id, ts, rid, rkind, pid, correct, akind, ckind, length = cells[:10]
    code = TABLE_CODE.get(table)
    if code is None:
        raise ValueError("bad_table")
    if not learner_id:
        raise ValueError("missing_learner")
    timestamp = _parse_int(ts, "bad_timestamp")
    if timestamp < calendar.course_start:
        raise ValueError("before_start")
    if table == TABLE_OBSERVED:
        if rkind not in RESOURCE_KINDS:
            raise ValueError("bad_resource_kind")
        if not rid:
            raise ValueError("missing_resource")
        duration = _parse_int(cells[10], "bad_duration") if dump else -1
        if dump and duration < 0:
            raise ValueError("bad_duration")
        return code, learner_id, timestamp, rid, rkind, "", "", "", "", -1, duration
    if table == TABLE_SUBMISSION:
        if not pid:
            raise ValueError("missing_problem")
        if correct not in ("0", "1"):
            raise ValueError("bad_correct_flag")
        if akind not in ASSIGNMENT_KINDS:
            raise ValueError("bad_assignment_kind")
        if dump and pid not in calendar.problem_meta:
            raise ValueError(f"problem {pid!r} is not in the calendar")
        return code, learner_id, timestamp, "", "", pid, correct, akind, "", -1, -1
    if ckind not in COLLAB_KINDS:
        raise ValueError("bad_collab_kind")
    text_length = _parse_int(length, "bad_text_length")
    if text_length < 0:
        raise ValueError("negative_text_length")
    return code, learner_id, timestamp, "", "", "", "", "", ckind, text_length, -1


def ingest_reference(paths, calendar) -> tuple[IngestStats, dict[str, np.ndarray], dict[str, list[str]]]:
    """ingest one line at a time: the stats, the events and the vocabularies.

    Rows are sorted as tuples (strings sort as their codes do), each string
    column is coded by its sorted distinct values, and observed durations
    come from the gap to the learner's next event, capped, or the tail.
    """
    stats, rows = IngestStats(), []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if sorted(header) != sorted(EVENT_COLUMNS):
                raise DataError(f"{path}:1: bad header")
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                stats.total += 1
                cells = line.split("\t")
                if len(cells) != len(header):
                    stats.reject("bad_columns", 1)
                    continue
                try:
                    row = parse_event_reference([cells[header.index(c)] for c in EVENT_COLUMNS], calendar)
                except ValueError as exc:
                    stats.reject(str(exc), 1)
                    continue
                stats.accepted += 1
                stats.clamped += row[2] >= calendar.course_end
                rows.append(row)
    unknown = sorted({row[5] for row in rows if row[0] == TABLE_CODE[TABLE_SUBMISSION]} - set(calendar.problem_meta))
    if unknown:
        raise DataError(f"submissions reference problems missing from the calendar: {unknown}")
    rows.sort()
    observed = [i for i, row in enumerate(rows) if row[0] == TABLE_CODE[TABLE_OBSERVED]]
    for i, j in zip(observed, observed[1:] + [None]):
        gap = rows[j][2] - rows[i][2] if j is not None and rows[j][1] == rows[i][1] else None
        rows[i] = rows[i][:-1] + (DEFAULT_TAIL if gap is None else min(gap, SESSION_CAP),)
    columns = dict(zip(DUMP_COLUMNS, map(list, zip(*rows)))) if rows else {c: [] for c in DUMP_COLUMNS}
    ints = ("table", "timestamp", "text_length", "duration")
    vocab = {c: sorted(set(values)) for c, values in columns.items() if c not in ints}
    events = {c: np.array([vocab[c].index(v) for v in values] if c in vocab else values, dtype=np.int64)
              for c, values in columns.items()}
    return stats, events, vocab


def dump_dataset_reference(dataset, path) -> None:
    """dump_dataset with every column turned into cells at once."""
    cells = {column: values.tolist() for column, values in dataset.events.items()}
    cells["table"] = [TABLE_ORDER[code] for code in cells["table"]]
    for column, words in dataset.vocab.items():
        cells[column] = [words[code] for code in cells[column]]
    for column in ("text_length", "duration"):
        cells[column] = ["" if value < 0 else value for value in cells[column]]
    write_table(path, DUMP_COLUMNS, zip(*(cells[column] for column in DUMP_COLUMNS)))


def synth_reference(config: SynthConfig, events_path, truth_path) -> None:
    """The synthetic course generator as it was before it streamed: every event
    held as a tuple of cells, scalars clipped with np.clip, and both files
    written with write_table once the whole course is drawn. Same RNG calls in
    the same order, so the files must match write_course's byte for byte."""
    rng = np.random.default_rng(config.seed)
    calendar = build_calendar(config)
    week_problems: dict[int, list[tuple[str, str]]] = {
        w: sorted(
            (pid, m.assignment_kind)
            for pid, m in calendar.problem_meta.items()
            if m.week_assigned == w
        )
        for w in range(1, config.num_weeks + 1)
    }
    digits = max(5, len(str(config.num_learners)))
    events: list[tuple[str, ...]] = []
    truth: list[TruthRow] = []

    def obs_row(learner_id, ts, rid, kind):
        return (TABLE_OBSERVED, learner_id, str(ts), rid, kind, "", "", "", "", "")

    def sub_row(learner_id, ts, pid, correct, kind):
        return (TABLE_SUBMISSION, learner_id, str(ts), "", "", pid, "1" if correct else "0", kind, "", "")

    def collab_row(learner_id, ts, kind, length):
        return (TABLE_COLLABORATION, learner_id, str(ts), "", "", "", "", "", kind, str(length))

    for i in range(config.num_learners):
        lid = f"L{i:0{digits}d}"
        volume, timeliness, grades = (float(v) for v in rng.uniform(-1.0, 1.0, size=3))
        cohort = COHORTS[int(rng.choice(4, p=COHORT_MIX))]
        stopout = sample_stopout(config, volume, timeliness, grades, rng)
        truth.append(TruthRow(lid, cohort, stopout, volume, timeliness, grades))
        fades = bool(rng.random() < FADE_PROB)

        for w in range(1, stopout):
            week_s = COURSE_START + (w - 1) * WEEK_SECONDS
            problems = week_problems[w]
            due = calendar.problem_meta[problems[0][0]].due_timestamp
            max_margin = due - week_s
            fade = 1.0
            if fades and stopout <= config.num_weeks:
                if w == stopout - 1:
                    fade = FADE_DEPTH
                elif w == stopout - 2:
                    fade = FADE_RAMP
            p_correct = 1.0 / (1.0 + math.exp(-(0.9 + 1.6 * grades - 1.5 * (1.0 - fade))))

            k = int(np.clip(round((3.0 + 1.8 * volume) * fade + rng.normal(0.0, 0.6)), 1, len(problems)))
            picked = rng.choice(len(problems), size=k, replace=False)
            for pi in sorted(int(v) for v in picked):
                pid, kind = problems[pi]
                frac = (0.35 + 0.30 * timeliness) * fade * rng.uniform(0.5, 1.0)
                margin = int(np.clip(frac * max_margin, 60, max_margin - 60))
                t_final = due - margin
                correct = bool(rng.random() < p_correct)
                retries = int(rng.poisson(0.5 + 0.4 * max(0.0, -grades)))
                for r in range(retries, 0, -1):
                    t_retry = max(week_s, t_final - r * int(rng.integers(300, 7200)))
                    events.append(sub_row(lid, t_retry, pid, False, kind))
                events.append(sub_row(lid, t_final, pid, correct, kind))

            n_obs = int(np.clip(round((4.0 + 3.0 * volume) * fade + rng.normal(0.0, 0.8)), 1, 12))
            ts_list = sorted(int(v) for v in rng.integers(week_s, week_s + WEEK_SECONDS, size=n_obs))
            for j, ts in enumerate(ts_list):
                kind = ("lecture", "lecture", "book", "wiki", "forum")[int(rng.integers(0, 5))]
                events.append(obs_row(lid, ts, f"{kind}_{w:02d}_{j}", kind))

            wants_forum = cohort in (FORUM, FULL)
            wants_wiki = cohort in (WIKI, FULL)
            if wants_forum and (w == 1 or rng.random() < 0.3):
                ts = int(rng.integers(week_s, week_s + WEEK_SECONDS))
                events.append(collab_row(lid, ts, "forum_post", int(rng.integers(10, 400))))
                if rng.random() < 0.4:
                    ts2 = int(rng.integers(week_s, week_s + WEEK_SECONDS))
                    events.append(collab_row(lid, ts2, "forum_response", int(rng.integers(5, 200))))
            if wants_wiki and (w == 1 or rng.random() < 0.25):
                ts = int(rng.integers(week_s, week_s + WEEK_SECONDS))
                events.append(collab_row(lid, ts, "wiki_edit", int(rng.integers(20, 800))))

    write_table(events_path, EVENT_COLUMNS, events)
    write_table(truth_path, TRUTH_COLUMNS, (
        (t.learner_id, t.cohort, t.stopout_week, t.volume, t.timeliness, t.grades) for t in truth
    ))


def stratified_split_reference(y: np.ndarray, ratio: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n = y.size
    target = int(round(ratio * n))
    classes = np.unique(y)
    counts = {c: int(np.sum(y == c)) for c in classes}
    base = {c: int(ratio * counts[c]) for c in classes}
    leftover = target - sum(base.values())
    order = sorted(classes, key=lambda c: (-(ratio * counts[c] - base[c]), -counts[c], c))
    for c in order[:leftover]:
        base[c] += 1
    train_parts, test_parts = [], []
    for c in classes:
        members = np.flatnonzero(y == c)
        shuffled = members[rng.permutation(members.size)]
        train_parts.append(shuffled[: base[c]])
        test_parts.append(shuffled[base[c]:])
    train = np.sort(np.concatenate(train_parts)) if train_parts else np.zeros(0, dtype=np.int64)
    test = np.sort(np.concatenate(test_parts)) if test_parts else np.zeros(0, dtype=np.int64)
    return train, test


def fold_ids_reference(y: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """cross_validate's fold of each row of a 0/1 label vector, for k folds."""
    fold_id = np.empty(y.size, dtype=np.int64)
    for cls in (0.0, 1.0):
        members = np.flatnonzero(y == cls)
        shuffled = members[rng.permutation(members.size)]
        fold_id[shuffled] = np.arange(shuffled.size) % k
    return fold_id


def stratified_subsample_reference(y: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    parts = []
    for cls in (0.0, 1.0):
        members = np.flatnonzero(y == cls)
        take = max(1, int(round(fraction * members.size)))
        parts.append(members[rng.permutation(members.size)][:take])
    return np.sort(np.concatenate(parts))


def read_model_reference(path) -> tuple[TrainedModel, list[str] | None]:
    """model.txt by README's spec: the format line, then seven key=value lines in order, each ended by "\\n" alone.
    Returns the model and its column names, None when the columns line is empty."""
    first, *lines, last = Path(path).read_bytes().decode("utf-8").split("\n")
    keys, (ridge, converged, iterations, columns, *vectors) = zip(*(line.split("=", 1) for line in lines))
    assert (first, last) == ("stopout-model-v1", "")
    assert keys == ("ridge", "converged", "iterations", "columns", "norm_means", "norm_scales", "beta")
    means, scales, beta = (np.array([float(v) for v in text.split(",")]) if text else None for text in vectors)
    model = TrainedModel(beta, float(ridge), {"0": False, "1": True}[converged], int(iterations), means, scales)
    return model, columns.split(",") if columns else None


def read_manifest_reference(path) -> dict[str, list[tuple[str, ...]]]:
    """manifest.tsv's meta, cell and file rows, each as its cells after the first; lines end at "\\n" alone."""
    rows: dict[str, list[tuple[str, ...]]] = {"meta": [], "cell": [], "file": []}
    for kind, *cells in (line.split("\t") for line in Path(path).read_bytes().decode("utf-8").split("\n")[:-1]):
        rows[kind].append(tuple(cells))  # a row of any other kind is a KeyError
    return rows
