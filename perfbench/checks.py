"""Output checks: the benchmark counts a command as failed when one fails.

Each check reads the files a command wrote and returns a list of problems
(empty when the output is right). They use only the standard library, so they
share no code with the program they check.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

CELL_STATUSES = {"ok", "insufficient_data", "degenerate_labels"}
AUC_COLUMNS = ("cv_mean", "train_auc", "test_auc")


def read_tsv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:] if ln]


def load_truth(course: Path) -> dict[str, tuple[str, int]]:
    """learner_id -> (cohort, stopout_week) from a synth truth.tsv."""
    return {r["learner_id"]: (r["cohort"], int(r["stopout_week"]))
            for r in read_tsv(course / "truth.tsv")}


def check_stopout_weeks(features: Path, truth: dict[str, tuple[str, int]]) -> list[str]:
    """Stopout week = first week whose x1 label is 0, else weeks + 1."""
    labels: dict[str, dict[int, str]] = {}
    weeks = 0
    with features.open(encoding="utf-8") as fh:
        header = next(fh).rstrip("\n").split("\t")
        if header[:3] != ["learner_id", "week", "x1"]:
            return [f"{features.name}: unexpected header {header[:3]}"]
        for line in fh:
            lid, week, x1 = line.split("\t", 3)[:3]
            labels.setdefault(lid, {})[int(week)] = x1
            weeks = max(weeks, int(week))
    if set(labels) != set(truth):
        return [f"{features.name}: learners differ from truth "
                f"({len(labels)} vs {len(truth)})"]
    bad = []
    for lid, by_week in labels.items():
        stop = next((w for w in range(1, weeks + 1) if by_week.get(w) == "0"), weeks + 1)
        if stop != truth[lid][1]:
            bad.append(f"{lid}: stopout week {stop}, truth {truth[lid][1]}")
    return [f"{features.name}: {len(bad)} stopout weeks differ from truth, e.g. {bad[0]}"] if bad else []


def check_cohorts(cohorts: Path, truth: dict[str, tuple[str, int]]) -> list[str]:
    got = {r["learner_id"]: r["cohort"] for r in read_tsv(cohorts)}
    want = {lid: cohort for lid, (cohort, _) in truth.items()}
    if got == want:
        return []
    diff = sorted(lid for lid in set(got) | set(want) if got.get(lid) != want.get(lid))
    return [f"{cohorts.name}: {len(diff)} learners differ from truth, e.g. {diff[0]}"]


def check_ingest_stats(stats: Path, events: Path) -> list[str]:
    values = {r["key"]: int(r["value"]) for r in read_tsv(stats)}
    with events.open(encoding="utf-8") as fh:
        rows = sum(1 for ln in fh if ln.strip()) - 1
    if values.get("accepted") != rows:
        return [f"{stats.name}: accepted {values.get('accepted')}, events.tsv has {rows} rows"]
    return []


def check_manifest(out: Path) -> list[str]:
    problems = []
    for ln in (out / "manifest.tsv").read_text(encoding="utf-8").splitlines():
        parts = ln.split("\t")
        if parts[0] == "cell" and parts[-1] not in CELL_STATUSES:
            problems.append(f"manifest.tsv: bad cell status {parts[-1]!r}")
        if parts[0] != "file":
            continue
        _, rel, digest, size = parts
        path = out / rel
        if not path.is_file():
            problems.append(f"manifest.tsv: {rel} missing")
            continue
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != digest or len(data) != int(size):
            problems.append(f"manifest.tsv: {rel} does not match its sha256/size")
    return problems


def check_cells(grid: Path) -> list[str]:
    """Every status is known and every AUC of an ok cell is finite in [0, 1]."""
    problems = []
    for cell in read_tsv(grid):
        where = f"{grid.name} ({cell['lead']},{cell['lag']})"
        if cell["status"] not in CELL_STATUSES:
            problems.append(f"{where}: bad status {cell['status']!r}")
        elif cell["status"] == "ok":
            for col in AUC_COLUMNS:
                v = float(cell[col]) if cell[col] else math.nan
                if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                    problems.append(f"{where}: {col} = {cell[col]!r}")
    return problems
