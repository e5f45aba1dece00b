"""The stopout benchmark: pinned synthetic courses driven through the CLI.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it needs no install, because every
command it launches gets ``src`` on PYTHONPATH. One run sets up its course
(``synth``) several times and reports the median, then repeats the workload's
command sequence until ``--seconds`` have passed. Each command is a fresh ``python3 -m stopout.cli`` process, as a
user would start it, and its outputs are checked after the timed region; a
nonzero exit or a failed check counts the command as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
from the traced iteration with the median wall time; traced commands run
through ``perfbench/tracer.py``, which times calls into each module from the
outside, so ``src/`` stays untouched. A layer the workload does not run
reads 0. Each timing distribution is given as p50 and a tail percentile: the
highest of p99.9/p99/p90 with at least ten samples above it, else p50 again
(``*_tail_pct`` says which). The last stdout line is one JSON object:
correct, attempted, failed, metrics. A fuller record, with the environment,
goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Every launched command runs with one BLAS/OpenMP thread. This pin works
# around a program defect, it does not fix it: stopout leaves BLAS threading
# at its default, so each `run-all --jobs 2` pool worker also starts one
# OpenBLAS thread per core. On a 2-core box a grid-only `run-all --jobs 2` on
# the README course took 143-201 s (user CPU 274-396 s) with the default
# environment and 24.2-25.4 s with one BLAS thread per process. The thread
# count also moves results: with the default threading, test_auc of the
# passive (2,7) cell went 0.8426 -> 0.8472 and wiki (6,6) went 0.60 -> 0.64.
# Unpinned, the benchmark would measure the scheduler and be seed-unstable.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 3
JOBS = 2  # run-all --jobs, capped at the cores available
RSS_INTERVAL_S = 0.01
PAGE = os.sysconf("SC_PAGE_SIZE")


@dataclass
class Step:
    args: list[str]
    check: Callable[[], list[str]]


@dataclass
class Workload:
    learners: int
    weeks: int
    default_seed: int
    plan: Callable[["Context", Path], list[Step]]


@dataclass
class Context:
    course: Path  # synth output: events.tsv, calendar.tsv, truth.tsv
    truth: dict
    jobs: int


# run-all on a small course with every stage in play. With the default config
# ~90% of it is serial stability selection (200 subsamples per problem), so
# the benchmark writes one config key, 10 subsamples; the grid is unaffected.
RUNALL_CONFIG = "importance_subsamples=10\n"
CELLS = ((13, 1), (3, 6), (6, 4), (1, 12))


def _plan_runall(ctx: Context, out: Path) -> list[Step]:
    config = out.parent / "runall.cfg"
    config.write_text(RUNALL_CONFIG, encoding="utf-8")

    def check() -> list[str]:
        problems = checks.check_stopout_weeks(out / "features.tsv", ctx.truth)
        problems += checks.check_cohorts(out / "cohorts.tsv", ctx.truth)
        problems += checks.check_ingest_stats(out / "ingest_stats.tsv", ctx.course / "events.tsv")
        problems += checks.check_manifest(out)
        for grid in sorted(out.glob("grid_*.tsv")):
            problems += checks.check_cells(grid)
        return problems

    return [Step(["run-all", "--events", str(ctx.course / "events.tsv"),
                  "--calendar", str(ctx.course / "calendar.tsv"), "--out", str(out),
                  "--seed", "0", "--jobs", str(ctx.jobs), "--config", str(config)], check)]


def _plan_stages(ctx: Context, out: Path) -> list[Step]:
    """The stage commands, then train-eval cells on the features just built."""
    dataset, calendar = str(out / "dataset.tsv"), str(out / "calendar.tsv")
    steps = [
        Step(["ingest", "--events", str(ctx.course / "events.tsv"),
              "--calendar", str(ctx.course / "calendar.tsv"), "--out", str(out)],
             lambda: checks.check_ingest_stats(out / "ingest_stats.tsv", ctx.course / "events.tsv")),
        Step(["featurize", "--dataset", dataset, "--calendar", calendar, "--out", str(out)],
             lambda: checks.check_stopout_weeks(out / "features.tsv", ctx.truth)),
        Step(["cohorts", "--dataset", dataset, "--calendar", calendar, "--out", str(out)],
             lambda: checks.check_cohorts(out / "cohorts.tsv", ctx.truth)),
    ]
    for lead, lag in CELLS:
        cell_out = out / f"cell_{lead}_{lag}"
        steps.append(Step(
            ["train-eval", "--features", str(out / "features.tsv"), "--lead", str(lead),
             "--lag", str(lag), "--out", str(cell_out)],
            lambda cell_out=cell_out: checks.check_cells(cell_out / "eval.tsv"),
        ))
    return steps


# Course sizes keep one run under a minute (three set-ups, 45 s of
# iterations, checks), so the 48 runs a full measurement makes fit in under
# an hour on two cores. Two workloads with long runs rather than more with
# short ones: the shared cores drift, and only more iterations per run steady
# the medians. The course seed is --seed; each workload has its own default.
WORKLOADS = {
    "runall-400": Workload(400, 6, 7, _plan_runall),
    "stages-1500": Workload(1500, 14, 1, _plan_stages),
}


def command_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(THREAD_PIN)
    return env


def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            found.extend(kids)
            todo.extend(kids)
    return found


def tree_rss_bytes() -> int:
    """Resident memory summed over every process this benchmark started."""
    total = 0
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
                total += int(fh.read().split()[1]) * PAGE
        except (OSError, IndexError, ValueError):
            continue
    return total


class PeakRss:
    """Samples the process tree's summed RSS on a thread while in the block."""

    def __init__(self) -> None:
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self.peak = max(self.peak, tree_rss_bytes())

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


@dataclass
class Iteration:
    traced: bool
    wall: float = 0.0
    peak_rss: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    cells: list[dict] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    main_pids: set[int] = field(default_factory=set)


def _run_command(args: list[str], log: Path, env: dict, spans_file: Path | None) -> tuple[int, float, int]:
    """Run one CLI command to completion; returns (exit code, launch time, pid)."""
    if spans_file is None:
        argv = [sys.executable, "-m", "stopout.cli", *args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_file), *args]
    with log.open("w", encoding="utf-8") as fh:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        code = proc.wait()
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
        print(f"command failed ({code}): stopout {' '.join(args)}\n  " + "\n  ".join(tail),
              file=sys.stderr)
    return code, launched, proc.pid


def run_iteration(workload: Workload, ctx: Context, work: Path, traced: bool, env: dict) -> Iteration:
    """One pass of the workload's commands; outputs go to work/out, logs beside it."""
    out = work / "out"
    out.mkdir(parents=True)
    steps = workload.plan(ctx, out)
    it = Iteration(traced=traced)
    launches = []
    with PeakRss() as rss:
        start = time.monotonic()
        for i, step in enumerate(steps):
            spans_file = work / f"spans_{i}.json" if traced else None
            code, launched, pid = _run_command(step.args, work / f"log_{i}.txt", env, spans_file)
            launches.append((code, launched, pid, spans_file, step))
        it.wall = time.monotonic() - start
    it.peak_rss = rss.peak

    for code, launched, pid, spans_file, step in launches:
        it.attempted += 1
        problems = [f"exit code {code}"] if code != 0 else step.check()
        if problems:
            it.failed += 1
            it.problems += [f"stopout {step.args[0]}: {p}" for p in problems]
        if spans_file is not None and spans_file.exists():
            record = json.loads(spans_file.read_text(encoding="utf-8"))
            it.main_pids.add(pid)
            it.spans.append({"name": "cli.process_start", "id": f"{pid}:0", "parent": None,
                             "pid": pid, "start": launched, "end": record["imported"]})
            it.spans.extend(record["spans"])
    for grid in sorted(out.glob("grid_*.tsv")) + sorted(out.glob("cell_*/eval.tsv")):
        it.cells.extend(checks.read_tsv(grid))
    return it


def setup(name: str, workload: Workload, seed: int, work: Path, env: dict) -> tuple[Context, list[float], int]:
    """Build the course SETUP_REPS times; keep the last copy. Returns times and commands run."""
    times = []
    commands = 0
    for rep in range(SETUP_REPS):
        course = work / f"setup_{rep}"
        steps = [["synth", "--out", str(course), "--learners", str(workload.learners),
                  "--weeks", str(workload.weeks), "--seed", str(seed)]]
        start = time.monotonic()
        for i, args in enumerate(steps):
            commands += 1
            code, _, _ = _run_command(args, work / f"setup_{rep}_{i}.txt", env, None)
            if code != 0:
                raise SystemExit(f"{name}: set-up command failed: stopout {' '.join(args)}")
        times.append(time.monotonic() - start)
        if rep:
            shutil.rmtree(work / f"setup_{rep - 1}")
    jobs = min(JOBS, len(os.sched_getaffinity(0)))
    return Context(course=course, truth=checks.load_truth(course), jobs=jobs), times, commands


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(p, value) for the highest of p99.9/p99/p90/p50 with >= 10 samples above it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (1 - p / 100.0) >= 10:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0) if values else 0.0


def layer_metrics(it: Iteration) -> dict[str, float]:
    """Per-layer numbers from one traced iteration's spans and outputs."""
    by: dict[str, list[dict]] = defaultdict(list)
    for s in it.spans:
        by[s["name"]].append(s)

    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in by[name]]

    def total(name: str) -> float:
        return sum(durations(name))

    def attr_sum(name: str, key: str) -> int:
        return sum(int(s.get(key, 0)) for s in by[name])

    m: dict[str, float] = {}
    m["event_store.ingest_s"] = total("event_store.ingest")
    m["event_store.dump_dataset_s"] = total("event_store.dump_dataset")
    m["event_store.load_dump_s"] = total("event_store.load_dump")
    m["event_store.events"] = attr_sum("event_store.ingest", "accepted")
    m["event_store.rejected"] = attr_sum("event_store.ingest", "rejected")
    m["featurizer.build_feature_matrix_s"] = total("featurizer.build_feature_matrix")
    m["featurizer.export_feature_matrix_s"] = total("featurizer.export_feature_matrix")
    m["featurizer.load_feature_matrix_s"] = total("featurizer.load_feature_matrix")
    m["featurizer.learner_weeks"] = attr_sum("featurizer.build_feature_matrix", "learner_weeks")
    m["cohorts.assign_cohorts_s"] = total("cohorts.assign_cohorts")
    m["cohorts.export_cohorts_s"] = total("cohorts.export_cohorts")
    m["dataset_builder.flatten_s"] = total("dataset_builder.flatten")
    m["dataset_builder.flatten_calls"] = len(by["dataset_builder.flatten"])
    m["dataset_builder.normalize_s"] = total("dataset_builder.normalize")

    fits = [s for s in by["logistic_model.train"] if "iterations" in s]
    fit_ms = [1e3 * (s["end"] - s["start"]) for s in fits]
    escalated = sum(1 for s in fits if s["escalated"])
    m["logistic_model.train_s"] = total("logistic_model.train")
    m["logistic_model.train_calls"] = len(by["logistic_model.train"])
    m["logistic_model.fits"] = len(fits)
    m["logistic_model.fit_p50_ms"] = percentile(fit_ms, 50) if fit_ms else 0.0
    m["logistic_model.fit_tail_pct"], m["logistic_model.fit_tail_ms"] = tail_percentile(fit_ms)
    m["logistic_model.newton_iterations"] = sum(s["iterations"] for s in fits)
    m["logistic_model.ridge_escalated"] = escalated
    m["logistic_model.first_rung_ok_ratio"] = (len(fits) - escalated) / len(fits) if fits else 0.0
    m["logistic_model.unconverged"] = sum(1 for s in fits if not s["converged"])

    cells = durations("evaluator.evaluate_problem")
    ok = [c for c in it.cells if c["status"] == "ok"]
    m["evaluator.cells_attempted"] = len(it.cells)
    m["evaluator.cells_ok"] = len(ok)
    m["evaluator.mean_test_auc"] = statistics.fmean(float(c["test_auc"]) for c in ok) if ok else 0.0
    m["evaluator.cell_n"] = len(cells)
    m["evaluator.cell_p50_s"] = percentile(cells, 50) if cells else 0.0
    m["evaluator.cell_tail_pct"], m["evaluator.cell_tail_s"] = tail_percentile(cells)
    m["evaluator.cross_validate_s"] = total("evaluator.cross_validate")
    m["evaluator.roc_auc_s"] = total("evaluator.roc_auc")
    m["evaluator.roc_auc_calls"] = len(by["evaluator.roc_auc"])
    m["evaluator.fold_reductions"] = attr_sum("evaluator.cross_validate", "fold_reductions")

    l1_ms = [1e3 * d for d in durations("importance.l1_logistic")]
    m["importance.run_importance_s"] = total("importance.run_importance")
    m["importance.calibrate_lambda_s"] = total("importance.calibrate_lambda")
    m["importance.stability_select_s"] = total("importance.stability_select")
    m["importance.l1_logistic_s"] = total("importance.l1_logistic")
    m["importance.l1_logistic_calls"] = len(l1_ms)
    m["importance.l1_fit_p50_ms"] = percentile(l1_ms, 50) if l1_ms else 0.0
    m["importance.l1_fit_tail_pct"], m["importance.l1_fit_tail_ms"] = tail_percentile(l1_ms)

    m["viz.write_heatmap_s"] = total("viz.write_heatmap")
    m["viz.write_importance_chart_s"] = total("viz.write_importance_chart")

    starts = durations("cli.process_start")
    grid = by["cli.grid_phase"]
    busy = sum(s["end"] - s["start"] for s in by["cli.cell_task"] if s["pid"] not in it.main_pids)
    capacity = sum(s["jobs"] * (s["end"] - s["start"]) for s in grid)
    top = [s for s in it.spans if s["parent"] is None and s["pid"] in it.main_pids]
    m["cli.processes"] = len(starts)
    m["cli.process_start_s"] = sum(starts)
    m["cli.process_start_p50_s"] = percentile(starts, 50) if starts else 0.0
    m["cli.grid_phase_s"] = total("cli.grid_phase")
    m["cli.pool_busy_ratio"] = busy / capacity if capacity else 0.0
    m["cli.importance_phase_s"] = total("cli.importance_phase")
    m["cli.write_manifest_s"] = total("cli.write_manifest")
    m["cli.toplevel_s"] = sum(s["end"] - s["start"] for s in top)
    m["cli.unattributed_s"] = it.wall - m["cli.toplevel_s"]
    return m


def environment(env: dict) -> dict:
    probe = ("import json, numpy as np; c = np.show_config(mode='dicts');"
             "b = c['Build Dependencies']['blas'];"
             "print(json.dumps({'numpy': np.__version__, 'blas': b.get('name', '?') + ' '"
             " + b.get('version', '?') + ' ' + b.get('openblas configuration', '')}))")
    found = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    record = json.loads(found.stdout) if found.returncode == 0 else {"numpy": "unavailable"}
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = found.stdout.strip() or sha
    record.update({
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pin": THREAD_PIN,
        "thread_pin_reason": "works around default BLAS oversubscription; see THREAD_PIN in perfbench/run.py",
    })
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="synth seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stopout" / "cli.py").is_file():
        print(f"stopout sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    env = command_env()
    work = WORK / f"{args.workload}-seed{seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx, setup_times, setup_commands = setup(args.workload, workload, seed, work, env)
        iterations: list[Iteration] = []
        start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(iterations) % 2 == 1
            out = work / f"iter_{len(iterations)}"
            iterations.append(run_iteration(workload, ctx, out, traced, env))
            shutil.rmtree(out)
            kinds = {i.traced for i in iterations}
            if time.monotonic() - start >= args.seconds and len(kinds) == 1 + args.trace:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [i for i in iterations if not i.traced]
    attempted = setup_commands + sum(i.attempted for i in iterations)
    failed = sum(i.failed for i in iterations)
    problems = [p for i in iterations for p in i.problems]
    if args.trace:
        traced = sorted((i for i in iterations if i.traced), key=lambda i: i.wall)
        chosen = traced[(len(traced) - 1) // 2]
        metrics = layer_metrics(chosen)
        untraced_wall = statistics.median(i.wall for i in plain)
        metrics["bench.traced_wall_s"] = chosen.wall
        metrics["bench.untraced_wall_s"] = untraced_wall
        metrics["bench.trace_overhead_s"] = chosen.wall - untraced_wall
        metrics["bench.failed_frac"] = failed / attempted
        units = {k: _unit(k) for k in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(i.wall for i in plain),
            "peak_rss_mb": statistics.median(i.peak_rss for i in plain) / 2**20,
            "setup_s": statistics.median(setup_times),
        }
        units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

    env_record = environment(env)
    report = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env_record, "iterations": len(iterations),
        "walls": [i.wall for i in iterations], "setup_times": setup_times,
        "failed_frac": failed / attempted, "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"environment: {json.dumps(env_record)}")
    print(f"workload {args.workload} seed {seed}: {len(iterations)} iterations "
          f"({len(plain)} untraced), set-up x{len(setup_times)}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(f"checks: {attempted - failed}/{attempted} commands ok, failed_frac {failed / attempted:.4f}")
    for k, v in metrics.items():
        print(f"  {k:40s} {v:14.6f} {units[k]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_pct", "%"), ("_ratio", "ratio"),
                         ("_frac", "ratio"), ("_auc", "auc")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
