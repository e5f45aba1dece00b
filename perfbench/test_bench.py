"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They are kept out of the repository's own test paths. Each smoke test runs a
workload on a tiny course and checks that every metric BENCHMARK.json names
is emitted; the corruption tests check that the output checks reject a
flipped cohort row and a bad manifest hash.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"runall-400": 60, "stages-1500": 300}


@pytest.fixture
def bench(monkeypatch, capsys, tmp_path):
    """Runs one workload in-process on a tiny course; returns its result line."""
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")

    def go(workload: str, trace: int) -> dict:
        tiny = dataclasses.replace(run.WORKLOADS[workload], learners=TINY[workload])
        monkeypatch.setitem(run.WORKLOADS, workload, tiny)
        assert run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace)]) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    return go


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS) == sorted(TINY)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_emits_every_named_metric(bench, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == wanted


def test_traced_spans_add_up_to_the_wall(bench):
    metrics = {k: v["value"] for k, v in bench("runall-400", 1)["metrics"].items()}
    assert metrics["cli.unattributed_s"] >= 0
    assert metrics["cli.toplevel_s"] + metrics["cli.unattributed_s"] == pytest.approx(
        metrics["bench.traced_wall_s"], abs=1e-9)
    assert metrics["cli.grid_phase_s"] > 0 and metrics["evaluator.cell_n"] > 0
    assert 0 < metrics["cli.pool_busy_ratio"] <= 1


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    env = run.command_env()
    stopout = [sys.executable, "-m", "stopout.cli"]
    course, out = root / "course", root / "out"
    subprocess.run(stopout + ["synth", "--out", str(course), "--learners", "40", "--weeks", "5",
                              "--seed", "3"], env=env, check=True, capture_output=True)
    subprocess.run(stopout + ["run-all", "--events", str(course / "events.tsv"),
                              "--calendar", str(course / "calendar.tsv"), "--out", str(out),
                              "--config", str(_subsample_config(root))],
                   env=env, check=True, capture_output=True)
    return course, out


def _subsample_config(root: Path) -> Path:
    path = root / "run.cfg"
    path.write_text(run.RUNALL_CONFIG, encoding="utf-8")
    return path


def test_checks_pass_on_true_outputs(tiny_run):
    course, out = tiny_run
    truth = checks.load_truth(course)
    assert checks.check_cohorts(out / "cohorts.tsv", truth) == []
    assert checks.check_stopout_weeks(out / "features.tsv", truth) == []
    assert checks.check_manifest(out) == []
    assert checks.check_ingest_stats(out / "ingest_stats.tsv", course / "events.tsv") == []


def test_flipped_cohort_row_is_rejected(tiny_run, tmp_path):
    course, out = tiny_run
    lines = (out / "cohorts.tsv").read_text(encoding="utf-8").splitlines()
    lid, cohort = lines[1].split("\t")
    other = "forum_contributor" if cohort != "forum_contributor" else "wiki_contributor"
    lines[1] = f"{lid}\t{other}"
    bad = tmp_path / "cohorts.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checks.check_cohorts(bad, checks.load_truth(course))


def test_bad_manifest_hash_is_rejected(tiny_run, tmp_path):
    _, out = tiny_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    lines = (copy / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("file\t"))
    kind, rel, digest, size = lines[i].split("\t")
    lines[i] = "\t".join((kind, rel, ("0" if digest[0] != "0" else "1") + digest[1:], size))
    (copy / "manifest.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checks.check_manifest(copy)


def test_failed_check_counts_as_a_failed_command(tmp_path):
    def plan(ctx, out):
        return [run.Step(["synth", "--out", str(out), "--learners", "5", "--weeks", "2"],
                         lambda: ["deliberately failed"])]

    workload = run.Workload(5, 2, 0, plan)
    ctx = run.Context(course=tmp_path, truth={}, jobs=1)
    it = run.run_iteration(workload, ctx, tmp_path / "iter", False, run.command_env())
    assert (it.attempted, it.failed) == (1, 1)
