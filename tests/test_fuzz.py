"""Every file a command reads, changed one mutation at a time, ends typed.

A fixed-seed loop takes synth 80x5 seed 3 and its run-all outputs, changes one
input file per mutation and runs every command that reads it, in process
through main. A mutation puts one of TOKENS into a cell, or drops,
duplicates, swaps or blanks a line, or truncates the file. The oracle: each
command returns 0, 2, 3 or 4, raises nothing, and writes one stderr line
when it fails and none when it does not (pytest's filterwarnings = error
fails any numpy warning). And what ingest accepts, featurize and cohorts
accept: when ingest exits 0 on a mutated events or calendar file, both run
on its outputs with exit 0.
"""

from __future__ import annotations

import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from stopout.cli import main
from stopout.cohorts import PASSIVE

TOKENS = (
    "", "0", "1", "-1", "7", "-0", "0.5", "1e3", "nan", "inf", "-inf", "1e400",
    "99999999999999999999999", "-99999999999999999999999", str(2**63 - 1), str(-2**63),
    "é", "\x1c", "\x85", "1_0", "١", "0x10", " 1", "x", "True", PASSIVE, "ok",
)


@pytest.fixture(scope="module")
def course(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    raw, run = base / "course", base / "run"
    (base / "run.cfg").write_text("importance_subsamples = 4\n", encoding="utf-8")
    assert main(["synth", "--out", str(raw), "--learners", "80", "--weeks", "5", "--seed", "3"]) == 0
    assert main(["run-all", "--events", str(raw / "events.tsv"), "--calendar", str(raw / "calendar.tsv"),
                 "--out", str(run), "--config", str(base / "run.cfg")]) == 0
    config = base / "cells.cfg"
    config.write_text("seed = 3\nratio = 0.7\nridge = 1e-06\nfolds = 3\nmin_rows = 10\nimportance_fraction = 0.75\n"
                      "importance_weight_floor = 0.5\nimportance_target_support = 8\n", encoding="utf-8")
    return SimpleNamespace(events=raw / "events.tsv", calendar=raw / "calendar.tsv", dumped=run / "calendar.tsv",
                           dataset=run / "dataset.tsv", features=run / "features.tsv", cohorts=run / "cohorts.tsv",
                           grid=run / f"grid_{PASSIVE}.tsv", config=config)


def _cell_commands(features: Path, config: Path, cohorts: Path | None = None) -> list[list]:
    """build and train-eval of problem (1, 2) and importance of (1, 1), of the passive cohort when a
    cohorts file is given. Lag 2 reads weeks 1 and 2 of the learners still active in week 3, 28% of
    the file's cells; importance stays at lag 1, where its l1 fits on a cohort's few rows cost far less."""
    joined = [] if cohorts is None else ["--cohorts", cohorts]
    problem = ["--lead", "1", "--lag", "2", *joined, *(["--cohort", PASSIVE] if joined else [])]
    return [["build", "--features", features, *problem],
            ["train-eval", "--features", features, *problem, "--config", config],
            ["importance", "--features", features, "--problem", f"1,1,{PASSIVE}" if joined else "1,1", *joined,
             "--subsamples", "4", "--config", config]]


# input -> (the fixture's file, its number of mutations, the commands that read a mutated copy at path);
# an importance run costs 50-120 ms, so the inputs importance reads get fewer mutations; 528 in all
INPUTS = {
    "events": ("events", 64, lambda c, path: [["ingest", "--events", path, "--calendar", c.calendar]]),
    "calendar": ("calendar", 96, lambda c, path: [["ingest", "--events", c.events, "--calendar", path]]),
    "dumped_calendar": ("dumped", 96, lambda c, path: [
        [command, "--dataset", c.dataset, "--calendar", path] for command in ("featurize", "cohorts")]),
    "dataset": ("dataset", 64, lambda c, path: [
        [command, "--dataset", path, "--calendar", c.dumped] for command in ("featurize", "cohorts")]),
    "features": ("features", 64, lambda c, path: _cell_commands(path, c.config)),
    "cohorts": ("cohorts", 16, lambda c, path: _cell_commands(c.features, c.config, path)),
    "grid": ("grid", 96, lambda c, path: [["heatmap", "--grid", path]]),
    "config": ("config", 32, lambda c, path: _cell_commands(c.features, path)),
}


def mutate(text: str, rng: random.Random, separator: str) -> tuple[str, str]:
    """text with one mutation, and what it was."""
    lines = text.split("\n")
    at, other = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.choice(("cell", "cell", "cell", "cell", "cell", "drop", "duplicate", "swap", "blank", "truncate"))
    if kind == "cell":
        cells = lines[at].split(separator)
        column, token = rng.randrange(len(cells)), rng.choice(TOKENS)
        cells[column] = token
        lines[at] = separator.join(cells)
        return "\n".join(lines), f"line {at + 1} cell {column + 1} = {token!r}"
    if kind == "truncate":
        end = rng.randrange(len(text))
        return text[:end], f"truncated to {end} characters"
    if kind == "drop":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(other, lines[at])
    elif kind == "swap":
        lines[at], lines[other] = lines[other], lines[at]
    else:
        lines[at] = ""
    return "\n".join(lines), f"{kind} line {at + 1} (other {other + 1})"


def run(argv: list, capsys, what: str) -> int:
    try:
        rc = main([str(arg) for arg in argv])
    except Exception as exc:  # a numpy warning too: filterwarnings = error raises it
        raise AssertionError(f"{what}: raised {exc!r}") from exc
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4), f"{what}: exit {rc}"
    assert err.count("\n") == (rc != 0) and err.endswith("\n") == (rc != 0), f"{what}: stderr {err!r}"
    return rc


@pytest.mark.parametrize("name", INPUTS)
def test_a_mutated_input_ends_typed(course, tmp_path, capsys, name):
    attribute, mutations, commands = INPUTS[name]
    original = getattr(course, attribute).read_text(encoding="utf-8")
    rng = random.Random(f"fuzz|{name}")
    for i in range(mutations):
        text, change = mutate(original, rng, "=" if name == "config" else "\t")
        path = tmp_path / f"{i}" / getattr(course, attribute).name
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
        out = path.parent / "out"
        for argv in commands(course, path):
            what = f"{name} mutation {i} ({change}), {argv[0]}"
            if run([*argv, "--out", out], capsys, what) == 0 and argv[0] == "ingest":
                for stage in ("featurize", "cohorts"):
                    again = [stage, "--dataset", out / "dataset.tsv", "--calendar", out / "calendar.tsv", "--out", out]
                    assert run(again, capsys, f"{what}, then {stage}") == 0, f"{what}: ingest accepted, {stage} did not"
