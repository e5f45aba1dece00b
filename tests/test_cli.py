"""End-to-end tests for the command-line pipeline.

Everything runs in-process through main(argv) so exit codes and printed
output are observable without spawning subprocesses.
"""

from __future__ import annotations

import argparse
import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import stopout
from oracles import read_manifest_reference, read_model_reference
from stopout.cli import (
    CELL_KEYS,
    DEFAULTS,
    SETTINGS,
    build_parser,
    config_sha256,
    filter_match,
    load_config,
    main,
    parse_cohort,
    parse_filter,
    parse_problem,
    parse_problem_pairs,
    _settings,
    sha256_file,
    write_manifest,
)
from stopout.cohorts import COHORTS
from stopout.dataset_builder import ALL_COHORT, ProblemSpec, column_names, enumerate_problems, flatten, stratified_split
from stopout.errors import ConfigError
from stopout.evaluator import (
    GRID_COLUMNS,
    GridResult,
    cell_seed,
    cross_validate,
    evaluate_cell,
    evaluate_problem,
    export_grid,
    load_grid,
    roc_auc,
)
from stopout.featurizer import FEATURE_COLUMNS, FeatureMatrix, export_feature_matrix, load_feature_matrix
from stopout.importance import (
    CALIBRATION_STEPS,
    IMPORTANCE_COLUMNS,
    PROBLEM_COLUMNS,
    calibrate_lambda,
    problem_importance,
    stability_select,
)
from stopout.logistic_model import sigmoid, train
from stopout.synth import TRUTH_COLUMNS, SynthConfig
from stopout.tsv import read_table
from stopout.viz import CELL, PAD_LEFT, PAD_TOP


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny course pushed through every staged command."""
    base = tmp_path_factory.mktemp("cli")
    course = base / "course"
    assert main(["synth", "--out", str(course), "--learners", "80", "--weeks", "4", "--seed", "3"]) == 0
    events = course / "events.tsv"
    calendar = course / "calendar.tsv"

    ing = base / "ingested"
    assert main(["ingest", "--events", str(events), "--calendar", str(calendar), "--out", str(ing)]) == 0
    feat = base / "featurized"
    assert main(["featurize", "--dataset", str(ing / "dataset.tsv"), "--calendar", str(ing / "calendar.tsv"), "--out", str(feat)]) == 0
    coh = base / "cohorted"
    assert main(["cohorts", "--dataset", str(ing / "dataset.tsv"), "--calendar", str(ing / "calendar.tsv"), "--out", str(coh)]) == 0

    cfg = base / "run.cfg"
    cfg.write_text("folds = 3\nimportance_subsamples = 20\n", encoding="utf-8")
    return SimpleNamespace(
        base=base,
        events=events,
        calendar=calendar,
        truth=course / "truth.tsv",
        dataset=ing / "dataset.tsv",
        ing_calendar=ing / "calendar.tsv",
        features=feat / "features.tsv",
        histogram=feat / "stopout_histogram.tsv",
        cohorts=coh / "cohorts.tsv",
        config=cfg,
    )


@pytest.fixture(scope="module")
def runall_dir(pipeline):
    out = pipeline.base / "runall"
    rc = main([
        "run-all", "--events", str(pipeline.events), "--calendar", str(pipeline.calendar),
        "--out", str(out), "--config", str(pipeline.config),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def jobs_pair(pipeline):
    """The same filtered no-signal run with one worker and with two."""
    outs = []
    for jobs in ("1", "2"):
        out = pipeline.base / f"jobs{jobs}"
        rc = main([
            "run-all", "--events", str(pipeline.events), "--calendar", str(pipeline.calendar),
            "--out", str(out), "--config", str(pipeline.config),
            "--filter", "lead=1", "--jobs", jobs, "--shuffle-labels",
        ])
        assert rc == 0
        outs.append(out)
    return outs


@pytest.fixture(scope="module")
def importance_jobs_pair(pipeline):
    """The same run with importance on, with one worker and with two."""
    cfg = pipeline.base / "importance.cfg"
    cfg.write_text("folds = 3\nimportance_subsamples = 5\n", encoding="utf-8")
    outs = []
    for jobs in ("1", "2"):
        out = pipeline.base / f"importance_jobs{jobs}"
        rc = main([
            "run-all", "--events", str(pipeline.events), "--calendar", str(pipeline.calendar),
            "--out", str(out), "--config", str(cfg), "--jobs", jobs,
        ])
        assert rc == 0
        outs.append(out)
    return outs


# ---------------------------------------------------------------------------
# argument and config plumbing


def test_defaults_flag_prints_every_key(capsys):
    assert main(["--defaults"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{k}={DEFAULTS[k]}" for k in sorted(DEFAULTS)]
    assert "importance_problems=13,1;3,6;6,4" in lines
    assert "ridge=1e-06" in lines


def test_bare_invocation_needs_a_subcommand(capsys):
    assert main([]) == 2
    assert "a subcommand or --defaults is required" in capsys.readouterr().err


def test_config_file_overrides_defaults(tmp_path):
    path = tmp_path / "x.cfg"
    path.write_text("# comment\n\nfolds = 3\nseed=9\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg["folds"] == "3" and cfg["seed"] == "9"
    assert cfg["ratio"] == DEFAULTS["ratio"]


@pytest.mark.parametrize(
    "body,message",
    [
        ("mystery=1\n", "unknown config key 'mystery'"),
        ("folds\n", "expected key=value"),
        ("=3\n", "expected key=value"),
    ],
)
def test_config_file_rejects_bad_lines(tmp_path, body, message):
    path = tmp_path / "bad.cfg"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\x1c"])
def test_config_lines_end_at_newline_alone(tmp_path, separator):
    # str.splitlines() would also end a line here and load ratio=0.5 as a key
    path = tmp_path / "x.cfg"
    path.write_text(f"seed=1{separator}ratio=0.5\nfolds=3\r\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg["seed"] == f"1{separator}ratio=0.5" and cfg["folds"] == "3"
    assert cfg["ratio"] == DEFAULTS["ratio"]
    with pytest.raises(ConfigError, match="config key seed must be an integer"):
        _settings(argparse.Namespace(), cfg, "seed")


def test_missing_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"nope\.cfg: file not found"):
        load_config(str(tmp_path / "nope.cfg"))


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery=1\n", encoding="utf-8")
    rc = main(["synth", "--out", str(tmp_path / "o"), "--config", str(path)])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


# each numeric config key: a command that reads it, and the kind of value it needs
NUMERIC_KEYS = {
    "seed": ("train-eval", "an integer"),
    "ratio": ("train-eval", "a number"),
    "ridge": ("train-eval", "a number"),
    "folds": ("train-eval", "an integer"),
    "min_rows": ("train-eval", "an integer"),
    "importance_subsamples": ("importance", "an integer"),
    "importance_fraction": ("importance", "a number"),
    "importance_weight_floor": ("importance", "a number"),
    "importance_target_support": ("importance", "an integer"),
    "synth_learners": ("synth", "an integer"),
    "synth_weeks": ("synth", "an integer"),
    "synth_hazard_noise": ("synth", "a number"),
    "synth_volume_slope": ("synth", "a number"),
    "synth_timeliness_slope": ("synth", "a number"),
    "synth_grades_slope": ("synth", "a number"),
}


def test_numeric_keys_are_every_key_but_the_problem_list():
    assert set(NUMERIC_KEYS) == set(DEFAULTS) - {"importance_problems"}
    for key, (_, expected) in NUMERIC_KEYS.items():
        assert SETTINGS[key][1] is (int if expected == "an integer" else float), key


def test_non_numeric_config_value_exits_2(pipeline, tmp_path, capsys):
    inputs = {
        "train-eval": ["--features", str(pipeline.features), "--lead", "1", "--lag", "1"],
        "importance": ["--features", str(pipeline.features), "--problem", "1,1"],
        "synth": [],
    }
    path = tmp_path / "bad.cfg"
    for key, (command, expected) in NUMERIC_KEYS.items():
        path.write_text(f"{key}=abc\n", encoding="utf-8")
        rc = main([command, *inputs[command], "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2, key
        assert f"config error: config key {key} must be {expected}, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,flag", [
    ("folds", "1", "--folds"), ("folds", "0", None),
    ("importance_subsamples", "0", "--subsamples"), ("importance_subsamples", "-3", None),
    ("ridge", "-1", "--ridge"), ("ridge", "0", None), ("ridge", "nan", "--ridge"),
    ("min_rows", "0", None), ("min_rows", "-5", None),
    ("importance_target_support", "-1", None), ("importance_target_support", "-2", None),
])
def test_a_value_at_or_below_its_bound_exits_2(pipeline, tmp_path, capsys, key, value, flag):
    command = "importance" if key.startswith("importance_") else "train-eval"
    inputs = {
        "train-eval": ["--features", str(pipeline.features), "--lead", "1", "--lag", "1"],
        "importance": ["--features", str(pipeline.features), "--problem", "1,1"],
    }[command]
    path = tmp_path / "bounded.cfg"
    path.write_text(f"{key}={value}\n", encoding="utf-8")
    given = [flag, value] if flag else ["--config", str(path)]
    out = tmp_path / "o"
    assert main([command, *inputs, *given, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} must be greater than {SETTINGS[key][3]}, got" in err
    assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    ("importance_fraction", "0", "must be greater than 0.0, got 0.0"),
    ("importance_fraction", "1.5", "must be at most 1.0, got 1.5"),
    ("importance_fraction", "nan", "must be greater than 0.0, got nan"),
    ("importance_weight_floor", "-1", "must be greater than 0.0, got -1.0"),
    ("importance_weight_floor", "0", "must be greater than 0.0, got 0.0"),
    ("importance_weight_floor", "1.01", "must be at most 1.0, got 1.01"),
    ("ratio", "0", "must be greater than 0.0, got 0.0"),
    ("ratio", "1", "must be at most 0.9999999999999999, got 1.0"),
    ("ratio", "1.5", "must be at most 0.9999999999999999, got 1.5"),
    ("ratio", "nan", "must be greater than 0.0, got nan"),
])
def test_a_value_outside_its_range_exits_2(pipeline, tmp_path, capsys, key, value, message):
    path = tmp_path / "ranged.cfg"
    path.write_text(f"importance_subsamples=3\n{key}={value}\n", encoding="utf-8")
    # ratio is read by train-eval and run-all, the importance_ keys by importance
    commands = [["importance", "--features", str(pipeline.features), "--problem", "1,1"]]
    if key == "ratio":
        commands = [
            ["train-eval", "--features", str(pipeline.features), "--lead", "1", "--lag", "1"],
            ["train-eval", "--features", str(pipeline.features), "--lead", "1", "--lag", "1", "--ratio", value],
            ["run-all", "--events", str(pipeline.events), "--calendar", str(pipeline.calendar)],
        ]
    out = tmp_path / "o"
    for command in commands:
        assert main([*command, "--config", str(path), "--out", str(out)]) == 2, command
        assert f"config error: {key} {message}" in capsys.readouterr().err
        assert not out.exists()


def test_the_upper_bound_of_a_range_is_allowed(pipeline, tmp_path):
    path = tmp_path / "ranged.cfg"
    path.write_text("importance_subsamples=3\nimportance_fraction=1\nimportance_weight_floor=1\n", encoding="utf-8")
    args = ["--features", str(pipeline.features), "--problem", "1,1", "--config", str(path)]
    assert main(["importance", *args, "--out", str(tmp_path / "o")]) == 0


# every library parameter a config key sets, by key: (function, parameter);
# each default there repeats the key's default in SETTINGS
LIBRARY_DEFAULTS = {
    "seed": [(evaluate_cell, "seed"), (problem_importance, "seed"), (SynthConfig, "seed")],
    "ratio": [(evaluate_problem, "ratio"), (evaluate_cell, "ratio")],
    "ridge": [(train, "ridge"), (cross_validate, "ridge"), (evaluate_problem, "ridge"), (evaluate_cell, "ridge")],
    "folds": [(cross_validate, "folds"), (evaluate_problem, "folds"), (evaluate_cell, "folds")],
    "min_rows": [(evaluate_cell, "min_rows"), (problem_importance, "min_rows")],
    "importance_subsamples": [(stability_select, "subsamples"), (problem_importance, "subsamples")],
    "importance_fraction": [(stability_select, "fraction"), (problem_importance, "fraction")],
    "importance_weight_floor": [(stability_select, "weight_floor"), (problem_importance, "weight_floor")],
    "importance_target_support": [(calibrate_lambda, "target_support"), (stability_select, "target_support"),
                                  (problem_importance, "target_support")],
    "synth_learners": [(SynthConfig, "num_learners")],
    "synth_weeks": [(SynthConfig, "num_weeks")],
    "synth_hazard_noise": [(SynthConfig, "hazard_noise")],
    "synth_volume_slope": [(SynthConfig, "volume_slope")],
    "synth_timeliness_slope": [(SynthConfig, "timeliness_slope")],
    "synth_grades_slope": [(SynthConfig, "grades_slope")],
}


def test_the_library_ridge_default_is_the_config_default():
    """Ridge, and every other key a library parameter takes: SETTINGS holds the
    only default, and the library takes the setting by name with none of its own."""
    assert set(LIBRARY_DEFAULTS) == set(SETTINGS) - {"importance_problems"}  # the problem list is the CLI's own
    for key, params in LIBRARY_DEFAULTS.items():
        for func, name in params:
            param = inspect.signature(func).parameters[name]
            assert param.default is inspect.Parameter.empty, (key, func.__name__, name)
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, (key, func.__name__, name)


# every subcommand's options in order: option string, type, required, default, action
_ = None
SURFACE = {
    "synth": [("--out", _, True, _, "store"), ("--config", _, False, _, "store"), ("--seed", int, False, _, "store"),
              ("--learners", int, False, _, "store"), ("--weeks", int, False, _, "store")],
    "ingest": [("--events", _, True, _, "append"), ("--calendar", _, True, _, "store"),
               ("--out", _, True, _, "store")],
    "featurize": [("--dataset", _, True, _, "store"), ("--calendar", _, True, _, "store"),
                  ("--out", _, True, _, "store")],
    "cohorts": [("--dataset", _, True, _, "store"), ("--calendar", _, True, _, "store"),
                ("--out", _, True, _, "store")],
    "build": [("--features", _, True, _, "store"), ("--lead", int, True, _, "store"),
              ("--lag", int, True, _, "store"), ("--cohort", _, False, _, "store"),
              ("--cohorts", _, False, _, "store"), ("--out", _, True, _, "store")],
    "train-eval": [("--features", _, True, _, "store"), ("--lead", int, True, _, "store"),
                   ("--lag", int, True, _, "store"), ("--cohort", _, False, _, "store"),
                   ("--cohorts", _, False, _, "store"), ("--config", _, False, _, "store"),
                   ("--seed", int, False, _, "store"), ("--ratio", float, False, _, "store"),
                   ("--ridge", float, False, _, "store"), ("--folds", int, False, _, "store"),
                   ("--out", _, True, _, "store")],
    "heatmap": [("--grid", _, True, _, "store"), ("--out", _, True, _, "store"),
                ("--value", _, False, "test_auc", "store")],
    "importance": [("--features", _, True, _, "store"), ("--cohorts", _, False, _, "store"),
                   ("--problem", _, True, _, "append"), ("--config", _, False, _, "store"),
                   ("--seed", int, False, _, "store"), ("--subsamples", int, False, _, "store"),
                   ("--out", _, True, _, "store")],
    "run-all": [("--events", _, True, _, "append"), ("--calendar", _, True, _, "store"),
                ("--out", _, True, _, "store"), ("--config", _, False, _, "store"),
                ("--seed", int, False, _, "store"), ("--filter", _, False, _, "append"),
                ("--jobs", int, False, 1, "store"), ("--shuffle-labels", _, False, False, "store_true")],
}
ACTIONS = {argparse._StoreAction: "store", argparse._AppendAction: "append", argparse._StoreTrueAction: "store_true"}


def _options(parser: argparse.ArgumentParser) -> list[tuple]:
    return [(*a.option_strings, a.type, a.required, a.default, ACTIONS.get(type(a)))
            for a in parser._actions if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))]


def test_cli_surface():
    parser = build_parser()
    assert _options(parser) == [("--defaults", _, False, False, "store_true")]
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert list(commands) == list(SURFACE)
    assert {name: _options(p) for name, p in commands.items()} == SURFACE


def test_config_sha256_is_order_insensitive():
    cfg = load_config(None)
    reordered = dict(reversed(list(cfg.items())))
    assert config_sha256(cfg) == config_sha256(reordered)
    assert len(config_sha256(cfg)) == 64
    changed = dict(cfg, seed="1")
    assert config_sha256(changed) != config_sha256(cfg)


def test_parse_filter_clauses():
    assert parse_filter("lead=1,lag=3") == {"lead": 1, "lag": 3}
    assert parse_filter("cohort=passive_collaborator") == {"cohort": "passive_collaborator"}
    assert parse_filter("cohort=all") == {}
    assert parse_filter("cohort=") == {}
    assert parse_filter("lag=1,cohort=all") == {"lag": 1}
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_filter("lead")
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_filter("lead=x")
    with pytest.raises(ConfigError, match="unknown cohort"):
        parse_filter("cohort=lurker")
    with pytest.raises(ConfigError, match="unknown filter key"):
        parse_filter("week=3")


def test_filter_match_is_any_of_all():
    clauses = [parse_filter("lead=1,lag=2"), parse_filter("cohort=wiki_contributor")]
    assert filter_match(clauses, "all", 1, 2)
    assert filter_match(clauses, "wiki_contributor", 9, 9)
    assert not filter_match(clauses, "all", 1, 3)
    assert filter_match([], "anything", 5, 5)


def test_parse_problem_pairs():
    assert parse_problem_pairs("13,1;3,6;6,4") == [(13, 1), (3, 6), (6, 4)]
    assert parse_problem_pairs("1,1;") == [(1, 1)]
    with pytest.raises(ConfigError, match="expected LEAD,LAG"):
        parse_problem_pairs("7")
    with pytest.raises(ConfigError, match="must be integers"):
        parse_problem_pairs("a,b")
    with pytest.raises(ConfigError, match="must be >= 1"):
        parse_problem_pairs("0,1")
    with pytest.raises(ConfigError, match="lists no problems"):
        parse_problem_pairs(";")
    with pytest.raises(ConfigError, match="expected LEAD,LAG"):
        parse_problem_pairs("1,1,wiki_contributor")  # a config pair names no cohort


def test_one_problem_grammar():
    assert parse_problem("3,6") == ProblemSpec(lead=3, lag=6)
    assert parse_problem("3,6,all") == parse_problem("3,6,") == ProblemSpec(lead=3, lag=6)
    assert parse_problem("3,6,wiki_contributor") == ProblemSpec(lead=3, lag=6, cohort="wiki_contributor")
    assert parse_cohort(None) == parse_cohort("") == parse_cohort("all") == ALL_COHORT == "all"
    with pytest.raises(ConfigError, match="unknown cohort 'lurker'"):
        parse_problem("3,6,lurker")
    with pytest.raises(ConfigError, match=r"expected LEAD,LAG\[,COHORT\]"):
        parse_problem("3,6,all,4")
    with pytest.raises(ConfigError, match="must be >= 1"):
        parse_problem("0,6")


# ---------------------------------------------------------------------------
# staged commands


def test_synth_writes_course_files(pipeline):
    assert pipeline.events.exists() and pipeline.calendar.exists()
    assert len(pipeline.truth.read_text(encoding="utf-8").splitlines()) == 81


def test_synth_reads_size_from_config(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("synth_learners=25\nsynth_weeks=3\n", encoding="utf-8")
    out = tmp_path / "course"
    assert main(["synth", "--out", str(out), "--config", str(cfg)]) == 0
    assert "synth: 25 learners, 3 weeks" in capsys.readouterr().out
    assert len((out / "truth.tsv").read_text(encoding="utf-8").splitlines()) == 26


def test_ingest_reports_clean_acceptance(pipeline, tmp_path, capsys):
    out = tmp_path / "ing"
    rc = main(["ingest", "--events", str(pipeline.events), "--calendar", str(pipeline.calendar), "--out", str(out)])
    assert rc == 0
    assert "0 rejected, 0 clamped" in capsys.readouterr().out
    stats = dict(
        line.split("\t") for line in
        (out / "ingest_stats.tsv").read_text(encoding="utf-8").splitlines()[1:]
    )
    assert stats["rejected"] == "0" and stats["total"] == stats["accepted"]


def test_ingest_accepts_split_event_files(pipeline, tmp_path):
    lines = pipeline.events.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], lines[1:]
    half = len(rows) // 2
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    a.write_text("\n".join([header] + rows[:half]) + "\n", encoding="utf-8")
    b.write_text("\n".join([header] + rows[half:]) + "\n", encoding="utf-8")
    out = tmp_path / "ing"
    rc = main(["ingest", "--events", str(a), "--events", str(b), "--calendar", str(pipeline.calendar), "--out", str(out)])
    assert rc == 0
    stats = dict(
        line.split("\t") for line in
        (out / "ingest_stats.tsv").read_text(encoding="utf-8").splitlines()[1:]
    )
    assert stats["accepted"] == str(len(rows))


def test_malformed_event_lines_are_tallied_not_fatal(pipeline, tmp_path, capsys):
    mangled = tmp_path / "events.tsv"
    mangled.write_text(
        pipeline.events.read_text(encoding="utf-8") + "garbage line\n", encoding="utf-8"
    )
    out = tmp_path / "ing"
    rc = main(["ingest", "--events", str(mangled), "--calendar", str(pipeline.calendar), "--out", str(out)])
    assert rc == 0
    assert "1 rejected" in capsys.readouterr().out
    stats_text = (out / "ingest_stats.tsv").read_text(encoding="utf-8")
    assert "reject:bad_columns\t1" in stats_text


def test_featurize_and_cohort_outputs_exist(pipeline):
    assert pipeline.features.exists() and pipeline.histogram.exists()
    body = pipeline.cohorts.read_text(encoding="utf-8").splitlines()
    assert body[0] == "learner_id\tcohort"
    assert len(body) == 81


def test_build_writes_a_design_matrix(pipeline, tmp_path, capsys):
    out = tmp_path / "design"
    rc = main(["build", "--features", str(pipeline.features), "--lead", "1", "--lag", "1", "--out", str(out)])
    assert rc == 0
    assert "80 rows x 27 columns" in capsys.readouterr().out
    lines = (out / "design.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t") == ["learner_id", "label"] + column_names(1)
    assert len(lines) == 81
    first = lines[1].split("\t")
    assert first[1] in ("0", "1")
    assert all(np.isfinite(float(v)) for v in first[2:])


def test_build_cohort_needs_cohorts_file(pipeline, tmp_path, capsys):
    rc = main([
        "build", "--features", str(pipeline.features), "--lead", "1", "--lag", "1",
        "--cohort", "passive_collaborator", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "--cohort requires --cohorts FILE" in capsys.readouterr().err


@pytest.mark.parametrize("command,written", [("build", ["design.tsv"]), ("train-eval", ["eval.tsv", "model.txt"])])
def test_cohort_all_is_the_whole_population(pipeline, tmp_path, capsys, command, written):
    problem = [command, "--features", str(pipeline.features), "--lead", "2", "--lag", "1"]
    runs = {
        "plain": [],
        "all": ["--cohort", "all"],  # needs no --cohorts file
        "all_with_file": ["--cohort", "all", "--cohorts", str(pipeline.cohorts)],
    }
    for name, flags in runs.items():
        assert main([*problem, *flags, "--out", str(tmp_path / name)]) == 0, name
    printed = capsys.readouterr().out.splitlines()
    assert len({line.replace(str(tmp_path / name), "OUT") for line, name in zip(printed, runs)}) == 1
    for name in written:
        plain = (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "all" / name).read_bytes() == plain
        assert (tmp_path / "all_with_file" / name).read_bytes() == plain


@pytest.mark.parametrize("command", ["build", "train-eval"])
def test_unknown_cohort_exits_2(pipeline, tmp_path, capsys, command):
    rc = main([
        command, "--features", str(pipeline.features), "--lead", "1", "--lag", "2",
        "--cohort", "lurker", "--cohorts", str(pipeline.cohorts), "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "config error: unknown cohort 'lurker'" in capsys.readouterr().err


def test_train_eval_writes_model_and_grid(pipeline, tmp_path, capsys):
    out = tmp_path / "te"
    rc = main([
        "train-eval", "--features", str(pipeline.features), "--lead", "1", "--lag", "2",
        "--folds", "3", "--out", str(out),
    ])
    assert rc == 0
    line = capsys.readouterr().out
    assert "train-eval: lead=1 lag=2 cohort=all" in line and "cv=" in line
    assert (out / "model.txt").exists()
    grid_lines = (out / "eval.tsv").read_text(encoding="utf-8").splitlines()
    assert len(grid_lines) >= 2


def test_train_eval_too_few_rows_exits_3(fixture_matrix, tmp_path, capsys):
    features = tmp_path / "features.tsv"
    export_feature_matrix(fixture_matrix, features)
    rc = main(["train-eval", "--features", str(features), "--lead", "1", "--lag", "1", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "insufficient data: 4 eligible learners" in capsys.readouterr().err


def test_train_eval_one_class_course_exits_4(tmp_path, capsys):
    # a course where nobody ever stops produces all-one labels
    rng = np.random.default_rng(0)
    n, weeks = 12, 3
    matrix = FeatureMatrix(
        learners=[f"L{i:02d}" for i in range(n)],
        num_weeks=weeks,
        values=rng.normal(size=(n, weeks, 27)),
        labels=np.ones((n, weeks), dtype=np.int8),
        stopout_week=np.full(n, weeks + 1),
    )
    features = tmp_path / "features.tsv"
    export_feature_matrix(matrix, features)
    rc = main(["train-eval", "--features", str(features), "--lead", "1", "--lag", "1", "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "degenerate labels:" in capsys.readouterr().err


def test_heatmap_command_renders_grid_exports(runall_dir, tmp_path):
    grid = runall_dir / "grid_passive_collaborator.tsv"
    out = tmp_path / "hm"
    assert main(["heatmap", "--grid", str(grid), "--out", str(out)]) == 0
    assert (out / "heatmap.tsv").exists() and (out / "heatmap.svg").exists()
    assert main(["heatmap", "--grid", str(grid), "--out", str(out), "--value", "cv_mean"]) == 0


def test_heatmap_redraws_a_filtered_run_all_grid_as_run_all_drew_it(pipeline, tmp_path):
    # a grid's span is its largest predicted week, in run-all and in heatmap alike
    out = tmp_path / "o"
    assert main(["run-all", "--events", str(pipeline.events), "--calendar", str(pipeline.calendar), "--out", str(out),
                 "--config", str(pipeline.config), "--filter", "lead=1,lag=1", "--shuffle-labels"]) == 0
    for cohort in COHORTS:
        redrawn = tmp_path / cohort
        assert main(["heatmap", "--grid", str(out / f"grid_{cohort}.tsv"), "--out", str(redrawn)]) == 0
        for kind in ("tsv", "svg"):
            assert (redrawn / f"heatmap.{kind}").read_bytes() == (out / f"heatmap_{cohort}.{kind}").read_bytes()


def test_heatmap_missing_grid_exits_3(tmp_path, capsys):
    missing = tmp_path / "absent.tsv"
    rc = main(["heatmap", "--grid", str(missing), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error:" in err and "absent.tsv" in err


def reading(p: SimpleNamespace, flag: str, path: Path) -> list[str]:
    """A command that reads path as its input file for flag (for "out", one that writes a directory)."""
    problem = ["--lead", "1", "--lag", "1"]
    return [*map(str, {
        "config": ["train-eval", "--features", p.features, *problem, "--config", path],
        "events": ["ingest", "--events", path, "--calendar", p.calendar],
        "calendar": ["ingest", "--events", p.events, "--calendar", path],
        "dataset": ["featurize", "--dataset", path, "--calendar", p.ing_calendar],
        "features": ["build", "--features", path, *problem],
        "cohorts": ["build", "--features", p.features, *problem, "--cohorts", path],
        "grid": ["heatmap", "--grid", path],
        "out": ["featurize", "--dataset", p.dataset, "--calendar", p.ing_calendar],
    }[flag])]


@pytest.mark.parametrize("flag, code", [
    ("config", 2), ("events", 3), ("calendar", 3), ("dataset", 3), ("features", 3), ("cohorts", 3), ("grid", 3),
    ("out", 2),
])
def test_an_unreadable_input_or_a_file_as_out_is_one_typed_line(pipeline, tmp_path, capsys, flag, code):
    """A directory given for the input file flag, or an existing file given as --out."""
    bad = tmp_path / "bad"
    bad.write_text("x\n", encoding="utf-8") if flag == "out" else bad.mkdir()
    out = bad if flag == "out" else tmp_path / "o"
    assert main([*reading(pipeline, flag, bad), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(bad) in err


@pytest.mark.parametrize("flag, code", [
    ("config", 2), ("events", 3), ("calendar", 3), ("dataset", 3), ("features", 3), ("cohorts", 3), ("grid", 3),
])
@pytest.mark.parametrize("where", ["middle", "end"])
def test_an_input_that_is_not_utf8_is_one_typed_line_naming_its_line(
        pipeline, runall_dir, tmp_path, capsys, flag, code, where):
    """One byte that starts no UTF-8 character, in the middle of a valid input's second line or after its last."""
    good = runall_dir / "grid_passive_collaborator.tsv" if flag == "grid" else getattr(pipeline, flag)
    data = good.read_bytes()
    at = data.index(b"\n") + 2 if where == "middle" else len(data)
    bad = tmp_path / good.name
    bad.write_bytes(data[:at] + b"\xff" + data[at:])
    line = data.count(b"\n", 0, at) + 1
    assert main([*reading(pipeline, flag, bad), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"{bad}:{line}: not valid UTF-8" in err


def test_heatmap_unknown_value_exits_2(runall_dir, tmp_path, capsys):
    grid = runall_dir / "grid_passive_collaborator.tsv"
    rc = main(["heatmap", "--grid", str(grid), "--out", str(tmp_path / "o"), "--value", "magic"])
    assert rc == 2
    assert "unknown heatmap value" in capsys.readouterr().err


def test_heatmap_checks_the_value_before_it_reads_the_grid(tmp_path, capsys):
    rc = main(["heatmap", "--grid", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "o"), "--value", "bogus"])
    assert rc == 2
    assert "unknown heatmap value 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "7.5"])
def test_heatmap_rejects_an_auc_that_is_not_in_zero_to_one(runall_dir, tmp_path, capsys, value):
    # nan was a ValueError traceback from the colour ramp, and 7.5 was drawn as if it were 1
    source = runall_dir / "grid_passive_collaborator.tsv"
    header, *rows = source.read_text(encoding="utf-8").splitlines()
    at = next(i for i, row in enumerate(rows) if row.split("\t")[4] == "ok")
    cells = rows[at].split("\t")
    cells[header.split("\t").index("test_auc")] = value
    rows[at] = "\t".join(cells)
    bad = tmp_path / source.name
    bad.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    assert main(["heatmap", "--grid", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert f"data error: {bad}:{at + 2}: test_auc {value} is not an AUC in [0, 1]\n" == capsys.readouterr().err


def test_heatmap_rejects_a_predicted_week_that_is_not_lead_plus_lag(tmp_path, capsys):
    # heatmap places a cell by its stored predicted_week: this row's test_auc was drawn under week 4
    bad = tmp_path / "grid.tsv"
    bad.write_text("\t".join(GRID_COLUMNS) + "\nall\t1\t1\t4\tok\t50\t35\t15\t0.8\t0.9\t0.85\t3\n", encoding="utf-8")
    assert main(["heatmap", "--grid", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"data error: {bad}:2: predicted_week 4 is not lead + lag = 2\n"


def test_importance_command_writes_report_and_chart(pipeline, tmp_path, capsys):
    out = tmp_path / "imp"
    rc = main([
        "importance", "--features", str(pipeline.features), "--problem", "1,1",
        "--subsamples", "10", "--out", str(out),
    ])
    assert rc == 0
    assert "importance: top features" in capsys.readouterr().out
    assert (out / "importance.tsv").exists() and (out / "importance.svg").exists()
    rows = list(read_table(out / "importance_problems.tsv", PROBLEM_COLUMNS))
    assert [row[:4] for row in rows] == [["all", "1", "1", "ok"]]
    # the bisection's fits (it may stop early), then one per subsample
    assert 1 <= int(rows[0][5]) - 10 <= CALIBRATION_STEPS + 1


def test_an_all_skipped_importance_keeps_its_statuses(pipeline, tmp_path, capsys):
    # both classes in (1,1), but every feature cell is 0.5; the wiki cohort is 4 learners
    header, *rows = pipeline.features.read_text(encoding="utf-8").splitlines()
    flat = tmp_path / "features.tsv"
    flat.write_text("\n".join([header, *("\t".join(r.split("\t")[:3] + ["0.5"] * 27) for r in rows)]) + "\n")
    out = tmp_path / "imp"
    rc = main(["importance", "--features", str(flat), "--cohorts", str(pipeline.cohorts), "--problem", "1,1",
               "--problem", "1,1,wiki_contributor", "--subsamples", "3", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == ("insufficient data: no prediction problem ran: "
                                       "1,1,all constant_features, 1,1,wiki_contributor insufficient_data\n")
    rows = list(read_table(out / "importance_problems.tsv", PROBLEM_COLUMNS))
    assert [row[:4] for row in rows] == [["all", "1", "1", "constant_features"],
                                        ["wiki_contributor", "1", "1", "insufficient_data"]]
    assert not (out / "importance.tsv").exists()


@pytest.mark.parametrize("command", ["build", "train-eval", "importance"])
def test_a_header_only_features_file_is_a_data_error(tmp_path, capsys, command):
    features = tmp_path / "features.tsv"
    features.write_text("\t".join(FEATURE_COLUMNS) + "\n", encoding="utf-8")
    problem = ["--problem", "1,1"] if command == "importance" else ["--lead", "1", "--lag", "1"]
    assert main([command, "--features", str(features), *problem, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"data error: {features}: no data rows\n"


def test_importance_cohort_problem_needs_cohorts_file(pipeline, tmp_path, capsys):
    rc = main([
        "importance", "--features", str(pipeline.features),
        "--problem", "1,1,wiki_contributor", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "cohort-restricted problems need --cohorts FILE" in capsys.readouterr().err


def test_importance_rejects_bad_problem_text(pipeline, tmp_path, capsys):
    rc = main([
        "importance", "--features", str(pipeline.features),
        "--problem", "1,2,lurker", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "unknown cohort 'lurker'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run-all


def test_run_all_attempts_the_full_grid(runall_dir, pipeline):
    man = read_manifest_reference(runall_dir / "manifest.tsv")
    # 4 weeks -> 6 lead/lag problems per cohort
    assert len(man["cell"]) == 4 * 6
    statuses = {row[3] for row in man["cell"]}
    assert statuses <= {"ok", "insufficient_data", "degenerate_labels"}
    meta = dict((k, v) for k, v, *_ in [(r[0], r[1]) for r in man["meta"]])
    assert meta["seed"] == "0"
    assert meta["config_sha256"] == config_sha256(load_config(str(pipeline.config)))
    assert set(meta) == {"package_version", "numpy_version", "python_version", "seed", "config_sha256"}


def test_run_all_manifest_declares_every_file(runall_dir):
    man = read_manifest_reference(runall_dir / "manifest.tsv")
    declared = {row[0] for row in man["file"]}
    actual = {
        p.relative_to(runall_dir).as_posix()
        for p in runall_dir.rglob("*")
        if p.is_file() and p.name != "manifest.tsv"
    }
    assert declared == actual
    for rel, digest, size in man["file"]:
        path = runall_dir / rel
        assert sha256_file(path) == digest
        assert path.stat().st_size == int(size)


def test_manifest_lists_only_what_the_rerun_wrote(pipeline, runall_dir, tmp_path):
    out = tmp_path / "rerun"
    shutil.copytree(runall_dir, out)
    rc = main([
        "run-all", "--events", str(pipeline.events), "--calendar", str(pipeline.calendar),
        "--out", str(out), "--config", str(pipeline.config),
        "--shuffle-labels", "--filter", "cohort=wiki_contributor",
    ])
    assert rc == 0
    man = read_manifest_reference(out / "manifest.tsv")
    assert {row[0] for row in man["cell"]} == {"wiki_contributor"}
    declared = {row[0] for row in man["file"]}
    assert declared == {
        "dataset.tsv", "calendar.tsv", "ingest_stats.tsv", "features.tsv", "stopout_histogram.tsv", "cohorts.tsv",
        "grid_wiki_contributor.tsv", "heatmap_wiki_contributor.tsv", "heatmap_wiki_contributor.svg",
    }
    assert not any(name.startswith("importance") for name in declared)
    for rel, digest, size in man["file"]:
        assert sha256_file(out / rel) == digest and (out / rel).stat().st_size == int(size)
    # the first run's files are still there, only undeclared
    assert {p.name for p in runall_dir.iterdir()} == {p.name for p in out.iterdir()}


def test_run_all_writes_grid_artifacts_per_cohort(runall_dir):
    for cohort in ("passive_collaborator", "forum_contributor", "wiki_contributor", "fully_collaborative"):
        assert (runall_dir / f"grid_{cohort}.tsv").exists()
        assert (runall_dir / f"heatmap_{cohort}.tsv").exists()
        assert (runall_dir / f"heatmap_{cohort}.svg").exists()
    assert (runall_dir / "importance.tsv").exists()
    assert (runall_dir / "importance_problems.tsv").exists()
    assert (runall_dir / "features.tsv").exists()
    assert (runall_dir / "cohorts.tsv").exists()


def test_run_all_reports_every_importance_problem(runall_dir):
    rows = list(read_table(runall_dir / "importance_problems.tsv", PROBLEM_COLUMNS))
    # no configured problem fits 4 weeks, so each cohort runs (1, 1)
    assert [tuple(row[:3]) for row in rows] == [(cohort, "1", "1") for cohort in COHORTS]
    for cohort, _, _, status, lam, fits, iterations, unconverged in rows:
        assert status in {"ok", "insufficient_data", "degenerate_labels"}
        if status == "ok":
            # the bisection's fits (it may stop early), then one per subsample
            assert float(lam) > 0.0 and 1 <= int(fits) - 20 <= CALIBRATION_STEPS + 1
            assert int(fits) <= int(iterations) and 0 <= int(unconverged) <= int(fits)
        else:
            assert (lam, fits, iterations, unconverged) == ("", "0", "0", "0")
    assert any(row[3] == "ok" for row in rows)
    man = read_manifest_reference(runall_dir / "manifest.tsv")
    assert "importance_problems.tsv" in {row[0] for row in man["file"]}


def test_run_all_charts_draw_the_rows_their_tables_hold(runall_dir):
    ranked = list(read_table(runall_dir / "importance.tsv", IMPORTANCE_COLUMNS))
    charts = sorted(runall_dir.glob("importance_*.svg"))
    assert charts
    for chart in charts:
        cohort = chart.stem.removeprefix("importance_")
        svg = chart.read_text(encoding="utf-8")
        assert re.findall(r'text-anchor="end">([^<]*)</text>', svg) == [fid for c, fid, _ in ranked if c == cohort]
    drawn = 0
    for cohort in COHORTS:
        header, *rows = (line.split("\t") for line in (runall_dir / f"heatmap_{cohort}.tsv").read_text().splitlines())
        cells = {(int(row[0]), int(week), f"{float(v):.2f}")
                 for row in rows for week, v in zip(header[1:], row[1:]) if v}
        svg = (runall_dir / f"heatmap_{cohort}.svg").read_text(encoding="utf-8")
        squares = re.findall(r'<rect x="(\d+)" y="(\d+)" width[^>]*stroke[^>]*/>\n<text [^>]*>([^<]*)</text>', svg)
        assert {((int(y) - PAD_TOP) // CELL + 1, (int(x) - PAD_LEFT) // CELL + 2, v) for x, y, v in squares} == cells
        assert len(squares) == svg.count("stroke=")
        drawn += len(squares)
    assert drawn


def test_shuffled_runs_skip_importance(jobs_pair):
    for out in jobs_pair:
        assert not (out / "importance.tsv").exists()
        assert not list(out.rglob("importance_*.svg"))
        man = read_manifest_reference(out / "manifest.tsv")
        assert man["cell"]


def test_parallel_run_is_byte_identical(jobs_pair):
    one, two = jobs_pair
    names_one = {p.relative_to(one).as_posix() for p in one.rglob("*") if p.is_file()}
    names_two = {p.relative_to(two).as_posix() for p in two.rglob("*") if p.is_file()}
    assert names_one == names_two
    for rel in sorted(names_one):
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel


def test_parallel_importance_run_is_byte_identical(importance_jobs_pair):
    one, two = importance_jobs_pair
    names_one = {p.relative_to(one).as_posix() for p in one.rglob("*") if p.is_file()}
    names_two = {p.relative_to(two).as_posix() for p in two.rglob("*") if p.is_file()}
    assert names_one == names_two
    assert "importance.tsv" in names_one
    assert any(name.startswith("importance_") and name.endswith(".svg") for name in names_one)
    for rel in sorted(names_one):
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_import_defaults_blas_threads_to_one(preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    src = str(Path(stopout.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = f"import os, stopout.cli; print(*[os.environ[v] for v in {BLAS_THREADS!r}])"
    found = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert found.stdout.split() == [preset or "1", "1", "1"]


def test_the_etl_commands_never_load_openssl(tmp_path):
    # hashlib loads OpenSSL (~3.5 MB RSS); only run-all and the cell seeds hash
    env = dict(os.environ)
    src = str(Path(stopout.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    data = Path(__file__).parent / "data"
    out = tmp_path / "out"
    commands = [
        ["ingest", "--events", str(data / "fixture_events.tsv"), "--calendar", str(data / "fixture_calendar.tsv")],
        ["featurize", "--dataset", str(out / "dataset.tsv"), "--calendar", str(out / "calendar.tsv")],
        ["cohorts", "--dataset", str(out / "dataset.tsv"), "--calendar", str(out / "calendar.tsv")],
    ]
    probe = (f"import sys; from stopout.cli import main\n"
             f"for argv in {commands!r}: assert main(argv + ['--out', {str(out)!r}]) == 0, argv\n"
             f"print(sorted(name for name in sys.modules if 'hashlib' in name))")
    found = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert (out / "cohorts.tsv").exists()
    assert found.stdout.splitlines()[-1] == "[]"  # after the three commands' own lines


def test_manifest_rows_end_at_newline_alone(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "note\u2028one.txt").write_text("a", encoding="utf-8")
    (out / "note\x85two.txt").write_text("bc", encoding="utf-8")
    write_manifest(out, {"seed": "1"}, [], sorted(out.iterdir()))
    files = {row[0]: row[2] for row in read_manifest_reference(out / "manifest.tsv")["file"]}
    assert files == {"note\u2028one.txt": "1", "note\x85two.txt": "2"}


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_all_rejects_jobs_below_one(pipeline, tmp_path, capsys, jobs):
    out = tmp_path / "o"
    rc = main([
        "run-all", "--events", str(pipeline.events), "--calendar", str(pipeline.calendar),
        "--out", str(out), "--jobs", jobs,
    ])
    assert rc == 2
    assert f"config error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("clause, lags", [
    ("cohort=all", (1, 2, 3)),
    ("cohort=", (1, 2, 3)),
    ("lag=1,cohort=all", (1,)),
])
def test_run_all_filter_cohort_all_keeps_every_cohort(pipeline, tmp_path, capsys, clause, lags):
    out = tmp_path / "o"
    rc = main([
        "run-all", "--events", str(pipeline.events), "--calendar", str(pipeline.calendar),
        "--out", str(out), "--config", str(pipeline.config), "--filter", clause, "--shuffle-labels",
    ])
    assert rc == 0
    want = sorted((s.lead, s.lag) for s in enumerate_problems(4) if s.lag in lags)
    assert f"run-all: {len(want) * len(COHORTS)} cells attempted" in capsys.readouterr().out
    for cohort in COHORTS:
        assert sorted((c.lead, c.lag) for c in load_grid(out / f"grid_{cohort}.tsv").cells) == want


def test_run_all_rejects_bad_filter(pipeline, tmp_path, capsys):
    rc = main([
        "run-all", "--events", str(pipeline.events), "--calendar", str(pipeline.calendar),
        "--out", str(tmp_path / "o"), "--filter", "week=3",
    ])
    assert rc == 2
    assert "unknown filter key" in capsys.readouterr().err


def test_stage_commands_and_run_all_write_the_same_bytes(pipeline, runall_dir):
    ingested, featurized = pipeline.dataset.parent, pipeline.features.parent
    staged = [
        ingested / "dataset.tsv",
        ingested / "calendar.tsv",
        ingested / "ingest_stats.tsv",
        featurized / "features.tsv",
        featurized / "stopout_histogram.tsv",
        pipeline.cohorts,
    ]
    for path in staged:
        assert path.read_bytes() == (runall_dir / path.name).read_bytes(), path.name


def test_train_eval_row_equals_the_run_all_grid_row(pipeline, runall_dir, tmp_path):
    header, *rows = (runall_dir / "grid_passive_collaborator.tsv").read_text(encoding="utf-8").splitlines()
    ok = [row for row in rows if row.split("\t")[4] == "ok"]
    assert ok
    _, lead, lag, *_ = ok[0].split("\t")
    out = tmp_path / "te"
    rc = main([
        "train-eval", "--features", str(pipeline.features), "--lead", lead, "--lag", lag,
        "--cohort", "passive_collaborator", "--cohorts", str(pipeline.cohorts),
        "--config", str(pipeline.config), "--out", str(out),
    ])
    assert rc == 0
    assert (out / "eval.tsv").read_text(encoding="utf-8").splitlines() == [header, ok[0]]


@pytest.mark.parametrize(
    "command,column,value",
    [
        ("featurize", 2, "12x"),  # dataset.tsv timestamp
        ("train-eval", -1, None),  # features.tsv row one cell short
        ("train-eval", 2, "300"),  # features.tsv label x1 past int8
        ("train-eval", 1, "99999999999999999999"),  # features.tsv week past int64
        ("heatmap", -1, "abc"),  # grid folds_used, the last column
    ],
)
def test_malformed_intermediate_row_exits_3(pipeline, runall_dir, tmp_path, capsys, command, column, value):
    source = {
        "featurize": pipeline.dataset,
        "train-eval": pipeline.features,
        "heatmap": runall_dir / "grid_passive_collaborator.tsv",
    }[command]
    lines = source.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split("\t")
    if value is None:
        del cells[column]
    else:
        cells[column] = value
    lines[1] = "\t".join(cells)
    bad = tmp_path / source.name
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    inputs = {
        "featurize": ["--dataset", str(bad), "--calendar", str(pipeline.ing_calendar)],
        "train-eval": ["--features", str(bad), "--lead", "1", "--lag", "1"],
        "heatmap": ["--grid", str(bad)],
    }[command]
    rc = main([command, *inputs, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert f"data error: {bad}:2: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "table,column,value,message",
    [
        ("submission", "problem_id", "nope", "problem 'nope' is not in the calendar"),
        ("observed", "timestamp", None, "before_start"),  # one second before course start
        ("observed", "resource_kind", "podcast", "bad_resource_kind"),
        ("observed", "duration", "-5", "bad_duration"),
    ],
)
def test_invalid_dataset_row_exits_3(pipeline, tmp_path, capsys, table, column, value, message):
    # a row that ingest would reject, or whose problem the calendar lacks, is
    # a data error with its line, not a traceback or a silently dropped row
    course_start = int(pipeline.ing_calendar.read_text(encoding="utf-8").split("\t")[0])
    lines = pipeline.dataset.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    index = next(i for i, line in enumerate(lines) if line.startswith(table + "\t"))
    cells = lines[index].split("\t")
    cells[header.index(column)] = str(course_start - 1) if value is None else value
    lines[index] = "\t".join(cells)
    bad = tmp_path / "dataset.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["featurize", "--dataset", str(bad), "--calendar", str(pipeline.ing_calendar),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert f"data error: {bad}:{index + 1}: {message}" in capsys.readouterr().err


def test_model_file_replays_the_held_out_auc(pipeline, tmp_path):
    seed, lead, lag = 4, 1, 2
    out = tmp_path / "te"
    rc = main([
        "train-eval", "--features", str(pipeline.features), "--lead", str(lead), "--lag", str(lag),
        "--seed", str(seed), "--folds", "3", "--out", str(out),
    ])
    assert rc == 0
    # the held-out rows: the first draw of the cell's generator splits them off
    X, y, _ = flatten(load_feature_matrix(pipeline.features), ProblemSpec(lead=lead, lag=lag))
    rng = np.random.default_rng(cell_seed(seed, ALL_COHORT, lead, lag))
    _, test_idx = stratified_split(y, float(DEFAULTS["ratio"]), rng)
    model, _ = read_model_reference(out / "model.txt")
    beta, means, scales = model.beta, model.norm_means, model.norm_scales
    auc = roc_auc(y[test_idx], sigmoid(beta[0] + ((X[test_idx] - means) / scales) @ beta[1:]))
    header, row = (out / "eval.tsv").read_text(encoding="utf-8").splitlines()
    written = dict(zip(header.split("\t"), row.split("\t")))
    assert float(written["test_auc"]) == auc  # floats are written with repr: bit for bit


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_all_names_each_skipped_importance_problems_status(pipeline, tmp_path, capsys, jobs):
    # nobody stops out, so each cohort's one importance problem has a single class or too few rows
    events, calendar = _degenerate_course(pipeline, tmp_path, "nobody stops out")
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text("importance_subsamples = 3\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["run-all", "--events", str(events), "--calendar", str(calendar), "--out", str(out),
                 "--config", str(cfg), "--jobs", jobs]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("importance ")]
    rows = list(read_table(out / "importance_problems.tsv", PROBLEM_COLUMNS))
    assert [row[:3] for row in rows] == [[cohort, "1", "1"] for cohort in COHORTS]
    assert "degenerate_labels" in {row[3] for row in rows}
    assert printed == [f"importance {cohort}: no prediction problem ran: 1,1,{cohort} {status}"
                       for cohort, _, _, status, *_ in rows]
    assert not (out / "importance.tsv").read_text(encoding="utf-8").splitlines()[1:]


# ---------------------------------------------------------------------------
# pinned run-all outputs

# (path, sha256, size) of every file `run-all --jobs 2 --seed 0` writes for
# synth 400x6 seed 7 with importance_subsamples=10, computed with numpy 2.4.6
# and OpenBLAS at one thread, as GOLDEN in test_synth.py is. A change that
# moves any of these bytes updates the table in its own diff and names the
# files that moved.
RUNALL_400_FILES = {
    ("calendar.tsv", "0760f319d49b5dbe05d58e2870bcf062b6908ac9a6077a42e2afab8f54b3c354", "1045"),
    ("cohorts.tsv", "6cc3a3b86c80e0b5eadb80dc938ae1ef6f57cbc17df9c3a2000836eaec86e79c", "10691"),
    ("dataset.tsv", "fe7391a34827c3db332994849135fdc2acb873600344c42bf3aee200a9a684ad", "694360"),
    ("features.tsv", "4956c18f4e968ce62fc7cb7b4fd0f1052f82a4d8bf57b116dc6873b258407f8f", "394154"),
    ("grid_forum_contributor.tsv", "e2bbb37345d6138423ad9061ed9a4b604735c0b9d0f55129215aa68412a75fc4", "1264"),
    ("grid_fully_collaborative.tsv", "96dc8a801703bf8cc7c27d9afab841239613ecf8b1baa8ef3aaf80c31b8cc678", "1052"),
    ("grid_passive_collaborator.tsv", "00d8c6d1afbac034a434e552e5b48d15daacba7f7b181491948d344b288964b4", "1445"),
    ("grid_wiki_contributor.tsv", "941979212510706f452405356a54a8e207d57cfaaf602cc1eff342960e05e189", "1062"),
    ("heatmap_forum_contributor.svg", "799f87197be436a351dc5fab52e3025b0d6aafd3a2b7fd0b54c781f42585e54f", "3100"),
    ("heatmap_forum_contributor.tsv", "4cd7eff2c54431347e359eb1f4656e4571159213822152dcce9de2cc05cd8586", "293"),
    ("heatmap_fully_collaborative.svg", "1455f45ab75f125e8cbf550184bbc64c17747a8763022a47445b4cfd8c9e3d90", "2957"),
    ("heatmap_fully_collaborative.tsv", "083319116833d16d8bcb52c811cee34edf59d23b8f1dec386b3b7c834da6df94", "199"),
    ("heatmap_passive_collaborator.svg", "012c6f5a2b8d22a12444e9d1bd1b09cd9ec131983bb0d73c567316b4eb25bdd6", "3103"),
    ("heatmap_passive_collaborator.tsv", "e07d21e787e9489221eacea8fa81b60992e76cdbb835de7bf580bf32450beebe", "304"),
    ("heatmap_wiki_contributor.svg", "a4f69b64410fb6d002f6b3c42c0f67d30bbb9f33070fc9dfb8774ff6ebcfe69a", "3099"),
    ("heatmap_wiki_contributor.tsv", "3e590776e4e7397a5d5042ad173920be7348afa1335379ad1539bffed67cdc6d", "227"),
    ("importance.tsv", "30b562c6c7cd088e477cd176637d575c5cc16ea413c3f26446a67c2b998851d2", "2952"),
    ("importance_forum_contributor.svg", "f868012ac39ea5767c0aa2302d24bd68c904323047774967fcafa85ff7f7e980", "4227"),
    ("importance_fully_collaborative.svg", "4e67cfa8a08603f5c722d98c7a59232256c6aa8812e4142057ba17c10ca61a22", "4229"),
    ("importance_passive_collaborator.svg", "c57aa47f7115034b50d77c136e8d47e61989ef34f74294c493d2c739ce933f8b", "4233"),
    ("importance_problems.tsv", "ba7023d5539fead758b062cce10ddaf40aaab282d29d9b1348a3a08d1d0ff800", "291"),
    ("importance_wiki_contributor.svg", "d8f016445b70f7656e6bee6f8f115a769fe0f2e36a5692277b22bd9092d3f75b", "4221"),
    ("ingest_stats.tsv", "1e42c4996947feb3f1e43c34fbcbca9c6c6586269ac64828262614df2efb0ca2", "58"),
    ("stopout_histogram.tsv", "fbd7101c6a05bd0bcbcdedc838591e325ce4a7841dc30d54e1295f35ae9e80bd", "47"),
}


def test_run_all_files_match_their_pinned_hashes(tmp_path):
    course, out, cfg = tmp_path / "course", tmp_path / "out", tmp_path / "run.cfg"
    assert main(["synth", "--out", str(course), "--learners", "400", "--weeks", "6", "--seed", "7"]) == 0
    cfg.write_text("importance_subsamples=10\n", encoding="utf-8")
    assert main(["run-all", "--events", str(course / "events.tsv"), "--calendar", str(course / "calendar.tsv"),
                 "--out", str(out), "--seed", "0", "--jobs", "2", "--config", str(cfg)]) == 0
    actual = {row[0]: row[1:] for row in read_manifest_reference(out / "manifest.tsv")["file"]}
    assert not (moved := _moved(RUNALL_400_FILES, actual)), "run-all files moved:\n" + "\n".join(moved)


def _moved(table: set[tuple[str, str, str]], actual: dict[str, tuple[str, str]]) -> list[str]:
    """A line with both hashes for each path whose (sha256, size) differs from its pin, or that only one side has."""
    pinned = {path: (digest, size) for path, digest, size in table}
    return [f"{path}: pinned {pinned.get(path, ('absent',))[0]}, actual {actual.get(path, ('absent',))[0]}"
            for path in sorted(pinned.keys() | actual.keys()) if pinned.get(path) != actual.get(path)]


# (path, sha256, size) of every file ingest, featurize and cohorts write for
# synth 1500x14 seed 1, then train-eval for each of STAGE_CELLS under
# cell_<lead>_<lag>/, with default settings; computed with numpy 2.4.6 and
# OpenBLAS at one thread, as RUNALL_400_FILES is. A change that moves any of
# these bytes updates the table in its own diff and names the files that moved.
STAGE_CELLS = ((13, 1), (3, 6), (6, 4), (1, 12))
STAGES_1500_FILES = {
    ("calendar.tsv", "cec22a7171b4c8a1931b2b8893f9e38bcc4a519fcd1946aa4b2d301769fb995a", "2452"),
    ("cell_13_1/eval.tsv", "2e6a521778bc5f1a63e6939bb209ddcebc1f77a3134cbbf5c7626300a6ee0686", "187"),
    ("cell_13_1/model.txt", "9c8128eda15f958cbbfc5729e97943751d1f6c6bf37e098371766c7e95b57d7e", "1861"),
    ("cell_1_12/eval.tsv", "63eabfd974c9756bc9d5be23de45dd45baf578bb4dec986f05fe371383163aad", "170"),
    ("cell_1_12/model.txt", "9ba14e09aa9aa3b1d88d1b0a3ec641857785243157760e5e4f94b3e6d74c91da", "20567"),
    ("cell_3_6/eval.tsv", "0b636d7ea33f9a83fb743d5bbf47ac019d290ba9d1de64f0b80ec91d19c19e09", "182"),
    ("cell_3_6/model.txt", "59eea6351cdf0ac55475fa54b5b2afca69a06090b4d4eec7423e75012a060c13", "10385"),
    ("cell_6_4/eval.tsv", "1a3c9d3e8c58eb869d1b0678840070ecd9d57bc972a848b77eeafd0871f992c4", "184"),
    ("cell_6_4/model.txt", "0ecb3667e251c54669703328d15ab1b3c30d34eb34a915c913c2b3471d8c2ace", "7022"),
    ("cohorts.tsv", "84580b49e1058b7139ef8945a26f0d0303c75baa6fe0e81ea0f8619ab31968e5", "40023"),
    ("dataset.tsv", "e197a4b83fa5c1a471f3c2743eddaf7715a0f5787a6db21af8dd6999b296180a", "5811837"),
    ("features.tsv", "5f34c2189586130b1364bec4dd6ceacf3c56f210c42e18611e9eb50d168c20b8", "3594572"),
    ("ingest_stats.tsv", "a288b1cbd140985885508b37c4b79c2805264de40b200a25776f8c163b02f96e", "60"),
    ("stopout_histogram.tsv", "6b627a14488cd24e922f0f7447b280ea5096bd37928bd35f62faba78bbe6b170", "95"),
}


def test_stage_files_match_their_pinned_hashes(tmp_path):
    course, out = tmp_path / "course", tmp_path / "out"
    assert main(["synth", "--out", str(course), "--learners", "1500", "--weeks", "14", "--seed", "1"]) == 0
    assert main(["ingest", "--events", str(course / "events.tsv"), "--calendar", str(course / "calendar.tsv"),
                 "--out", str(out)]) == 0
    for stage in ("featurize", "cohorts"):
        assert main([stage, "--dataset", str(out / "dataset.tsv"), "--calendar", str(out / "calendar.tsv"),
                     "--out", str(out)]) == 0
    for lead, lag in STAGE_CELLS:
        assert main(["train-eval", "--features", str(out / "features.tsv"), "--lead", str(lead), "--lag", str(lag),
                     "--out", str(out / f"cell_{lead}_{lag}")]) == 0
    actual = {p.relative_to(out).as_posix(): (sha256_file(p), str(p.stat().st_size))
              for p in out.rglob("*") if p.is_file()}
    assert not (moved := _moved(STAGES_1500_FILES, actual)), "stage files moved:\n" + "\n".join(moved)


# ---------------------------------------------------------------------------
# degenerate courses

# each keeps the rows of the pipeline course that pass it, given the row's
# cells and its learner's (cohort, stopout_week) truth; the course is 4 weeks
DEGENERATE_COURSES = {
    "no rows": lambda row, truth: False,
    "no submissions": lambda row, truth: row[0] == "observed",
    "one learner": lambda row, truth: row[1] == "L00000",
    "one cohort empty": lambda row, truth: truth[row[1]][0] != "fully_collaborative",
    "nobody stops out": lambda row, truth: truth[row[1]][1] == "5",
}


def _degenerate_course(pipeline, root: Path, name: str) -> tuple[Path, Path]:
    if name == "2 weeks":
        assert main(["synth", "--out", str(root), "--learners", "40", "--weeks", "2", "--seed", "3"]) == 0
        return root / "events.tsv", root / "calendar.tsv"
    header, *lines = pipeline.events.read_text(encoding="utf-8").splitlines()
    truth = {lid: rest for lid, *rest in (line.split("\t")[:3] for line in pipeline.truth.read_text().splitlines()[1:])}
    kept = [line for line in lines if DEGENERATE_COURSES[name](line.split("\t"), truth)]
    events = root / "events.tsv"
    events.write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")
    return events, pipeline.calendar


@pytest.fixture(scope="module")
def degenerate_events(tmp_path_factory):
    """Two event files cut from synth 1500x14 seed 1, with its calendar: "empty"
    keeps the header alone, and "same week" the 116 learners whose truth
    stopout week is 4, so every problem's labels are one class or no row is eligible."""
    course = tmp_path_factory.mktemp("degenerate_events")
    assert main(["synth", "--out", str(course), "--learners", "1500", "--weeks", "14", "--seed", "1"]) == 0
    header, *lines = (course / "events.tsv").read_text(encoding="utf-8").splitlines()
    week = {lid: week for lid, _, week, *_ in read_table(course / "truth.tsv", TRUTH_COLUMNS)}
    (course / "empty.tsv").write_text(header + "\n", encoding="utf-8")
    kept = [line for line in lines if week[line.split("\t")[1]] == "4"]
    (course / "same week.tsv").write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")
    return course


def _stages_end_typed(capsys, runs: list[tuple[list, int, str]]) -> None:
    """Each command ends in process with its exit code and its stderr: one typed line, or none at exit 0."""
    for argv, code, err in runs:
        assert (main(list(map(str, argv))), capsys.readouterr().err) == (code, err), argv


def _etl(events: Path, calendar: Path, out: Path) -> list[tuple[list, int, str]]:
    dataset = ["--dataset", out / "dataset.tsv", "--calendar", out / "calendar.tsv", "--out", out]
    return [(["ingest", "--events", events, "--calendar", calendar, "--out", out], 0, ""),
            (["featurize", *dataset], 0, ""), (["cohorts", *dataset], 0, "")]


def test_a_header_only_events_file_ends_every_stage_command_typed(degenerate_events, tmp_path, capsys):
    out = tmp_path / "out"
    features = ["--features", out / "features.tsv"]
    no_rows = f"data error: {out / 'features.tsv'}: no data rows\n"
    grid = tmp_path / "grid.tsv"
    export_grid(GridResult(cohort=ALL_COHORT), grid)  # the grid of a course with no cell
    _stages_end_typed(capsys, _etl(degenerate_events / "empty.tsv", degenerate_events / "calendar.tsv", out) + [
        (["build", *features, "--lead", "1", "--lag", "3", "--out", tmp_path / "b"], 3, no_rows),
        (["train-eval", *features, "--lead", "1", "--lag", "3", "--out", tmp_path / "t"], 3, no_rows),
        (["importance", *features, "--problem", "1,3", "--out", tmp_path / "i"], 3, no_rows),
        (["heatmap", "--grid", grid, "--out", tmp_path / "h"], 0, ""),
    ])
    assert (out / "features.tsv").read_text(encoding="utf-8").count("\n") == 1


def test_a_course_where_everyone_stops_out_in_one_week_ends_every_stage_command_typed(
        degenerate_events, tmp_path, capsys):
    out = tmp_path / "out"
    features = ["--features", out / "features.tsv"]
    grid = tmp_path / "grid.tsv"
    _stages_end_typed(capsys, _etl(degenerate_events / "same week.tsv", degenerate_events / "calendar.tsv", out) + [
        (["build", *features, "--lead", "1", "--lag", "3", "--out", tmp_path / "b"], 0, ""),
        (["train-eval", *features, "--lead", "1", "--lag", "3", "--out", tmp_path / "t"], 4,
         "degenerate labels: lead=1 lag=3: too few of one class to split and cross-validate\n"),
        (["train-eval", *features, "--lead", "5", "--lag", "5", "--out", tmp_path / "t"], 3,
         "insufficient data: 0 eligible learners for lead=5 lag=5, need 10\n"),
        (["importance", *features, "--problem", "1,3", "--problem", "1,1", "--out", tmp_path / "i"], 3,
         "insufficient data: no prediction problem ran: 1,3,all degenerate_labels, 1,1,all degenerate_labels\n"),
    ])
    design = list(read_table(tmp_path / "b" / "design.tsv", ["learner_id", "label", *column_names(3)]))
    assert len(design) == 116 and {row[1] for row in design} == {"0"}  # every row, one label
    # the grid of the two cells train-eval refused, as run-all would write it: heatmap draws no cell of it
    matrix = load_feature_matrix(out / "features.tsv")
    cells = [evaluate_cell(matrix, spec, **_settings(argparse.Namespace(), DEFAULTS, *CELL_KEYS))[0]
             for spec in (ProblemSpec(1, 3), ProblemSpec(5, 5))]
    assert [c.status for c in cells] == ["degenerate_labels", "insufficient_data"]
    export_grid(GridResult(cohort=ALL_COHORT, cells=cells), grid)
    _stages_end_typed(capsys, [(["heatmap", "--grid", grid, "--out", tmp_path / "h"], 0, "")])
    weeks = map(str, range(2, 11))  # a grid file's course ends at its largest predicted week, 5 + 5
    assert all(cell == "" for row in read_table(tmp_path / "h" / "heatmap.tsv", ["lag", *weeks]) for cell in row[1:])


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", [*DEGENERATE_COURSES, "2 weeks"])
def test_run_all_on_a_degenerate_course_ends_typed(pipeline, tmp_path, capsys, name, jobs):
    events, calendar = _degenerate_course(pipeline, tmp_path, name)
    capsys.readouterr()
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text("importance_subsamples = 3\n", encoding="utf-8")
    rc = main(["run-all", "--events", str(events), "--calendar", str(calendar), "--out", str(out),
               "--config", str(cfg), "--jobs", jobs])  # a Traceback would raise out of main
    err = capsys.readouterr().err
    assert rc in (0, 3, 4)
    if rc:
        assert len(err.splitlines()) == 1, err
    else:
        assert (out / "manifest.tsv").is_file()
