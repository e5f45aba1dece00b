"""Command-line pipeline: every stage reads and writes plain TSV/SVG files."""

from __future__ import annotations

import argparse
import os
import sys
from multiprocessing import Pool
from pathlib import Path

# One BLAS thread per process unless the user chose otherwise: with the
# library default, every --jobs worker starts one thread per core, which
# oversubscribes the machine and lets results depend on the thread count.
# This has to happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import __version__
from . import cohorts as cohorts_mod
from . import importance as importance_mod
from .dataset_builder import ALL_COHORT, ProblemSpec, column_names, enumerate_problems, flatten
from .errors import ConfigError, DegenerateLabelsError, InsufficientDataError, PipelineError
from .evaluator import (
    STATUS_OK,
    CellResult,
    evaluate_cell,
    evaluate_problem,  # noqa: F401  (unused here; perfbench/tracer.py wraps cli.evaluate_problem)
    export_grid,
    export_heatmap_matrix,
    load_grid,
)
from .event_store import dump_calendar, dump_dataset, ingest, load_calendar, load_dump
from .featurizer import build_feature_matrix, export_feature_matrix, export_histogram, load_feature_matrix
from .logistic_model import save_model
from .synth import SynthConfig, generate, write_course
from .tsv import read_lines, write_table
from .viz import write_heatmap, write_importance_chart

# config key -> (default text, type, the flag that overrides it or None,
# strict lower bound or None, upper bound or None). These are the only defaults:
# the library takes every setting as a required keyword argument.
SETTINGS = {
    "seed": ("0", int, "seed", None, None),
    "ratio": ("0.7", float, "ratio", 0.0, 1 - 2**-53),  # (0, 1): at most the float below 1
    "ridge": ("1e-06", float, "ridge", 0.0, None),
    "folds": ("10", int, "folds", 1, None),
    "min_rows": ("10", int, None, 0, None),
    "importance_subsamples": ("200", int, "subsamples", 0, None),
    "importance_fraction": ("0.75", float, None, 0.0, 1.0),
    "importance_weight_floor": ("0.5", float, None, 0.0, 1.0),
    "importance_target_support": ("8", int, None, -1, None),
    "importance_problems": ("13,1;3,6;6,4", str, None, None, None),
    "synth_learners": ("1000", int, "learners", None, None),
    "synth_weeks": ("14", int, "weeks", None, None),
    "synth_hazard_noise": ("0.5", float, None, None, None),
    "synth_volume_slope": ("-2.0", float, None, None, None),
    "synth_timeliness_slope": ("-1.0", float, None, None, None),
    "synth_grades_slope": ("-2.0", float, None, None, None),
}
DEFAULTS = {key: default for key, (default, *_) in SETTINGS.items()}
# the settings evaluate_cell, problem_importance and SynthConfig take, in the order they are read
CELL_KEYS = ("seed", "ratio", "ridge", "folds", "min_rows")
IMPORTANCE_KEYS = ("seed", "importance_subsamples", "importance_fraction", "importance_weight_floor",
                   "importance_target_support", "min_rows")
SYNTH_KEYS = ("synth_learners", "synth_weeks", "seed", "synth_volume_slope", "synth_timeliness_slope",
              "synth_grades_slope", "synth_hazard_noise")


def load_config(path: str | None) -> dict[str, str]:
    """Flat key=value file over the built-in defaults; unknown or repeated keys are errors."""
    merged, first = dict(DEFAULTS), {}  # key -> the line that gave it
    if path is None:
        return merged
    for lineno, raw in enumerate(read_lines(path, error=ConfigError), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first:
            raise ConfigError(f"{path}:{lineno}: config key {key} given twice, first on line {first[key]}")
        merged[key], first[key] = value, lineno
    return merged


def config_sha256(cfg: dict[str, str]) -> str:
    import hashlib  # here, not at the top: it loads OpenSSL, which the ETL commands never need
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg)) + "\n"
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _settings(args, cfg: dict[str, str], *keys: str) -> dict[str, object]:
    """Each key's flag when given, else its config value parsed by its type, then
    checked against its bounds; keyed by the key without an importance_ or synth_ prefix."""
    out = {}
    for key in keys:
        _, kind, flag, above, at_most = SETTINGS[key]
        value = getattr(args, flag, None) if flag else None
        if value is None:
            try:
                value = kind(cfg[key])
            except ValueError as exc:
                expected = "an integer" if kind is int else "a number"
                raise ConfigError(f"config key {key} must be {expected}, got {cfg[key]!r}") from exc
        if above is not None and not value > above:
            raise ConfigError(f"{key} must be greater than {above}, got {value}")
        if at_most is not None and not value <= at_most:
            raise ConfigError(f"{key} must be at most {at_most}, got {value}")
        out[key.removeprefix("importance_").removeprefix("synth_")] = value
    return out


def parse_filter(clause: str) -> dict[str, object]:
    """One clause like 'lead=1,lag=3,cohort=passive_collaborator'."""
    out: dict[str, object] = {}
    for part in clause.split(","):
        key, sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ConfigError(f"bad filter part {part!r}, expected key=value")
        if key in ("lead", "lag"):
            try:
                out[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"filter {key} must be an integer, got {value!r}") from exc
        elif key == "cohort":
            if (cohort := parse_cohort(value)) != ALL_COHORT:  # 'all' or '' restricts no cohort
                out[key] = cohort
        else:
            raise ConfigError(f"unknown filter key {key!r}")
    return out


def filter_match(clauses: list[dict[str, object]], cohort: str, lead: int, lag: int) -> bool:
    if not clauses:
        return True
    facts = {"cohort": cohort, "lead": lead, "lag": lag}
    return any(all(facts[k] == v for k, v in c.items()) for c in clauses)


def parse_cohort(name: str | None) -> str:
    """ALL_COHORT (the whole population) for no name, '' or 'all'; else a known cohort."""
    if not name or name == ALL_COHORT:
        return ALL_COHORT
    if name not in cohorts_mod.COHORTS:
        raise ConfigError(f"unknown cohort {name!r}")
    return name


def parse_problem(text: str, with_cohort: bool = True) -> ProblemSpec:
    """'LEAD,LAG[,COHORT]', or 'LEAD,LAG' only; ProblemSpec checks lead, lag >= 1."""
    parts = text.split(",")
    if len(parts) not in ((2, 3) if with_cohort else (2,)):
        raise ConfigError(f"bad problem {text!r}, expected LEAD,LAG" + ("[,COHORT]" if with_cohort else ""))
    try:
        lead, lag = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad problem {text!r}: lead and lag must be integers") from exc
    return ProblemSpec(lead=lead, lag=lag, cohort=parse_cohort(parts[2] if len(parts) == 3 else None))


def parse_problem_pairs(text: str) -> list[tuple[int, int]]:
    """Semicolon-separated 'LEAD,LAG' pairs, e.g. '13,1;3,6;6,4'."""
    specs = [parse_problem(chunk.strip(), with_cohort=False) for chunk in text.split(";") if chunk.strip()]
    if not specs:
        raise ConfigError("importance_problems lists no problems")
    return [(s.lead, s.lag) for s in specs]


def sha256_file(path: Path) -> str:
    import hashlib  # see config_sha256
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir: Path, meta: dict[str, str], cells: list[tuple[str, int, int, str]],
                   files: list[Path]) -> None:
    """Declare the whole run: meta rows, per-cell statuses, then one row per file
    this run wrote (files, under out_dir; not what an earlier run left there) with
    its hash. No timestamps, so reruns are byte-identical."""
    rows = []
    for key, value in meta.items():
        rows.append(f"meta\t{key}\t{value}")
    for cohort, lead, lag, status in sorted(cells):
        rows.append(f"cell\t{cohort}\t{lead}\t{lag}\t{status}")
    for p in sorted(files):
        rows.append(f"file\t{p.relative_to(out_dir).as_posix()}\t{sha256_file(p)}\t{p.stat().st_size}")
    (out_dir / "manifest.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        raise ConfigError(f"--out {out}: cannot make the output directory: {exc.strerror}") from None
    return out


def print_defaults() -> int:
    for key in sorted(DEFAULTS):
        print(f"{key}={DEFAULTS[key]}")
    return 0


def cmd_synth(args) -> int:
    settings = _settings(args, load_config(args.config), *SYNTH_KEYS)
    config = SynthConfig(num_learners=settings.pop("learners"), num_weeks=settings.pop("weeks"), **settings)
    out = _out_dir(args)
    write_course(generate(config), out)
    print(f"synth: {config.num_learners} learners, {config.num_weeks} weeks -> {out}")
    return 0


# The stages shared by the single-stage commands and run-all; each writes its
# outputs to at(name), a path in the output directory, and returns what the next stage needs.

def _ingest_stage(args, at):
    dataset = ingest(args.events, args.calendar)
    dump_dataset(dataset, at("dataset.tsv"))
    dump_calendar(dataset.calendar, at("calendar.tsv"))
    s = dataset.stats
    counts = {"total": s.total, "accepted": s.accepted, "rejected": s.rejected, "clamped": s.clamped}
    counts.update((f"reject:{reason}", n) for reason, n in sorted(s.reject_reasons.items()))
    write_table(at("ingest_stats.tsv"), ("key", "value"), counts.items())
    return dataset


def _featurize_stage(dataset, at):
    matrix, histogram = build_feature_matrix(dataset)
    export_feature_matrix(matrix, at("features.tsv"))
    export_histogram(histogram, at("stopout_histogram.tsv"))
    return matrix


def _cohorts_stage(dataset, at) -> dict[str, str]:
    assignments = cohorts_mod.assign_cohorts(dataset)
    cohorts_mod.export_cohorts(assignments, at("cohorts.tsv"))
    return assignments


def cmd_ingest(args) -> int:
    s = _ingest_stage(args, _out_dir(args).joinpath).stats
    print(f"ingest: {s.accepted}/{s.total} rows accepted, {s.rejected} rejected, {s.clamped} clamped")
    return 0


def cmd_featurize(args) -> int:
    out = _out_dir(args)
    matrix = _featurize_stage(load_dump(args.dataset, load_calendar(args.calendar)), out.joinpath)
    print(f"featurize: {matrix.num_learners} participating learners, {matrix.num_weeks} weeks")
    return 0


def cmd_cohorts(args) -> int:
    out = _out_dir(args)
    assignments = _cohorts_stage(load_dump(args.dataset, load_calendar(args.calendar)), out.joinpath)
    counts = cohorts_mod.cohort_counts(assignments)
    print("cohorts: " + ", ".join(f"{name}={counts[name]}" for name in cohorts_mod.COHORTS))
    return 0


def _load_inputs(args, specs: list[ProblemSpec], missing: str):
    """The feature matrix, joined with --cohorts when given; missing is the error for no --cohorts."""
    matrix = load_feature_matrix(args.features)
    if args.cohorts:
        return cohorts_mod.join_cohorts(matrix, cohorts_mod.load_cohorts(args.cohorts))
    if any(s.cohort != ALL_COHORT for s in specs):
        raise ConfigError(missing)
    return matrix


def _load_problem(args):
    """The feature matrix and the problem the flags name."""
    spec = ProblemSpec(lead=args.lead, lag=args.lag, cohort=parse_cohort(args.cohort))
    return _load_inputs(args, [spec], "--cohort requires --cohorts FILE"), spec


def cmd_build(args) -> int:
    out = _out_dir(args)
    matrix, spec = _load_problem(args)
    X, y, learners = flatten(matrix, spec)
    if y.size == 0:
        cohort = f" cohort={spec.cohort}" if spec.cohort != ALL_COHORT else ""
        raise InsufficientDataError(f"no eligible learners for lead={spec.lead} lag={spec.lag}{cohort}")
    columns = column_names(spec.lag)
    write_table(out / "design.tsv", ["learner_id", "label"] + columns, (
        [lid, int(label), *row] for lid, label, row in zip(learners, y.tolist(), X.tolist())
    ))
    print(f"build: {y.size} rows x {len(columns)} columns -> {out / 'design.tsv'}")
    return 0


def cmd_train_eval(args) -> int:
    settings = _settings(args, load_config(args.config), *CELL_KEYS)
    out = _out_dir(args)
    matrix, spec = _load_problem(args)
    cell, model = evaluate_cell(matrix, spec, **settings)
    where = f"lead={cell.lead} lag={cell.lag}"
    if cell.status == InsufficientDataError.status:
        raise InsufficientDataError(f"{cell.n_rows} eligible learners for {where}, need {settings['min_rows']}")
    if cell.status == DegenerateLabelsError.status:
        raise DegenerateLabelsError(f"{where}: too few of one class to split and cross-validate")
    save_model(model, column_names(spec.lag), out / "model.txt")
    export_grid([cell], out / "eval.tsv")
    print(f"train-eval: {where} cohort={cell.cohort} "
          f"cv={cell.cv_mean:.4f} train={cell.train_auc:.4f} test={cell.test_auc:.4f}")
    return 0


# worker-process state for the run-all pool; the feature matrix is shipped
# once per worker instead of once per task
_POOL_STATE: dict[str, object] = {}
IMPORTANCE_TASK = "importance"
CELL_TASK = "cell"


def _pool_init(matrix, cell_args, importance_args) -> None:
    _POOL_STATE.update(matrix=matrix, cell_args=cell_args, importance_args=importance_args)


def _cell_task(task: tuple[str, str, int, int]) -> CellResult | importance_mod.ProblemImportance:
    """One run-all task: an importance problem or a grid cell, by its kind."""
    kind, cohort, lead, lag = task
    spec = ProblemSpec(lead=lead, lag=lag, cohort=cohort)
    if kind == IMPORTANCE_TASK:
        return importance_mod.problem_importance(_POOL_STATE["matrix"], spec, **_POOL_STATE["importance_args"])
    return evaluate_cell(_POOL_STATE["matrix"], spec, **_POOL_STATE["cell_args"])[0]


def _importance_pairs(cfg: dict[str, str], num_weeks: int) -> list[tuple[int, int]]:
    """The configured (lead, lag) problems that fit the course."""
    pairs = parse_problem_pairs(cfg["importance_problems"])
    valid = [(lead, lag) for lead, lag in pairs if lead + lag <= num_weeks]
    return valid or [(1, 1)]  # shortest problem always fits a >= 2 week course


def _none_ran(problems: list[importance_mod.ProblemImportance]) -> str:
    return "no prediction problem ran: " + ", ".join(f"{p.lead},{p.lag},{p.cohort} {p.status}" for p in problems)


def _run_importance_reports(problems: list[importance_mod.ProblemImportance], at) -> None:
    """Combine each cohort's problems into a report; write charts, importance.tsv
    and importance_problems.tsv."""
    importance_mod.export_problems(problems, at("importance_problems.tsv"))
    reports = []
    for cohort in cohorts_mod.COHORTS:
        report = importance_mod.combine_problems([p for p in problems if p.cohort == cohort])
        if report.base_freq is None:
            print(f"importance {cohort}: {_none_ran(report.problems)}")
            continue
        reports.append(report)
        write_importance_chart(report.ranked(), at(f"importance_{cohort}.svg"), title=f"{cohort} feature stability")
    importance_mod.export_importance(reports, at("importance.tsv"))


def cmd_run_all(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = load_config(args.config)
    cell_args = {**_settings(args, cfg, *CELL_KEYS), "shuffle_labels": args.shuffle_labels}
    importance_args = None if args.shuffle_labels else _settings(args, cfg, *IMPORTANCE_KEYS)
    clauses = [parse_filter(c) for c in (args.filter or [])]
    out = _out_dir(args)
    written: list[Path] = []  # for the manifest: what this run wrote, not what out holds

    def at(name: str) -> Path:
        written.append(out / name)
        return written[-1]

    dataset = _ingest_stage(args, at)
    matrix = cohorts_mod.join_cohorts(_featurize_stage(dataset, at), _cohorts_stage(dataset, at))

    # One task list for one pool: the importance problems first, since they
    # are the longest tasks, then every grid cell. Each task seeds itself
    # from its own key, so the outputs do not depend on --jobs.
    tasks = []
    if importance_args is not None:
        pairs = _importance_pairs(cfg, matrix.num_weeks)
        tasks += [(IMPORTANCE_TASK, cohort, lead, lag) for cohort in cohorts_mod.COHORTS for lead, lag in pairs]
    first_cell = len(tasks)
    tasks += [
        (CELL_TASK, cohort, s.lead, s.lag)
        for cohort in cohorts_mod.COHORTS
        for s in enumerate_problems(matrix.num_weeks, cohort=cohort)
        if filter_match(clauses, cohort, s.lead, s.lag)
    ]
    init_args = (matrix, cell_args, importance_args)
    if args.jobs > 1 and len(tasks) > 1:
        with Pool(processes=min(args.jobs, len(tasks)), initializer=_pool_init,
                  initargs=init_args) as pool:
            results = pool.map(_cell_task, tasks, chunksize=1)
    else:
        _pool_init(*init_args)
        results = [_cell_task(t) for t in tasks]
    cells = results[first_cell:]

    manifest_cells = []
    for cohort in cohorts_mod.COHORTS:
        own = [c for c in cells if c.cohort == cohort]
        if not own:
            continue
        export_grid(own, at(f"grid_{cohort}.tsv"))
        export_heatmap_matrix(own, at(f"heatmap_{cohort}.tsv"))
        write_heatmap(own, at(f"heatmap_{cohort}.svg"))
        ok = sum(1 for c in own if c.status == STATUS_OK)
        print(f"grid {cohort}: {ok}/{len(own)} cells ok")
        manifest_cells.extend((c.cohort, c.lead, c.lag, c.status) for c in own)

    if importance_args is not None:
        _run_importance_reports(results[:first_cell], at)

    meta = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": "{}.{}.{}".format(*sys.version_info[:3]),
        "seed": str(cell_args["seed"]),
        "config_sha256": config_sha256(cfg),
    }
    write_manifest(out, meta=meta, cells=manifest_cells, files=written)
    print(f"run-all: {len(cells)} cells attempted -> {out}")
    return 0


def cmd_heatmap(args) -> int:
    if args.value not in ("test_auc", "train_auc", "cv_mean"):
        raise ConfigError(f"unknown heatmap value {args.value!r}")
    grid = load_grid(args.grid)
    out = _out_dir(args)
    export_heatmap_matrix(grid, out / "heatmap.tsv", value=args.value)
    write_heatmap(grid, out / "heatmap.svg", value=args.value)
    print(f"heatmap: {args.grid} -> {out / 'heatmap.svg'}")
    return 0


def cmd_importance(args) -> int:
    settings = _settings(args, load_config(args.config), *IMPORTANCE_KEYS)
    out = _out_dir(args)
    specs = [parse_problem(p) for p in args.problem]
    matrix = _load_inputs(args, specs, "cohort-restricted problems need --cohorts FILE")
    report = importance_mod.run_importance(matrix, specs, **settings)
    importance_mod.export_problems(report.problems, out / "importance_problems.tsv")
    if report.base_freq is None:
        raise InsufficientDataError(_none_ran(report.problems))
    importance_mod.export_importance([report], out / "importance.tsv")
    ranked = report.ranked()
    write_importance_chart(ranked, out / "importance.svg", title=f"{report.cohort} feature stability")
    top = ", ".join(f"{fid}={freq:.3f}" for fid, freq in ranked[:5])
    print(f"importance: top features {top}")
    return 0


# argparse keywords by flag name; a setting's flag takes its type from SETTINGS
FLAGS = {
    **{flag: {"type": kind} for _, kind, flag, *_ in SETTINGS.values() if flag},
    "out": {"required": True},
    "config": {},
    "events": {"action": "append", "required": True},
    "calendar": {"required": True},
    "dataset": {"required": True},
    "features": {"required": True},
    "lead": {"type": int, "required": True},
    "lag": {"type": int, "required": True},
    "cohort": {},
    "cohorts": {},
    "grid": {"required": True},
    "value": {"default": "test_auc"},
    "problem": {"action": "append", "required": True, "help": "LEAD,LAG[,COHORT]; repeat for several problems"},
    "filter": {"action": "append",
               "help": "restrict cells, e.g. lead=1,lag=3,cohort=passive_collaborator; repeatable"},
    "jobs": {"type": int, "default": 1},
    "shuffle-labels": {"action": "store_true",
                       "help": "permute labels per cell before splitting (no-signal control)"},
}

# (name, function, help, flags in --help order)
COMMANDS = (
    ("synth", cmd_synth, "generate a synthetic course with known ground truth", "out config seed learners weeks"),
    ("ingest", cmd_ingest, "validate raw event files into a canonical dataset", "events calendar out"),
    ("featurize", cmd_featurize, "weekly features and stopout labels from a dataset", "dataset calendar out"),
    ("cohorts", cmd_cohorts, "assign collaboration cohorts", "dataset calendar out"),
    ("build", cmd_build, "flatten one lead/lag problem into a design matrix",
     "features lead lag cohort cohorts out"),
    ("train-eval", cmd_train_eval, "train and score one lead/lag problem",
     "features lead lag cohort cohorts config seed ratio ridge folds out"),
    ("heatmap", cmd_heatmap, "render a grid export as a matrix file plus SVG", "grid out value"),
    ("importance", cmd_importance, "stability-selection feature importance",
     "features cohorts problem config seed subsamples out"),
    ("run-all", cmd_run_all, "full pipeline: ingest, featurize, cohorts, all grids",
     "events calendar out config seed filter jobs shuffle-labels"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stopout",
        description="Weekly stopout-prediction pipeline over course event logs.",
    )
    parser.add_argument("--defaults", action="store_true",
                        help="print every config key with its default and exit")
    sub = parser.add_subparsers(dest="command")
    for name, func, text, flags in COMMANDS:
        p = sub.add_parser(name, help=text)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.defaults:
        return print_defaults()
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("stopout: a subcommand or --defaults is required", file=sys.stderr)
        return ConfigError.exit_code
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
