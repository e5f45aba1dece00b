"""Traced launcher for the stopout CLI: spans around each layer's public calls.

Usage: python3 perfbench/tracer.py SPANS_JSON <stopout arguments...>

Runs ``stopout.cli.main`` with the arguments after SPANS_JSON, exactly as
``python3 -m stopout.cli`` would, after replacing selected functions with
timing wrappers. Each wrapper is installed in the namespace its caller looks
it up in (``cli`` imports ``ingest`` by name, ``evaluator`` imports ``train``
by name, and so on), so ``src/`` needs no change. When the command returns,
every span is written to SPANS_JSON; the exit code is the command's own.

A span is a dict: name, start, end (``time.monotonic``, which on Linux is the
system-wide CLOCK_MONOTONIC and so comparable across processes), id, parent
(the enclosing span's id or None), pid, plus call-specific counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import warnings
from contextlib import contextmanager

FOLD_WARNING = "reducing cross-validation folds"


class Tracer:
    """Spans of one process, kept in memory until the command ends."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._count = 0

    def new_id(self) -> str:
        self._count += 1
        return f"{os.getpid()}:{self._count}"

    @contextmanager
    def span(self, name: str):
        sid = self.new_id()
        record = {"name": name, "id": sid, "parent": self._stack[-1] if self._stack else None,
                  "pid": os.getpid()}
        self._stack.append(sid)
        record["start"] = time.monotonic()
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()
            self.spans.append(record)


def _wrap(tracer: Tracer, module, attr: str, name: str, note=None) -> None:
    """Replace module.attr by a wrapper that records one span per call.

    functools.wraps keeps __module__ and __qualname__, so a wrapped function
    still pickles by reference (Pool.map sends cli._cell_task that way).
    """
    orig = getattr(module, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            result = orig(*args, **kwargs)
            if note is not None:
                note(record, args, kwargs, result)
        return result

    setattr(module, attr, wrapper)


def _note_ingest(record, args, kwargs, dataset) -> None:
    record["accepted"] = dataset.stats.accepted
    record["rejected"] = dataset.stats.rejected


def _note_features(record, args, kwargs, result) -> None:
    matrix = result[0]
    record["learner_weeks"] = matrix.num_learners * matrix.num_weeks


def _note_train(signature):
    def note(record, args, kwargs, model) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        record["iterations"] = model.iterations
        record["converged"] = bool(model.converged)
        record["escalated"] = model.ridge > bound.arguments["ridge"]
    return note


def _traced_cross_validate(tracer: Tracer, evaluator) -> None:
    """cross_validate with its fold-reduction warnings counted, then re-shown."""
    orig = evaluator.cross_validate

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        with tracer.span("evaluator.cross_validate") as record:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = orig(*args, **kwargs)
            record["fold_reductions"] = sum(FOLD_WARNING in str(w.message) for w in caught)
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        return result

    evaluator.cross_validate = wrapper


def _traced_cell_task(tracer: Tracer, cli) -> None:
    """cli._cell_task whose spans travel back with its result.

    In a pool worker the spans of one cell are attached to the returned
    CellResult (which is pickled to the parent whole) and taken off again by
    the parent's pool proxy; in the parent process they are kept directly.
    """
    orig = cli._cell_task

    @functools.wraps(orig)
    def wrapper(key):
        outer, tracer.spans = tracer.spans, []
        try:
            with tracer.span("cli.cell_task"):
                result = orig(key)
        finally:
            inner, tracer.spans = tracer.spans, outer
        if os.getpid() == tracer.pid:
            outer.extend(inner)
        else:
            result._trace_spans = inner
        return result

    cli._cell_task = wrapper


def _traced_pool(tracer: Tracer, cli) -> None:
    """cli.Pool whose lifetime is the grid phase and whose map collects spans."""
    real_pool = cli.Pool

    class TracedPool:
        def __init__(self, *args, **kwargs):
            self._record = {"name": "cli.grid_phase", "id": tracer.new_id(), "parent": None,
                            "pid": os.getpid(), "jobs": kwargs.get("processes") or args[0],
                            "start": time.monotonic()}
            self._pool = real_pool(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            try:
                return self._pool.__exit__(*exc)
            finally:
                self._record["end"] = time.monotonic()
                tracer.spans.append(self._record)

        def map(self, fn, iterable, *args, **kwargs):
            results = self._pool.map(fn, iterable, *args, **kwargs)
            for r in results:
                for s in r.__dict__.pop("_trace_spans", ()):
                    if s["parent"] is None:
                        s["parent"] = self._record["id"]
                    tracer.spans.append(s)
            return results

    cli.Pool = TracedPool


def install(tracer: Tracer) -> None:
    from stopout import cli, cohorts, evaluator, importance, logistic_model

    for attr, name, note in (
        ("ingest", "event_store.ingest", _note_ingest),
        ("dump_dataset", "event_store.dump_dataset", None),
        ("load_dump", "event_store.load_dump", None),
        ("build_feature_matrix", "featurizer.build_feature_matrix", _note_features),
        ("export_feature_matrix", "featurizer.export_feature_matrix", None),
        ("load_feature_matrix", "featurizer.load_feature_matrix", None),
        ("flatten", "dataset_builder.flatten", None),
        ("evaluate_problem", "evaluator.evaluate_problem", None),
        ("write_heatmap", "viz.write_heatmap", None),
        ("write_importance_chart", "viz.write_importance_chart", None),
        ("_run_importance_reports", "cli.importance_phase", None),
        ("write_manifest", "cli.write_manifest", None),
    ):
        _wrap(tracer, cli, attr, name, note)
    _wrap(tracer, cohorts, "assign_cohorts", "cohorts.assign_cohorts")
    _wrap(tracer, cohorts, "export_cohorts", "cohorts.export_cohorts")

    train_note = _note_train(inspect.signature(logistic_model.train))
    _wrap(tracer, evaluator, "train", "logistic_model.train", train_note)
    _wrap(tracer, evaluator, "flatten", "dataset_builder.flatten")
    _wrap(tracer, evaluator, "normalize", "dataset_builder.normalize")
    _wrap(tracer, evaluator, "evaluate_problem", "evaluator.evaluate_problem")
    _wrap(tracer, evaluator, "roc_auc", "evaluator.roc_auc")
    _traced_cross_validate(tracer, evaluator)

    _wrap(tracer, importance, "flatten", "dataset_builder.flatten")
    _wrap(tracer, importance, "normalize", "dataset_builder.normalize")
    _wrap(tracer, importance, "run_importance", "importance.run_importance")
    _wrap(tracer, importance, "stability_select", "importance.stability_select")
    _wrap(tracer, importance, "calibrate_lambda", "importance.calibrate_lambda")
    _wrap(tracer, importance, "l1_logistic", "importance.l1_logistic")

    _traced_cell_task(tracer, cli)
    _traced_pool(tracer, cli)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    from stopout import cli

    imported = time.monotonic()
    install(tracer)
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"imported": imported, "exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
