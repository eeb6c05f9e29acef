"""Spans around the program's public functions, and the per-layer metrics computed from them.

Each span wraps a function at the module binding its caller looks up (for example
``core.pipeline.fit``, which ``pipeline._run`` calls), so the program itself is not
edited. Spans are kept in memory and written as JSON lines when a traced run ends.
A span records wall time and ``time.thread_time()``; wall minus thread CPU is time
the thread waited (for the GIL, the scheduler or I/O).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import NamedTuple

from workloads import KINDS

# Every per-layer metric, with its unit, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("evaluation.train_logreg_s", "s"),
    ("evaluation.train_logreg_calls", "count"),
    ("evaluation.train_logreg_wait_s", "s"),
    ("evaluation.loss_grad_calls", "count"),
    ("evaluation.loss_grad_ms", "ms"),
    ("evaluation.lbfgs_nit", "count"),
    ("evaluation.lbfgs_unconverged", "count"),
    ("evaluation.predict_s", "s"),
    ("evaluation.kfold_s", "s"),
    ("evaluation.baseline_s", "s"),
    *((f"compressors.fit_s.{k}", "s") for k in KINDS),
    *((f"compressors.fit_calls.{k}", "count") for k in KINDS),
    ("compressors.transform_s", "s"),
    ("compressors.fit_wait_s", "s"),
    ("compressors.svd_exact.unique_input_ratio", "ratio"),
    ("compressors.autoencoder.epochs", "count"),
    ("compressors.autoencoder.cap_hit_ratio", "ratio"),
    ("compressors.serialize.save_s", "s"),
    ("io.save_s", "s"),
    ("io.load_s", "s"),
    ("io.bytes_written", "B"),
    ("pipeline.compress_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.first_step_share", "ratio"),
    ("pipeline.first_step_share_model", "ratio"),
    ("experiment.run_s", "s"),
    ("experiment.serial_s", "s"),
    ("experiment.parallelism", "ratio"),
    ("stats.s", "s"),
    ("report.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class Span(NamedTuple):
    id: int
    name: str
    parent: int  # 0 for a root span
    thread: str
    start: float
    end: float
    cpu: float  # thread CPU seconds
    attrs: dict | None

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder. The parent of a span is the innermost open span of
    the same thread; work the experiment hands to its thread pool starts new roots."""

    def __init__(self):
        self.spans: list[Span] = []
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, describe=None):
        """``fn`` inside a span; ``describe(args, result)`` gives attributes after success.

        This runs once per loss evaluation, so it keeps its own cost small.
        """
        local, ids, spans, origin = self._local, self._ids, self.spans, self.origin
        perf, cpu = time.perf_counter, time.thread_time

        def traced(*args, **kwargs):
            parent, sid = getattr(local, "current", 0), next(ids)
            local.current = sid
            attrs = None
            c0, t0 = cpu(), perf()
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs = describe(args, result)
                return result
            finally:
                t1, c1 = perf(), cpu()
                local.current = parent
                thread = threading.current_thread().name
                spans.append(Span(sid, name, parent, thread, t0 - origin, t1 - origin, c1 - c0, attrs))

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
                    "start": s.start, "end": s.end, "thread_cpu": s.cpu, "attrs": s.attrs or {},
                }, separators=(",", ":")) + "\n")


def _describe_fit(args, fc) -> dict:
    spec, e, d_out = args[0], args[1], args[2]
    attrs = {"kind": spec.kind, "d_in": int(e.shape[1]), "d_out": int(d_out)}
    if spec.kind == "svd-exact":
        attrs["input"] = hashlib.blake2b(e.tobytes(), digest_size=16).hexdigest()
    meta = getattr(fc.state, "train_meta", None)
    if meta:
        attrs["epochs_run"] = meta["epochs_run"]
        attrs["max_epochs"] = meta["max_epochs"]
    return attrs


def _describe_compress(mode: str):
    def describe(args, _run) -> dict:
        schedule = args[2]
        return {"mode": mode, "d0": schedule.d0, "kappa": schedule.kappa, "steps": schedule.steps}

    return describe


def _describe_save(args, _result) -> dict:
    return {"bytes": Path(args[1]).stat().st_size}


def _describe_lbfgs(_args, result) -> dict:
    return {"nit": int(result.nit), "success": bool(result.success)}


# (module, attribute, span name, attributes from (args, result)): each binding is the
# one its caller looks up at call time, so replacing it reaches every call.
TARGETS = (
    ("core.cli", "run_experiment", "experiment.run", None),
    ("core.cli", "compress_recursive", "pipeline.compress", _describe_compress("recursive")),
    ("core.cli", "compress_direct", "pipeline.compress", _describe_compress("direct")),
    ("core.cli", "save_fitted", "compressors.serialize.save", None),
    ("core.cli", "save_matrix", "io.save", _describe_save),
    ("core.cli", "load_embeddings", "io.load", None),
    ("core.experiment", "compress_recursive", "pipeline.compress", _describe_compress("recursive")),
    ("core.experiment", "compress_direct", "pipeline.compress", _describe_compress("direct")),
    ("core.experiment", "evaluate_matrices", "evaluation.evaluate", None),
    ("core.experiment", "evaluate_representation", "evaluation.baseline", None),
    ("core.experiment", "save_matrix", "io.save", _describe_save),
    ("core.experiment", "save_labels", "io.save", _describe_save),
    ("core.experiment", "load_embeddings", "io.load", None),
    ("core.experiment", "load_labels", "io.load", None),
    ("core.experiment", "load_manifest", "io.load", None),
    ("core.pipeline", "fit", "compressors.fit", _describe_fit),
    ("core.pipeline", "transform", "compressors.transform", None),
    ("core.evaluation", "stratified_kfold", "evaluation.kfold", None),
    ("core.evaluation", "train_logreg", "evaluation.train_logreg", None),
    ("core.evaluation", "logreg_loss_and_grad", "evaluation.loss_grad", None),
    ("core.evaluation", "predict", "evaluation.predict", None),
)


class _OptimizeProxy:
    """Stands in for ``core.evaluation.optimize`` only: scipy.optimize itself is untouched."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self.minimize = tracer.wrap("evaluation.lbfgs", module.minimize, _describe_lbfgs)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target binding for its traced form; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, name, describe in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, describe))
        evaluation = importlib.import_module("core.evaluation")
        saved.append((evaluation, "optimize", evaluation.optimize))
        evaluation.optimize = _OptimizeProxy(evaluation.optimize, tracer)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans: list[Span], overhead_s: float) -> dict[str, float]:
    """Reduce spans to the PER_LAYER metrics; a layer the workload never calls reads 0."""
    from core.pipeline import estimate_cost

    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def wall(name: str) -> float:
        return sum(s.wall for s in named(name))

    def wait(name: str) -> float:
        return sum(max(0.0, s.wall - s.cpu) for s in named(name))

    m: dict[str, float] = {}
    loss_grad, lbfgs = named("evaluation.loss_grad"), named("evaluation.lbfgs")
    m["evaluation.train_logreg_s"] = wall("evaluation.train_logreg")
    m["evaluation.train_logreg_calls"] = len(named("evaluation.train_logreg"))
    m["evaluation.train_logreg_wait_s"] = wait("evaluation.train_logreg")
    m["evaluation.loss_grad_calls"] = len(loss_grad)
    m["evaluation.loss_grad_ms"] = 1000.0 * wall("evaluation.loss_grad") / len(loss_grad) if loss_grad else 0.0
    m["evaluation.lbfgs_nit"] = sum(s.attrs["nit"] for s in lbfgs if s.attrs)
    m["evaluation.lbfgs_unconverged"] = sum(1 for s in lbfgs if s.attrs and not s.attrs["success"])
    m["evaluation.predict_s"] = wall("evaluation.predict")
    m["evaluation.kfold_s"] = wall("evaluation.kfold")
    m["evaluation.baseline_s"] = wall("evaluation.baseline")

    fits = [s for s in named("compressors.fit") if s.attrs]
    for kind in KINDS:
        mine = [s for s in fits if s.attrs["kind"] == kind]
        m[f"compressors.fit_s.{kind}"] = sum(s.wall for s in mine)
        m[f"compressors.fit_calls.{kind}"] = len(mine)
    m["compressors.transform_s"] = wall("compressors.transform")
    m["compressors.fit_wait_s"] = wait("compressors.fit")

    fits_by_call: dict[int, list[Span]] = {}
    for s in fits:
        fits_by_call.setdefault(s.parent, []).append(s)
    exact = [[s.attrs["input"] for s in group if s.attrs["kind"] == "svd-exact"] for group in fits_by_call.values()]
    exact_fits = sum(len(g) for g in exact)
    m["compressors.svd_exact.unique_input_ratio"] = (
        sum(len(set(g)) for g in exact) / exact_fits if exact_fits else 0.0
    )
    neural = [s for s in fits if "epochs_run" in s.attrs]
    m["compressors.autoencoder.epochs"] = sum(s.attrs["epochs_run"] for s in neural)
    m["compressors.autoencoder.cap_hit_ratio"] = (
        sum(1 for s in neural if s.attrs["epochs_run"] >= s.attrs["max_epochs"]) / len(neural) if neural else 0.0
    )
    m["compressors.serialize.save_s"] = wall("compressors.serialize.save")
    m["io.save_s"] = wall("io.save")
    m["io.load_s"] = wall("io.load")
    m["io.bytes_written"] = sum(s.attrs.get("bytes", 0) for s in named("io.save") if s.attrs)

    calls = [s for s in named("pipeline.compress") if s.attrs]
    call_ids = {s.id for s in calls}
    inner = sum(s.wall for s in named("compressors.fit") + named("compressors.transform") if s.parent in call_ids)
    m["pipeline.compress_s"] = sum(s.wall for s in calls)
    m["pipeline.self_s"] = m["pipeline.compress_s"] - inner
    first = total = 0.0
    for call in calls:
        if call.attrs["mode"] == "recursive" and call.id in fits_by_call:
            group = sorted(fits_by_call[call.id], key=lambda s: s.start)
            first += group[0].wall
            total += sum(s.wall for s in group)
    m["pipeline.first_step_share"] = first / total if total else 0.0
    rec = next((c for c in calls if c.attrs["mode"] == "recursive"), None)
    m["pipeline.first_step_share_model"] = (
        estimate_cost(rec.attrs["d0"], rec.attrs["kappa"], rec.attrs["steps"]).first_step_fraction if rec else 0.0
    )

    runs = named("experiment.run")
    m["experiment.run_s"] = sum(s.wall for s in runs)
    serial = busy = 0.0
    for run in runs:
        inside = [s for s in calls + named("evaluation.evaluate") if run.start <= s.start <= run.end]
        starts = [s.start for s in inside if s.name == "pipeline.compress"]
        serial += (min(starts) if starts else run.end) - run.start
        busy += sum(s.cpu for s in inside)
    m["experiment.serial_s"] = serial
    m["experiment.parallelism"] = busy / m["experiment.run_s"] if runs else 0.0
    m["stats.s"] = wall("stats.cli")
    m["report.s"] = wall("report.cli")
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = len(spans)
    return m
