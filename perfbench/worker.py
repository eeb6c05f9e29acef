"""One workload in one process: set up, run timed iterations, check outputs, optionally trace.

Started by run.py with BLAS pinned to one thread and ``src`` on PYTHONPATH; writes
its result as JSON to ``--out``. Only the standard library is imported before the
set-up clock starts, so ``import core`` counts as set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _cpu() -> float:
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-file", default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)

    workdir = Path(args.workdir)
    start = time.perf_counter()
    import core.cli  # noqa: F401  (timed: importing the program is part of set-up)
    import workloads as wl

    # Iteration k runs the inputs of seed + k: a run covers several inputs, so its median
    # does not hang on how many L-BFGS iterations one input needs. Only the first input
    # set is written inside the set-up clock; later ones between timed iterations.
    plans = {}

    def plan_for(k: int) -> dict:
        s = wl.input_seed(args.seed + k)
        if s not in plans:
            plans[s] = wl.write_inputs(workdir / f"inputs{s}", args.workload, args.seed + k, args.scale)
        return plans[s]

    first = plan_for(0)
    setup_s = time.perf_counter() - start
    result: dict = {"workload": args.workload, "seed": args.seed, "scale": args.scale, "setup_s": setup_s}
    if args.setup_only:
        wl.clean(workdir)
        Path(args.out).write_text(json.dumps(result))
        return 0

    stored = wl.load_reference(args.workload) if args.scale == "full" else None
    ops = wl.operations(first)
    steps = wl.steps_delivered(first)
    walls, cpus, seeds, checks = [], [], [], []

    def iteration(plan: dict, wrap=None) -> float:
        outdir = workdir / f"iter{len(checks)}"
        reference = None if stored is None or args.write_reference else stored.get(str(plan["input_seed"]), {})
        c0, w0 = _cpu(), time.perf_counter()
        outcome = wl.run_iteration(plan, outdir, wrap)
        wall, cpu = time.perf_counter() - w0, _cpu() - c0
        checks.append((plan["input_seed"], wl.check_iteration(plan, outdir, outcome, reference)))
        wl.clean(outdir)
        if wrap is None:
            walls.append(wall)
            cpus.append(cpu)
            seeds.append(plan["input_seed"])
        return wall

    # Whole iterations while the next one is predicted to end within --seconds; at least
    # one. --write-reference runs one iteration per input seed. A traced run times one
    # untraced iteration, then one traced on the same inputs, for the overhead.
    measure_start = time.perf_counter()
    while True:
        iteration(plan_for(len(walls)))
        elapsed = time.perf_counter() - measure_start
        if args.write_reference:
            if len(walls) == wl.INPUT_SEEDS:
                break
        elif args.trace or elapsed + walls[-1] > args.seconds:
            break

    if args.trace:
        from tracing import Tracer, installed, layer_metrics

        tracer = Tracer()
        with installed(tracer):
            traced_plan = wl.write_inputs(workdir / "inputs-traced", args.workload, args.seed, args.scale)
            traced_wall = iteration(traced_plan, tracer.wrap)
        if args.trace_file:
            tracer.write_jsonl(Path(args.trace_file))
        result["layers"] = layer_metrics(tracer.spans, traced_wall - walls[0])
        result["traced_wall_s"] = traced_wall

    failed = sum(len(c["failed"]) for _, c in checks)
    problems = [p for _, c in checks for p in c["problems"]]
    digests: dict[str, str | None] = {}
    for s, c in checks:
        if digests.setdefault(str(s), c["digest"]) != c["digest"]:
            problems.append(f"iterations on input seed {s} disagree on output digest")
            failed = len(ops) * len(checks)
    missing = sorted({s for s, _ in checks if stored is not None and str(s) not in stored})
    if missing and not args.write_reference:
        problems.append(f"no stored reference for input seeds {missing}")
        failed = len(ops) * len(checks)
    if args.write_reference and not problems:
        path = wl.REFERENCE_DIR / f"{args.workload}.json"
        table = wl.load_reference(args.workload)
        table.update((str(s), c["observed"]) for s, c in checks)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    rusage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    wall_s = statistics.median(walls)
    result.update(
        iterations=[{"input_seed": s, "wall_s": w, "cpu_s": c} for s, w, c in zip(seeds, walls, cpus)],
        wall_s=wall_s,
        cpu_s=statistics.median(cpus),
        steps=steps,
        steps_per_s=steps / wall_s,
        peak_rss_mb=rusage / 1024.0,
        attempted=len(ops) * len(checks),
        failed=failed,
        problems=problems[:50],
        digests=digests,
        reference_checked=stored is not None and not args.write_reference,
        environment=_environment(),
    )
    wl.clean(workdir)
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
