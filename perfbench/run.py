"""Benchmark entry point for core-compress.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Runs each workload in its own process with BLAS pinned to one thread and the
program imported from ``src/`` of this checkout, checks the program's outputs,
prints every metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a traced
iteration (plus one untraced iteration, for the tracing overhead) and writes
the spans to ``.bench_out/traces/``. See perfbench/NOTES.md for the rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3  # fresh processes per run; setup_s is their median
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _child(args: argparse.Namespace, workload: str, tag: str, extra: list[str]) -> dict:
    """Run worker.py for one workload in a fresh pinned process and return its result."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / f"{workload}-seed{args.seed}-{tag}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
           "--workdir", str(out_dir / f"work-{workload}-{os.getpid()}-{tag}"), "--out", str(result_path), *extra]
    try:
        # The program's own console output goes to stderr; stdout carries only the report.
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"{workload}: worker exited with {proc.returncode} and no result")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    if args.trace:
        trace_file = ROOT / ".bench_out" / "traces" / f"{workload}-seed{args.seed}.jsonl"
        result = _child(args, workload, "trace", ["--trace-file", str(trace_file)])
        result["metrics"] = {name: (result["layers"][name], unit) for name, unit in PER_LAYER}
        result["trace_file"] = str(trace_file.relative_to(ROOT))
        return result
    samples = [_child(args, workload, f"setup{i}", ["--setup-only"])["setup_s"] for i in range(SETUP_SAMPLES - 1)]
    extra = ["--write-reference"] if args.write_reference else []
    result = _child(args, workload, "run", extra)
    samples.append(result["setup_s"])
    result["setup_s"] = statistics.median(samples)
    result["setup_samples"] = samples
    result["metrics"] = {name: (result[name], unit) for name, unit in END_TO_END}
    return result


def _print_summary(result: dict) -> None:
    env = result["environment"]
    inputs = " ".join(str(it["input_seed"]) for it in result["iterations"])
    print(f"== {result['workload']}  seed {result['seed']} ({result['scale']})  trace {1 if 'layers' in result else 0}"
          f"  iterations {len(result['iterations'])} on input seeds {inputs}")
    print(f"   environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, blas {env['blas']}, pinned {env['blas_threads']}, commit {result['commit']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"   {name:<44} {value:>14.6g} {unit}")
    if "layers" in result:
        print(f"   tracing overhead: traced wall {result['traced_wall_s']:.3f} s minus untraced "
              f"{result['iterations'][0]['wall_s']:.3f} s = {result['layers']['trace.overhead_s']:.3f} s;"
              f" spans in {result['trace_file']}")
    print(f"   operations: {result['attempted']} attempted, {result['failed']} failed;"
          f" reference checked: {result['reference_checked']}")
    for seed, digest in result["digests"].items():
        print(f"   output digest (sha256), input seed {seed}: {digest}")
    for problem in result["problems"]:
        print(f"   problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35, help="measure whole iterations that fit in this time; at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the benchmark's own tests")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's outputs as the reference for its input seed (trusted commits only)")
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "core" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'core'}; run from a full checkout", file=sys.stderr)
        return 2

    commit = _git_commit()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(args, name) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        result["commit"] = commit
        _print_summary(result)
        (ROOT / ".bench_out" / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n")
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
        for r in results
        for name, (value, unit) in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
