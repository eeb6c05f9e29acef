"""Self-tests for the benchmark: run with ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads as wl  # noqa: E402
from tracing import PER_LAYER, Tracer, installed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
        assert f"   {m['name']} " in proc.stdout  # printed by name, with its unit
    if trace:
        assert "tracing overhead" in proc.stdout


def test_per_layer_list_matches_tracer():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


def test_check_rejects_one_perturbed_mean_f1(tmp_path):
    plan = wl.write_inputs(tmp_path / "inputs", "eval-wide", seed=2, scale="tiny")
    out = tmp_path / "iter"
    outcome = wl.run_iteration(plan, out)
    clean = wl.check_iteration(plan, out, outcome, None)
    assert clean["failed"] == [] and clean["problems"] == []
    reference = clean["observed"]
    assert wl.check_iteration(plan, out, outcome, reference)["failed"] == []

    path = out / "results" / "results.json"
    data = json.loads(path.read_text())
    victim = next(r for r in data["records"] if r["compressor"] == "sparse-projection" and r["mode"] == "direct")
    victim["mean_f1"] += 2 * wl.MEAN_F1_TOL
    path.write_text(json.dumps(data))
    perturbed = wl.check_iteration(plan, out, outcome, reference)
    assert perturbed["failed"] == [(victim["dataset"], "sparse-projection", "direct")]
    assert perturbed["digest"] != clean["digest"]

    victim["mean_f1"] = 1.5  # outside [0, 1] fails even without a reference
    path.write_text(json.dumps(data))
    assert wl.check_iteration(plan, out, outcome, None)["failed"] == [
        (victim["dataset"], "sparse-projection", "direct")]


def test_every_input_seed_has_a_reference():
    for workload in wl.WORKLOADS:
        table = wl.load_reference(workload)
        assert sorted(table, key=int) == [str(s) for s in range(wl.INPUT_SEEDS)], workload


def test_optimize_proxy_leaves_scipy_alone():
    import scipy.optimize

    import core.evaluation

    original = scipy.optimize.minimize
    with installed(Tracer()):
        assert core.evaluation.optimize is not scipy.optimize
        assert scipy.optimize.minimize is original
    assert core.evaluation.optimize is scipy.optimize


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "demo", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
