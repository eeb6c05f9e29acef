"""Which scipy parts each command loads, each checked in a fresh interpreter.

A command loads only the scipy parts it runs: ``scipy.special`` when ranking, and nothing else.
No compressor kind loads any: ``core compress`` and the transform of a loaded state run on numpy
alone, and ``core run`` and ``core evaluate`` fit their classifiers with ``core.lbfgs``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from core.compressors import KINDS

SRC = Path(__file__).resolve().parents[1] / "src"
# Runs ``core <argv>`` (or only imports core.cli when argv is empty) and prints, as its last line,
# the exit code and the sorted names of the loaded modules that start with "scipy".
PROBE = """
import json, sys
from core.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""
# Loads the saved state ``argv[1]``, transforms three rows with it and prints what PROBE prints.
APPLY_PROBE = """
import json, sys
import numpy as np
from core.compressors import load_fitted, transform
fc = load_fitted(sys.argv[1])
transform(fc, np.ones((3, fc.input_dim)))
print(json.dumps([0, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def _scipy_loaded(cwd: Path, *argv: str, probe: str = PROBE) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=cwd, capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


SYNTH = ["synth", "--docs", "40", "--classes", "2", "--rank", "4", "--dim", "16", "--seed", "5", "--out", "data",
         "--name", "tiny"]


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """A directory holding a 40x16 synthetic dataset in ``data/tiny.core``."""
    from core.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(SYNTH) == 0
    return tmp_path


def test_cli_import_loads_no_scipy(tmp_path):
    assert _scipy_loaded(tmp_path) == set()


def test_schedule_loads_no_scipy(tmp_path):
    assert _scipy_loaded(tmp_path, "schedule", "--d0", "384", "--kappa", "2") == set()


def test_synth_loads_no_scipy(tmp_path):
    assert _scipy_loaded(tmp_path, *SYNTH) == set()
    assert (tmp_path / "data" / "tiny.core").exists()


@pytest.mark.parametrize("mode", ["rec", "dir"])
def test_compress_svd_exact_loads_no_scipy(tiny, mode):
    (tiny / "spec.json").write_text('{"kind": "svd-exact", "seed": 1}')
    assert _scipy_loaded(tiny, "compress", "--input", "data/tiny.core", "--spec", "spec.json", "--mode", mode,
                         "--out", "steps", "--save-states") == set()
    assert (tiny / "steps" / "state_1.npz").exists()


@pytest.mark.parametrize("kind", KINDS)
def test_compress_loads_no_scipy(tiny, kind):
    params = {"max_epochs": 3} if kind.startswith("neural-") else {}
    (tiny / "spec.json").write_text(json.dumps({"kind": kind, "seed": 1, "params": params}))
    assert _scipy_loaded(tiny, "compress", "--input", "data/tiny.core", "--spec", "spec.json",
                         "--out", "steps", "--save-states") == set()
    assert (tiny / "steps" / "state_1.npz").exists()
    if kind == "sparse-projection":
        assert _scipy_loaded(tiny, "steps/state_1.npz", probe=APPLY_PROBE) == set()


@pytest.mark.parametrize("command", ["run", "evaluate"])
def test_run_and_evaluate_load_no_scipy(tiny, command):
    if command == "run":
        (tiny / "cfg.json").write_text(json.dumps({
            "manifest": "data/manifest.json", "specs": [{"kind": "random-subspace", "seed": 1}], "folds": 2,
            "repeats": 1, "out_dir": "results"}))
        argv, written = ["run", "--config", "cfg.json"], tiny / "results" / "results.json"
    else:
        argv = ["evaluate", "--input", "data/tiny.core", "--labels", "data/tiny.labels", "--baseline",
                "data/tiny.core", "--folds", "2", "--repeats", "1", "--out", "record.json"]
        written = tiny / "record.json"
    assert _scipy_loaded(tiny, *argv) == set()
    assert written.exists()


def _subpackages(loaded: set[str]) -> set[str]:
    """The public scipy subpackages among ``loaded``; ``scipy.version`` comes with ``import scipy``."""
    return {m.split(".")[1] for m in loaded if "." in m and not m.split(".")[1].startswith("_")} - {"version"}


@pytest.mark.parametrize("command", [["stats"], ["report", "--out", "report"]])
def test_ranking_loads_scipy_special_only(tmp_path, command):
    records = [{"dataset": ds, "representation": "synthetic", "compressor": kind, "mode": "recursive", "step": 2,
                "dim": 4, "mean_f1": 0.8, "std_f1": 0.01, "epsilon_f1": 0.01 * ((i * j) % 3), "repeats": 1,
                "extra": {}}
               for i, ds in enumerate("abc") for j, kind in enumerate(("svd", "random-subspace", "svd-exact"))]
    (tmp_path / "results.json").write_text(json.dumps({"schema_version": 1, "meta": {}, "records": records}))
    assert _subpackages(_scipy_loaded(tmp_path, *command, "--records", "results.json")) == {"special"}
    if command[0] == "report":
        assert (tmp_path / "report" / "cd_step_2.svg").exists()
