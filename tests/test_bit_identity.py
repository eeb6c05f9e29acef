import importlib.util
import io
import json
import zipfile
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bit_identity.py"
_spec = importlib.util.spec_from_file_location("bit_identity", SCRIPT)
bit_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bit_identity)


def _tree(root: Path, seconds: float, manifest: str) -> Path:
    # Written in the program's own formats: run.json in insertion order, results.json with sorted keys.
    (root / "steps").mkdir(parents=True)
    (root / "steps" / "step_1.core").write_bytes(bytes(range(64)))
    run = {"step": 1, "dim": 16, "seconds": seconds}
    (root / "steps" / "run.json").write_text(json.dumps({"steps": [run]}, indent=2) + "\n")
    np.savez(root / "steps" / "state_1.npz", components=np.arange(6.0))
    results = {"meta": {"config": {"manifest": str(root.resolve() / manifest), "seed": 1}}}
    (root / "results.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return root


def test_identical_trees_pass(tmp_path):
    # Step times, each flow's own directory in config paths and zip write times are not compared.
    base = _tree(tmp_path / "base", 0.5, "data/manifest.json")
    head = _tree(tmp_path / "head", 2.5, "data/manifest.json")
    npz = head / "steps" / "state_1.npz"
    with zipfile.ZipFile(npz) as z:
        members = {name: z.read(name) for name in z.namelist()}
    with zipfile.ZipFile(npz, "w") as z:
        for name, data in members.items():
            z.writestr(zipfile.ZipInfo(name, date_time=(1999, 1, 1, 0, 0, 0)), data)
    assert npz.read_bytes() != (base / "steps" / "state_1.npz").read_bytes()
    out = io.StringIO()
    assert bit_identity.compare(base, head, out) == []
    assert out.getvalue().count("same") == 4


def test_one_flipped_byte_fails_and_names_the_file(tmp_path):
    base = _tree(tmp_path / "base", 0.5, "data/manifest.json")
    head = _tree(tmp_path / "head", 0.5, "data/manifest.json")
    path = head / "steps" / "step_1.core"
    data = bytearray(path.read_bytes())
    data[10] ^= 1
    path.write_bytes(bytes(data))
    out = io.StringIO()
    assert bit_identity.compare(base, head, out) == ["steps/step_1.core"]
    assert [line.split()[-1] for line in out.getvalue().splitlines() if line.startswith("DIFF")] == ["steps/step_1.core"]


def test_missing_file_and_relative_config_path_differ(tmp_path):
    base = _tree(tmp_path / "base", 0.5, "data/manifest.json")
    head = _tree(tmp_path / "head", 0.5, "other/manifest.json")
    (head / "steps" / "state_1.npz").unlink()
    assert bit_identity.compare(base, head, io.StringIO()) == ["results.json", "steps/state_1.npz"]


def test_json_key_order_and_layout_differ(tmp_path):
    base = _tree(tmp_path / "base", 0.5, "data/manifest.json")
    head = _tree(tmp_path / "head", 0.5, "data/manifest.json")
    reordered = {"steps": [{"seconds": 0.5, "step": 1, "dim": 16}]}
    (head / "steps" / "run.json").write_text(json.dumps(reordered, indent=2) + "\n")
    results = json.loads((head / "results.json").read_text())
    (head / "results.json").write_text(json.dumps(results, sort_keys=True) + "\n")
    assert bit_identity.compare(base, head, io.StringIO()) == ["results.json", "steps/run.json"]
