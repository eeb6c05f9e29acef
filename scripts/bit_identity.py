#!/usr/bin/env python3
"""Check that two source trees of core-compress produce the same bytes.

Runs one fixed flow through ``core.cli.main`` against each tree, each in its own
process with BLAS pinned to one thread, then compares every file the flows wrote
by sha256. The flow covers ``synth``; ``run`` with every compressor kind in both
modes at ``--threads`` 1 and 2, with the modes in the order direct, recursive at
``--threads`` 1 and 2, and in direct mode alone; ``run`` at ``repeats`` 2 with ``sparse-projection``,
``svd-exact``, ``cluster-mean`` and ``neural-small`` in both modes, so that a change of repeat order or
fold plan shows; ``run`` of ``sparse-projection`` in both modes at ``repeats`` 2 on a 2000x384 dataset
of 8 classes, whose 3-fold training sets of 1,333 rows make the narrow steps' classifier fits
ill-conditioned, so that a change of the classifier solver that moves a prediction shows, and
``compress`` of that dataset with the same spec (recursive, kappa 2); ``stats`` and
``report`` at alpha 0.05 and 0.1;
``evaluate``; and ``compress --save-states`` for every kind in both modes at
kappa 2 and 4, ``compress --seed 7`` in both modes, plus seventeen commands that
must fail: ``schedule --kappa 1``, ``report --alpha 2``, ``report --margin -1``,
``report --margin nan``, ``synth --classes 1``, ``synth --separation 1e39``,
``run`` with an empty manifest, one with an empty path, or a ``"margin": NaN``
config, ``stats`` on a results file of schema version 2, and ``compress`` with
fewer documents than the first step's dimension, a binary input of 0 rows, a CSV
input with a ragged row, an unparseable token or a ``nan``, an autoencoder whose
training diverges, and a spec whose ``tol`` is ``NaN``. The exit code, stdout and stderr of each command are compared
too (``log.txt``), so every failure message is compared byte for byte.

After the commands, ``core.evaluation.train_logreg`` is fitted on the first 1,333 rows of each of
the 8 step files of that ``compress``, with the wide dataset's labels, and each model's weights and
intercepts are written under ``weights/`` with ``np.save`` (the message, for a fit that raises
``EvaluationError``). So a change of the classifier solver that moves fitted weights shows even
where it flips no prediction.

A second flow, logged to ``log_reps.txt``, covers a results file with two
representations: ``synth`` of two 16-column ``bert`` and two 8-column
``doc2vec`` datasets, ``run`` with ``svd`` and ``random-subspace`` in both modes,
then ``stats`` and ``report`` at step 2 (both representations ranked and drawn)
and step 3 (which only ``bert`` reaches: ``stats`` exits 1, ``report`` skips the
``doc2vec`` CD diagram).

Before hashing, each ``seconds`` value in ``run.json`` is replaced by 0, the
flow's own directory in ``results.json`` (the prefix of the absolute paths in its
``meta``) by ``<out>``, and a ``.npz`` is hashed over its members' names and bytes
(the zip stores write times). Every other byte is compared as written.

Usage: python scripts/bit_identity.py BASE_SRC HEAD_SRC

``BASE_SRC`` and ``HEAD_SRC`` are each a checkout or its ``src`` directory.
Exit 0 when every file matches, 1 on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

KINDS = (
    "svd",
    "svd-exact",
    "sparse-projection",
    "random-subspace",
    "cluster-max",
    "cluster-mean",
    "cluster-median",
    "neural-small",
    "neural-large",
)
# Short autoencoder training keeps the flow fast; the other kinds use their defaults.
NEURAL_PARAMS = {"max_epochs": 20}
# A learning rate this large makes the training loss non-finite within the epoch cap.
DIVERGING_PARAMS = {"learning_rate": 1e12, "max_epochs": 50}
# CSV inputs that the reader rejects: a ragged row, an unparseable token and a non-finite value.
BAD_CSV = {"ragged": "1.0,2.0\n3.0\n", "token": "1.0,2.0\n3.0,x\n", "nan": "1.0,2.0\n3.0,nan\n"}
# Manifests that ``run`` rejects: no entries, and an entry with an empty embeddings path.
BAD_MANIFESTS = {"empty": "[]", "no-path": '[{"name": "x", "embeddings": "", "labels": "x.labels"}]'}
# ``run`` configs besides cfg.json's ["recursive", "direct"], by name: the same config with these modes.
MODE_CONFIGS = {"dir-rec": ["direct", "recursive"], "dir": ["direct"]}
# The kinds of the run at two repeats: cfg.json's other runs score one.
REPEAT_KINDS = ("sparse-projection", "svd-exact", "cluster-mean", "neural-small")
# (name, docs, classes, rank, seed); every dataset has 32 columns.
DATASETS = (("a", 80, 3, 4, 1), ("b", 64, 2, 3, 2), ("c", 72, 4, 4, 3))
DIM = 32
# (name, docs, classes, rank, dim, seed) of the wide dataset: eval-wide's shape, down to width 2.
WIDE = ("wide", 2000, 8, 32, 384, 1)
# Training rows of each weights/ fit: those of a 3-fold training set of the wide dataset.
WIDE_TRAIN_ROWS = 1333
# (name, representation, dim, seed) of the two-representation flow; an 8-column dataset has 2 steps.
REP_DATASETS = (("p", "bert", 16, 5), ("q", "bert", 16, 6), ("r", "doc2vec", 8, 7), ("s", "doc2vec", 8, 8))
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _spec(kind: str, seed: int) -> dict:
    return {"kind": kind, "seed": seed, "params": NEURAL_PARAMS if kind.startswith("neural") else {}}


def flow_commands() -> list[list[str]]:
    """Every command of the flow, run in order from the output directory."""
    cmds = [
        ["synth", "--docs", str(docs), "--classes", str(classes), "--rank", str(rank), "--dim", str(DIM),
         "--seed", str(seed), "--out", "data", "--name", name]
        for name, docs, classes, rank, seed in DATASETS
    ]
    # Fewer documents than the first target dimension: svd-exact must fail at step 1.
    cmds.append(["synth", "--docs", "12", "--classes", "2", "--rank", "2", "--dim", str(DIM), "--seed", "4",
                 "--out", "short", "--name", "short"])
    for threads in (1, 2):
        cmds.append(["run", "--config", "cfg.json", "--threads", str(threads), "--out", f"results_t{threads}"])
    # Direct before recursive (the direct task fits step 1), also with two (dataset, spec) jobs
    # at a time, and direct alone (nothing to share).
    for name in MODE_CONFIGS:
        cmds.append(["run", "--config", f"cfg-{name}.json", "--out", f"results_{name}"])
    cmds.append(["run", "--config", "cfg-dir-rec.json", "--threads", "2", "--out", "results_dir-rec_t2"])
    cmds.append(["run", "--config", "cfg-r2.json", "--out", "results_r2"])
    name, docs, classes, rank, dim, seed = WIDE
    cmds.append(["synth", "--docs", str(docs), "--classes", str(classes), "--rank", str(rank), "--dim", str(dim),
                 "--seed", str(seed), "--out", "wide", "--name", name])
    cmds.append(["run", "--config", "cfg-wide.json", "--out", "results_wide"])
    cmds.append(["compress", "--input", "wide/wide.core", "--spec", "specs/sparse-projection.json", "--mode", "rec",
                 "--kappa", "2", "--out", "compress/wide"])
    cmds += [
        ["stats", "--records", "results_t1/results.json", "--step", "2"],
        ["report", "--records", "results_t1/results.json", "--out", "report", "--step", "2"],
        ["stats", "--records", "results_t1/results.json", "--step", "2", "--alpha", "0.1"],
        ["report", "--records", "results_t1/results.json", "--out", "report_alpha0.1", "--step", "2",
         "--alpha", "0.1"],
    ]
    for kind in KINDS:
        for mode in ("rec", "dir"):
            for kappa in (2, 4):
                cmds.append(["compress", "--input", "data/a.core", "--spec", f"specs/{kind}.json", "--mode", mode,
                             "--kappa", str(kappa), "--out", f"compress/{kind}-{mode}-k{kappa}", "--save-states"])
    # The flag's seed replaces the spec file's seed 1, in the run.json spec and in every step seed.
    for mode in ("rec", "dir"):
        cmds.append(["compress", "--input", "data/a.core", "--spec", "specs/svd.json", "--mode", mode,
                     "--seed", "7", "--out", f"compress/svd-{mode}-seed7"])
    cmds += [
        ["schedule", "--d0", "64", "--kappa", "1"],
        ["report", "--records", "results_t1/results.json", "--out", "report_bad_alpha", "--alpha", "2"],
        ["report", "--records", "results_t1/results.json", "--out", "report_bad_margin", "--margin", "-1"],
        ["evaluate", "--input", "compress/svd-rec-k2/step_2.core", "--baseline", "data/a.core",
         "--labels", "data/a.labels", "--seed", "7", "--out", "evaluate.json"],
        ["compress", "--input", "short/short.core", "--spec", "specs/svd-exact.json", "--mode", "dir",
         "--out", "compress/short"],
        ["compress", "--input", "data/a.core", "--spec", "specs/diverging.json", "--out", "compress/diverging"],
    ]
    for name in BAD_CSV:
        cmds.append(["compress", "--input", f"bad/{name}.csv", "--format", "csv", "--spec", "specs/svd.json",
                     "--out", f"compress/bad-{name}"])
    for name in BAD_MANIFESTS:
        cmds.append(["run", "--config", f"bad/{name}-cfg.json"])
    cmds += [
        ["compress", "--input", "bad/zero-rows.core", "--spec", "specs/svd.json", "--out", "compress/zero-rows"],
        ["stats", "--records", "bad/schema2.json"],
        ["synth", "--classes", "1", "--out", "bad-synth"],
        # Non-finite numbers: json.loads reads NaN, and a matrix beyond f32 is rejected before --out is made.
        ["synth", "--separation", "1e39", "--out", "bad-synth-f32"],
        ["report", "--records", "results_t1/results.json", "--out", "report_nan_margin", "--margin", "nan"],
        ["compress", "--input", "data/a.core", "--spec", "bad/nan-tol.json", "--out", "compress/nan-tol"],
        ["run", "--config", "bad/nan-margin-cfg.json"],
    ]
    return cmds


def representation_commands() -> list[list[str]]:
    """The two-representation flow, run after ``flow_commands`` from the same directory."""
    cmds = [["synth", "--docs", "48", "--classes", "2", "--rank", "3", "--dim", str(dim), "--seed", str(seed),
             "--out", "reps", "--name", name] for name, _, dim, seed in REP_DATASETS]
    cmds.append(["run", "--config", "cfg-reps.json"])
    for step in ("2", "3"):
        cmds += [["stats", "--records", "results_reps/results.json", "--step", step],
                 ["report", "--records", "results_reps/results.json", "--out", f"report_reps_step{step}",
                  "--step", step]]
    return cmds


def write_weights() -> None:
    """Fit the classifier on each step of ``compress/wide`` and write its weights under ``weights/``."""
    import numpy as np

    from core.evaluation import EvaluationError, train_logreg
    from core.io import load_embeddings, load_labels

    Path("weights").mkdir()
    y = load_labels("wide/wide.labels").ids[:WIDE_TRAIN_ROWS]
    for path in sorted(Path("compress/wide").glob("step_*.core")):
        x = load_embeddings(path)[:WIDE_TRAIN_ROWS]
        name = f"weights/{path.stem}_d{x.shape[1]}"
        try:
            model = train_logreg(x, y)
        except EvaluationError as exc:
            Path(f"{name}_error.txt").write_text(f"{exc}\n")
            continue
        np.save(f"{name}_weights.npy", model.weights)
        np.save(f"{name}_intercepts.npy", model.intercepts)


def run_flow(out: Path) -> None:
    """Write the flow's inputs into ``out`` and run every command there (in this process)."""
    from core.cli import main

    os.chdir(out)
    Path("specs").mkdir()
    for i, kind in enumerate(KINDS):
        Path("specs", f"{kind}.json").write_text(json.dumps(_spec(kind, i + 1)))
    Path("specs", "diverging.json").write_text(json.dumps({"kind": "neural-small", "seed": 1,
                                                           "params": DIVERGING_PARAMS}))
    Path("bad").mkdir()
    for name, text in BAD_CSV.items():
        Path("bad", f"{name}.csv").write_text(text)
    for name, text in BAD_MANIFESTS.items():
        Path("bad", f"{name}.json").write_text(text)
        cfg = {"manifest": f"bad/{name}.json", "specs": [_spec("svd", 1)], "out_dir": f"results-{name}"}
        Path("bad", f"{name}-cfg.json").write_text(json.dumps(cfg))
    Path("bad", "zero-rows.core").write_bytes(b"CORE" + struct.pack("<II", 0, 4))
    Path("bad", "schema2.json").write_text(json.dumps({"schema_version": 2, "meta": {}, "records": []}))
    cfg = {
        "manifest": "data/manifest.json",
        "specs": [_spec(kind, i + 1) for i, kind in enumerate(KINDS)],
        "kappa": 2,
        "modes": ["recursive", "direct"],
        "folds": 2,
        "repeats": 1,
        "seed": 42,
        "out_dir": "results",
    }
    Path("cfg.json").write_text(json.dumps(cfg))
    for name, modes in MODE_CONFIGS.items():
        Path(f"cfg-{name}.json").write_text(json.dumps(dict(cfg, modes=modes)))
    Path("cfg-r2.json").write_text(json.dumps(dict(cfg, repeats=2, specs=[
        _spec(kind, KINDS.index(kind) + 1) for kind in REPEAT_KINDS])))
    Path("cfg-wide.json").write_text(json.dumps(dict(cfg, manifest="wide/manifest.json", folds=3, repeats=2,
                                                     specs=[_spec("sparse-projection", 1)])))
    Path("bad", "nan-tol.json").write_text(json.dumps({"kind": "cluster-mean", "params": {"tol": float("nan")}}))
    Path("bad", "nan-margin-cfg.json").write_text(json.dumps(dict(cfg, margin=float("nan"), out_dir="results-nan")))
    # The synthesized files with their representations: ``synth`` names every dataset "synthetic".
    reps = [{"name": name, "embeddings": f"reps/{name}.core", "labels": f"reps/{name}.labels",
             "representation": rep} for name, rep, _, _ in REP_DATASETS]
    Path("reps.json").write_text(json.dumps(reps))
    Path("cfg-reps.json").write_text(json.dumps(dict(cfg, manifest="reps.json", specs=[_spec("svd", 1),
                                                     _spec("random-subspace", 2)], out_dir="results_reps")))
    for log_name, cmds in (("log.txt", flow_commands()), ("log_reps.txt", representation_commands())):
        with open(log_name, "w") as log:
            for cmd in cmds:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(cmd)
                log.write(f"$ core {' '.join(cmd)}\nexit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
    write_weights()


def _normalized(path: Path, root: Path) -> bytes:
    if path.suffix == ".npz":
        with zipfile.ZipFile(path) as z:
            return b"".join(name.encode() + b"\0" + z.read(name) for name in sorted(z.namelist()))
    data = path.read_bytes()
    if path.name == "run.json":
        return re.sub(rb'("seconds": )[^,\n}]+', rb"\g<1>0", data)
    if path.name == "results.json":
        return data.replace(str(root).encode(), b"<out>")
    return data


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root`` after normalization, keyed by relative path."""
    root = root.resolve()
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(_normalized(p, root)).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def compare(base: Path, head: Path, out=sys.stdout) -> list[str]:
    """Print one line per file, ``same``/``DIFF`` then both digests; return the paths that differ."""
    a, b = digests(base), digests(head)
    differ = []
    for name in sorted(a.keys() | b.keys()):
        da, db = a.get(name, "missing"), b.get(name, "missing")
        if da != db:
            differ.append(name)
        print(f"{'same' if da == db else 'DIFF'}  {da[:16]:<16}  {db[:16]:<16}  {name}", file=out)
    return differ


def _src_dir(tree: str) -> Path:
    p = Path(tree).resolve()
    return p / "src" if (p / "src" / "core").is_dir() else p


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("head_src")
    parser.add_argument("--flow", default=None, help=argparse.SUPPRESS)  # internal: run the flow into this directory
    args = parser.parse_args(argv)
    if args.flow:
        import core

        if not Path(core.__file__).resolve().is_relative_to(_src_dir(args.base_src)):
            raise SystemExit(f"core was imported from {core.__file__}, not from {args.base_src}")
        run_flow(Path(args.flow))
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp).resolve()
        for side, tree in (("base", args.base_src), ("head", args.head_src)):
            out = work / side
            out.mkdir()
            env = dict(os.environ, PYTHONPATH=str(_src_dir(tree)), **PINNED)
            subprocess.run([sys.executable, str(Path(__file__).resolve()), tree, tree, "--flow", str(out)],
                           env=env, check=True)
        differ = compare(work / "base", work / "head")
    print(f"{len(differ)} of the compared files differ" if differ else "all files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
