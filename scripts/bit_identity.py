#!/usr/bin/env python3
"""Check that two source trees of core-compress produce the same bytes.

Runs one fixed flow through ``core.cli.main`` against each tree, each in its own
process with BLAS pinned to one thread, then compares every file the flows wrote
by sha256. The flow covers ``synth``; ``run`` with every compressor kind in both
modes at ``--threads`` 1 and 2; ``stats``, ``report`` and ``evaluate``; and
``compress --save-states`` for every kind in both modes at kappa 2 and 4,
``compress --seed 7`` in both modes, plus five ``compress`` commands that must
fail: fewer documents than the first step's dimension, a CSV input with a ragged
row, an unparseable token or a ``nan``, and an autoencoder whose training
diverges. The exit code, stdout and stderr of each command are compared too
(``log.txt``), so every failure message is compared byte for byte.

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
# (name, docs, classes, rank, seed); every dataset has 32 columns.
DATASETS = (("a", 80, 3, 4, 1), ("b", 64, 2, 3, 2), ("c", 72, 4, 4, 3))
DIM = 32
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
    cmds += [
        ["stats", "--records", "results_t1/results.json", "--step", "2"],
        ["report", "--records", "results_t1/results.json", "--out", "report", "--step", "2"],
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
        ["evaluate", "--input", "compress/svd-rec-k2/step_2.core", "--baseline", "data/a.core",
         "--labels", "data/a.labels", "--seed", "7", "--out", "evaluate.json"],
        ["compress", "--input", "short/short.core", "--spec", "specs/svd-exact.json", "--mode", "dir",
         "--out", "compress/short"],
        ["compress", "--input", "data/a.core", "--spec", "specs/diverging.json", "--out", "compress/diverging"],
    ]
    for name in BAD_CSV:
        cmds.append(["compress", "--input", f"bad/{name}.csv", "--format", "csv", "--spec", "specs/svd.json",
                     "--out", f"compress/bad-{name}"])
    return cmds


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
    Path("cfg.json").write_text(json.dumps({
        "manifest": "data/manifest.json",
        "specs": [_spec(kind, i + 1) for i, kind in enumerate(KINDS)],
        "kappa": 2,
        "modes": ["recursive", "direct"],
        "folds": 2,
        "repeats": 1,
        "seed": 42,
        "out_dir": "results",
    }))
    with open("log.txt", "w") as log:
        for cmd in flow_commands():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(cmd)
            log.write(f"$ core {' '.join(cmd)}\nexit {code}\n{stdout.getvalue()}{stderr.getvalue()}")


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
