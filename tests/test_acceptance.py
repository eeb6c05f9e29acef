"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import json
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from core.compressors import (
    CompressorSpec,
    exact_truncated_svd,
    randomized_truncated_svd,
)
from core.compressors.autoencoder import (
    init_params,
    reconstruction_loss_and_grads,
    sample_dropout_masks,
)
from core.evaluation import (
    epsilon_f1,
    evaluate_matrices,
    evaluate_representation,
    logreg_loss_and_grad,
    micro_f1,
)
from core.experiment import make_synthetic_dataset, write_synthetic_dataset
from core.pipeline import compress_direct, compress_recursive, dimension_schedule, estimate_cost, mix64
from core.report import ResultsTable, emit_cd_svg, emit_performance_svg, emit_tsv, load_results
from core.evaluation import EvaluationRecord
from core.stats import average_ranks, friedman_test, nemenyi_cd

SVG_NS = "{http://www.w3.org/2000/svg}"


def check(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_schedule():
    elapsed = min(
        (lambda t0: (dimension_schedule(768, 2), time.perf_counter() - t0))(time.perf_counter())[1]
        for _ in range(5)
    )
    dims = dimension_schedule(768, 2).dims
    check(
        1,
        "dimension_schedule(768, 2) -> 9 steps [384..2] in under 1 ms",
        dims == (384, 192, 96, 48, 24, 12, 6, 3, 2) and elapsed < 1e-3,
    )


def test_criterion_2_cost_model():
    ok = True
    for kappa in (2, 3, 4):
        for k in range(1, 7):
            est = estimate_cost(kappa ** (k + 1), kappa, k)
            closed = kappa**3 * (kappa ** (2 * k) - 1) // (kappa**2 - 1)
            ok &= est.total == closed
            ok &= est.first_step_fraction >= (kappa**2 - 1) / kappa**2
    check(2, "cost sum matches closed form exactly; first-step fraction >= (k^2-1)/k^2", ok)


def test_criterion_3_svd_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(50):
        rows = int(rng.integers(20, 129))
        cols = int(rng.integers(20, 129))
        d_out = int(rng.integers(1, min(rows, cols) // 2 + 1))
        e = rng.standard_normal((rows, cols))
        v_exact, _ = exact_truncated_svd(e, d_out)
        v_rand, _ = randomized_truncated_svd(e, d_out, seed=int(rng.integers(2**31)))
        err_e = np.linalg.norm(e - (e @ v_exact) @ v_exact.T)
        err_r = np.linalg.norm(e - (e @ v_rand) @ v_rand.T)
        ok &= err_r <= 1.05 * err_e

    for trial in range(5):
        u, _ = np.linalg.qr(rng.standard_normal((60, 24)))
        v, _ = np.linalg.qr(rng.standard_normal((24, 24)))
        e0 = (u * np.geomspace(20.0, 1.0, 24)) @ v.T  # distinct singular values
        spec = CompressorSpec("svd-exact")
        schedule = dimension_schedule(24, 2)
        rec = compress_recursive(e0, spec, schedule)
        dir_ = compress_direct(e0, spec, schedule)
        for a, b in zip(rec.steps, dir_.steps):
            for j in range(a.dim):
                delta = min(
                    np.abs(a.output[:, j] - b.output[:, j]).max(),
                    np.abs(a.output[:, j] + b.output[:, j]).max(),
                )
                ok &= delta < 1e-8
    elapsed = time.perf_counter() - t0
    check(3, f"randomized SVD within 1.05x of exact; recursive == direct up to sign ({elapsed:.1f}s)", ok and elapsed < 30)


def _flat(grads):
    parts = [g.ravel() for g in grads["weights"]]
    parts += [g.ravel() for g in grads["biases"] if g is not None]
    return np.concatenate(parts)


def _ae_instance_ok(rng, size):
    d_in = int(rng.integers(3, 6))
    d_out = int(rng.integers(1, 3))
    n = int(rng.integers(3, 7))
    x = rng.standard_normal((n, d_in))
    p = replace(init_params(d_in, d_out, size, rng), dropout_rate=0.25)
    masks = sample_dropout_masks(p, n, rng)
    _, grads = reconstruction_loss_and_grads(p, x, masks)
    analytic = _flat(grads)
    numeric = []
    h = 1e-6
    for arr in list(p.weights) + [b for b in p.biases if b is not None]:
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = reconstruction_loss_and_grads(p, x, masks)
            flat[i] = orig - h
            lm, _ = reconstruction_loss_and_grads(p, x, masks)
            flat[i] = orig
            numeric.append((lp - lm) / (2 * h))
    numeric = np.array(numeric)
    rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), np.linalg.norm(numeric))
    return rel < 1e-5


def _logreg_instance_ok(rng):
    n, d, n_classes = int(rng.integers(4, 9)), int(rng.integers(2, 5)), int(rng.integers(2, 4))
    x = rng.standard_normal((n, d))
    y = rng.integers(0, n_classes, size=n)
    y[: n_classes] = np.arange(n_classes)  # every class present
    theta = rng.standard_normal(n_classes * (d + 1)) * 0.7
    _, analytic = logreg_loss_and_grad(theta, x, y, n_classes, 1.0)
    h = 1e-6
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        numeric[i] = (
            logreg_loss_and_grad(up, x, y, n_classes, 1.0)[0]
            - logreg_loss_and_grad(down, x, y, n_classes, 1.0)[0]
        ) / (2 * h)
    rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
    return rel < 1e-5


def test_criterion_4_gradient_checks():
    rng = np.random.default_rng(1)
    results = [_ae_instance_ok(rng, "small") for _ in range(8)]
    results += [_ae_instance_ok(rng, "large") for _ in range(6)]
    results += [_logreg_instance_ok(rng) for _ in range(8)]
    check(4, f"analytic gradients match central differences on {len(results)} instances (rel < 1e-5)", all(results))


@pytest.fixture(scope="module")
def synthetic_sweep():
    """Per-seed epsilon-F1 of recursive SVD (all steps) and random subspace (step 3)."""
    t0 = time.perf_counter()
    out = []
    for seed in range(5):
        e, labels = make_synthetic_dataset(600, 4, 8, 64, seed=seed)
        schedule = dimension_schedule(64, 2)
        base = evaluate_representation(e, labels, 3, 3, seed=seed)
        per_kind = {}
        for kind in ("svd", "random-subspace"):
            runs = [
                compress_recursive(e, CompressorSpec(kind, seed=mix64(seed, r)), schedule)
                for r in range(3)
            ]
            eps = []
            for i in range(schedule.steps):
                mats = [run.steps[i].output for run in runs]
                res = evaluate_matrices(mats, labels, 3, seed=seed)
                eps.append(epsilon_f1(res.mean_f1, base.mean_f1))
            per_kind[kind] = eps
        out.append((schedule.dims, per_kind))
    return out, time.perf_counter() - t0


def test_criterion_5_first_steps_benign(synthetic_sweep):
    sweeps, elapsed = synthetic_sweep
    good = 0
    for dims, per_kind in sweeps:
        eps = per_kind["svd"]
        ok = all(e >= -0.02 for d, e in zip(dims, eps) if d >= 8)
        ok &= all(e >= -0.05 for d, e in zip(dims, eps) if d >= 4)
        good += ok
    check(
        5,
        f"recursive SVD benign above the intrinsic rank on {good}/5 seeds ({elapsed:.0f}s)",
        good >= 4 and elapsed < 120,
    )


def test_criterion_6_random_subspace_degrades(synthetic_sweep):
    sweeps, _ = synthetic_sweep
    good = sum(per_kind["random-subspace"][2] < per_kind["svd"][2] for _, per_kind in sweeps)
    check(6, f"random subspace strictly worse than recursive SVD at step 3 on {good}/5 seeds", good >= 4)


def test_criterion_7_micro_f1_is_accuracy():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(2, 7))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        ok &= micro_f1(pred, truth) == np.mean(pred == truth)
    check(7, "micro-F1 equals accuracy exactly on 1000 random prediction vectors", ok)


def test_criterion_8_statistics():
    unanimous = friedman_test(average_ranks(np.tile([0.9, 0.6, 0.3], (4, 1))))
    ok = unanimous.chi2_f == pytest.approx(8.0, abs=1e-12)

    for k in (3, 7, 12):
        for n in (5, 17):
            ok &= nemenyi_cd(k, 4 * n, 0.05).cd * 2.0 == nemenyi_cd(k, n, 0.05).cd

    rng = np.random.default_rng(3)
    x = np.hstack([rng.standard_normal((24, 3)) + c for c in (0.0, 2.5)]).reshape(24, 6)
    labels_ids = np.arange(24) % 2
    from core.io import Labels
    from core.compressors import fit, transform

    labels = Labels(ids=labels_ids, names=("a", "b"))
    permuted = transform(fit(CompressorSpec("cluster-mean", seed=1), x, 6), x)
    base = evaluate_representation(x, labels, seed=11)
    comp = evaluate_representation(permuted, labels, seed=11)
    ok &= epsilon_f1(comp.mean_f1, base.mean_f1) == 0.0
    check(8, "Friedman chi2 = 8; CD(k,4N) = CD(k,N)/2 exact; identity epsilon-F1 = 0", ok)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_run")
    entry = write_synthetic_dataset(root, "tiny", docs=36, classes=3, rank=4, dim=16, seed=6)
    (root / "manifest.json").write_text(json.dumps([entry]))
    cfg = {
        "manifest": str(root / "manifest.json"),
        "specs": [{"kind": "svd", "seed": 1}, {"kind": "cluster-mean", "seed": 2}],
        "modes": ["recursive", "direct"],
        "repeats": 2,
        "seed": 13,
    }
    (root / "cfg.json").write_text(json.dumps(cfg))
    outputs = {}
    for threads in (1, 4, 8):
        payloads = []
        out_dir = root / f"out_t{threads}"
        for _attempt in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "core", "run", "--config", str(root / "cfg.json"),
                 "--threads", str(threads), "--out", str(out_dir)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            payloads.append((out_dir / "results.json").read_bytes())
        outputs[threads] = payloads
    return root, outputs


def test_criterion_9_run_determinism(cli_run):
    _, outputs = cli_run
    ok = all(a == b for a, b in outputs.values())
    # Records must also agree across thread counts (only the recorded
    # thread-count config knob may differ).
    stripped = []
    for a, _ in outputs.values():
        doc = json.loads(a)
        doc["meta"]["config"]["threads"] = None
        doc["meta"]["config"]["out_dir"] = None
        stripped.append(json.dumps(doc, sort_keys=True))
    ok &= len(set(stripped)) == 1
    check(9, "core run is byte-identical across reruns at threads 1, 4, 8", ok)


def test_criterion_10_report_fidelity(cli_run, tmp_path):
    root, _ = cli_run
    table = load_results(root / "out_t1" / "results.json")
    emit_tsv(table, tmp_path / "r.tsv")
    rows = [line.split("\t") for line in (tmp_path / "r.tsv").read_text().splitlines()[1:]]
    by_key = {
        (r.dataset, r.representation, r.compressor, r.mode, str(r.step)): r.epsilon_f1
        for r in table.records
    }
    ok = True
    for row in rows:
        eps = by_key[(row[0], row[1], row[2], row[3], row[4])]
        ok &= (row[-1] == "true") == (eps >= 0)

    def rec(compressor, mode, step, eps):
        return EvaluationRecord("ds", "synthetic", compressor, mode, step, 2 ** (6 - step),
                                0.8, 0.01, eps, 3)

    fixture = ResultsTable(
        records=[rec("svd", "recursive", s, -0.01 * s) for s in (1, 2, 3)]
        + [rec("cluster-max", "direct", s, -0.02 * s) for s in (1, 2, 3)]
    )
    emit_performance_svg(fixture, tmp_path / "perf.svg", margin=0.05)
    perf = ET.parse(tmp_path / "perf.svg").getroot()
    ok &= perf.tag == f"{SVG_NS}svg"
    polylines = perf.findall(f".//{SVG_NS}polyline")
    ok &= len(polylines) == 2 and all(len(p.get("points").split()) == 3 for p in polylines)

    ranks_joined = average_ranks(np.full((4, 3), 0.5))
    emit_cd_svg(ranks_joined, nemenyi_cd(3, 4, 0.05), tmp_path / "cd1.svg")
    cd1 = ET.parse(tmp_path / "cd1.svg").getroot()
    ok &= cd1.tag == f"{SVG_NS}svg"
    ok &= len([e for e in cd1.findall(f".//{SVG_NS}line") if e.get("class") == "group-bar"]) == 1

    ranks_split = average_ranks(np.tile([0.9, 0.1], (40, 1)))
    emit_cd_svg(ranks_split, nemenyi_cd(2, 40, 0.05), tmp_path / "cd2.svg")
    cd2 = ET.parse(tmp_path / "cd2.svg").getroot()
    ok &= len([e for e in cd2.findall(f".//{SVG_NS}line") if e.get("class") == "group-bar"]) == 0
    check(10, "TSV highlight matches sign(epsilon-F1); SVG emitters well-formed with expected elements", ok)
