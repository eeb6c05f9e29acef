import numpy as np
import pytest

from core.compressors import CompressorSpec, save_fitted, load_fitted, fit, transform
from core.errors import CompressionStepError, ScheduleError
from core.pipeline import (
    compress_direct,
    compress_recursive,
    dimension_schedule,
    estimate_cost,
    mix64,
    next_dim,
)


def test_schedule_768_kappa2():
    s = dimension_schedule(768, 2)
    assert s.dims == (384, 192, 96, 48, 24, 12, 6, 3, 2)
    assert s.steps == 9


def test_schedule_powers_of_two():
    assert dimension_schedule(8, 2).dims == (4, 2)


def test_schedule_768_kappa4():
    # Oracle: direct recurrence evaluation d -> max(d // 4, 4).
    dims, d = [], 768
    while True:
        nxt = max(d // 4, 4)
        if nxt == d:
            break
        dims.append(nxt)
        d = nxt
    assert dims == [192, 48, 12, 4]
    assert dimension_schedule(768, 4).dims == tuple(dims)


def test_schedule_rejects_bad_kappa():
    with pytest.raises(ScheduleError):
        dimension_schedule(100, 1)


def test_schedule_empty_is_error():
    with pytest.raises(ScheduleError, match="empty"):
        dimension_schedule(2, 2)
    with pytest.raises(ScheduleError, match="empty"):
        dimension_schedule(3, 4)


def test_schedule_idempotent_past_termination():
    for d0, kappa in [(768, 2), (768, 4), (100, 3), (17, 2)]:
        last = dimension_schedule(d0, kappa).dims[-1]
        assert next_dim(last, kappa) == last


def test_mix64_spreads_and_is_stable():
    assert len({mix64(0, i) for i in range(1000)}) == 1000
    assert len({mix64(s, 3) for s in range(1000)}) == 1000
    assert mix64(42, 7) == mix64(42, 7)
    assert 0 <= mix64(2**63, 2**31) < 2**64


def _spectral_matrix(rng, rows, cols, lo=1.0, hi=10.0):
    """Full-rank matrix with well-separated singular values."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    s = np.geomspace(hi, lo, cols)
    return (u * s) @ v.T


def _match_up_to_sign(a, b, tol):
    assert a.shape == b.shape
    for j in range(a.shape[1]):
        delta = min(np.abs(a[:, j] - b[:, j]).max(), np.abs(a[:, j] + b[:, j]).max())
        assert delta < tol, f"column {j}: {delta}"


def test_recursive_equals_direct_for_exact_svd():
    # SVD of the score matrix U*S re-yields the leading subspace, so each
    # recursive step must match the direct truncation up to column signs.
    rng = np.random.default_rng(0)
    e0 = _spectral_matrix(rng, 40, 16)
    spec = CompressorSpec("svd-exact")
    schedule = dimension_schedule(16, 2)
    rec = compress_recursive(e0, spec, schedule)
    dir_ = compress_direct(e0, spec, schedule)
    for r_step, d_step in zip(rec.steps, dir_.steps):
        _match_up_to_sign(r_step.output, d_step.output, 1e-8)


def test_run_outputs_follow_schedule_dims():
    rng = np.random.default_rng(1)
    e0 = rng.standard_normal((25, 12))
    schedule = dimension_schedule(12, 2)
    run = compress_recursive(e0, CompressorSpec("sparse-projection", seed=3), schedule)
    assert [s.dim for s in run.steps] == [6, 3, 2]
    for s in run.steps:
        assert s.output.shape == (25, s.dim)


def test_run_deterministic():
    rng = np.random.default_rng(2)
    e0 = rng.standard_normal((20, 8))
    spec = CompressorSpec("random-subspace", seed=99)
    schedule = dimension_schedule(8, 2)
    a = compress_recursive(e0, spec, schedule)
    b = compress_recursive(e0, spec, schedule)
    for sa, sb in zip(a.steps, b.steps):
        assert np.all(sa.output == sb.output)
        assert sa.seed == sb.seed


def test_direct_steps_independent_of_order():
    rng = np.random.default_rng(3)
    e0 = rng.standard_normal((30, 16))
    spec = CompressorSpec("svd-exact")
    schedule = dimension_schedule(16, 2)
    run = compress_direct(e0, spec, schedule)
    for step in run.steps:
        fc = fit(spec.with_seed(step.seed), e0, step.dim)
        assert np.all(transform(fc, e0) == step.output)


def test_cluster_mean_direct_full_width_is_permutation():
    rng = np.random.default_rng(4)
    e0 = rng.standard_normal((10, 6))
    fc = fit(CompressorSpec("cluster-mean", seed=0), e0, 6)
    out = transform(fc, e0)
    assert sorted(map(tuple, out.T)) == sorted(map(tuple, e0.T))


def test_step_errors_annotated():
    e0 = np.ones((3, 8))  # only 3 rows: SVD to 4 dims fails at step 1
    schedule = dimension_schedule(8, 2)
    with pytest.raises(CompressionStepError, match="step 1"):
        compress_recursive(e0, CompressorSpec("svd-exact"), schedule)


def test_spill_callback_matches_retained_outputs():
    rng = np.random.default_rng(5)
    e0 = rng.standard_normal((18, 8))
    spec = CompressorSpec("sparse-projection", seed=1)
    schedule = dimension_schedule(8, 2)
    seen = {}
    run = compress_recursive(
        e0, spec, schedule, retain=False, on_step=lambda i, d, m, fc: seen.setdefault(i, m)
    )
    assert all(s.output is None for s in run.steps)
    retained = compress_recursive(e0, spec, schedule)
    for step in retained.steps:
        assert np.all(seen[step.step] == step.output)


def test_fitted_state_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    e0 = rng.standard_normal((20, 10))
    for kind in ("svd", "svd-exact", "sparse-projection", "random-subspace", "cluster-median"):
        fc = fit(CompressorSpec(kind, seed=2), e0, 4)
        path = tmp_path / f"{kind}.npz"
        save_fitted(fc, path)
        back = load_fitted(path)
        assert back.kind == fc.kind
        assert (back.input_dim, back.output_dim) == (10, 4)
        assert np.all(transform(back, e0) == transform(fc, e0))


def test_fitted_neural_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    e0 = rng.standard_normal((12, 6))
    fc = fit(CompressorSpec("neural-large", seed=1, params={"max_epochs": 5}), e0, 2)
    save_fitted(fc, tmp_path / "ae.npz")
    back = load_fitted(tmp_path / "ae.npz")
    assert np.all(transform(back, e0) == transform(fc, e0))
    assert back.state.train_meta["epochs_run"] == 5


def test_cost_model_example():
    est = estimate_cost(8, 2, 2, gamma=1, docs=1)
    assert est.per_step == (32, 8)
    assert est.total == 40
    assert est.total == 2**3 * (2**4 - 1) // (2**2 - 1)
    assert est.first_step_fraction == pytest.approx(0.8)


@pytest.mark.parametrize("kappa", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_cost_closed_form(kappa, k):
    d0 = kappa ** (k + 1)
    est = estimate_cost(d0, kappa, k)
    assert est.total == kappa**3 * (kappa ** (2 * k) - 1) // (kappa**2 - 1)
    assert est.first_step_fraction >= (kappa**2 - 1) / kappa**2


def test_cost_single_step():
    for kappa in (2, 3, 5):
        est = estimate_cost(kappa**2, kappa, 1)
        assert est.total == kappa**3


def test_cost_fraction_bound_kappa2():
    for k in range(1, 9):
        assert estimate_cost(2 ** (k + 1), 2, k).first_step_fraction >= 0.75


def test_cost_scales_with_gamma_and_docs():
    base = estimate_cost(16, 2, 3)
    scaled = estimate_cost(16, 2, 3, gamma=7, docs=11)
    assert scaled.total == base.total * 77


def test_retained_memory_bound():
    # Total retained values stay under |D| * d0 * kappa / (kappa - 1).
    rng = np.random.default_rng(8)
    for kappa in (2, 3):
        e0 = rng.standard_normal((30, 54))
        schedule = dimension_schedule(54, kappa)
        run = compress_recursive(e0, CompressorSpec("random-subspace", seed=0), schedule)
        retained = sum(s.output.size for s in run.steps)
        assert retained < e0.size * kappa / (kappa - 1)


def _npz_members(path):
    with np.load(path) as blob:
        return {name: blob[name].tobytes() for name in blob.files}


SHARED_WORK_KINDS = ("svd-exact", "cluster-max", "cluster-mean", "cluster-median")


@pytest.mark.parametrize("kappa", [2, 3, 4])
@pytest.mark.parametrize("kind", SHARED_WORK_KINDS)
def test_direct_shared_work_equals_independent_fits(tmp_path, kind, kappa):
    # Direct mode prepares once on e0 for the whole schedule; each step must equal
    # a fit that prepares for its own dimension alone, output and state bit for bit.
    rng = np.random.default_rng(9)
    e0 = rng.standard_normal((40, 54)) * np.linspace(0.5, 3.0, 54)
    spec = CompressorSpec(kind, seed=4)
    schedule = dimension_schedule(54, kappa)

    def save_state(i, dim, out, fc):
        save_fitted(fc, tmp_path / f"direct_{i}.npz")

    run = compress_direct(e0, spec, schedule, on_step=save_state)
    for step in run.steps:
        fc = fit(spec.with_seed(step.seed), e0, step.dim)
        assert transform(fc, e0).tobytes() == step.output.tobytes()
        save_fitted(fc, tmp_path / f"alone_{step.step}.npz")
        assert _npz_members(tmp_path / f"alone_{step.step}.npz") == _npz_members(tmp_path / f"direct_{step.step}.npz")


def _degenerate_inputs():
    rng = np.random.default_rng(10)
    return {
        "rank1": np.outer(rng.standard_normal(24), rng.standard_normal(32)),
        "constant-columns": np.tile(rng.standard_normal(32), (24, 1)),
        "zeros": np.zeros((24, 32)),
    }


@pytest.mark.parametrize("name", _degenerate_inputs())
@pytest.mark.parametrize("kind", SHARED_WORK_KINDS[1:])
@pytest.mark.parametrize("compress", [compress_recursive, compress_direct])
def test_degenerate_cluster_runs_equal_oracle(monkeypatch, name, kind, compress):
    from core.compressors import cluster
    from test_cluster import oracle_kmeans_pp_init

    e0 = _degenerate_inputs()[name]
    spec = CompressorSpec(kind, seed=3)
    schedule = dimension_schedule(32, 2)
    got = compress(e0, spec, schedule)
    monkeypatch.setattr(cluster, "_kmeans_pp_init", oracle_kmeans_pp_init)
    want = compress(e0, spec, schedule)
    assert [s.output.tobytes() for s in got.steps] == [s.output.tobytes() for s in want.steps]
