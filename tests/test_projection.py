import json

import numpy as np
import pytest
from scipy import sparse  # the oracle for the fit's arrays and the product; the program does not import it

from core.compressors import CompressorSpec, fit, fit_sparse_projection, load_fitted, projection_density, transform
from core.compressors.projection import ProjectionState
from core.errors import CompressorError


def _arrays(state):
    return state.data, state.indices, state.indptr


def test_same_seed_identical():
    a = _arrays(fit_sparse_projection(200, 32, seed=5))
    b = _arrays(fit_sparse_projection(200, 32, seed=5))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_different_seed_differs():
    a = _arrays(fit_sparse_projection(200, 32, seed=5))
    b = _arrays(fit_sparse_projection(200, 32, seed=6))
    assert not all(np.array_equal(x, y) for x, y in zip(a, b))


def test_density_within_three_sigma():
    # Binomial model: each of d_in*d_out entries is nonzero with p = 1/sqrt(d_in).
    state = fit_sparse_projection(10000, 64, seed=0)
    n = 10000 * 64
    p = projection_density(10000)
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(len(state.data) - n * p) <= 3 * sigma


def test_nonzero_values():
    s = projection_density(400)
    expected = np.sqrt(1.0 / (s * 16))
    values = fit_sparse_projection(400, 16, seed=1).data
    np.testing.assert_allclose(np.abs(values), expected)
    assert (values > 0).any() and (values < 0).any()


def test_pairwise_distances_preserved():
    # JL check against brute-force distances; frozen seed verified to hold.
    rng = np.random.default_rng(107)
    pts = rng.standard_normal((50, 1000))
    proj = transform(fit(CompressorSpec("sparse-projection", seed=7), pts, 256), pts)
    iu = np.triu_indices(50, 1)
    d_orig = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)[iu]
    d_proj = np.sum((proj[:, None, :] - proj[None, :, :]) ** 2, axis=2)[iu]
    rel = np.abs(d_proj / d_orig - 1.0)
    assert rel.max() < 0.30


def test_d_out_out_of_range():
    with pytest.raises(CompressorError, match=r"^d_out must be in \[1, 10\], got 11$"):
        fit(CompressorSpec("sparse-projection"), np.ones((3, 10)), 11)


def _csr_fit(d_in, d_out, seed):
    """The same draws in the same order as ``fit_sparse_projection``, stored by ``scipy.sparse``."""
    rng = np.random.default_rng(seed)
    density = projection_density(d_in)
    mask = rng.random((d_in, d_out)) < density
    signs = rng.integers(0, 2, size=int(mask.sum())) * 2 - 1
    rows, cols = np.nonzero(mask)
    values = signs.astype(np.float64) * np.sqrt(1.0 / (density * d_out))
    return sparse.csr_array((values, (rows, cols)), shape=(d_in, d_out))


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert (got.flags.c_contiguous, got.flags.f_contiguous, got.strides) == (
        want.flags.c_contiguous, want.flags.f_contiguous, want.strides)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))  # -0.0 differs from 0.0


def _extreme(rng, n, d_in):
    """Signed zeros next to values of 1e+-300 with random signs and mantissas."""
    e = rng.uniform(1.0, 10.0, (n, d_in)) * rng.choice([-1.0, 1.0], (n, d_in))
    e *= 10.0 ** rng.choice([-300, -150, 0, 150, 300], (n, d_in))
    e[rng.random((n, d_in)) < 0.2] = -0.0
    e[rng.random((n, d_in)) < 0.1] = 0.0
    return e


# (documents, d_in, d_out, input): the input is C-ordered normal unless named otherwise.
PRODUCT_CASES = {
    "2000x384-to-192": (2000, 384, 192, "normal"),
    "d_out-1": (50, 64, 1, "normal"),
    "d_in-equals-d_out": (40, 32, 32, "normal"),
    "3-documents": (3, 64, 16, "normal"),
    "1-document": (1, 64, 16, "normal"),
    "f-ordered-input": (100, 64, 16, "fortran"),
    "signed-zeros-and-1e300": (200, 100, 10, "extreme"),
}


@pytest.mark.parametrize("n, d_in, d_out, kind", PRODUCT_CASES.values(), ids=PRODUCT_CASES.keys())
def test_fit_and_apply_match_scipy_sparse(n, d_in, d_out, kind):
    state = fit_sparse_projection(d_in, d_out, seed=11)
    want = _csr_fit(d_in, d_out, seed=11)
    for got, ref in zip(_arrays(state), (want.data, want.indices, want.indptr)):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)
    rng = np.random.default_rng(d_in + d_out)
    e = _extreme(rng, n, d_in) if kind == "extreme" else rng.standard_normal((n, d_in))
    if kind == "fortran":
        e = np.asfortranarray(e)
    _assert_same_bits(state.apply(e), e @ want)


def test_apply_allocates_the_output_and_one_block_of_columns():
    import tracemalloc

    from core.compressors.projection import _BLOCK

    state = fit_sparse_projection(384, 192, seed=11)
    e = np.random.default_rng(0).standard_normal((2000, 384))
    tracemalloc.start()
    try:
        out = state.apply(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The output, one block of input columns and a row of products at a time, with a row to spare
    # for small objects; a transposed copy of e alone would take 6 MB here.
    assert peak < out.nbytes + (_BLOCK + 2) * e.shape[0] * e.itemsize


def _blob(data, indices, indptr, d_in, d_out):
    blob = {"proj_data": np.asarray(data), "proj_indices": np.asarray(indices),
            "proj_indptr": np.asarray(indptr)}
    return blob, {"kind": "sparse-projection", "input_dim": d_in, "output_dim": d_out}


def test_empty_row_and_column_match_scipy_sparse():
    # Row 1 has no nonzero; columns 1 and 3 have none. Column 0 sums two terms.
    blob, meta = _blob([2.0, -1.5, 0.5], [0, 2, 0], [0, 2, 2, 3], 3, 4)
    state = ProjectionState.from_arrays(blob, meta)
    want = sparse.csr_array((blob["proj_data"], blob["proj_indices"], blob["proj_indptr"]), shape=(3, 4))
    e = np.array([[1.0, 5.0, -0.0], [-0.0, 2.0, -0.0], [3.0, -7.0, 0.25]])
    _assert_same_bits(state.apply(e), e @ want)
    assert state.apply(e)[0].tolist() == [2.0, 0.0, -1.5, 0.0]


# (blob fields, d_in, d_out, message) of saved states that describe no (d_in, d_out) matrix.
BAD_STATES = {
    "index-past-d_out": (([1.0, 1.0], [0, 5], [0, 1, 2]), 2, 3, r"proj_indices must be in \[0, 3\), got 5"),
    "negative-index": (([1.0], [-1], [0, 1]), 1, 3, r"proj_indices must be in \[0, 3\), got -1"),
    "short-indptr": (([1.0, 1.0], [0, 1], [0, 2]), 2, 3, r"proj_indptr must have input_dim \+ 1 = 3 entries, got 2"),
    "indptr-from-1": (([1.0, 1.0], [0, 1], [1, 1, 2]), 2, 3, "proj_indptr must start at 0, got 1"),
    "indptr-decreases": (([1.0, 1.0], [0, 1], [0, 3, 2]), 2, 3, "proj_indptr must never decrease"),
    "indptr-past-nnz": (([1.0, 1.0], [0, 1], [0, 1, 3]), 2, 3, "proj_indptr must end at the 2 entries of proj_data, got 3"),
    "indices-short": (([1.0, 1.0], [0], [0, 1, 2]), 2, 3, "proj_indices must have the 2 entries of proj_data, got 1"),
    "float-indices": (([1.0], [0.0], [0, 1]), 1, 3,
                      r"proj_indices must be a 1-D array of integers, got float64 of shape \(1,\)"),
    "2-d-data": (([[1.0], [1.0]], [0, 1], [0, 1, 2]), 2, 3,
                 r"proj_data must be a 1-D array of floats, got float64 of shape \(2, 1\)"),
    "integer-data": (([1], [0], [0, 1]), 1, 3, r"proj_data must be a 1-D array of floats, got int64 of shape \(1,\)"),
}


@pytest.mark.parametrize("fields, d_in, d_out, message", BAD_STATES.values(), ids=BAD_STATES.keys())
def test_load_rejects_malformed_state(tmp_path, fields, d_in, d_out, message):
    blob, meta = _blob(*fields, d_in, d_out)
    path = tmp_path / "state.npz"
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **blob)
    with pytest.raises(CompressorError, match=f"^{message}$"):
        load_fitted(path)
