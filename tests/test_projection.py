import numpy as np
import pytest

from core.compressors import CompressorSpec, fit, fit_sparse_projection, projection_density, transform
from core.errors import CompressorError


def test_same_seed_identical():
    a = fit_sparse_projection(200, 32, seed=5).matrix
    b = fit_sparse_projection(200, 32, seed=5).matrix
    assert (a != b).nnz == 0


def test_different_seed_differs():
    a = fit_sparse_projection(200, 32, seed=5).matrix
    b = fit_sparse_projection(200, 32, seed=6).matrix
    assert (a != b).nnz > 0


def test_density_within_three_sigma():
    # Binomial model: each of d_in*d_out entries is nonzero with p = 1/sqrt(d_in).
    matrix = fit_sparse_projection(10000, 64, seed=0).matrix
    n = 10000 * 64
    p = projection_density(10000)
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(matrix.nnz - n * p) <= 3 * sigma


def test_nonzero_values():
    s = projection_density(400)
    expected = np.sqrt(1.0 / (s * 16))
    values = fit_sparse_projection(400, 16, seed=1).matrix.data
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
