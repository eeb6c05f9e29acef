import numpy as np
import pytest

from core.compressors import CompressorSpec, exact_truncated_svd, fit, randomized_truncated_svd, transform
from core.errors import CompressorError

EXACT = CompressorSpec("svd-exact")


def truncated_reconstruction_error(e, components):
    return np.linalg.norm(e - (e @ components) @ components.T)


def test_exact_svd_score_norms():
    e = np.diag([3.0, 2.0, 1.0])
    out = transform(fit(EXACT, e, 2), e)
    np.testing.assert_allclose(np.linalg.norm(out, axis=0), [3.0, 2.0], atol=1e-12)


def test_exact_rank_preserves_inner_products():
    rng = np.random.default_rng(0)
    e = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 8))
    out = transform(fit(EXACT, e, 2), e)
    np.testing.assert_allclose(out @ out.T, e @ e.T, atol=1e-6)


def test_randomized_close_to_exact():
    # Oracle: exact truncated SVD gives the optimal Frobenius error.
    rng = np.random.default_rng(1)
    e = rng.standard_normal((100, 64))
    exact = fit(EXACT, e, 32)
    rand = fit(CompressorSpec("svd", seed=0), e, 32)
    err_exact = truncated_reconstruction_error(e, exact.state.components)
    err_rand = truncated_reconstruction_error(e, rand.state.components)
    assert err_rand <= 1.05 * err_exact


def test_randomized_deterministic():
    rng = np.random.default_rng(2)
    e = rng.standard_normal((30, 16))
    a = transform(fit(CompressorSpec("svd", seed=9), e, 4), e)
    b = transform(fit(CompressorSpec("svd", seed=9), e, 4), e)
    assert np.all(a == b)


def test_d_out_out_of_range():
    e = np.ones((5, 3))
    with pytest.raises(CompressorError, match=r"^d_out must be in \[1, 3\], got 4$"):
        fit(EXACT, e, 4)
    with pytest.raises(CompressorError, match=r"^d_out must be in \[1, 3\], got 0$"):
        fit(EXACT, e, 0)


@pytest.mark.parametrize("svd", [lambda e, d: exact_truncated_svd(e, d), lambda e, d: randomized_truncated_svd(e, d, 0)])
def test_d_out_limited_by_rows(svd):
    # Fewer rows than d_out: the range check of fit passes, the SVD's own check does not.
    e = np.ones((3, 5))
    with pytest.raises(CompressorError, match=r"^d_out must be in \[1, 3\] for a 3x5 matrix, got 4$"):
        svd(e, 4)


def test_transform_shape_and_new_data():
    rng = np.random.default_rng(3)
    e = rng.standard_normal((40, 10))
    fc = fit(EXACT, e, 5)
    other = rng.standard_normal((7, 10))
    assert transform(fc, other).shape == (7, 5)


def test_exact_columns_match_score_matrix_up_to_sign():
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.standard_normal((12, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = np.array([9.0, 6.5, 4.0, 2.5, 1.2, 0.5])
    e = u @ np.diag(s) @ v.T
    out = transform(fit(EXACT, e, 3), e)
    expected = u[:, :3] * s[:3]
    for j in range(3):
        assert min(
            np.abs(out[:, j] - expected[:, j]).max(),
            np.abs(out[:, j] + expected[:, j]).max(),
        ) < 1e-9
