import numpy as np
import pytest

from core.compressors import CompressorSpec, fit, fit_random_subspace, transform
from core.errors import CompressorError


def random_subspace(e, d, seed):
    return transform(fit(CompressorSpec("random-subspace", seed=seed), e, d), e)


def test_full_subspace_keeps_all_columns_and_normalizes():
    rng = np.random.default_rng(0)
    e = rng.standard_normal((15, 6))
    out = random_subspace(e, 6, seed=1)
    norms = np.linalg.norm(out, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    assert sorted(fit_random_subspace(6, 6, seed=1).columns.tolist()) == list(range(6))


def test_selected_indices_distinct():
    cols = fit_random_subspace(50, 20, seed=3).columns
    assert len(cols) == 20
    assert len(set(cols.tolist())) == 20
    assert cols.min() >= 0 and cols.max() < 50


def test_zero_row_stays_zero():
    e = np.vstack([np.zeros(8), np.ones(8)])
    out = random_subspace(e, 4, seed=0)
    assert np.all(out[0] == 0.0)
    np.testing.assert_allclose(np.linalg.norm(out[1]), 1.0)


def test_deterministic():
    rng = np.random.default_rng(9)
    e = rng.standard_normal((10, 12))
    assert np.all(random_subspace(e, 5, seed=4) == random_subspace(e, 5, seed=4))


def test_d_out_too_large():
    with pytest.raises(CompressorError, match=r"^d_out must be in \[1, 4\], got 5$"):
        random_subspace(np.ones((3, 4)), 5, seed=0)
