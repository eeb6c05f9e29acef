import numpy as np
import pytest

from core.compressors import CompressorSpec, cluster, fit, fit_cluster_aggregate, transform
from core.errors import CompressorError


def brute_force_two_clustering(points):
    """Exhaustive optimal 2-partition of points by within-cluster squared distance."""
    n = len(points)
    best, best_mask = np.inf, None
    for bits in range(1, 2 ** (n - 1)):  # point 0 always in cluster 0
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        inertia = 0.0
        for part in (points[mask], points[~mask]):
            if len(part) == 0:
                break
            inertia += float(np.sum((part - part.mean(axis=0)) ** 2))
        else:
            if inertia < best:
                best, best_mask = inertia, mask
    return best, best_mask


def test_two_block_columns_recovered_exactly():
    rng = np.random.default_rng(7)
    c1 = rng.standard_normal(20)
    c2 = rng.standard_normal(20)
    c2 -= (c2 @ c1) / (c1 @ c1) * c1  # make the two column values orthogonal
    e = np.column_stack([c1] * 4 + [c2] * 4)

    best_inertia, best_mask = brute_force_two_clustering(e.T.copy())
    assert best_inertia == pytest.approx(0.0, abs=1e-20)
    assert set(np.flatnonzero(best_mask).tolist()) in ({0, 1, 2, 3}, {4, 5, 6, 7})

    fc = fit(CompressorSpec("cluster-mean", seed=0), e, 2)
    out = transform(fc, e)
    got = {tuple(np.round(out[:, j], 10)) for j in range(2)}
    assert got == {tuple(np.round(c1, 10)), tuple(np.round(c2, 10))}


@pytest.mark.parametrize("agg", ["max", "mean", "median"])
def test_singleton_clusters_permute_input(agg):
    rng = np.random.default_rng(1)
    e = rng.standard_normal((12, 5))
    fc = fit(CompressorSpec(f"cluster-{agg}", seed=2), e, 5)
    out = transform(fc, e)
    assert sorted(map(tuple, out.T)) == sorted(map(tuple, e.T))


def test_max_aggregation_per_row():
    e = np.array([[1.0, 0.0], [0.0, 1.0]])
    fc = fit(CompressorSpec("cluster-max", seed=0), e, 1)
    out = transform(fc, e)
    np.testing.assert_array_equal(out, [[1.0], [1.0]])


def test_assignment_is_full_partition():
    rng = np.random.default_rng(3)
    e = rng.standard_normal((9, 30)) * np.linspace(0.2, 5.0, 30)
    for k in (2, 7, 13):
        fc = fit(CompressorSpec("cluster-mean", seed=4), e, k)
        a = fc.state.assignment
        assert a.shape == (30,)
        assert set(a.tolist()) == set(range(k))  # no empty clusters after fit


@pytest.mark.parametrize("agg", ["max", "mean", "median"])
def test_duplicate_columns_fill_every_cluster(agg):
    # Identical columns leave all but one cluster empty after the first
    # assignment; each repair must take a point from a cluster that keeps one.
    e = np.tile(np.arange(10.0)[:, None], (1, 8))
    fc = fit(CompressorSpec(f"cluster-{agg}", seed=0), e, 4)
    assert sorted(set(fc.state.assignment.tolist())) == [0, 1, 2, 3]
    out = transform(fc, e)
    assert out.shape == (10, 4)
    assert np.all(np.isfinite(out))


def test_deterministic_given_seed():
    rng = np.random.default_rng(5)
    e = rng.standard_normal((8, 20))
    a = fit(CompressorSpec("cluster-median", seed=11), e, 4).state.assignment
    b = fit(CompressorSpec("cluster-median", seed=11), e, 4).state.assignment
    np.testing.assert_array_equal(a, b)


def test_agg_and_range_validation():
    e = np.ones((4, 3))
    with pytest.raises(CompressorError, match=r"^d_out must be in \[1, 3\], got 4$"):
        fit(CompressorSpec("cluster-mean"), e, 4)
    with pytest.raises(CompressorError, match="^unknown aggregation 'sum'"):
        fit_cluster_aggregate(e, 2, "sum", seed=0)


# Oracle: k-means++ seeding as written before DistanceRows, kept verbatim so the
# new path is checked bit for bit.
def oracle_kmeans_pp_init(points, k, rng, rows=None):
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        if total <= 0:
            remaining = np.setdiff1d(np.arange(n), chosen)
            idx = int(rng.choice(remaining))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((points - points[idx]) ** 2, axis=1))
    return points[chosen].copy()


def _inputs():
    """Matrices whose columns are the clustered points: generic, rank-1, duplicate and constant columns.

    "tall" has 300 documents, more than numpy's 128-element pairwise-summation block
    and not a multiple of its 8-way unrolling, so each distance sums in split halves.
    """
    rng = np.random.default_rng(21)
    generic = rng.standard_normal((30, 41)) * np.linspace(0.1, 4.0, 41)
    tall = rng.standard_normal((300, 41)) * np.linspace(0.1, 4.0, 41) + 1e3
    rank1 = np.outer(rng.standard_normal(30), rng.standard_normal(41))
    duplicate = np.tile(rng.standard_normal((30, 1)), (1, 41))
    constant = np.tile(rng.standard_normal(41), (30, 1))  # every column constant, values differ
    zeros = np.zeros((30, 41))
    return {
        "generic": generic,
        "tall": tall,
        "rank1": rank1,
        "duplicate": duplicate,
        "constant": constant,
        "zeros": zeros,
    }


# Points per tile: 1 and 3 leave partial tiles at 41 points; None keeps the default, one tile for all.
TILE_POINTS = (1, 3, None)


def _set_tile(monkeypatch, points, tile_points):
    if tile_points is not None:
        monkeypatch.setattr(cluster, "_TILE_BYTES", tile_points * points[:1].nbytes)


@pytest.mark.parametrize("tile_points", TILE_POINTS)
@pytest.mark.parametrize("name", _inputs())
def test_distance_rows_equal_per_row_expression(monkeypatch, tile_points, name):
    points = _inputs()[name].T.copy()
    _set_tile(monkeypatch, points, tile_points)
    rows = cluster.DistanceRows(points)
    # A shuffled order reads most rows after some of their mirrors are known.
    for i in np.random.default_rng(3).permutation(len(points)):
        want = np.sum((points - points[i]) ** 2, axis=1)
        assert rows[i].tobytes() == want.tobytes()
        assert rows[i].tobytes() == want.tobytes()


@pytest.mark.parametrize("tile_points", TILE_POINTS)
@pytest.mark.parametrize("name", _inputs())
def test_kmeans_pp_centres_equal_oracle(monkeypatch, tile_points, name):
    points = _inputs()[name].T.copy()
    _set_tile(monkeypatch, points, tile_points)
    shared = cluster.DistanceRows(points)  # read by every seeding below, as in a direct run
    for k in (1, 2, 7, 20, 41):
        for seed in (0, 5):
            want = oracle_kmeans_pp_init(points, k, np.random.default_rng(seed)).tobytes()
            assert cluster._kmeans_pp_init(points, k, np.random.default_rng(seed), shared).tobytes() == want
            fresh = cluster.DistanceRows(points)
            assert cluster._kmeans_pp_init(points, k, np.random.default_rng(seed), fresh).tobytes() == want


@pytest.mark.parametrize("agg", ["max", "mean", "median"])
@pytest.mark.parametrize("name", _inputs())
def test_fit_and_apply_equal_oracle(monkeypatch, agg, name):
    e = _inputs()[name]
    spec = CompressorSpec(f"cluster-{agg}")
    for k in (1, 3, 20, 21, 41):
        got = fit(spec.with_seed(k), e, k)
        out = transform(got, e)
        with monkeypatch.context() as m:
            m.setattr(cluster, "_kmeans_pp_init", oracle_kmeans_pp_init)
            want = fit(spec.with_seed(k), e, k)
            assert got.state.assignment.tobytes() == want.state.assignment.tobytes()
            assert out.tobytes() == transform(want, e).tobytes()
