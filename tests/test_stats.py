import numpy as np
import pytest
from scipy import stats as sps

from core.errors import StatsError
from core.stats import (
    CriticalDistance,
    RankGroup,
    average_ranks,
    cd_diagram_layout,
    friedman_test,
    nemenyi_cd,
)


def test_average_ranks_two_methods():
    r = average_ranks(np.array([[0.9, 0.8], [0.7, 0.6]]))
    np.testing.assert_array_equal(r.avg_ranks, [1.0, 2.0])


def test_average_ranks_tie_convention():
    r = average_ranks(np.array([[0.5, 0.5]]))
    np.testing.assert_array_equal(r.ranks[0], [1.5, 1.5])


def test_average_ranks_all_identical():
    r = average_ranks(np.full((4, 5), 0.3))
    np.testing.assert_array_equal(r.avg_ranks, [3.0] * 5)


def test_average_ranks_row_sums():
    rng = np.random.default_rng(0)
    scores = rng.random((6, 7))
    r = average_ranks(scores)
    k = 7
    np.testing.assert_allclose(r.ranks.sum(axis=1), k * (k + 1) / 2)


def test_average_ranks_rejects_non_finite():
    with pytest.raises(StatsError):
        average_ranks(np.array([[0.1, np.nan]]))


def test_friedman_identical_methods():
    res = friedman_test(average_ranks(np.full((5, 3), 0.5)))
    assert res.chi2_f == 0.0
    assert res.p_value == 1.0


def test_friedman_unanimous_rankings():
    # Hand evaluation: k=3, N=4, rank sums (4, 8, 12) give chi2 = 8;
    # chi-square survival with 2 dof at 8 is exp(-4).
    scores = np.tile([0.9, 0.6, 0.3], (4, 1))
    res = friedman_test(average_ranks(scores))
    assert res.chi2_f == pytest.approx(8.0, abs=1e-12)
    assert res.p_value == pytest.approx(np.exp(-4.0), rel=1e-9)


def test_friedman_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(30):
        scores = rng.random((int(rng.integers(2, 8)), int(rng.integers(2, 6))))
        assert friedman_test(average_ranks(scores)).chi2_f >= 0.0


def test_friedman_rank_invariance_under_monotone_transform():
    rng = np.random.default_rng(2)
    scores = rng.random((5, 4))
    a = friedman_test(average_ranks(scores))
    b = friedman_test(average_ranks(np.exp(3.0 * scores) + 7.0))
    assert a.chi2_f == pytest.approx(b.chi2_f)
    assert a.p_value == pytest.approx(b.p_value)


def test_friedman_degenerate_input():
    with pytest.raises(StatsError):
        friedman_test(average_ranks(np.array([[0.1, 0.2]])))


def test_nemenyi_formula_and_homogeneity():
    for k in (3, 8, 15):
        for n in (4, 9, 17):
            cd = nemenyi_cd(k, n, 0.05)
            assert cd.cd == pytest.approx(cd.q_alpha * np.sqrt(k * (k + 1) / (6.0 * n)))
            assert nemenyi_cd(k, 4 * n, 0.05).cd == pytest.approx(cd.cd / 2.0, rel=1e-15)


def test_nemenyi_known_table_values():
    # Cross-check the computed q_alpha against published critical values.
    assert nemenyi_cd(2, 1, 0.05).q_alpha == pytest.approx(1.960, abs=2e-3)
    assert nemenyi_cd(3, 1, 0.05).q_alpha == pytest.approx(2.343, abs=2e-3)
    assert nemenyi_cd(10, 1, 0.05).q_alpha == pytest.approx(3.164, abs=2e-3)
    assert nemenyi_cd(2, 1, 0.10).q_alpha == pytest.approx(1.645, abs=2e-3)
    assert nemenyi_cd(5, 1, 0.10).q_alpha == pytest.approx(2.459, abs=2e-3)
    cd = nemenyi_cd(3, 17, 0.05)
    assert cd.cd == pytest.approx(nemenyi_cd(3, 1, 0.05).q_alpha * np.sqrt(12.0 / 102.0))


@pytest.mark.parametrize(
    "k,alpha,q",
    [(2, 0.05, 1.959964), (8, 0.05, 3.030878), (18, 0.05, 3.488685), (5, 0.10, 2.459516), (20, 0.10, 3.319233)],
)
def test_nemenyi_q_alpha_rounded_to_six_decimals(k, alpha, q):
    # Exact 6-decimal values: without the rounding the stats JSON and the CD diagrams change bytes.
    assert nemenyi_cd(k, 1, alpha).q_alpha == q


def test_nemenyi_two_methods_is_the_normal_quantile():
    # For k = 2 the range of two standard normals is |N(0, 2)|, so q_alpha is the two-sided normal quantile.
    for alpha in (0.05, 0.10, 0.01):
        assert nemenyi_cd(2, 1, alpha).q_alpha == round(sps.norm.ppf(1 - alpha / 2), 6)


def test_nemenyi_q_alpha_equals_scipy_studentized_range_on_a_grid():
    # q_alpha is computed by quadrature and bisection; scipy.stats is its oracle here.
    for alpha in (0.001, 0.01, 0.05, 0.1, 0.5):
        for k in range(2, 101):
            expected = round(sps.studentized_range.ppf(1 - alpha, k, np.inf) / np.sqrt(2), 6)
            assert nemenyi_cd(k, 1, alpha).q_alpha == expected, (alpha, k)


@pytest.mark.parametrize("ties", [False, True])
def test_friedman_p_values_equal_scipy_distributions(ties):
    rng = np.random.default_rng(21 + ties)
    for _ in range(300):
        n, k = int(rng.integers(2, 20)), int(rng.integers(2, 12))
        scores = rng.integers(0, 3, (n, k)) / 3.0 if ties else rng.random((n, k))
        res = friedman_test(average_ranks(scores))
        assert res.p_value == float(sps.chi2.sf(res.chi2_f, k - 1))
        if np.isfinite(res.iman_davenport_f):
            assert res.iman_davenport_p == float(sps.f.sf(res.iman_davenport_f, k - 1, (k - 1) * (n - 1)))


def test_nemenyi_rejects_invalid_arguments():
    with pytest.raises(StatsError):
        nemenyi_cd(1, 10, 0.05)
    for alpha in (0.0, 1.0):
        with pytest.raises(StatsError):
            nemenyi_cd(5, 10, alpha)
    with pytest.raises(StatsError):
        nemenyi_cd(5, 0, 0.05)


def test_groups_all_equal_ranks():
    r = average_ranks(np.full((3, 4), 1.0))
    groups = cd_diagram_layout(r, nemenyi_cd(4, 3, 0.05))
    assert len(groups) == 1
    assert set(groups[0].methods) == set(r.methods)


def test_groups_far_separated_singletons():
    scores = np.tile([0.9, 0.1], (30, 1))
    r = average_ranks(scores)
    groups = cd_diagram_layout(r, nemenyi_cd(2, 30, 0.05))
    assert [set(g.methods) for g in groups] == [{"m1"}, {"m2"}]


def test_groups_pairwise_gap_oracle():
    # Brute-force check of the stated example: ranks 1.0, 1.2, 3.0 at cd 0.5.
    r = average_ranks(np.array([[3.0, 2.0, 1.0]]))  # placeholder scores
    object.__setattr__(r, "avg_ranks", np.array([1.0, 1.2, 3.0]))
    groups = cd_diagram_layout(r, CriticalDistance(alpha=0.05, q_alpha=1.0, cd=0.5))
    assert [set(g.methods) for g in groups] == [{"m1", "m2"}, {"m3"}]
    for g in groups:
        assert g.hi - g.lo < 0.5


def test_groups_cover_and_maximal():
    rng = np.random.default_rng(3)
    scores = rng.random((8, 6))
    r = average_ranks(scores)
    cd = nemenyi_cd(6, 8, 0.05)
    groups = cd_diagram_layout(r, cd)
    covered = {m for g in groups for m in g.methods}
    assert covered == set(r.methods)
    ranks = dict(zip(r.methods, r.avg_ranks))
    for g in groups:
        span = [ranks[m] for m in g.methods]
        assert max(span) - min(span) < cd.cd
        outside = [m for m in r.methods if m not in g.methods]
        for m in outside:
            lo = min(min(span), ranks[m])
            hi = max(max(span), ranks[m])
            assert hi - lo >= cd.cd  # adding any method breaks the bound


def oracle_cd_diagram_layout(r, cd):
    # The all-pairs containment filter that the one-pass layout replaced, kept as its reference.
    order = np.argsort(r.avg_ranks, kind="stable")
    ranks = r.avg_ranks[order]
    names = [r.methods[i] for i in order]
    k = len(names)
    intervals = []
    for i in range(k):
        j = i
        while j + 1 < k and ranks[j + 1] - ranks[i] < cd.cd:
            j += 1
        intervals.append((i, j))
    maximal = [
        (i, j)
        for i, j in set(intervals)
        if not any((a <= i and j <= b and (a, b) != (i, j)) for a, b in intervals)
    ]
    maximal.sort()
    return [
        RankGroup(methods=tuple(names[i : j + 1]), lo=float(ranks[i]), hi=float(ranks[j]))
        for i, j in maximal
    ]


@pytest.mark.parametrize("ties", [False, True])
def test_ranks_and_groups_equal_oracle(ties):
    rng = np.random.default_rng(11 + ties)
    for _ in range(400):
        k = int(rng.integers(2, 12))
        n = int(rng.integers(1, 8))
        # Scores on a grid of 4 values tie often; continuous scores almost never.
        scores = rng.integers(0, 4, (n, k)) / 4.0 if ties else rng.random((n, k))
        r = average_ranks(scores)
        per_row = np.array([sps.rankdata(-row) for row in scores])
        assert r.ranks.tobytes() == per_row.tobytes()
        assert r.avg_ranks.tobytes() == per_row.mean(axis=0).tobytes()
        for value in (0.0, float(rng.uniform(0.0, k)), float(k + 1)):
            cd = CriticalDistance(alpha=0.05, q_alpha=1.0, cd=value)
            assert cd_diagram_layout(r, cd) == oracle_cd_diagram_layout(r, cd)
