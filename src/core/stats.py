"""Rank-based comparison across datasets: Friedman test, Nemenyi critical distance, CD groups."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StatsError


@dataclass(frozen=True)
class RankMatrix:
    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    ranks: np.ndarray  # rank 1 = best = highest score; ties get average rank
    avg_ranks: np.ndarray  # (n_methods,)

    @property
    def n_methods(self) -> int:
        return len(self.methods)

    @property
    def n_datasets(self) -> int:
        return len(self.datasets)


@dataclass(frozen=True)
class FriedmanResult:
    chi2_f: float
    p_value: float
    iman_davenport_f: float
    iman_davenport_p: float


@dataclass(frozen=True)
class CriticalDistance:
    alpha: float
    q_alpha: float
    cd: float


@dataclass(frozen=True)
class RankGroup:
    methods: tuple[str, ...]  # in ascending avg-rank order
    lo: float
    hi: float


def average_ranks(
    scores: np.ndarray,
    methods: tuple[str, ...] | None = None,
    datasets: tuple[str, ...] | None = None,
) -> RankMatrix:
    """Per-dataset descending-score ranks, ties averaged: #higher + (#equal + 1) / 2 (itself counted
    as equal), exact half-integers, the same bytes as ``scipy.stats.rankdata(-scores, axis=1)``."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 2:
        raise StatsError(f"need an N x k score matrix with N >= 1, k >= 2, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise StatsError("non-finite score")
    n, k = scores.shape
    if methods is None:
        methods = tuple(f"m{j + 1}" for j in range(k))
    if datasets is None:
        datasets = tuple(f"d{i + 1}" for i in range(n))
    row, other = scores[:, :, None], scores[:, None, :]
    ranks = np.sum(other > row, axis=2) + (np.sum(other == row, axis=2) + 1) / 2
    return RankMatrix(
        methods=tuple(methods),
        datasets=tuple(datasets),
        ranks=ranks,
        avg_ranks=ranks.mean(axis=0),
    )


def friedman_test(r: RankMatrix) -> FriedmanResult:
    """Chi-square Friedman statistic plus the Iman-Davenport F correction. The p-values come from
    ``chdtrc`` and ``fdtrc``, the functions behind ``scipy.stats.chi2.sf`` and ``f.sf``."""
    from scipy.special import chdtrc, fdtrc  # not at module level: only ranking commands pay for it
    n, k = r.n_datasets, r.n_methods
    if n < 2 or k < 2:
        raise StatsError(f"Friedman test needs N >= 2 and k >= 2, got N={n}, k={k}")
    rank_sums = r.ranks.sum(axis=0)
    chi2 = 12.0 / (n * k * (k + 1)) * float(np.sum(rank_sums**2)) - 3.0 * n * (k + 1)
    chi2 = max(chi2, 0.0)  # guard tiny negative rounding on tied data
    p = float(chdtrc(k - 1, chi2))
    denom = n * (k - 1) - chi2
    if denom <= 0:
        f_stat, f_p = float("inf"), 0.0
    else:
        f_stat = (n - 1) * chi2 / denom
        f_p = float(fdtrc(k - 1, (k - 1) * (n - 1), f_stat))
    return FriedmanResult(chi2_f=chi2, p_value=p, iman_davenport_f=f_stat, iman_davenport_p=f_p)


def nemenyi_cd(k: int, n_datasets: int, alpha: float = 0.05) -> CriticalDistance:
    """CD = q_alpha * sqrt(k (k+1) / (6 N)), where q_alpha is the ``1 - alpha`` studentized-range
    quantile at infinite degrees of freedom over sqrt(2) (Demšar 2006, JMLR 7), rounded to 6 decimals.
    It equals ``scipy.stats.studentized_range``'s, rounded alike, for alpha in {0.001, 0.01, 0.05, 0.1,
    0.5} and k from 2 to 100 (tested). Elsewhere the quantile's error is about 5e-15 / alpha (measured
    for k up to 1000), so below alpha of about 1e-5 the 6th decimal can differ from scipy's."""
    if not 0 < alpha < 1:
        raise StatsError(f"alpha must be in (0, 1), got {alpha}")
    if k < 2:
        raise StatsError(f"k must be >= 2, got {k}")
    if n_datasets < 1:
        raise StatsError(f"need at least one dataset, got {n_datasets}")
    q = round(_range_quantile(1 - alpha, k) / 2**0.5, 6)
    return CriticalDistance(alpha=alpha, q_alpha=q, cd=q * np.sqrt(k * (k + 1) / (6.0 * n_datasets)))


def _range_quantile(p: float, k: int) -> float:
    """The ``p`` quantile of the range of ``k`` iid standard normals: bisection on ``q`` for
    ``k * integral of phi(z) (Phi(z) - Phi(z - q))^(k-1) dz = p``, by the trapezoid rule on a fixed
    grid over z in [-10, 10], beyond which the integrand is below 1e-22 * k."""
    from scipy.special import ndtr  # not at module level: only ranking commands pay for it
    z = np.linspace(-10.0, 10.0, 801)
    weights = k * (z[1] - z[0]) * np.exp(-(z**2) / 2) / np.sqrt(2 * np.pi)
    weights[[0, -1]] /= 2
    cdf_z = ndtr(z)
    lo, hi = 0.0, 64.0
    for _ in range(60):  # leaves an interval of 64 / 2**60 = 5.6e-17, far below the 6-decimal rounding
        mid = (lo + hi) / 2
        if np.sum(weights * (cdf_z - ndtr(z - mid)) ** (k - 1)) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def cd_diagram_layout(r: RankMatrix, cd: CriticalDistance) -> list[RankGroup]:
    """Maximal runs of rank-sorted methods whose extreme avg ranks differ by < cd."""
    order = np.argsort(r.avg_ranks, kind="stable")
    ranks = r.avg_ranks[order]
    names = [r.methods[i] for i in order]
    k = len(names)
    groups = []
    for i in range(k):
        j = i
        while j + 1 < k and ranks[j + 1] - ranks[i] < cd.cd:
            j += 1
        # Runs end in rank order, so one that ends where the last kept run ends lies inside it.
        if not groups or j > groups[-1][1]:
            groups.append((i, j))
    return [
        RankGroup(methods=tuple(names[i : j + 1]), lo=float(ranks[i]), hi=float(ranks[j]))
        for i, j in groups
    ]
