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
    """Per-dataset descending-score ranking with average ranks for ties."""
    from scipy import stats as sps  # not at module level: ~0.5 s that only ranking commands pay
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
    ranks = sps.rankdata(-scores, axis=1)
    return RankMatrix(
        methods=tuple(methods),
        datasets=tuple(datasets),
        ranks=ranks,
        avg_ranks=ranks.mean(axis=0),
    )


def friedman_test(r: RankMatrix) -> FriedmanResult:
    """Chi-square Friedman statistic plus the Iman-Davenport F correction."""
    from scipy import stats as sps
    n, k = r.n_datasets, r.n_methods
    if n < 2 or k < 2:
        raise StatsError(f"Friedman test needs N >= 2 and k >= 2, got N={n}, k={k}")
    rank_sums = r.ranks.sum(axis=0)
    chi2 = 12.0 / (n * k * (k + 1)) * float(np.sum(rank_sums**2)) - 3.0 * n * (k + 1)
    chi2 = max(chi2, 0.0)  # guard tiny negative rounding on tied data
    p = float(sps.chi2.sf(chi2, k - 1))
    denom = n * (k - 1) - chi2
    if denom <= 0:
        f_stat, f_p = float("inf"), 0.0
    else:
        f_stat = (n - 1) * chi2 / denom
        f_p = float(sps.f.sf(f_stat, k - 1, (k - 1) * (n - 1)))
    return FriedmanResult(chi2_f=chi2, p_value=p, iman_davenport_f=f_stat, iman_davenport_p=f_p)


def nemenyi_cd(k: int, n_datasets: int, alpha: float = 0.05) -> CriticalDistance:
    """CD = q_alpha * sqrt(k (k+1) / (6 N)), where q_alpha is the ``1 - alpha`` studentized-range
    quantile at infinite degrees of freedom over sqrt(2) (Demšar 2006, JMLR 7), rounded to 6 decimals."""
    if not 0 < alpha < 1:
        raise StatsError(f"alpha must be in (0, 1), got {alpha}")
    if k < 2:
        raise StatsError(f"k must be >= 2, got {k}")
    if n_datasets < 1:
        raise StatsError(f"need at least one dataset, got {n_datasets}")
    from scipy.stats import studentized_range
    q = round(float(studentized_range.ppf(1 - alpha, k, np.inf)) / 2**0.5, 6)
    return CriticalDistance(alpha=alpha, q_alpha=q, cd=q * np.sqrt(k * (k + 1) / (6.0 * n_datasets)))


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
