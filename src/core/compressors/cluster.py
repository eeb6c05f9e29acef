"""Column clustering (k-means++ on the transposed matrix) with per-cluster aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CompressorError

AGGREGATIONS = ("max", "mean", "median")
DEFAULT_MAX_ITER = 100
DEFAULT_TOL = 1e-4
# DistanceRows sums distances for as many points at a time as fit in this many bytes,
# so a tile stays in a core's L2 cache (16 points at 2000 documents, the fastest of 8-64).
_TILE_BYTES = 1 << 18


@dataclass(frozen=True)
class ClusterState:
    assignment: np.ndarray  # (d_in,) cluster id per input column, ids 0..d_out-1
    agg: str

    def apply(self, e: np.ndarray) -> np.ndarray:
        k = int(self.assignment.max()) + 1
        out = np.empty((e.shape[0], k))
        reduce = {"max": np.max, "mean": np.mean, "median": np.median}[self.agg]
        for c in range(k):
            out[:, c] = reduce(e[:, self.assignment == c], axis=1)
        return out

    def to_arrays(self) -> tuple[dict, dict]:
        return {"assignment": self.assignment}, {"agg": self.agg}

    @classmethod
    def from_arrays(cls, blob, meta) -> "ClusterState":
        return cls(blob["assignment"], meta["agg"])


class DistanceRows:
    """Squared distances between the rows of ``points``, each row computed when first read.

    Row ``i`` equals ``np.sum((points - points[i]) ** 2, axis=1)`` bit for bit: every
    entry is the same subtract, square and contiguous row sum. Entries whose mirror is
    already known are copied from it, since ``(a - b) ** 2 == (b - a) ** 2``, so no pair
    is summed twice however many seedings read the rows. The rest are summed a tile of
    points at a time, in place, so the tile's data stays in cache.
    """

    def __init__(self, points: np.ndarray):
        n = points.shape[0]
        self.points = points
        self._tile = max(1, _TILE_BYTES // max(points[:1].nbytes, 1))
        self._table = np.empty((n, n))
        self._known = np.zeros(n, dtype=bool)

    def __getitem__(self, i: int) -> np.ndarray:
        row = self._table[i]
        known = self._known
        if not known[i]:
            row[known] = self._table[known, i]
            todo = np.flatnonzero(~known)
            for lo in range(0, len(todo), self._tile):
                idx = todo[lo : lo + self._tile]
                block = self.points[idx]
                block -= self.points[i]
                np.square(block, out=block)
                row[idx] = block.sum(axis=1)
            known[i] = True
        return row


def prepare_columns(e: np.ndarray) -> DistanceRows:
    """The column distance rows that every seeding on ``e`` reads, whatever dimension it fits."""
    return DistanceRows(e.T.copy())


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator, rows: DistanceRows) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = rows[chosen[0]]
    for _ in range(k - 1):
        total = d2.sum()
        if total <= 0:
            # All remaining points duplicate a chosen center; fall back to uniform.
            remaining = np.setdiff1d(np.arange(n), chosen)
            idx = int(rng.choice(remaining))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, rows[idx])
    return points[chosen].copy()


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # (n, k) squared euclidean distances, clipped against cancellation.
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def kmeans_columns(
    rows: DistanceRows,
    k: int,
    seed: int,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Lloyd iterations on ``rows.points`` from a k-means++ start; returns the assignment vector.

    Seeding reads ``rows``, which other seedings on the same points may already have read.

    Empty clusters are repaired each round by moving in the point currently
    farthest from its assigned center, taken from a cluster with another
    member, so the final partition always has k non-empty clusters.
    """
    points = rows.points
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(points, k, rng, rows)
    prev_inertia = np.inf
    assignment = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(max_iter):
        d2 = _sq_distances(points, centers)
        assignment = d2.argmin(axis=1)
        dist_to_own = d2[np.arange(len(points)), assignment]
        counts = np.bincount(assignment, minlength=k)
        for c in np.flatnonzero(counts == 0):
            far = int(np.where(counts[assignment] > 1, dist_to_own, -1.0).argmax())
            counts[assignment[far]] -= 1
            counts[c] = 1
            assignment[far] = c
        for c in range(k):
            centers[c] = points[assignment == c].mean(axis=0)
        inertia = float(np.sum((points - centers[assignment]) ** 2))
        if prev_inertia - inertia <= tol * prev_inertia:
            break
        prev_inertia = inertia
    return assignment


def fit_cluster_aggregate(
    e: np.ndarray,
    d_out: int,
    agg: str,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    rows: DistanceRows | None = None,
) -> ClusterState:
    """``rows`` is ``prepare_columns(e)``, shared by the fits on ``e``; made here when None."""
    e = np.asarray(e, dtype=np.float64)
    if agg not in AGGREGATIONS:
        raise CompressorError(f"unknown aggregation {agg!r}; expected one of {AGGREGATIONS}")
    rows = prepare_columns(e) if rows is None else rows
    assignment = kmeans_columns(rows, d_out, seed, max_iter, tol)
    return ClusterState(assignment, agg)
