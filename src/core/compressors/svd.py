"""Truncated SVD compression, exact (LAPACK) and randomized (subspace iteration)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CompressorError

DEFAULT_OVERSAMPLE = 10
DEFAULT_POWER_ITERS = 5


@dataclass(frozen=True)
class SvdState:
    components: np.ndarray  # (d_in, d_out) leading right singular vectors
    singular_values: np.ndarray  # (d_out,)

    def apply(self, e: np.ndarray) -> np.ndarray:
        # Projecting the fitted matrix itself yields the score matrix U*Sigma.
        return e @ self.components

    def to_arrays(self) -> tuple[dict, dict]:
        return {"components": self.components, "singular_values": self.singular_values}, {}

    @classmethod
    def from_arrays(cls, blob, meta) -> "SvdState":
        return cls(blob["components"], blob["singular_values"])


def _check_dim(e: np.ndarray, d_out: int) -> None:
    limit = min(e.shape)
    if not 1 <= d_out <= limit:
        raise CompressorError(f"d_out must be in [1, {limit}] for a {e.shape[0]}x{e.shape[1]} matrix, got {d_out}")


def thin_svd(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors ``(s, vt)`` of ``e``, shared by its exact fits."""
    _, s, vt = np.linalg.svd(e, full_matrices=False)
    return s, vt


def exact_truncated_svd(
    e: np.ndarray, d_out: int, thin: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Leading d_out right singular vectors and singular values of the full SVD ``thin`` (computed when None)."""
    _check_dim(e, d_out)
    s, vt = thin_svd(e) if thin is None else thin
    return vt[:d_out].T.copy(), s[:d_out].copy()


def randomized_truncated_svd(
    e: np.ndarray,
    d_out: int,
    seed: int,
    oversample: int = DEFAULT_OVERSAMPLE,
    power_iters: int = DEFAULT_POWER_ITERS,
) -> tuple[np.ndarray, np.ndarray]:
    """Range-finder sketch with QR-stabilized power iterations."""
    _check_dim(e, d_out)
    rng = np.random.default_rng(seed)
    n_rows, n_cols = e.shape
    sketch = min(d_out + oversample, n_cols)
    y = e @ rng.standard_normal((n_cols, sketch))
    q, _ = np.linalg.qr(y)
    for _ in range(power_iters):
        q, _ = np.linalg.qr(e.T @ q)
        q, _ = np.linalg.qr(e @ q)
    b = q.T @ e
    _, s, vt = np.linalg.svd(b, full_matrices=False)
    return vt[:d_out].T.copy(), s[:d_out].copy()
