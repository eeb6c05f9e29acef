"""Random column subspace selection followed by per-row l2 normalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit l2 norm; all-zero rows stay zero."""
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms == 0, 1.0, norms)


@dataclass(frozen=True)
class SubspaceState:
    columns: np.ndarray  # (d_out,) distinct column indices

    def apply(self, e: np.ndarray) -> np.ndarray:
        return normalize_rows(e[:, self.columns])

    def to_arrays(self) -> tuple[dict, dict]:
        return {"columns": self.columns}, {}

    @classmethod
    def from_arrays(cls, blob, meta) -> "SubspaceState":
        return cls(blob["columns"])


def fit_random_subspace(d_in: int, d_out: int, seed: int = 0) -> SubspaceState:
    rng = np.random.default_rng(seed)
    columns = np.sort(rng.choice(d_in, size=d_out, replace=False))
    return SubspaceState(columns)
