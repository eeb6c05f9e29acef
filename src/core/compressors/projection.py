"""Very sparse random projections with density 1/sqrt(d_in)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProjectionState:
    matrix: "scipy.sparse.csr_array"  # (d_in, d_out); scipy.sparse is imported where one is made

    def apply(self, e: np.ndarray) -> np.ndarray:
        return e @ self.matrix

    def to_arrays(self) -> tuple[dict, dict]:
        m = self.matrix
        return {"proj_data": m.data, "proj_indices": m.indices, "proj_indptr": m.indptr}, {}

    @classmethod
    def from_arrays(cls, blob, meta) -> "ProjectionState":
        from scipy import sparse
        arrays = (blob["proj_data"], blob["proj_indices"], blob["proj_indptr"])
        return cls(sparse.csr_array(arrays, shape=(meta["input_dim"], meta["output_dim"])))


def projection_density(d_in: int) -> float:
    return 1.0 / np.sqrt(d_in)


def fit_sparse_projection(d_in: int, d_out: int, seed: int = 0) -> ProjectionState:
    """Entries are 0 with probability 1-s, else +-sqrt(1/(s*d_out)) with equal sign odds."""
    from scipy import sparse
    rng = np.random.default_rng(seed)
    density = projection_density(d_in)
    mask = rng.random((d_in, d_out)) < density
    signs = rng.integers(0, 2, size=int(mask.sum())) * 2 - 1
    scale = np.sqrt(1.0 / (density * d_out))
    rows, cols = np.nonzero(mask)
    matrix = sparse.csr_array(
        (signs.astype(np.float64) * scale, (rows, cols)), shape=(d_in, d_out)
    )
    return ProjectionState(matrix)
