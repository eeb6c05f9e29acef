"""Very sparse random projections with density 1/sqrt(d_in)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CompressorError

_BLOCK = 64  # input columns per block copied into the buffer of ``apply``


@dataclass(frozen=True)
class ProjectionState:
    """The (d_in, d_out) projection matrix in compressed sparse row form: row k holds the values
    ``data[indptr[k]:indptr[k + 1]]`` in the columns ``indices[indptr[k]:indptr[k + 1]]``."""

    data: np.ndarray  # (nnz,) float64
    indices: np.ndarray  # (nnz,) int64 column ids in [0, d_out)
    indptr: np.ndarray  # (d_in + 1,) int64, rising from 0 to nnz
    d_out: int

    def apply(self, e: np.ndarray) -> np.ndarray:
        """``e`` times the matrix, bit for bit as the product ``e @ csr_array`` of scipy computes it.

        Each output entry starts at 0.0 and adds ``data * e[:, k]`` for the nonzeros of its column
        in ascending k. The result is the transpose of a C-ordered (d_out, n) array, as scipy's.
        The terms are taken in CSR order, which is ascending k, from a buffer that holds
        ``_BLOCK`` input columns of ``e`` as rows at a time.
        """
        d_in = len(self.indptr) - 1
        # The buffer is allocated before the output: in the other order, the heap layout raised
        # the peak RSS of 14 compress calls at 2000x384 from 81 to 86 MB (glibc, x86-64).
        block = np.empty((min(_BLOCK, d_in), e.shape[0]), dtype=e.dtype)
        out_t = np.zeros((self.d_out, e.shape[0]))
        for lo in range(0, d_in, _BLOCK):
            rows = block[:min(_BLOCK, d_in - lo)]
            np.copyto(rows, e[:, lo:lo + _BLOCK].T)
            for k, row in enumerate(rows, start=lo):
                terms = slice(self.indptr[k], self.indptr[k + 1])
                for j, value in zip(self.indices[terms], self.data[terms]):
                    out_t[j] += row * value
        return out_t.T

    def to_arrays(self) -> tuple[dict, dict]:
        return {"proj_data": self.data, "proj_indices": self.indices, "proj_indptr": self.indptr}, {}

    @classmethod
    def from_arrays(cls, blob, meta) -> "ProjectionState":
        """Raises CompressorError naming the array that does not describe an
        (input_dim, output_dim) matrix."""
        data, indices, indptr = blob["proj_data"], blob["proj_indices"], blob["proj_indptr"]
        d_in, d_out = meta["input_dim"], meta["output_dim"]
        for name, a, kind, what in (("proj_data", data, np.floating, "floats"),
                                    ("proj_indices", indices, np.integer, "integers"),
                                    ("proj_indptr", indptr, np.integer, "integers")):
            if a.ndim != 1 or not np.issubdtype(a.dtype, kind):
                raise CompressorError(f"{name} must be a 1-D array of {what}, got {a.dtype} of shape {a.shape}")
        nnz = len(data)
        if len(indptr) != d_in + 1:
            raise CompressorError(f"proj_indptr must have input_dim + 1 = {d_in + 1} entries, got {len(indptr)}")
        if indptr[0] != 0:
            raise CompressorError(f"proj_indptr must start at 0, got {indptr[0]}")
        if (np.diff(indptr) < 0).any():
            raise CompressorError("proj_indptr must never decrease")
        if indptr[-1] != nnz:
            raise CompressorError(f"proj_indptr must end at the {nnz} entries of proj_data, got {indptr[-1]}")
        if len(indices) != nnz:
            raise CompressorError(f"proj_indices must have the {nnz} entries of proj_data, got {len(indices)}")
        outside = indices[(indices < 0) | (indices >= d_out)]
        if len(outside):
            raise CompressorError(f"proj_indices must be in [0, {d_out}), got {outside[0]}")
        return cls(data, indices, indptr, d_out)


def projection_density(d_in: int) -> float:
    return 1.0 / np.sqrt(d_in)


def fit_sparse_projection(d_in: int, d_out: int, seed: int = 0) -> ProjectionState:
    """Entries are 0 with probability 1-s, else +-sqrt(1/(s*d_out)) with equal sign odds."""
    rng = np.random.default_rng(seed)
    density = projection_density(d_in)
    mask = rng.random((d_in, d_out)) < density
    signs = rng.integers(0, 2, size=int(mask.sum())) * 2 - 1
    scale = np.sqrt(1.0 / (density * d_out))
    indptr = np.zeros(d_in + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
    return ProjectionState(signs.astype(np.float64) * scale, np.nonzero(mask)[1], indptr, d_out)
