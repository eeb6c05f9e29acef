"""Shared compressor types: the fitted state and the transform that applies it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import CompressorError


@dataclass(frozen=True)
class FittedCompressor:
    """Immutable learned projection state; ``transform`` maps rows x d_in -> rows x d_out.

    ``state`` provides ``apply(e)``, ``to_arrays() -> (arrays, extra_meta)`` and
    the classmethod ``from_arrays(blob, meta)``.
    """

    kind: str
    input_dim: int
    output_dim: int
    state: Any

    def state_bytes(self) -> int:
        return sum(a.nbytes for a in self.state.to_arrays()[0].values())


def transform(fc: FittedCompressor, e: np.ndarray) -> np.ndarray:
    """Apply a fitted compressor to a matrix with matching column count."""
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 2:
        raise CompressorError(f"expected a 2-D matrix, got shape {e.shape}")
    if e.shape[0] == 0:
        raise CompressorError("cannot transform an empty matrix (0 rows)")
    if e.shape[1] != fc.input_dim:
        raise CompressorError(f"matrix has {e.shape[1]} columns but compressor expects {fc.input_dim}")
    out = fc.state.apply(e)
    assert out.shape == (e.shape[0], fc.output_dim)
    return out
