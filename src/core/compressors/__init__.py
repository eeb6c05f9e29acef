"""Compression algorithms behind a single fit/transform interface.

Every kind is declared by one entry of ``_REGISTRY``: how to fit its state, the
params it accepts with their defaults, the state class that stores and
restores its arrays, and optionally a check of its params as a whole and the
work that all fits on one source matrix can share.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from ..errors import CompressorError
from .autoencoder import AutoencoderParams, TrainConfig, train_autoencoder
from .cluster import DEFAULT_MAX_ITER, DEFAULT_TOL, ClusterState, fit_cluster_aggregate, prepare_columns
from .projection import ProjectionState, fit_sparse_projection, projection_density
from .subspace import SubspaceState, fit_random_subspace
from .svd import (
    DEFAULT_OVERSAMPLE,
    DEFAULT_POWER_ITERS,
    SvdState,
    exact_truncated_svd,
    randomized_truncated_svd,
    thin_svd,
)


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


class _Kind(NamedTuple):
    fit: Callable[..., Any]  # (e, d_out, seed, params, prepared) -> the kind's state
    params: dict[str, Any]  # accepted params and their defaults; a value must match its default's type
    state: type
    check: Callable[[dict[str, Any]], object] | None = None  # raises CompressorError for params out of range
    # e -> what every fit on e can share; fit receives it as ``prepared`` and makes it itself when None
    prepare: Callable[[np.ndarray], Any] | None = None


def _cluster(agg: str) -> _Kind:
    return _Kind(
        lambda e, d, seed, p, rows: fit_cluster_aggregate(e, d, agg, seed, **p, rows=rows),
        {"max_iter": DEFAULT_MAX_ITER, "tol": DEFAULT_TOL},
        ClusterState,
        prepare=prepare_columns,
    )


def _neural(size: str) -> _Kind:
    return _Kind(
        lambda e, d, seed, p, _: train_autoencoder(e, d, size, seed, TrainConfig(**p)),
        asdict(TrainConfig()),
        AutoencoderParams,
        check=lambda p: TrainConfig(**p),
    )


# The fit adapters are lambdas so that they look the fit functions up in this
# module at call time, where tests can replace them.
_REGISTRY: dict[str, _Kind] = {
    "svd": _Kind(
        lambda e, d, seed, p, _: SvdState(*randomized_truncated_svd(e, d, seed, **p)),
        {"oversample": DEFAULT_OVERSAMPLE, "power_iters": DEFAULT_POWER_ITERS},
        SvdState,
    ),
    "svd-exact": _Kind(
        lambda e, d, seed, p, thin: SvdState(*exact_truncated_svd(e, d, thin)), {}, SvdState, prepare=thin_svd
    ),
    "sparse-projection": _Kind(
        lambda e, d, seed, p, _: fit_sparse_projection(e.shape[1], d, seed), {}, ProjectionState
    ),
    "random-subspace": _Kind(lambda e, d, seed, p, _: fit_random_subspace(e.shape[1], d, seed), {}, SubspaceState),
    "cluster-max": _cluster("max"),
    "cluster-mean": _cluster("mean"),
    "cluster-median": _cluster("median"),
    "neural-small": _neural("small"),
    "neural-large": _neural("large"),
}
KINDS = tuple(_REGISTRY)
# Iteration caps must be at least 1; every other param must be non-negative.
_COUNTS = ("max_iter", "max_epochs")


def number_like(value: Any, default: int | float) -> bool:
    """An int default accepts ``int`` only, a float default ``int`` or finite ``float``; ``bool`` never."""
    accepted = (int, float) if isinstance(default, float) else int
    return (isinstance(value, accepted) and not isinstance(value, bool)
            and (not isinstance(value, float) or math.isfinite(value)))


def type_name(default: Any) -> str:
    """What an error message says a value like ``default`` must be: ``a finite number`` for a float
    (``number_like`` accepts an ``int`` or a finite ``float`` there), else the type's name."""
    return "a finite number" if isinstance(default, float) else type(default).__name__


@dataclass(frozen=True)
class CompressorSpec:
    """Which algorithm to fit, its seed, and kind-specific settings."""

    kind: str
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _REGISTRY:
            raise CompressorError(f"unknown compressor kind {self.kind!r}; expected one of {KINDS}")
        if not number_like(self.seed, 0) or self.seed < 0:
            raise CompressorError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.params, dict):
            raise CompressorError(f"{self.kind}: params must be an object, got {self.params!r}")
        kind = _REGISTRY[self.kind]
        defaults = kind.params
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise CompressorError(f"{self.kind}: unknown params {sorted(unknown)}")
        for key, value in self.params.items():
            if not number_like(value, defaults[key]):
                raise CompressorError(
                    f"{self.kind}: param {key!r} must be {type_name(defaults[key])}, got {value!r}"
                )
            least = 1 if key in _COUNTS else 0
            if value < least:
                raise CompressorError(f"{self.kind}: param {key!r} must be >= {least}, got {value!r}")
        if kind.check is not None:
            kind.check(self.params)

    def with_seed(self, seed: int) -> "CompressorSpec":
        return CompressorSpec(self.kind, seed, dict(self.params))


def default_params(kind: str) -> dict[str, Any]:
    """The params ``kind`` accepts, with their defaults."""
    return dict(_REGISTRY[kind].params)


def prepare(spec: CompressorSpec, e: np.ndarray) -> Any:
    """The work that every fit of ``spec``'s kind on ``e`` can share, or None."""
    hook = _REGISTRY[spec.kind].prepare
    return None if hook is None else hook(np.asarray(e, dtype=np.float64))


def fit(spec: CompressorSpec, e: np.ndarray, d_out: int, prepared: Any = None) -> FittedCompressor:
    """Fit the compressor described by ``spec`` on ``e`` for the target dimension.

    ``d_out`` must be in ``[1, d_in]``. The kind's entry computes the state, and
    this names it with the kind and both dimensions. ``prepared`` is
    ``prepare(spec, e)``; when it is None, the fit does that work itself. The
    output is the same bit for bit either way.
    """
    e = np.asarray(e, dtype=np.float64)
    d_in = e.shape[1]
    if not 1 <= d_out <= d_in:
        raise CompressorError(f"d_out must be in [1, {d_in}], got {d_out}")
    state = _REGISTRY[spec.kind].fit(e, d_out, spec.seed, spec.params, prepared)
    return FittedCompressor(spec.kind, d_in, d_out, state)


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


def save_fitted(fc: FittedCompressor, path: str | Path) -> None:
    """Write one self-describing .npz: a JSON ``meta`` entry plus the state's arrays."""
    arrays, extra_meta = fc.state.to_arrays()
    meta = {"kind": fc.kind, "input_dim": fc.input_dim, "output_dim": fc.output_dim, **extra_meta}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_fitted(path: str | Path) -> FittedCompressor:
    with np.load(path) as blob:
        meta = json.loads(blob["meta"].tobytes().decode())
        kind = meta["kind"]
        if kind not in _REGISTRY:
            raise CompressorError(f"unknown serialized kind {kind!r}")
        state = _REGISTRY[kind].state.from_arrays(blob, meta)
    return FittedCompressor(kind, meta["input_dim"], meta["output_dim"], state)


__all__ = [
    "KINDS",
    "CompressorSpec",
    "FittedCompressor",
    "TrainConfig",
    "default_params",
    "number_like",
    "type_name",
    "prepare",
    "fit",
    "transform",
    "save_fitted",
    "load_fitted",
    "fit_sparse_projection",
    "fit_random_subspace",
    "fit_cluster_aggregate",
    "exact_truncated_svd",
    "randomized_truncated_svd",
    "projection_density",
]
