"""Recursive compression driver: dimension schedules, step execution, cost model."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .compressors import CompressorSpec, FittedCompressor, fit, prepare, transform
from .errors import CompressionStepError, CoreError, ScheduleError

_MASK64 = (1 << 64) - 1


def mix64(seed: int, index: int) -> int:
    """SplitMix64 finalizer over seed + golden-gamma * (index + 1).

    Fixed, documented mixing function so any step/repeat seed can be
    re-derived independently of the run that produced it.
    """
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def next_dim(d: int, kappa: int) -> int:
    return max(d // kappa, kappa)


@dataclass(frozen=True)
class CompressionSchedule:
    """Strictly decreasing target dimensions d_1..d_k generated from d_0."""

    kappa: int
    d0: int
    dims: tuple[int, ...]

    @property
    def steps(self) -> int:
        return len(self.dims)


def dimension_schedule(d0: int, kappa: int) -> CompressionSchedule:
    """Iterate d -> max(d // kappa, kappa) from d0, stopping before the first repeat."""
    if kappa < 2:
        raise ScheduleError(f"kappa must be >= 2, got {kappa}")
    if d0 <= kappa:
        raise ScheduleError(f"d0={d0} with kappa={kappa} produces an empty schedule")
    dims = []
    d = d0
    while True:
        nxt = next_dim(d, kappa)
        if nxt == d:
            break
        dims.append(nxt)
        d = nxt
    return CompressionSchedule(kappa=kappa, d0=d0, dims=tuple(dims))


@dataclass(frozen=True)
class StepResult:
    step: int  # 1-based
    dim: int
    seed: int
    seconds: float
    state_bytes: int
    output: np.ndarray | None  # None when the run does not retain matrices


@dataclass(frozen=True)
class CompressionRun:
    steps: list[StepResult]

    def outputs(self) -> list[np.ndarray]:
        out = [s.output for s in self.steps]
        if any(o is None for o in out):
            raise CoreError("run did not retain step outputs")
        return out  # type: ignore[return-value]


def _run(
    e0: np.ndarray,
    spec: CompressorSpec,
    schedule: CompressionSchedule,
    mode: str,
    retain: bool,
    on_step: Callable[[int, int, np.ndarray, FittedCompressor | None], None] | None,
    first: StepResult | None,
) -> CompressionRun:
    e0 = np.asarray(e0, dtype=np.float64)
    if e0.shape[1] != schedule.d0:
        raise ScheduleError(f"matrix has {e0.shape[1]} columns but schedule starts at d0={schedule.d0}")
    steps: list[StepResult] = []
    current = e0
    prepared = None
    for i, dim in enumerate(schedule.dims, start=1):
        step_seed = mix64(spec.seed, i)
        source = current if mode == "recursive" else e0
        if i == 1 and first is not None:
            steps.append(first)
            out, fc = first.output, None
        else:
            start = time.perf_counter()
            try:
                if mode == "direct" and prepared is None:
                    # Every direct step fits on e0: what they share is prepared once, in the first fitted step.
                    prepared = prepare(spec, e0)
                fc = fit(spec.with_seed(step_seed), source, dim, prepared)
                out = transform(fc, source)
            except CoreError as exc:
                raise CompressionStepError(f"step {i}: {exc}") from exc
            steps.append(StepResult(step=i, dim=dim, seed=step_seed, seconds=time.perf_counter() - start,
                                    state_bytes=fc.state_bytes(), output=out if retain else None))
        if on_step is not None:
            on_step(i, dim, out, fc)
        current = out if mode == "recursive" else e0  # a direct run holds no earlier step's matrix
    return CompressionRun(steps)


def compress_recursive(
    e0: np.ndarray,
    spec: CompressorSpec,
    schedule: CompressionSchedule,
    retain: bool = True,
    on_step=None,
    first: StepResult | None = None,
) -> CompressionRun:
    """Fit each step on the previous step's output (E_0 = e0).

    ``first`` is a finished step 1 (output retained) from a run of this ``spec`` on
    this ``e0`` in either mode; the run continues at step 2, and ``on_step`` gets
    None as that step's fitted compressor.
    """
    return _run(e0, spec, schedule, "recursive", retain, on_step, first)


def compress_direct(
    e0: np.ndarray,
    spec: CompressorSpec,
    schedule: CompressionSchedule,
    retain: bool = True,
    on_step=None,
    first: StepResult | None = None,
) -> CompressionRun:
    """Fit every target dimension on the original matrix (the "-dir" variants).
    ``first`` is as in ``compress_recursive``."""
    return _run(e0, spec, schedule, "direct", retain, on_step, first)


@dataclass(frozen=True)
class CostEstimate:
    per_step: tuple[int, ...]
    total: int
    first_step_fraction: float


def estimate_cost(d0: int, kappa: int, k: int, gamma: int = 1, docs: int = 1) -> CostEstimate:
    """Per-step training cost d_{i-1} * d_i * gamma * docs for the first k steps.

    Exact integer arithmetic, so the closed-form identity for d0 = kappa^(k+1)
    can be checked without rounding slack.
    """
    schedule = dimension_schedule(d0, kappa)
    if k < 1 or k > schedule.steps:
        raise ScheduleError(f"k must be in [1, {schedule.steps}] for d0={d0}, kappa={kappa}, got {k}")
    dims = (d0,) + schedule.dims[:k]
    per_step = tuple(dims[i] * dims[i + 1] * gamma * docs for i in range(k))
    total = sum(per_step)
    return CostEstimate(per_step=per_step, total=total, first_step_fraction=per_step[0] / total)
