"""Experiment orchestration: config, synthetic corpora, and the full run loop."""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .compressors import CompressorSpec, default_params, number_like, type_name
from .errors import FAILURES, CompressorError, ConfigError, CoreError
from .evaluation import (DEFAULT_C, EvalResult, EvaluationRecord, evaluate_matrices, evaluate_representation, fold_plan,
                         scored_record)
from .io import (Labels, as_f32, load_embeddings, load_labels, load_manifest, read_input, save_labels, save_matrix,
                 validate_dataset)
from .pipeline import compress_direct, compress_recursive, dimension_schedule, mix64
from .report import ResultsTable

MODES = ("recursive", "direct")

# Lower bounds of the config fields; the CLI flags of the same names obey them too.
LOWER_BOUNDS = {"kappa": 2, "margin": 0, "folds": 2, "repeats": 1, "threads": 1, "seed": 0}


def check_lower_bounds(values: dict) -> None:
    """``ConfigError`` for the first ``LOWER_BOUNDS`` entry that ``values`` falls below; absent or
    ``None`` passes. Each value must already be a finite number."""
    for name, least in LOWER_BOUNDS.items():
        value = values.get(name)
        if value is not None and value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    manifest: str
    specs: tuple[CompressorSpec, ...]
    kappa: int = 2
    modes: tuple[str, ...] = MODES
    folds: int = 3
    repeats: int = 3
    seed: int = 0
    margin: float = 0.05
    out_dir: str = "results"
    threads: int = 1
    task_timeout: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            like = {"manifest": "", "task_timeout": None if value is None else 0.0}.get(f.name, f.default)
            if (isinstance(like, str) and not isinstance(value, str)
                    or isinstance(like, (int, float)) and not number_like(value, like)):
                raise ConfigError(f"{f.name} must be {type_name(like)}, got {value!r}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigError(f"task_timeout must be > 0, got {self.task_timeout}")
        if not self.specs:
            raise ConfigError("need at least one compressor spec")
        check_lower_bounds(vars(self))
        bad = [m for m in self.modes if m not in MODES]
        if bad or not self.modes or len(set(self.modes)) != len(self.modes):
            raise ConfigError(f"modes must be a non-empty subset of {MODES}, got {self.modes}")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Exactly the ``ExperimentConfig`` fields; a missing required or unknown key is a ``ConfigError``."""
    try:
        data = dict(data, specs=tuple(CompressorSpec(**s) for s in data["specs"]))
        if "modes" in data:
            if not isinstance(data["modes"], (list, tuple)):
                raise ConfigError(f"modes must be a list, got {data['modes']!r}")
            data["modes"] = tuple(data["modes"])
        return ExperimentConfig(**data)
    except (KeyError, TypeError, CompressorError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_input(path, ConfigError, "config", json.loads))


def make_synthetic_dataset(
    docs: int = 600,
    classes: int = 4,
    rank: int = 8,
    dim: int = 64,
    seed: int = 0,
    separation: float = 4.0,
    within: float = 1.0,
    noise: float = 1.0,
) -> tuple[np.ndarray, Labels]:
    """Gaussian class clusters of a chosen intrinsic rank embedded in ``dim`` ambient
    dimensions through a random orthonormal map, plus isotropic ambient noise."""
    if not (docs >= classes >= 2 and 1 <= rank <= dim):
        raise ConfigError(f"bad synthetic shape: docs={docs}, classes={classes}, rank={rank}, dim={dim}")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, rank)) * separation
    ids = rng.permutation(np.arange(docs) % classes)
    latent = centers[ids] + rng.standard_normal((docs, rank)) * within
    basis, _ = np.linalg.qr(rng.standard_normal((dim, rank)))
    e = latent @ basis.T + rng.standard_normal((docs, dim)) * noise
    labels = Labels(ids=ids.astype(np.int64), names=tuple(f"c{i}" for i in range(classes)))
    return e, labels


def write_synthetic_dataset(out_dir: str | Path, name: str, **kwargs) -> dict:
    """Write <name>.core and <name>.labels plus a manifest entry dict."""
    e, labels = make_synthetic_dataset(**kwargs)
    as_f32(e)  # a matrix that save_matrix rejects leaves no directory behind
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix(e, out_dir / f"{name}.core")
    save_labels(labels, out_dir / f"{name}.labels")
    return {
        "name": name,
        "embeddings": f"{name}.core",
        "labels": f"{name}.labels",
        "representation": "synthetic",
    }


@dataclass(frozen=True)
class _Dataset:
    index: int
    name: str
    representation: str
    matrix: np.ndarray
    labels: Labels
    eval_seed: int
    plan: dict[int, np.ndarray]  # each repeat's fold ids, for the baseline and every step
    baseline_mean: float


def _record(cfg: ExperimentConfig, ds: _Dataset, compressor: str, mode: str, step: int, dim: int,
            res: EvalResult, **extra) -> EvaluationRecord:
    return scored_record(ds.name, ds.representation, compressor, mode, step, dim, res, ds.baseline_mean,
                         cfg.repeats, eval_seed=ds.eval_seed, **extra)


def _run_task(cfg: ExperimentConfig, ds: _Dataset, spec_index: int, mode: str, shared=None):
    """The records and step 1 (each repeat's ``StepResult``, their ``EvalResult``) of one
    (dataset, spec, mode) task, which reuses ``shared``, another mode's step 1, if given.
    Each step of each repeat is scored on that repeat's folds as soon as it is made, and
    only its fold scores are kept. ``task_timeout`` counts from the task's start and is
    checked after each compression step, before its scoring."""
    deadline = None if cfg.task_timeout is None else time.monotonic() + cfg.task_timeout
    spec = cfg.specs[spec_index]
    schedule = dimension_schedule(ds.matrix.shape[1], cfg.kappa)
    compress = compress_recursive if mode == "recursive" else compress_direct
    task_seed = mix64(mix64(cfg.seed, ds.index), spec_index)
    repeat_seeds = [mix64(task_seed, r) for r in range(cfg.repeats)]
    firsts = shared[0] if shared else [None] * cfg.repeats
    scores = {i: [] for i in range(1, schedule.steps + 1)}  # (repeat, fold, score) of each step
    step_1_outputs = []

    def on_step(r, i, out):
        if deadline is not None and time.monotonic() > deadline:
            raise CoreError(f"timed out after {cfg.task_timeout}s")
        if i == 1:
            step_1_outputs.append(out)
        if not (shared and i == 1):
            scores[i] += evaluate_matrices([out], ds.labels, cfg.folds, ds.eval_seed, {r: ds.plan[r]}).per_fold

    runs = [compress(ds.matrix, spec.with_seed(s), schedule, retain=False,
                     on_step=lambda i, _dim, out, _fc, r=r: on_step(r, i, out), first=f)
            for r, (s, f) in enumerate(zip(repeat_seeds, firsts))]
    results = [shared[1] if shared and i == 1 else EvalResult.of(scores[i]) for i in scores]
    records = [_record(cfg, ds, spec.kind, mode, i, dim, res, compressor_seeds=repeat_seeds)
               for i, (dim, res) in enumerate(zip(schedule.dims, results), start=1)]
    return records, ([replace(run.steps[0], output=out) for run, out in zip(runs, step_1_outputs)], results[0])


def _run_spec(cfg: ExperimentConfig, ds: _Dataset, spec_index: int):
    """The records and errors of every mode task of (ds, spec), run in ``cfg.modes``
    order. Step 1 is the same fit and score in both modes, so each task hands the
    last step 1 it finished to the next; a failed task hands on nothing."""
    records, errors, step1 = [], [], None
    for mode in cfg.modes:
        try:
            task_records, step1 = _run_task(cfg, ds, spec_index, mode, step1)
        except FAILURES as exc:
            errors.append(f"task {ds.name}/{cfg.specs[spec_index].kind}/{mode}: {exc}")
        else:
            records += task_records
    return records, errors


def run_experiment(cfg: ExperimentConfig) -> ResultsTable:
    """Run every (dataset, spec) job's mode tasks; failures are recorded, not fatal.

    All seeds derive from (config seed, stable manifest/spec indices) and task
    results are collected in task order, so the output is byte-identical across
    runs and thread counts.
    """
    errors: list[str] = []
    datasets: list[_Dataset] = []
    records: list[EvaluationRecord] = []

    for idx, entry in enumerate(load_manifest(cfg.manifest)):
        try:
            e = load_embeddings(entry.embeddings)
            labels = load_labels(entry.labels)
            validate_dataset(e, labels, cfg.folds)
            eval_seed = mix64(cfg.seed, idx)
            plan = fold_plan(labels, cfg.folds, eval_seed, cfg.repeats)
            base = evaluate_representation(e, labels, cfg.folds, cfg.repeats, eval_seed, plan)
        except FAILURES as exc:
            errors.append(f"dataset {entry.name}: {exc}")
            continue
        ds = _Dataset(idx, entry.name, entry.representation, e, labels, eval_seed, plan, base.mean_f1)
        datasets.append(ds)
        records.append(_record(cfg, ds, "baseline", "none", 0, e.shape[1], base))

    jobs = [(ds, si) for ds in datasets for si in range(len(cfg.specs))]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        for job_records, job_errors in pool.map(lambda job: _run_spec(cfg, *job), jobs):
            records += job_records
            errors += job_errors

    svd, kmeans = default_params("svd"), default_params("cluster-mean")
    meta = {
        "config": config_to_dict(cfg),
        "package_version": __version__,
        "seed_derivation": "splitmix64 chain: config seed -> dataset index -> spec index -> repeat",
        "algorithm_settings": {
            "rsvd_oversample": svd["oversample"],
            "rsvd_power_iters": svd["power_iters"],
            "kmeans_max_iter": kmeans["max_iter"],
            "kmeans_tol": kmeans["tol"],
            "autoencoder_defaults": default_params("neural-small"),
            "logreg_c": DEFAULT_C,
        },
        "errors": sorted(errors),
    }
    return ResultsTable(records=records, meta=meta)
