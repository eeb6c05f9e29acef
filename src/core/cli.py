"""Command-line interface: schedule | synth | compress | evaluate | run | stats | report."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .compressors import CompressorSpec, save_fitted
from .errors import FAILURES, CompressorError, ConfigError, CoreError, DatasetError
from .evaluation import EvaluationRecord, evaluate_representation, scored_record
from .experiment import ExperimentConfig, check_lower_bounds, load_config, run_experiment, write_synthetic_dataset
from .io import load_embeddings, load_labels, load_manifest, read_input, save_matrix, validate_dataset
from .pipeline import compress_direct, compress_recursive, dimension_schedule
from .report import (
    ResultsTable,
    emit_cd_svg,
    emit_json,
    emit_performance_svg,
    emit_tsv,
    load_results,
    series_name,
)
from .stats import average_ranks, cd_diagram_layout, friedman_test, nemenyi_cd

_MODE_NAMES = {"rec": "recursive", "recursive": "recursive", "dir": "direct", "direct": "direct"}


def _load_spec(path: str) -> CompressorSpec:
    data = read_input(path, ConfigError, "compressor spec", json.loads)
    try:
        return CompressorSpec(**data)
    except (TypeError, CompressorError) as exc:
        raise ConfigError(f"cannot read compressor spec {path}: {exc}") from exc


def cmd_schedule(args) -> int:
    schedule = dimension_schedule(args.d0, args.kappa)
    for dim in schedule.dims:
        print(dim)
    return 0


def cmd_synth(args) -> int:
    manifest_path = Path(args.out) / "manifest.json"
    entries = []
    if manifest_path.exists():
        load_manifest(manifest_path)  # checks the file before anything is written
        entries = read_input(manifest_path, DatasetError, "manifest", json.loads)
    entry = write_synthetic_dataset(
        args.out,
        args.name,
        docs=args.docs,
        classes=args.classes,
        rank=args.rank,
        dim=args.dim,
        seed=args.seed,
        separation=args.separation,
        within=args.within,
        noise=args.noise,
    )
    entries = [e for e in entries if e.get("name") != entry["name"]] + [entry]
    manifest_path.write_text(json.dumps(entries, indent=2) + "\n")
    print(f"wrote {Path(args.out) / (args.name + '.core')} and updated {manifest_path}")
    return 0


def cmd_compress(args) -> int:
    e = load_embeddings(args.input, args.format, header=args.header)
    spec = _load_spec(args.spec)
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    mode = _MODE_NAMES[args.mode]
    schedule = dimension_schedule(e.shape[1], args.kappa)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_step(step: int, dim: int, matrix: np.ndarray, fc) -> None:
        save_matrix(matrix, out_dir / f"step_{step}.core")
        if args.save_states:
            save_fitted(fc, out_dir / f"state_{step}.npz")

    compress = compress_recursive if mode == "recursive" else compress_direct
    run = compress(e, spec, schedule, retain=False, on_step=write_step)
    meta = {
        "input": str(args.input),
        "mode": mode,
        **asdict(schedule),
        "spec": asdict(spec),
        "steps": [{k: v for k, v in asdict(s).items() if k != "output"} | {"file": f"step_{s.step}.core"}
                  for s in run.steps],
    }
    (out_dir / "run.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {len(run.steps)} steps to {out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    e = load_embeddings(args.input, args.format, header=args.header)
    base = load_embeddings(args.baseline, args.format, header=args.header)
    labels = load_labels(args.labels)
    validate_dataset(e, labels, args.folds)
    validate_dataset(base, labels, args.folds)
    compressed = evaluate_representation(e, labels, args.folds, args.repeats, args.seed)
    baseline = evaluate_representation(base, labels, args.folds, args.repeats, args.seed)
    record = scored_record(args.name or Path(args.input).stem, args.representation, args.kind, args.mode,
                           args.step, e.shape[1], compressed, baseline.mean_f1, args.repeats,
                           eval_seed=args.seed, baseline_mean_f1=baseline.mean_f1)
    text = json.dumps(asdict(record), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def cmd_run(args) -> int:
    config_path = args.config or args.global_config
    if config_path is None:
        raise ConfigError("run requires --config")
    overrides = {"seed": args.seed, "threads": args.threads, "out_dir": args.out}
    cfg = replace(load_config(config_path), **{k: v for k, v in overrides.items() if v is not None})
    table = run_experiment(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_json(table, out_dir / "results.json")
    errors = table.meta.get("errors", [])
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    print(f"wrote {out_dir / 'results.json'} ({len(table.records)} records, {len(errors)} errors)")
    return 1 if errors else 0


def _rank_input(table: ResultsTable, step: int):
    records = [r for r in table.records if r.step == step]
    if not records:
        raise CoreError(f"no records at step {step}")
    reps = sorted({r.representation for r in records})
    datasets = sorted({r.dataset for r in records})

    def method_name(r: EvaluationRecord) -> str:
        base = series_name(r.compressor, r.mode)
        return f"{r.representation}:{base}" if len(reps) > 1 else base

    methods = sorted({method_name(r) for r in records})
    cells = {}
    for r in records:
        ds, m = r.dataset, method_name(r)
        if (ds, m) in cells:
            raise CoreError(f"duplicate score for dataset {ds!r}, method {m!r} at step {step}")
        cells[(ds, m)] = r.epsilon_f1
    scores = np.empty((len(datasets), len(methods)))
    for i, ds in enumerate(datasets):
        for j, m in enumerate(methods):
            if (ds, m) not in cells:
                raise CoreError(f"missing score for dataset {ds!r}, method {m!r} at step {step}")
            scores[i, j] = cells[(ds, m)]
    return average_ranks(scores, tuple(methods), tuple(datasets))


def _ranked(table: ResultsTable, step: int, alpha: float):
    """Average ranks at ``step``, their Friedman test and the Nemenyi critical difference."""
    ranks = _rank_input(table, step)
    return ranks, friedman_test(ranks), nemenyi_cd(ranks.n_methods, ranks.n_datasets, alpha)


def _stats_payload(table: ResultsTable, step: int, alpha: float) -> dict:
    ranks, fried, cd = _ranked(table, step, alpha)
    groups = cd_diagram_layout(ranks, cd)
    return {
        "step": step,
        "n_datasets": ranks.n_datasets,
        "methods": list(ranks.methods),
        "avg_ranks": {m: ranks.avg_ranks[j] for j, m in enumerate(ranks.methods)},
        **asdict(fried),
        **asdict(cd),
        "groups": [list(g.methods) for g in groups],
    }


def cmd_stats(args) -> int:
    table = load_results(args.records)
    print(json.dumps(_stats_payload(table, args.step, args.alpha), indent=2, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    table = load_results(args.records)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    margin = args.margin if args.margin is not None else table.meta.get("config", {}).get("margin", ExperimentConfig.margin)
    emit_tsv(table, out_dir / "results.tsv")
    emit_performance_svg(table, out_dir / "performance.svg", margin=margin)
    written = ["results.tsv", "results.json", "performance.svg"]
    try:
        ranks, _, cd = _ranked(table, args.step, args.alpha)  # no diagram where the rank test is undefined
        emit_cd_svg(ranks, cd, out_dir / f"cd_step_{args.step}.svg")
        written.append(f"cd_step_{args.step}.svg")
    except CoreError as exc:
        print(f"skipping CD diagram: {exc}", file=sys.stderr)
    print(f"wrote {', '.join(written)} to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="core", description=__doc__)
    parser.add_argument("--config", default=None, dest="global_config",
                        help="experiment config JSON (run)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="print the dimension schedule, one per line")
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--kappa", type=int, default=2)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--docs", type=int, default=600)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--within", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default="synth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("compress", help="run one compression schedule and write step files")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("binary", "csv"), default="binary")
    p.add_argument("--header", action="store_true", help="skip the first CSV line")
    p.add_argument("--spec", required=True, help="JSON file: {kind, seed, params}")
    p.add_argument("--mode", choices=sorted(_MODE_NAMES), default="rec")
    p.add_argument("--kappa", type=int, default=2)
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out", required=True)
    p.add_argument("--spill", action="store_true",
                   help="accepted for compatibility: steps are always written as they are produced")
    p.add_argument("--save-states", action="store_true", help="also write each fitted compressor as state_<i>.npz")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("evaluate", help="score one compressed matrix against a baseline")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("binary", "csv"), default="binary")
    p.add_argument("--header", action="store_true", help="skip the first CSV line")
    p.add_argument("--labels", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None)
    p.add_argument("--representation", default="")
    p.add_argument("--kind", default="external")
    p.add_argument("--mode", default="external")
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="run the full experiment described by --config")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=None, help="override the config output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stats", help="Friedman/Nemenyi rank statistics from a results file")
    p.add_argument("--records", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--step", type=int, default=2, help="compression step whose scores are ranked")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="emit TSV, JSON, and SVG figures from a results file")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--step", type=int, default=2)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # kappa is not among them: dimension_schedule rejects it as a ScheduleError (exit 1).
        check_lower_bounds({name: getattr(args, name, None) for name in ("folds", "repeats", "seed")})
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
