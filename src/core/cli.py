"""Command-line interface: schedule | synth | compress | evaluate | run | stats | report."""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .compressors import CompressorSpec, save_fitted
from .errors import FAILURES, CompressorError, ConfigError, CoreError, DatasetError
from .evaluation import EvaluationRecord, evaluate_representation, fold_plan, scored_record
from .experiment import (
    ExperimentConfig,
    check_lower_bounds,
    load_config,
    make_synthetic_dataset,
    run_experiment,
    write_synthetic_dataset,
)
from .io import check_manifest, load_embeddings, load_labels, read_input, save_matrix, validate_dataset
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
# `core synth` has one flag per parameter, with its type and default.
SYNTH_PARAMS = inspect.signature(make_synthetic_dataset).parameters


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
        entries = read_input(manifest_path, DatasetError, "manifest", json.loads)
        check_manifest(manifest_path, entries)  # before anything is written
    entry = write_synthetic_dataset(args.out, args.name, **{k: getattr(args, k) for k in SYNTH_PARAMS})
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
    plan = fold_plan(labels, args.folds, args.seed, args.repeats)  # one fold plan for both matrices
    compressed = evaluate_representation(e, labels, args.folds, args.repeats, args.seed, plan)
    baseline = evaluate_representation(base, labels, args.folds, args.repeats, args.seed, plan)
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
    if args.config is None:
        raise ConfigError("run requires --config")
    overrides = {"seed": args.seed, "threads": args.threads, "out_dir": args.out}
    cfg = replace(load_config(args.config), **{k: v for k, v in overrides.items() if v is not None})
    table = run_experiment(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_json(table, out_dir / "results.json")
    errors = table.meta.get("errors", [])
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    print(f"wrote {out_dir / 'results.json'} ({len(table.records)} records, {len(errors)} errors)")
    return 1 if errors else 0


def _by_representation(table: ResultsTable) -> dict[str | None, list[EvaluationRecord]]:
    """The records by representation, in name order: each representation is ranked and drawn on
    its own. A single representation's records are keyed ``None``, so nothing is named after it."""
    sets: dict[str, list[EvaluationRecord]] = {}
    for r in table.records:
        sets.setdefault(r.representation, []).append(r)
    return dict(sorted(sets.items())) if len(sets) > 1 else {None: table.records}


def _ranked(records: list[EvaluationRecord], step: int, alpha: float, representation: str | None):
    """Average ranks of ``records`` at ``step`` (one representation's), their Friedman test and the
    Nemenyi critical difference. An error names ``representation`` unless it is ``None``."""
    try:
        records = [r for r in records if r.step == step]
        if not records:
            raise CoreError(f"no records at step {step}")
        datasets = sorted({r.dataset for r in records})
        methods = sorted({series_name(r.compressor, r.mode) for r in records})
        cells = {}
        for r in records:
            ds, m = r.dataset, series_name(r.compressor, r.mode)
            if (ds, m) in cells:
                raise CoreError(f"duplicate score for dataset {ds!r}, method {m!r} at step {step}")
            cells[(ds, m)] = r.epsilon_f1
        scores = np.empty((len(datasets), len(methods)))
        for i, ds in enumerate(datasets):
            for j, m in enumerate(methods):
                if (ds, m) not in cells:
                    raise CoreError(f"missing score for dataset {ds!r}, method {m!r} at step {step}")
                scores[i, j] = cells[(ds, m)]
        ranks = average_ranks(scores, tuple(methods), tuple(datasets))
        return ranks, friedman_test(ranks), nemenyi_cd(ranks.n_methods, ranks.n_datasets, alpha)
    except CoreError as exc:
        raise exc if representation is None else CoreError(f"representation {representation!r}: {exc}")


def cmd_stats(args) -> int:
    payloads = {}
    for rep, records in _by_representation(load_results(args.records)).items():
        ranks, fried, cd = _ranked(records, args.step, args.alpha, rep)
        payloads[rep] = {
            "step": args.step,
            "n_datasets": ranks.n_datasets,
            "methods": list(ranks.methods),
            "avg_ranks": {m: ranks.avg_ranks[j] for j, m in enumerate(ranks.methods)},
            **asdict(fried),
            **asdict(cd),
            "groups": [list(g.methods) for g in cd_diagram_layout(ranks, cd)],
        }
    # One representation prints its payload; several print one per representation, keyed by name.
    print(json.dumps(payloads.pop(None, payloads), indent=2, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    table = load_results(args.records)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    margin = args.margin if args.margin is not None else table.meta.get("config", {}).get("margin", ExperimentConfig.margin)
    emit_tsv(table, out_dir / "results.tsv")
    written = ["results.tsv", "results.json"]
    for rep, records in _by_representation(table).items():
        suffix = "" if rep is None else f"_{rep}"
        performance, cd_name = f"performance{suffix}.svg", f"cd_step_{args.step}{suffix}.svg"
        if Path(performance).name != performance or not performance.isprintable():
            print(f"skipping figures: representation {rep!r} cannot be part of a file name", file=sys.stderr)
            continue
        try:
            emit_performance_svg(ResultsTable(records), out_dir / performance, margin=margin)
        except CoreError as exc:  # a representation without compression steps
            raise exc if rep is None else CoreError(f"representation {rep!r}: {exc}")
        written.append(performance)
        try:  # no diagram where the rank test is undefined
            ranks, _, cd = _ranked(records, args.step, args.alpha, rep)
            emit_cd_svg(ranks, cd, out_dir / cd_name)
            written.append(cd_name)
        except CoreError as exc:
            print(f"skipping CD diagram: {exc}", file=sys.stderr)
    print(f"wrote {', '.join(written)} to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="core", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    matrix_input = argparse.ArgumentParser(add_help=False)  # compress, evaluate
    matrix_input.add_argument("--input", required=True)
    matrix_input.add_argument("--format", choices=("binary", "csv"), default="binary")
    matrix_input.add_argument("--header", action="store_true", help="skip the first CSV line")
    ranking = argparse.ArgumentParser(add_help=False)  # stats, report
    ranking.add_argument("--records", required=True)
    ranking.add_argument("--alpha", type=float, default=0.05)
    ranking.add_argument("--step", type=int, default=2, help="compression step whose scores are ranked")

    p = sub.add_parser("schedule", help="print the dimension schedule, one per line")
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--kappa", type=int, default=ExperimentConfig.kappa)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    for name, param in SYNTH_PARAMS.items():
        p.add_argument(f"--{name}", type=type(param.default), default=param.default)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default="synth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("compress", parents=[matrix_input], help="run one compression schedule and write step files")
    p.add_argument("--spec", required=True, help="JSON file: {kind, seed, params}")
    p.add_argument("--mode", choices=sorted(_MODE_NAMES), default="rec")
    p.add_argument("--kappa", type=int, default=ExperimentConfig.kappa)
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out", required=True)
    p.add_argument("--spill", action="store_true",
                   help="accepted for compatibility: steps are always written as they are produced")
    p.add_argument("--save-states", action="store_true", help="also write each fitted compressor as state_<i>.npz")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("evaluate", parents=[matrix_input], help="score one compressed matrix against a baseline")
    p.add_argument("--labels", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--folds", type=int, default=ExperimentConfig.folds)
    p.add_argument("--repeats", type=int, default=ExperimentConfig.repeats)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
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

    p = sub.add_parser("stats", parents=[ranking], help="Friedman/Nemenyi rank statistics from a results file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", parents=[ranking], help="emit TSV, JSON, and SVG figures from a results file")
    p.add_argument("--out", required=True)
    p.add_argument("--margin", type=float, default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value}")
        check_lower_bounds(vars(args))
        if "alpha" in args and not 0 < args.alpha < 1:  # nemenyi_cd's rule, checked before any work
            raise ConfigError(f"alpha must be in (0, 1), got {args.alpha}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
