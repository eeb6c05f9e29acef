"""Result tables and figure emitters (TSV, JSON, standalone SVG)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_type_hints

from .compressors import number_like
from .errors import CoreError
from .evaluation import EvaluationRecord
from .io import read_input
from .stats import CriticalDistance, RankMatrix, cd_diagram_layout

SCHEMA_VERSION = 1
# The declared type of each record field: what the results reader checks and the TSV formats by.
RECORD_TYPES = get_type_hints(EvaluationRecord)
TSV_COLUMNS = tuple(name for name, kind in RECORD_TYPES.items() if kind in (str, int, float) and name != "repeats")
SVG_WIDTH = 900
SVG_HEIGHT = 500

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
)


@dataclass
class ResultsTable:
    records: list[EvaluationRecord]
    meta: dict = field(default_factory=dict)

    def sorted_records(self) -> list[EvaluationRecord]:
        return sorted(
            self.records,
            key=lambda r: (r.dataset, r.representation, r.compressor, r.mode, r.step),
        )


def series_name(compressor: str, mode: str) -> str:
    return f"{compressor}-dir" if mode == "direct" else compressor


def highlighted(record: EvaluationRecord) -> bool:
    # Full-precision sign test, decoupled from the 3-decimal rendering.
    return record.epsilon_f1 >= 0


def table_to_dict(t: ResultsTable) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": t.meta,
        "records": [asdict(r) for r in t.sorted_records()],
    }


def emit_json(t: ResultsTable, path: str | Path) -> None:
    """Lossless full-precision dump, record order fixed for diff stability."""
    Path(path).write_text(json.dumps(table_to_dict(t), indent=2, sort_keys=True) + "\n")


def load_results(path: str | Path) -> ResultsTable:
    data = read_input(path, CoreError, "results", json.loads)
    if not isinstance(data, dict) or data.get("schema_version") != SCHEMA_VERSION:
        raise CoreError(f"unsupported results schema in {path}")
    records, meta = data.get("records"), data.get("meta", {})
    if not isinstance(records, list) or not isinstance(meta, dict):
        raise CoreError(f"{path}: 'records' must be a list and 'meta' an object")
    config = meta.get("config", {})
    if not isinstance(config, dict):
        raise CoreError(f"{path}: meta.config must be an object, got {config!r}")
    if not number_like(config.get("margin", 0.0), 0.0):
        raise CoreError(f"{path}: meta.config.margin must be a number, got {config['margin']!r}")
    return ResultsTable(records=[_record(path, i, r) for i, r in enumerate(records)], meta=meta)


def _record(path: str | Path, index: int, data) -> EvaluationRecord:
    """Record ``index`` of a results file, each value of its declared type (``bool`` is no number)."""
    try:
        record = EvaluationRecord(**data)
    except TypeError as exc:
        raise CoreError(f"{path}: malformed record {index} ({exc})") from exc
    for name, kind in RECORD_TYPES.items():
        value = getattr(record, name)
        if not (number_like(value, kind()) if kind in (int, float) else isinstance(value, kind)):
            raise CoreError(f"{path}: record {index}: {name} must be {kind.__name__}, got {value!r}")
    return record


def emit_tsv(t: ResultsTable, path: str | Path) -> None:
    """Three-decimal TSV plus a full-precision JSON twin next to it."""
    if not t.records:
        raise CoreError("cannot emit an empty results table")
    path = Path(path)
    lines = ["\t".join(TSV_COLUMNS + ("highlight",))]
    for r in t.sorted_records():
        cells = [format(getattr(r, name), ".3f" if RECORD_TYPES[name] is float else "") for name in TSV_COLUMNS]
        lines.append("\t".join(cells + ["true" if highlighted(r) else "false"]))
    path.write_text("\n".join(lines) + "\n")
    emit_json(t, path.with_suffix(".json"))


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}" font-family="sans-serif">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{SVG_WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16">{_esc(title)}</text>',
    ]


def emit_performance_svg(t: ResultsTable, path: str | Path, margin: float = 0.05) -> None:
    """Mean epsilon-F1 per compression step, one polyline per (compressor, mode)."""
    steps = sorted({r.step for r in t.records if r.step >= 1})
    if not steps:
        raise CoreError("no compression steps to plot")
    series: dict[str, dict[int, list[float]]] = {}
    for r in t.records:
        if r.step < 1:
            continue
        series.setdefault(series_name(r.compressor, r.mode), {}).setdefault(r.step, []).append(r.epsilon_f1)
    names = sorted(series)
    means = {
        name: {s: sum(v) / len(v) for s, v in per_step.items()} for name, per_step in series.items()
    }

    left, right, top, bottom = 70, 180, 50, 60
    x0, x1 = left, SVG_WIDTH - right
    y0, y1 = SVG_HEIGHT - bottom, top
    all_y = [v for per_step in means.values() for v in per_step.values()] + [-margin, 0.0]
    lo, hi = min(all_y), max(all_y)
    pad = 0.05 * (hi - lo) or 0.05
    lo, hi = lo - pad, hi + pad

    def px(step: int) -> float:
        if len(steps) == 1:
            return (x0 + x1) / 2
        return x0 + (steps.index(step)) * (x1 - x0) / (len(steps) - 1)

    def py(v: float) -> float:
        return y0 + (v - lo) * (y1 - y0) / (hi - lo)

    out = _svg_open("Mean epsilon-F1 vs compression step")
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#000"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#000"/>')
    for s in steps:
        out.append(f'<text x="{px(s):.2f}" y="{y0 + 20}" text-anchor="middle" font-size="11">{s}</text>')
    ticks = [lo + pad, hi - pad]
    if all(abs(t) > 0.04 * (hi - lo) for t in ticks):
        ticks.insert(1, 0.0)
    for v in ticks:
        out.append(f'<text x="{x0 - 8}" y="{py(v) + 4:.2f}" text-anchor="end" font-size="11">{v:.3f}</text>')
    out.append(
        f'<line class="zero" x1="{x0}" y1="{py(0.0):.2f}" x2="{x1}" y2="{py(0.0):.2f}" '
        'stroke="#999" stroke-dasharray="2,3"/>'
    )
    out.append(
        f'<line class="margin" data-value="{-margin!r}" x1="{x0}" y1="{py(-margin):.2f}" '
        f'x2="{x1}" y2="{py(-margin):.2f}" stroke="#d62728" stroke-dasharray="6,3"/>'
    )
    for idx, name in enumerate(names):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{px(s):.2f},{py(means[name][s]):.2f}" for s in steps if s in means[name])
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>')
        ly = top + 16 * idx
        out.append(f'<line x1="{x1 + 14}" y1="{ly}" x2="{x1 + 34}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{x1 + 40}" y="{ly + 4}" font-size="11">{_esc(name)}</text>')
    out.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{SVG_HEIGHT - 16}" text-anchor="middle" font-size="12">compression step</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")


def emit_cd_svg(r: RankMatrix, cd: CriticalDistance, path: str | Path) -> None:
    """Critical-distance diagram: rank axis, method ticks, CD ruler, group bars."""
    k = r.n_methods
    left, right = 80, 80
    x0, x1 = left, SVG_WIDTH - right
    axis_y = 150

    def px(rank: float) -> float:
        return x0 + (rank - 1.0) * (x1 - x0) / (k - 1)

    out = _svg_open(f"Average ranks (CD = {cd.cd:.3f} at alpha = {cd.alpha})")
    out.append(f'<line x1="{x0}" y1="{axis_y}" x2="{x1}" y2="{axis_y}" stroke="#000" stroke-width="2"/>')
    for tick in range(1, k + 1):
        out.append(f'<line x1="{px(tick):.2f}" y1="{axis_y - 6}" x2="{px(tick):.2f}" y2="{axis_y + 6}" stroke="#000"/>')
        out.append(f'<text x="{px(tick):.2f}" y="{axis_y - 12}" text-anchor="middle" font-size="11">{tick}</text>')
    # CD ruler above the axis, anchored at rank 1.
    ruler_y = axis_y - 46
    out.append(
        f'<line class="cd-ruler" x1="{px(1.0):.2f}" y1="{ruler_y}" x2="{px(min(1.0 + cd.cd, float(k))):.2f}" '
        f'y2="{ruler_y}" stroke="#d62728" stroke-width="3"/>'
    )
    out.append(f'<text x="{px(1.0):.2f}" y="{ruler_y - 8}" font-size="11" fill="#d62728">CD</text>')

    order = sorted(range(k), key=lambda i: (r.avg_ranks[i], r.methods[i]))
    for slot, i in enumerate(order):
        x = px(float(r.avg_ranks[i]))
        ly = axis_y + 30 + (slot % 5) * 22
        out.append(f'<line class="method-tick" x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" y2="{ly - 10}" stroke="#555"/>')
        out.append(
            f'<text x="{x:.2f}" y="{ly}" text-anchor="middle" font-size="11">'
            f"{_esc(r.methods[i])} ({r.avg_ranks[i]:.2f})</text>"
        )
    bars = [g for g in cd_diagram_layout(r, cd) if len(g.methods) > 1]
    for depth, g in enumerate(bars):
        y = axis_y - 18 - 9 * depth
        out.append(
            f'<line class="group-bar" x1="{px(g.lo):.2f}" y1="{y}" x2="{px(g.hi):.2f}" y2="{y}" '
            'stroke="#000" stroke-width="4" stroke-linecap="round"/>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")
