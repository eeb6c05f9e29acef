import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from core.errors import CoreError
from core.evaluation import EvaluationRecord
from core.report import (
    ResultsTable,
    emit_cd_svg,
    emit_json,
    emit_performance_svg,
    emit_tsv,
    highlighted,
    load_results,
    series_name,
)
from core.stats import average_ranks, nemenyi_cd

SVG_NS = "{http://www.w3.org/2000/svg}"


def record(dataset="ds", compressor="svd", mode="recursive", step=1, dim=32, eps=0.0, mean=0.8):
    return EvaluationRecord(
        dataset=dataset,
        representation="synthetic",
        compressor=compressor,
        mode=mode,
        step=step,
        dim=dim,
        mean_f1=mean,
        std_f1=0.01,
        epsilon_f1=eps,
        repeats=3,
    )


def svg_elements(path, tag):
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    return root.findall(f".//{SVG_NS}{tag}")


def test_highlight_rules():
    assert highlighted(record(eps=0.001))
    assert not highlighted(record(eps=-0.004))
    assert highlighted(record(eps=0.0))
    # Full-precision sign, decoupled from the 3-decimal rendering of -0.000.
    assert not highlighted(record(eps=-0.0001))


def test_series_name_direct_suffix():
    assert series_name("svd", "recursive") == "svd"
    assert series_name("svd", "direct") == "svd-dir"


def test_tsv_columns_and_highlight(tmp_path):
    table = ResultsTable(records=[record(eps=0.001), record(step=2, dim=16, eps=-0.0001)])
    out = tmp_path / "r.tsv"
    emit_tsv(table, out)
    lines = out.read_text().splitlines()
    assert lines[0].split("\t") == [
        "dataset", "representation", "compressor", "mode", "step", "dim",
        "mean_f1", "std_f1", "epsilon_f1", "highlight",
    ]
    first, second = lines[1].split("\t"), lines[2].split("\t")
    assert first[-1] == "true" and first[-2] == "0.001"
    assert second[-1] == "false" and second[-2] == "-0.000"
    # full-precision twin written next to the tsv
    twin = json.loads((tmp_path / "r.json").read_text())
    assert twin["records"][1]["epsilon_f1"] == -0.0001


def test_tsv_empty_table(tmp_path):
    with pytest.raises(CoreError):
        emit_tsv(ResultsTable(records=[]), tmp_path / "r.tsv")


def test_json_roundtrip_and_sorted(tmp_path):
    records = [
        record(dataset="b", step=2),
        record(dataset="a", step=1),
        record(dataset="a", compressor="cluster-mean", step=1),
    ]
    table = ResultsTable(records=records, meta={"note": "x"})
    out = tmp_path / "results.json"
    emit_json(table, out)
    data = json.loads(out.read_text())
    assert data["schema_version"] == 1
    keys = [(r["dataset"], r["compressor"], r["mode"], r["step"]) for r in data["records"]]
    assert keys == sorted(keys)
    back = load_results(out)
    assert back.sorted_records() == table.sorted_records()
    assert back.meta == table.meta


def test_performance_svg_structure(tmp_path):
    records = [
        record(compressor="svd", step=s, eps=-0.01 * s) for s in (1, 2, 3)
    ] + [
        record(compressor="cluster-max", mode="direct", step=s, eps=-0.02 * s) for s in (1, 2, 3)
    ]
    out = tmp_path / "perf.svg"
    emit_performance_svg(ResultsTable(records=records), out, margin=0.05)
    polylines = svg_elements(out, "polyline")
    assert len(polylines) == 2
    for poly in polylines:
        assert len(poly.attrib["points"].split()) == 3
    margin_lines = [e for e in svg_elements(out, "line") if e.get("class") == "margin"]
    assert len(margin_lines) == 1
    assert margin_lines[0].get("data-value") == "-0.05"
    text = out.read_text()
    assert "cluster-max-dir" in text and ">svd<" in text


def test_performance_svg_margin_line_in_data_coordinates(tmp_path):
    records = [record(step=1, eps=0.0), record(step=2, eps=-0.1)]
    out = tmp_path / "perf.svg"
    emit_performance_svg(ResultsTable(records=records), out, margin=0.05)
    lines = {e.get("class"): e for e in svg_elements(out, "line") if e.get("class")}
    zero_y = float(lines["zero"].get("y1"))
    margin_y = float(lines["margin"].get("y1"))
    # -0.05 sits below 0 on screen (larger pixel y), halfway to the -0.1 point.
    assert margin_y > zero_y


def test_performance_svg_requires_steps(tmp_path):
    baseline_only = ResultsTable(records=[record(compressor="baseline", mode="none", step=0)])
    with pytest.raises(CoreError):
        emit_performance_svg(baseline_only, tmp_path / "perf.svg")


def test_cd_svg_single_group(tmp_path):
    r = average_ranks(np.full((4, 3), 0.7))
    cd = nemenyi_cd(3, 4, 0.05)
    out = tmp_path / "cd.svg"
    emit_cd_svg(r, cd, out)
    bars = [e for e in svg_elements(out, "line") if e.get("class") == "group-bar"]
    assert len(bars) == 1


def test_cd_svg_no_groups_when_separated(tmp_path):
    scores = np.tile([0.95, 0.05], (40, 1))
    r = average_ranks(scores)
    out = tmp_path / "cd.svg"
    emit_cd_svg(r, nemenyi_cd(2, 40, 0.05), out)
    bars = [e for e in svg_elements(out, "line") if e.get("class") == "group-bar"]
    assert bars == []


def test_cd_svg_tick_positions_affine(tmp_path):
    scores = np.tile([0.9, 0.5, 0.1], (5, 1))
    r = average_ranks(scores)  # avg ranks exactly 1, 2, 3
    out = tmp_path / "cd.svg"
    emit_cd_svg(r, nemenyi_cd(3, 5, 0.05), out)
    ticks = [e for e in svg_elements(out, "line") if e.get("class") == "method-tick"]
    xs = sorted(float(t.get("x1")) for t in ticks)
    assert xs[1] - xs[0] == pytest.approx(xs[2] - xs[1], abs=1e-6)
    axis = [
        e
        for e in svg_elements(out, "line")
        if e.get("class") is None and e.get("stroke-width") == "2"
    ]
    x0, x1 = float(axis[0].get("x1")), float(axis[0].get("x2"))
    assert xs[0] == pytest.approx(x0, abs=1e-6)  # rank 1 at the left edge
    assert xs[2] == pytest.approx(x1, abs=1e-6)  # rank k at the right edge


def test_svgs_are_well_formed_xml(tmp_path):
    records = [record(step=s, eps=0.01 * s) for s in (1, 2)]
    emit_performance_svg(ResultsTable(records=records), tmp_path / "a.svg")
    r = average_ranks(np.random.default_rng(0).random((4, 5)))
    emit_cd_svg(r, nemenyi_cd(5, 4, 0.05), tmp_path / "b.svg")
    for name in ("a.svg", "b.svg"):
        root = ET.parse(tmp_path / name).getroot()
        assert root.tag == f"{SVG_NS}svg"


def test_load_results_invalid_json(tmp_path):
    path = tmp_path / "results.json"
    path.write_text("{bad")
    with pytest.raises(CoreError) as info:
        load_results(path)
    assert str(info.value) == (
        f"cannot read results {path}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    )
