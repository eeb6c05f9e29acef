import argparse
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from core.cli import build_parser, main
from core.compressors import KINDS, CompressorSpec
from core.experiment import make_synthetic_dataset
from core.io import load_embeddings
from core.pipeline import compress_recursive, dimension_schedule


@pytest.fixture
def synth_dir(tmp_path):
    assert main(["synth", "--docs", "36", "--classes", "3", "--rank", "4", "--dim", "16",
                 "--seed", "3", "--out", str(tmp_path), "--name", "tiny"]) == 0
    return tmp_path


def test_schedule_prints_dims(capsys):
    assert main(["schedule", "--d0", "768", "--kappa", "2"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["384", "192", "96", "48", "24", "12", "6", "3", "2"]


def test_schedule_bad_kappa_exit_code(tmp_path):
    # A kappa below 2 is bad configuration, as it is in a config file; d0 <= kappa is a schedule failure.
    assert main(["schedule", "--d0", "64", "--kappa", "1"]) == 2
    assert main(["compress", "--input", str(tmp_path / "absent.core"), "--spec", str(tmp_path / "absent.json"),
                 "--kappa", "1", "--out", str(tmp_path / "steps")]) == 2
    assert main(["schedule", "--d0", "2", "--kappa", "2"]) == 1


def test_synth_writes_dataset_and_manifest(synth_dir):
    e = load_embeddings(synth_dir / "tiny.core")
    assert e.shape == (36, 16)
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest[0]["name"] == "tiny"
    assert (synth_dir / "tiny.labels").read_text().count("\n") == 36


def test_compress_matches_library(synth_dir, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"kind": "sparse-projection", "seed": 5}')
    out_dir = tmp_path / "steps"
    assert main(["compress", "--input", str(synth_dir / "tiny.core"), "--spec", str(spec_path),
                 "--mode", "rec", "--out", str(out_dir)]) == 0
    run_meta = json.loads((out_dir / "run.json").read_text())
    assert run_meta["dims"] == [8, 4, 2]
    e = load_embeddings(synth_dir / "tiny.core")
    expected = compress_recursive(e, CompressorSpec("sparse-projection", seed=5), dimension_schedule(16, 2))
    for step in expected.steps:
        on_disk = load_embeddings(out_dir / f"step_{step.step}.core")
        np.testing.assert_allclose(on_disk, step.output, atol=2e-7)  # f32 on disk


def test_compress_spill_produces_same_files(synth_dir, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"kind": "random-subspace", "seed": 1}')
    a, b = tmp_path / "a", tmp_path / "b"
    for out, extra in ((a, []), (b, ["--spill"])):
        assert main(["compress", "--input", str(synth_dir / "tiny.core"), "--spec", str(spec_path),
                     "--mode", "dir", "--out", str(out)] + extra) == 0
    for i in (1, 2, 3):
        assert (a / f"step_{i}.core").read_bytes() == (b / f"step_{i}.core").read_bytes()


def test_evaluate_identity_epsilon_zero(synth_dir, capsys):
    args = ["evaluate", "--input", str(synth_dir / "tiny.core"),
            "--baseline", str(synth_dir / "tiny.core"),
            "--labels", str(synth_dir / "tiny.labels"), "--seed", "11"]
    assert main(args) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["epsilon_f1"] == 0.0
    assert record["dim"] == 16
    assert 0.0 <= record["mean_f1"] <= 1.0


def test_evaluate_scores_both_matrices_on_one_fold_plan(synth_dir, monkeypatch, capsys):
    import core.evaluation as evaluation

    real, calls = evaluation.stratified_kfold, []
    monkeypatch.setattr(evaluation, "stratified_kfold", lambda *args: calls.append(args) or real(*args))
    tiny = str(synth_dir / "tiny.core")
    assert main(["evaluate", "--input", tiny, "--baseline", tiny, "--labels", str(synth_dir / "tiny.labels"),
                 "--repeats", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["epsilon_f1"] == 0.0
    assert len(calls) == 3  # one per repeat, not one per repeat and matrix


def test_run_stats_report_pipeline(synth_dir, tmp_path, capsys):
    assert main(["synth", "--docs", "36", "--classes", "3", "--rank", "4", "--dim", "16",
                 "--seed", "4", "--out", str(synth_dir), "--name", "tiny2"]) == 0
    cfg = {
        "manifest": str(synth_dir / "manifest.json"),
        "specs": [{"kind": "svd", "seed": 1}, {"kind": "random-subspace", "seed": 2}],
        "kappa": 2,
        "modes": ["recursive", "direct"],
        "folds": 3,
        "repeats": 2,
        "seed": 9,
        "out_dir": str(tmp_path / "results"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    results = tmp_path / "results" / "results.json"
    assert results.exists()
    capsys.readouterr()

    assert main(["stats", "--records", str(results), "--step", "2", "--alpha", "0.05"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_datasets"] == 2
    assert set(payload["methods"]) == {"svd", "svd-dir", "random-subspace", "random-subspace-dir"}
    assert payload["cd"] > 0
    covered = {m for g in payload["groups"] for m in g}
    assert covered == set(payload["methods"])

    report_dir = tmp_path / "report"
    assert main(["report", "--records", str(results), "--out", str(report_dir), "--step", "2"]) == 0
    assert (report_dir / "results.tsv").exists()
    assert (report_dir / "results.json").exists()
    for svg in ("performance.svg", "cd_step_2.svg"):
        root = ET.parse(report_dir / svg).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"


def test_run_missing_dataset_exit_one(synth_dir, tmp_path):
    cfg = {
        "manifest": str(synth_dir / "manifest.json"),
        "specs": [{"kind": "svd", "seed": 1}],
        "out_dir": str(tmp_path / "results"),
    }
    entries = json.loads((synth_dir / "manifest.json").read_text())
    entries[0]["labels"] = "gone.labels"
    (synth_dir / "manifest.json").write_text(json.dumps(entries))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 1


def test_run_bad_config_exit_two(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"manifest": "m.json", "specs": []}')
    assert main(["run", "--config", str(cfg_path)]) == 2


def test_unknown_compressor_kind_exit_two(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"manifest": "m.json", "specs": [{"kind": "umap"}]}')
    assert main(["run", "--config", str(cfg_path)]) == 2


def test_compress_save_states(synth_dir, tmp_path):
    from core.compressors import load_fitted, transform

    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"kind": "svd-exact"}')
    out_dir = tmp_path / "steps"
    assert main(["compress", "--input", str(synth_dir / "tiny.core"), "--spec", str(spec_path),
                 "--mode", "rec", "--out", str(out_dir), "--save-states"]) == 0
    fc = load_fitted(out_dir / "state_1.npz")
    e = load_embeddings(synth_dir / "tiny.core")
    on_disk = load_embeddings(out_dir / "step_1.core")
    np.testing.assert_allclose(transform(fc, e), on_disk, atol=2e-7)


def test_report_single_dataset_skips_cd(synth_dir, tmp_path, capsys):
    cfg = {
        "manifest": str(synth_dir / "manifest.json"),
        "specs": [{"kind": "svd", "seed": 1}],
        "repeats": 2,
        "out_dir": str(tmp_path / "results"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    report_dir = tmp_path / "report"
    assert main(["report", "--records", str(tmp_path / "results" / "results.json"),
                 "--out", str(report_dir)]) == 0
    assert (report_dir / "performance.svg").exists()
    assert not (report_dir / "cd_step_2.svg").exists()
    assert "skipping CD diagram" in capsys.readouterr().err


def test_compress_csv_input_with_header(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["h1,h2,h3,h4,h5,h6,h7,h8"]
    rows += [",".join(repr(v) for v in row) for row in rng.standard_normal((12, 8)).tolist()]
    (tmp_path / "m.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "spec.json").write_text('{"kind": "svd-exact"}')
    out_dir = tmp_path / "steps"
    assert main(["compress", "--input", str(tmp_path / "m.csv"), "--format", "csv", "--header",
                 "--spec", str(tmp_path / "spec.json"), "--out", str(out_dir)]) == 0
    assert load_embeddings(out_dir / "step_1.core").shape == (12, 4)


@pytest.mark.parametrize(
    "manifest", ["[1, 2]", "{not json", '[{"name": "a", "embeddings": 5, "labels": "a.labels"}]']
)
def test_run_malformed_manifest_exit_one(tmp_path, capsys, manifest):
    (tmp_path / "manifest.json").write_text(manifest)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"manifest": str(tmp_path / "manifest.json"),
                                    "specs": [{"kind": "svd"}], "out_dir": str(tmp_path / "results")}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_compress_numeric_failure_exit_one(synth_dir, tmp_path, monkeypatch, capsys):
    import core.compressors as compressors

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(compressors, "randomized_truncated_svd", no_convergence)
    (tmp_path / "spec.json").write_text('{"kind": "svd"}')
    assert main(["compress", "--input", str(synth_dir / "tiny.core"), "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "steps")]) == 1
    assert capsys.readouterr().err == "error: SVD did not converge\n"


def test_run_records_an_unconverged_classifier_fit_as_a_task_failure(synth_dir, tmp_path, monkeypatch, capsys):
    # A stand-in solver reports every fit on the 4-column step as unconverged: that task fails with
    # exit 1, and the baseline and the other steps' fits are unaffected.
    from core import evaluation

    solver = evaluation.optimize

    class StandIn:
        def minimize(self, fun, x0, args, **kwargs):
            result = solver.minimize(fun, x0, args, **kwargs)
            return result._replace(success=False) if args[0].shape[1] == 4 else result

    monkeypatch.setattr(evaluation, "optimize", StandIn())
    cfg = {"manifest": str(synth_dir / "manifest.json"), "specs": [{"kind": "svd", "seed": 1}], "kappa": 2,
           "modes": ["recursive"], "folds": 3, "repeats": 1, "out_dir": str(tmp_path / "results")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 1
    results = json.loads((tmp_path / "results" / "results.json").read_text())
    [error] = results["meta"]["errors"]
    assert error.startswith("task tiny/svd/recursive: logistic regression did not converge at width 4: ")
    assert error in capsys.readouterr().err
    assert [r["compressor"] for r in results["records"]] == ["baseline"]


BAD_SPECS = [
    {"kind": "umap"},
    {"kind": "svd", "params": {"banana": 1}},
    {"kind": "cluster-mean", "params": {"max_iter": "5"}},
    {"kind": "neural-small", "params": {"max_epochs": "3"}},
    {"kind": "svd", "params": {"oversample": 2.5}},
    {"kind": "cluster-mean", "params": {"max_iter": 0}},
    {"kind": "svd", "params": {"oversample": -5}},
    {"kind": "svd", "params": {"oversample": -100}},
    {"kind": "neural-small", "params": {"max_epochs": 0}},
    {"kind": "cluster-mean", "params": {"tol": float("nan")}},
]


@pytest.mark.parametrize("spec", BAD_SPECS)
def test_compress_bad_spec_exit_two(synth_dir, tmp_path, capsys, spec):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["compress", "--input", str(synth_dir / "tiny.core"), "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "steps")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read compressor spec")


@pytest.mark.parametrize("spec", BAD_SPECS[2:])
def test_run_param_of_wrong_type_exit_two(synth_dir, tmp_path, capsys, spec):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"manifest": str(synth_dir / "manifest.json"), "specs": [spec],
                                    "repeats": 1, "out_dir": str(tmp_path / "results")}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "must be" in capsys.readouterr().err


BAD_FLAGS = {
    "evaluate-repeats-zero": ("evaluate", ["--repeats", "0"], "repeats must be >= 1, got 0"),
    "evaluate-folds-one": ("evaluate", ["--folds", "1"], "folds must be >= 2, got 1"),
    "synth-seed-negative": ("synth", ["--seed", "-1"], "seed must be >= 0, got -1"),
    "compress-seed-negative": ("compress", ["--seed", "-1"], "seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("command, flag, message", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_out_of_range_flag_exit_two(synth_dir, tmp_path, capsys, command, flag, message):
    (tmp_path / "spec.json").write_text('{"kind": "svd"}')
    tiny = str(synth_dir / "tiny.core")
    argv = {
        "evaluate": ["--input", tiny, "--baseline", tiny, "--labels", str(synth_dir / "tiny.labels")],
        "synth": ["--docs", "36", "--classes", "3", "--rank", "4", "--dim", "16"],
        "compress": ["--input", tiny, "--spec", str(tmp_path / "spec.json")],
    }[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out), *flag]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_unknown_config_key_exit_two(synth_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"manifest": str(synth_dir / "manifest.json"), "specs": [{"kind": "svd"}],
                                    "repeat": 5, "out_dir": str(tmp_path / "results")}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error: bad experiment config")
    assert not (tmp_path / "results").exists()


BAD_CONFIG_VALUES = {
    "repeats-string": {"repeats": "2"},
    "folds-string": {"folds": "3"},
    "seed-float": {"seed": 1.5},
    "task-timeout-string": {"task_timeout": "5"},
    "folds-one": {"folds": 1},
    "repeats-zero": {"repeats": 0},
    "margin-nan": {"margin": float("nan")},
    "margin-inf": {"margin": float("inf")},
    "task-timeout-nan": {"task_timeout": float("nan")},
}


@pytest.mark.parametrize("override", BAD_CONFIG_VALUES.values(), ids=BAD_CONFIG_VALUES.keys())
def test_run_bad_config_value_exit_two(synth_dir, tmp_path, capsys, override):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"manifest": str(synth_dir / "manifest.json"), "specs": [{"kind": "svd"}],
                                    "out_dir": str(tmp_path / "results"), **override}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {next(iter(override))} must be")
    assert not (tmp_path / "results").exists()


def test_synth_invalid_existing_manifest_exit_one(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text("{bad")
    assert main(["synth", "--docs", "36", "--classes", "3", "--rank", "4", "--dim", "16",
                 "--out", str(tmp_path), "--name", "tiny"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "tiny.core").exists()
    assert (tmp_path / "manifest.json").read_text() == "{bad"


def test_compress_unknown_spec_key_exit_two(synth_dir, tmp_path, capsys):
    (tmp_path / "spec.json").write_text('{"kind": "svd", "sed": 3}')
    assert main(["compress", "--input", str(synth_dir / "tiny.core"), "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "steps")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read compressor spec")
    assert not (tmp_path / "steps").exists()


def _results_file(path, mutate) -> None:
    """A results file that ``stats`` and ``report`` accept, changed by ``mutate(data)``."""
    records = [
        {"dataset": ds, "representation": "synthetic", "compressor": kind, "mode": "recursive",
         "step": step, "dim": 16 >> step, "mean_f1": 0.8, "std_f1": 0.01,
         "epsilon_f1": 0.01 * (i + j + step), "repeats": 2, "extra": {}}
        for i, ds in enumerate(("a", "b", "c"))
        for j, kind in enumerate(("svd", "random-subspace", "svd-exact"))
        for step in (1, 2)
    ]
    data = {"schema_version": 1, "meta": {}, "records": records}
    mutate(data)
    path.write_text(json.dumps(data))


MALFORMED_RESULTS = {
    "missing-field": lambda d: d["records"][3].pop("dim"),
    "unknown-field": lambda d: d["records"][3].update(f1=0.5),
    "records-not-a-list": lambda d: d.update(records=5),
    "meta-not-an-object": lambda d: d.update(meta=[]),
}


@pytest.mark.parametrize("command", ["stats", "report"])
@pytest.mark.parametrize("mutate", MALFORMED_RESULTS.values(), ids=MALFORMED_RESULTS.keys())
def test_malformed_results_exit_one(tmp_path, capsys, command, mutate):
    _results_file(tmp_path / "results.json", mutate)
    argv = [command, "--records", str(tmp_path / "results.json")]
    if command == "report":
        argv += ["--out", str(tmp_path / "report")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_duplicate_score_is_an_error_not_a_silent_overwrite(tmp_path, capsys):
    def add_second_svd_record(data):
        data["records"].append(dict(data["records"][0], epsilon_f1=-0.3))

    _results_file(tmp_path / "results.json", add_second_svd_record)
    records = str(tmp_path / "results.json")
    assert main(["stats", "--records", records, "--step", "1"]) == 1
    assert capsys.readouterr().err == "error: duplicate score for dataset 'a', method 'svd' at step 1\n"
    assert main(["report", "--records", records, "--out", str(tmp_path / "report"), "--step", "1"]) == 0
    assert "skipping CD diagram: duplicate score" in capsys.readouterr().err
    assert not (tmp_path / "report" / "cd_step_1.svg").exists()


def test_stats_any_alpha_and_method_count(tmp_path, capsys):
    # 9 kinds x 2 modes under two name prefixes rank 36 methods of one representation, past the k = 20
    # of published tables (each representation is ranked on its own).
    methods = [(tag, kind, mode) for tag in ("glove", "bert") for kind in KINDS for mode in ("recursive", "direct")]

    def thirty_six_methods(data):
        data["records"] = [
            dict(data["records"][0], dataset=ds, compressor=f"{tag}-{kind}", mode=mode, step=2, dim=4,
                 epsilon_f1=0.001 * ((7 * j + 5 * i) % 36))
            for i, ds in enumerate(("a", "b", "c"))
            for j, (tag, kind, mode) in enumerate(methods)
        ]

    _results_file(tmp_path / "results.json", thirty_six_methods)
    records = str(tmp_path / "results.json")
    assert main(["stats", "--records", records]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["methods"]) == 36
    assert np.isfinite(payload["q_alpha"]) and payload["q_alpha"] > 3.543799  # k = 20 at alpha 0.05
    assert main(["stats", "--records", records, "--alpha", "0.01"]) == 0
    strict = json.loads(capsys.readouterr().out)
    assert strict["alpha"] == 0.01
    assert np.isfinite(strict["q_alpha"]) and strict["q_alpha"] > payload["q_alpha"]


BAD_RANKING_FLAGS = {
    "stats-alpha-two": ("stats", ["--alpha", "2"], "alpha must be in (0, 1), got 2.0"),
    "stats-alpha-zero": ("stats", ["--alpha", "0"], "alpha must be in (0, 1), got 0.0"),
    "report-alpha-two": ("report", ["--alpha", "2"], "alpha must be in (0, 1), got 2.0"),
    "report-alpha-zero": ("report", ["--alpha", "0"], "alpha must be in (0, 1), got 0.0"),
    "report-alpha-negative": ("report", ["--alpha", "-1"], "alpha must be in (0, 1), got -1.0"),
    "report-alpha-nan": ("report", ["--alpha", "nan"], "alpha must be a finite number, got nan"),
    "report-margin-negative": ("report", ["--margin", "-1"], "margin must be >= 0, got -1.0"),
    "report-margin-nan": ("report", ["--margin", "nan"], "margin must be a finite number, got nan"),
    "report-margin-inf": ("report", ["--margin", "inf"], "margin must be a finite number, got inf"),
    "report-margin-minus-inf": ("report", ["--margin=-inf"], "margin must be a finite number, got -inf"),
}


@pytest.mark.parametrize("command, flag, message", BAD_RANKING_FLAGS.values(), ids=BAD_RANKING_FLAGS.keys())
def test_out_of_range_ranking_flag_exit_two(tmp_path, capsys, command, flag, message):
    # Checked before any work, like the same values in a config: one error line, no output and no report.
    _results_file(tmp_path / "results.json", lambda data: None)
    argv = [command, "--records", str(tmp_path / "results.json"), *flag]
    if command == "report":
        argv += ["--out", str(tmp_path / "report")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "report").exists()


def test_report_margin_zero_is_accepted(tmp_path, capsys):
    _results_file(tmp_path / "results.json", lambda data: None)
    assert main(["report", "--records", str(tmp_path / "results.json"), "--out", str(tmp_path / "report"),
                 "--margin", "0", "--alpha", "0.5"]) == 0
    assert (tmp_path / "report" / "cd_step_2.svg").exists()


TRAIN_RANGE_SPECS = {
    "bn-eps-zero": ({"kind": "neural-small", "params": {"bn_eps": 0}}, "bn_eps must be > 0, got 0"),
    "dropout-one": ({"kind": "neural-large", "params": {"dropout_rate": 1.0}}, "dropout_rate must be in [0, 1), got 1.0"),
}


@pytest.mark.parametrize("spec, message", TRAIN_RANGE_SPECS.values(), ids=TRAIN_RANGE_SPECS.keys())
def test_autoencoder_param_out_of_train_range_exit_two(synth_dir, tmp_path, capsys, spec, message):
    # TrainConfig's ranges are checked when the spec is read, before any fit runs.
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["compress", "--input", str(synth_dir / "tiny.core"), "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "steps")]) == 2
    assert capsys.readouterr().err.endswith(f"{message}\n")
    assert not (tmp_path / "steps").exists()
    (tmp_path / "cfg.json").write_text(json.dumps({"manifest": str(synth_dir / "manifest.json"), "specs": [spec],
                                                    "repeats": 1, "out_dir": str(tmp_path / "results")}))
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 2
    assert capsys.readouterr().err.endswith(f"{message}\n")
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("mode", ["rec", "dir"])
def test_compress_exact_svd_fewer_docs_than_first_dim_exit_one(tmp_path, capsys, mode):
    # In direct mode the shared SVD of a 100x384 input has only 100 components;
    # step 1 must still reject d_out 192, not slice a short state.
    from core.io import save_matrix

    save_matrix(np.random.default_rng(0).standard_normal((100, 384)), tmp_path / "short.core")
    (tmp_path / "spec.json").write_text('{"kind": "svd-exact"}')
    assert main(["compress", "--input", str(tmp_path / "short.core"), "--spec", str(tmp_path / "spec.json"),
                 "--mode", mode, "--out", str(tmp_path / "steps"), "--save-states"]) == 1
    assert capsys.readouterr().err == "error: step 1: d_out must be in [1, 100] for a 100x384 matrix, got 192\n"
    assert not list((tmp_path / "steps").glob("state_*.npz"))


MISTYPED_RESULTS = {
    "epsilon-f1-string": (lambda d: d["records"][3].update(epsilon_f1="x"), "record 3: epsilon_f1 must be a finite number"),
    "step-string": (lambda d: d["records"][3].update(step="2"), "record 3: step must be int"),
    "dataset-number": (lambda d: d["records"][0].update(dataset=5), "record 0: dataset must be str"),
    "dim-bool": (lambda d: d["records"][5].update(dim=True), "record 5: dim must be int"),
    "config-null": (lambda d: d.update(meta={"config": None}), "meta.config must be an object"),
    "margin-string": (lambda d: d.update(meta={"config": {"margin": "x"}}),
                      "meta.config.margin must be a finite number"),
    "margin-nan": (lambda d: d.update(meta={"config": {"margin": float("nan")}}),
                   "meta.config.margin must be a finite number"),
    "margin-inf": (lambda d: d.update(meta={"config": {"margin": float("inf")}}),
                   "meta.config.margin must be a finite number"),
    "mean-f1-nan": (lambda d: d["records"][2].update(mean_f1=float("nan")), "record 2: mean_f1 must be a finite number"),
}


@pytest.mark.parametrize("command", ["stats", "report"])
@pytest.mark.parametrize("mutate, message", MISTYPED_RESULTS.values(), ids=MISTYPED_RESULTS.keys())
def test_mistyped_results_exit_one(tmp_path, capsys, command, mutate, message):
    # Values are checked against the declared field types when the file is read, not where they are used.
    _results_file(tmp_path / "results.json", mutate)
    argv = [command, "--records", str(tmp_path / "results.json")]
    if command == "report":
        argv += ["--out", str(tmp_path / "report")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'results.json'}: {message}, got ")
    assert "Traceback" not in err
    assert not (tmp_path / "report").exists()


def test_compress_seed_flag_overrides_spec_seed(synth_dir, tmp_path):
    for name, seed, extra in (("flag", 1, ["--seed", "7"]), ("file", 7, [])):
        (tmp_path / f"{name}.json").write_text(json.dumps({"kind": "sparse-projection", "seed": seed}))
        assert main(["compress", "--input", str(synth_dir / "tiny.core"), "--spec", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / name)] + extra) == 0
    run_meta = json.loads((tmp_path / "flag" / "run.json").read_text())
    assert run_meta["spec"]["seed"] == 7
    assert [s["file"] for s in run_meta["steps"]] == ["step_1.core", "step_2.core", "step_3.core"]
    for i in (1, 2, 3):
        assert (tmp_path / "flag" / f"step_{i}.core").read_bytes() == (tmp_path / "file" / f"step_{i}.core").read_bytes()


def test_evaluate_out_writes_the_printed_json(synth_dir, tmp_path, capsys):
    args = ["evaluate", "--input", str(synth_dir / "tiny.core"), "--baseline", str(synth_dir / "tiny.core"),
            "--labels", str(synth_dir / "tiny.labels"), "--seed", "3"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path / "record.json")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "record.json").read_text() == printed


def test_run_without_config_exit_two(capsys):
    assert main(["run"]) == 2
    assert capsys.readouterr().err == "error: run requires --config\n"


def test_config_before_the_command_is_a_usage_error(tmp_path):
    # --config belongs to `run` alone; before the command argparse rejects it.
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(tmp_path / "cfg.json"), "run"])
    assert exc.value.code == 2


INPUT_ERROR_LINES = ["empty-manifest", "manifest-empty-path", "zero-row-matrix", "results-schema-2", "synth-one-class"]


@pytest.mark.parametrize("case", INPUT_ERROR_LINES)
def test_input_error_exit_code_and_line(tmp_path, capsys, case):
    import struct

    def path(name):
        return str(tmp_path / name)

    (tmp_path / "empty.json").write_text("[]")
    (tmp_path / "no_path.json").write_text('[{"name": "x", "embeddings": "", "labels": "x.labels"}]')
    for name in ("empty", "no_path"):
        (tmp_path / f"{name}_cfg.json").write_text(json.dumps(
            {"manifest": path(f"{name}.json"), "specs": [{"kind": "svd"}], "out_dir": path("out")}))
    (tmp_path / "zero.core").write_bytes(b"CORE" + struct.pack("<II", 0, 4))
    (tmp_path / "spec.json").write_text('{"kind": "svd"}')
    _results_file(tmp_path / "results.json", lambda d: d.update(schema_version=2))
    argv, code, message = {
        "empty-manifest": (["run", "--config", path("empty_cfg.json")], 1,
                           f"{path('empty.json')}: manifest must be a non-empty JSON array"),
        "manifest-empty-path": (["run", "--config", path("no_path_cfg.json")], 1,
                                f"{path('no_path.json')}: dataset 'x' has empty paths"),
        "zero-row-matrix": (["compress", "--input", path("zero.core"), "--spec", path("spec.json"),
                             "--out", path("out")], 1, f"{path('zero.core')}: invalid shape 0x4"),
        "results-schema-2": (["stats", "--records", path("results.json")], 1,
                             f"unsupported results schema in {path('results.json')}"),
        "synth-one-class": (["synth", "--classes", "1", "--out", path("out")], 2,
                            "bad synthetic shape: docs=600, classes=1, rank=8, dim=64"),
    }[case]
    assert main(argv) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not list(tmp_path.glob("out/*"))


def test_stats_step_without_records_exit_one(tmp_path, capsys):
    _results_file(tmp_path / "results.json", lambda d: None)
    assert main(["stats", "--records", str(tmp_path / "results.json"), "--step", "9"]) == 1
    assert capsys.readouterr().err == "error: no records at step 9\n"


def test_stats_missing_cell_exit_one(tmp_path, capsys):
    def drop_b_svd_at_step_2(data):
        data["records"] = [r for r in data["records"] if (r["dataset"], r["compressor"], r["step"]) != ("b", "svd", 2)]

    _results_file(tmp_path / "results.json", drop_b_svd_at_step_2)
    assert main(["stats", "--records", str(tmp_path / "results.json"), "--step", "2"]) == 1
    assert capsys.readouterr().err == "error: missing score for dataset 'b', method 'svd' at step 2\n"


def test_report_one_step_schedule_plots_one_point(tmp_path, capsys):
    # dim 3 at kappa 2 has the single step 3 -> 2, so the step axis has one tick, centred.
    assert main(["synth", "--docs", "24", "--classes", "2", "--rank", "2", "--dim", "3", "--seed", "5",
                 "--out", str(tmp_path / "data"), "--name", "d3"]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps({
        "manifest": str(tmp_path / "data" / "manifest.json"), "specs": [{"kind": "svd-exact"}],
        "modes": ["recursive"], "folds": 2, "repeats": 1, "out_dir": str(tmp_path / "results"),
    }))
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
    assert main(["report", "--records", str(tmp_path / "results" / "results.json"),
                 "--out", str(tmp_path / "report"), "--step", "1"]) == 0
    polylines = ET.parse(tmp_path / "report" / "performance.svg").getroot().findall(
        ".//{http://www.w3.org/2000/svg}polyline")
    assert [p.get("points").split(",")[0] for p in polylines] == ["395.00"]


CONFIG_VALUES_THAT_CANNOT_RUN = {
    "manifest-number": ({"manifest": 5}, "manifest must be str, got 5"),
    "out-dir-number": ({"out_dir": 7}, "out_dir must be str, got 7"),
    "task-timeout-zero": ({"task_timeout": 0}, "task_timeout must be > 0, got 0"),
    "task-timeout-negative": ({"task_timeout": -5}, "task_timeout must be > 0, got -5"),
    "modes-repeated": ({"modes": ["recursive", "recursive"]},
                       "modes must be a non-empty subset of ('recursive', 'direct'), got ('recursive', 'recursive')"),
    "modes-string": ({"modes": "direct"}, "modes must be a list, got 'direct'"),
}


@pytest.mark.parametrize("override, message", CONFIG_VALUES_THAT_CANNOT_RUN.values(),
                         ids=CONFIG_VALUES_THAT_CANNOT_RUN.keys())
def test_run_config_value_that_cannot_run_exit_two(synth_dir, tmp_path, capsys, monkeypatch, override, message):
    monkeypatch.chdir(tmp_path)  # a relative out_dir would be written here
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"manifest": str(synth_dir / "manifest.json"), "specs": [{"kind": "svd"}],
                                    "out_dir": str(tmp_path / "results"), **override}))
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


# Each input file the CLI reads as text, with what its error calls it and the exit code.
NOT_UTF8_INPUTS = {
    "run-config": ("config", 2),
    "compress-spec": ("compressor spec", 2),
    "compress-csv": ("CSV matrix", 1),
    "evaluate-labels": ("labels", 1),
    "stats-records": ("results", 1),
    "run-manifest": ("manifest", 1),
}


@pytest.mark.parametrize("case", NOT_UTF8_INPUTS)
def test_input_not_utf8_is_one_error_line(synth_dir, tmp_path, capsys, case):
    what, code = NOT_UTF8_INPUTS[case]
    tiny, labels, manifest = (str(synth_dir / name) for name in ("tiny.core", "tiny.labels", "manifest.json"))
    (tmp_path / "spec.json").write_text('{"kind": "svd"}')
    (tmp_path / "m.csv").write_text("1.0,2.0\n3.0,4.0\n")
    (tmp_path / "cfg.json").write_text(json.dumps({"manifest": manifest, "specs": [{"kind": "svd"}],
                                                   "out_dir": str(tmp_path / "results")}))
    (tmp_path / "results.json").write_text(json.dumps({"schema_version": 1, "records": []}))
    spec, cfg = str(tmp_path / "spec.json"), str(tmp_path / "cfg.json")
    out = ["--out", str(tmp_path / "out")]
    bad, argv = {
        "run-config": (cfg, ["run", "--config", cfg]),
        "compress-spec": (spec, ["compress", "--input", tiny, "--spec", spec, *out]),
        "compress-csv": (str(tmp_path / "m.csv"),
                         ["compress", "--input", str(tmp_path / "m.csv"), "--format", "csv", "--spec", spec, *out]),
        "evaluate-labels": (labels, ["evaluate", "--input", tiny, "--baseline", tiny, "--labels", labels]),
        "stats-records": (str(tmp_path / "results.json"), ["stats", "--records", str(tmp_path / "results.json")]),
        "run-manifest": (manifest, ["run", "--config", cfg]),
    }[case]
    data = Path(bad).read_bytes()
    Path(bad).write_bytes(data[:1] + b"\xff" + data[1:])
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {what} {bad}: 'utf-8' codec can't decode byte 0xff in position 1")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists() and not (tmp_path / "results").exists()


def test_diverging_autoencoder_prints_only_its_error_line(tmp_path):
    # A subprocess, because pytest would capture numpy's overflow warnings itself.
    from core.io import save_matrix

    save_matrix(np.random.default_rng(0).standard_normal((80, 32)), tmp_path / "x.core")
    (tmp_path / "spec.json").write_text(json.dumps(
        {"kind": "neural-small", "seed": 1, "params": {"learning_rate": 1e12, "max_epochs": 50}}))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "core", "compress", "--input", str(tmp_path / "x.core"),
         "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "steps")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: step 1: training loss became non-finite at epoch 14\n"


def test_synth_duplicate_name_in_existing_manifest_exit_one(synth_dir, capsys):
    manifest = synth_dir / "manifest.json"
    entries = json.loads(manifest.read_text())
    manifest.write_text(json.dumps(entries * 2))
    before = manifest.read_text()
    assert main(["synth", "--docs", "36", "--classes", "3", "--rank", "4", "--dim", "16",
                 "--out", str(synth_dir), "--name", "other"]) == 1
    assert capsys.readouterr().err == f"error: {manifest}: missing or duplicate dataset name 'tiny'\n"
    assert not (synth_dir / "other.core").exists()
    assert manifest.read_text() == before


def test_synth_bad_shape_creates_no_out_directory(tmp_path, capsys):
    out = tmp_path / "X"
    assert main(["synth", "--classes", "1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: bad synthetic shape: docs=600, classes=1, rank=8, dim=64\n")
    assert not out.exists()


def _big_csv(path):
    x = np.random.default_rng(0).standard_normal((40, 8)) * 1e200
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in x))
    return float(x[0, 0])


@pytest.mark.parametrize("kind", ["svd-exact", "cluster-mean"])
def test_compress_csv_value_beyond_f32_exit_one(tmp_path, capsys, kind):
    # Before, svd-exact wrote steps that could not be read back, and cluster-mean ended in a traceback.
    first = _big_csv(tmp_path / "big.csv")
    (tmp_path / "spec.json").write_text(json.dumps({"kind": kind}))
    out = tmp_path / "steps"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compress", "--input", str(tmp_path / "big.csv"), "--format", "csv",
                     "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: row 1, col 1: {first} does not fit in f32\n")
    assert not out.exists()


def test_synth_value_beyond_f32_exit_one_and_writes_nothing(synth_dir, capsys):
    manifest = (synth_dir / "manifest.json").read_text()
    e, _ = make_synthetic_dataset(separation=1e39)
    r, c = np.argwhere(np.abs(e) > np.finfo(np.float32).max)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", "--separation", "1e39", "--out", str(synth_dir)]) == 1
    assert capsys.readouterr() == ("", f"error: row {r + 1}, col {c + 1}: {float(e[r, c])} does not fit in f32\n")
    assert not (synth_dir / "synth.core").exists() and not (synth_dir / "synth.labels").exists()
    assert (synth_dir / "manifest.json").read_text() == manifest


def test_boolean_spec_seed_exit_two(synth_dir, tmp_path, capsys):
    spec = {"kind": "svd", "seed": True}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["compress", "--input", str(synth_dir / "tiny.core"), "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "steps")]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot read compressor spec {tmp_path / 'spec.json'}: "
            "seed must be a non-negative integer, got True\n")
    assert not (tmp_path / "steps").exists()
    (tmp_path / "cfg.json").write_text(json.dumps({"manifest": str(synth_dir / "manifest.json"), "specs": [spec],
                                                   "out_dir": str(tmp_path / "results")}))
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 2
    assert capsys.readouterr() == ("", "error: bad experiment config: seed must be a non-negative integer, got True\n")
    assert not (tmp_path / "results").exists()


def test_run_ignores_the_spec_seed(synth_dir, tmp_path, capsys):
    # Compressor seeds come from the config seed, the dataset, the spec index and the repeat.
    records = []
    for seed in (1, 999):
        cfg_path = tmp_path / f"cfg{seed}.json"
        cfg_path.write_text(json.dumps({"manifest": str(synth_dir / "manifest.json"),
                                        "specs": [{"kind": "svd", "seed": seed}], "repeats": 1,
                                        "out_dir": str(tmp_path / f"results{seed}")}))
        assert main(["run", "--config", str(cfg_path)]) == 0
        records.append(json.loads((tmp_path / f"results{seed}" / "results.json").read_text())["records"])
    assert records[0] and records[0] == records[1]


@pytest.mark.parametrize("separation, code, error", [
    ("1e39", 1, "error: row 1, col 1: "),  # the matrix does not fit in f32
    ("nan", 2, "error: separation must be a finite number, got nan"),  # rejected as a flag, before any work
], ids=["1e39", "nan"])
def test_synth_matrix_rejected_creates_no_out_directory(tmp_path, capsys, separation, code, error):
    out = tmp_path / "X"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", "--separation", separation, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(error)
    assert not out.exists()


def _float_flags() -> list[tuple[str, str]]:
    """Every (subcommand, flag) pair whose value argparse reads as a float."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0]) for command, sub in subparsers.choices.items()
            for action in sub._actions if action.type is float]


def test_float_flags_are_the_known_ones():
    # Guards the enumeration below: a new float flag shows here and is then covered there.
    assert set(_float_flags()) == {("synth", "--separation"), ("synth", "--within"), ("synth", "--noise"),
                                   ("stats", "--alpha"), ("report", "--alpha"), ("report", "--margin")}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", _float_flags())
def test_non_finite_float_flag_exit_two_before_any_work(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    required = {"synth": ["--out", str(out)], "stats": ["--records", str(tmp_path / "results.json")],
                "report": ["--records", str(tmp_path / "results.json"), "--out", str(out)]}[command]
    assert main([command, *required, f"{flag}={value}"]) == 2
    assert capsys.readouterr() == ("", f"error: {flag[2:]} must be a finite number, got {value}\n")
    assert not out.exists()


def _two_representations(tmp_path, capsys, second="doc2vec", second_dim=16) -> Path:
    """``results.json`` of four 60-document synthetic datasets, ``a`` and ``b`` of representation
    ``bert`` at dim 16 and ``c`` and ``d`` of ``second`` at ``second_dim``, run with ``svd`` and
    ``random-subspace`` in both modes, 3x1 CV."""
    data = tmp_path / "data"
    for seed, name in enumerate("abcd"):
        dim = 16 if name in "ab" else second_dim
        assert main(["synth", "--docs", "60", "--classes", "3", "--rank", "4", "--dim", str(dim), "--seed", str(seed),
                     "--out", str(data), "--name", name]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    for entry in manifest:
        entry["representation"] = "bert" if entry["name"] in "ab" else second
    (data / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "cfg.json").write_text(json.dumps({
        "manifest": str(data / "manifest.json"), "specs": [{"kind": "svd"}, {"kind": "random-subspace"}],
        "folds": 3, "repeats": 1, "out_dir": str(tmp_path / "results"),
    }))
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
    capsys.readouterr()
    return tmp_path / "results" / "results.json"


def _legend(path: Path) -> list[str]:
    """The series names in the legend of the performance figure at ``path``."""
    texts = ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")
    return [t.text for t in texts if t.get("text-anchor") is None]  # titles and tick labels are anchored


def test_each_representation_is_ranked_and_drawn_on_its_own(tmp_path, capsys):
    results = _two_representations(tmp_path, capsys)
    assert main(["stats", "--records", str(results)]) == 0
    payloads = json.loads(capsys.readouterr().out)
    assert sorted(payloads) == ["bert", "doc2vec"]
    full = json.loads(results.read_text())
    for rep, payload in payloads.items():
        assert payload["methods"] == ["random-subspace", "random-subspace-dir", "svd", "svd-dir"]
        assert payload["n_datasets"] == 2
        # The same payload as stats on a results file that holds this representation alone.
        alone = tmp_path / f"{rep}.json"
        alone.write_text(json.dumps(dict(full, records=[r for r in full["records"] if r["representation"] == rep])))
        assert main(["stats", "--records", str(alone)]) == 0
        assert json.loads(capsys.readouterr().out) == payload

    report_dir = tmp_path / "report"
    assert main(["report", "--records", str(results), "--out", str(report_dir)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in report_dir.glob("*.svg")) == [
        "cd_step_2_bert.svg", "cd_step_2_doc2vec.svg", "performance_bert.svg", "performance_doc2vec.svg"]
    for rep in ("bert", "doc2vec"):
        assert _legend(report_dir / f"performance_{rep}.svg") == [
            "random-subspace", "random-subspace-dir", "svd", "svd-dir"]


def test_representation_with_one_dataset_names_itself(tmp_path, capsys):
    results = _two_representations(tmp_path, capsys)
    data = json.loads(results.read_text())
    data["records"] = [r for r in data["records"] if r["dataset"] != "d"]
    results.write_text(json.dumps(data))
    message = "representation 'doc2vec': Friedman test needs N >= 2 and k >= 2, got N=1, k=4"
    assert main(["stats", "--records", str(results)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["report", "--records", str(results), "--out", str(tmp_path / "report")]) == 0
    assert capsys.readouterr().err == f"skipping CD diagram: {message}\n"
    assert [p.name for p in (tmp_path / "report").glob("cd_step_*.svg")] == ["cd_step_2_bert.svg"]


def test_step_that_one_representation_does_not_reach(tmp_path, capsys):
    # doc2vec at dim 8 has 2 steps and bert at dim 16 has 3: at step 3 the split stays by representation.
    results = _two_representations(tmp_path, capsys, second_dim=8)
    assert main(["stats", "--records", str(results), "--step", "3"]) == 1
    assert capsys.readouterr() == ("", "error: representation 'doc2vec': no records at step 3\n")
    report_dir = tmp_path / "report"
    assert main(["report", "--records", str(results), "--out", str(report_dir), "--step", "3"]) == 0
    assert capsys.readouterr().err == "skipping CD diagram: representation 'doc2vec': no records at step 3\n"
    assert sorted(p.name for p in report_dir.glob("*.svg")) == [
        "cd_step_3_bert.svg", "performance_bert.svg", "performance_doc2vec.svg"]


def test_representation_that_cannot_be_a_file_name_is_skipped(tmp_path, capsys):
    results = _two_representations(tmp_path, capsys, second="a/b")
    report_dir = tmp_path / "report"
    assert main(["report", "--records", str(results), "--out", str(report_dir)]) == 0
    out, err = capsys.readouterr()
    assert err == "skipping figures: representation 'a/b' cannot be part of a file name\n"
    assert out == f"wrote results.tsv, results.json, performance_bert.svg, cd_step_2_bert.svg to {report_dir}\n"
    assert sorted(p.name for p in report_dir.rglob("*.svg")) == ["cd_step_2_bert.svg", "performance_bert.svg"]


def test_representation_without_compression_steps_names_itself(tmp_path, capsys):
    results = _two_representations(tmp_path, capsys)
    data = json.loads(results.read_text())
    data["records"] = [dict(r, step=0) if r["representation"] == "doc2vec" else r for r in data["records"]]
    results.write_text(json.dumps(data))
    assert main(["report", "--records", str(results), "--out", str(tmp_path / "report")]) == 1
    assert capsys.readouterr().err == "error: representation 'doc2vec': no compression steps to plot\n"
