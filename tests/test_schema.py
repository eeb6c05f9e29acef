"""Byte pins for what is serialized straight from dataclasses and the compressor
registry: a field added, renamed or reordered there would silently change
``results.json``, ``run.json`` or the ``.npz`` meta, so each is compared with a
literal copy of the expected output."""

import json

import numpy as np

from core.compressors import CompressorSpec, TrainConfig
from core.compressors.autoencoder import train_autoencoder
from core.evaluation import EvaluationRecord
from core.experiment import ExperimentConfig, config_to_dict, run_experiment, write_synthetic_dataset
from core.report import ResultsTable, table_to_dict


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def test_results_record_bytes():
    record = EvaluationRecord(
        dataset="news", representation="bert", compressor="svd", mode="direct", step=2, dim=192,
        mean_f1=0.8125, std_f1=0.0123, epsilon_f1=-0.03125, repeats=3,
        extra={"eval_seed": 7, "compressor_seeds": [11, 12, 13]},
    )
    expected = {
        "schema_version": 1,
        "meta": {"errors": []},
        "records": [
            {
                "dataset": "news",
                "representation": "bert",
                "compressor": "svd",
                "mode": "direct",
                "step": 2,
                "dim": 192,
                "mean_f1": 0.8125,
                "std_f1": 0.0123,
                "epsilon_f1": -0.03125,
                "repeats": 3,
                "extra": {"eval_seed": 7, "compressor_seeds": [11, 12, 13]},
            }
        ],
    }
    assert dumps(table_to_dict(ResultsTable([record], {"errors": []}))) == dumps(expected)


def test_experiment_config_bytes():
    cfg = ExperimentConfig(
        manifest="data/manifest.json",
        specs=(CompressorSpec("svd", 1, {"oversample": 4}), CompressorSpec("neural-small", 2)),
        kappa=3, modes=("direct",), folds=4, repeats=2, seed=9, margin=0.1, out_dir="out",
        threads=2, task_timeout=30.0,
    )
    expected = {
        "manifest": "data/manifest.json",
        "specs": [
            {"kind": "svd", "seed": 1, "params": {"oversample": 4}},
            {"kind": "neural-small", "seed": 2, "params": {}},
        ],
        "kappa": 3,
        "modes": ["direct"],
        "folds": 4,
        "repeats": 2,
        "seed": 9,
        "margin": 0.1,
        "out_dir": "out",
        "threads": 2,
        "task_timeout": 30.0,
    }
    assert dumps(config_to_dict(cfg)) == dumps(expected)


def test_train_meta_key_order():
    e = np.random.default_rng(3).standard_normal((12, 4))
    config = TrainConfig(max_epochs=3, learning_rate=2e-3, dropout_rate=0.2)
    meta = train_autoencoder(e, 2, "small", seed=5, config=config).train_meta
    assert list(meta) == [
        "size", "seed", "epochs_run", "initial_loss", "final_loss", "max_epochs", "tol",
        "learning_rate", "momentum", "dropout_rate", "bn_eps", "bn_momentum",
    ]
    assert (meta["size"], meta["seed"], meta["epochs_run"]) == ("small", 5, 3)
    assert (meta["max_epochs"], meta["learning_rate"], meta["dropout_rate"]) == (3, 2e-3, 0.2)


def test_algorithm_settings_bytes(tmp_path):
    entry = write_synthetic_dataset(tmp_path, "tiny", docs=36, classes=3, rank=4, dim=8, seed=1)
    (tmp_path / "manifest.json").write_text(json.dumps([entry]))
    cfg = ExperimentConfig(manifest=str(tmp_path / "manifest.json"), specs=(CompressorSpec("random-subspace"),),
                           modes=("direct",), repeats=1)
    expected = {
        "rsvd_oversample": 10,
        "rsvd_power_iters": 5,
        "kmeans_max_iter": 100,
        "kmeans_tol": 1e-4,
        "autoencoder_defaults": {
            "max_epochs": 2000, "tol": 1e-4, "learning_rate": 1e-3, "momentum": 0.9,
            "dropout_rate": 0.1, "bn_eps": 1e-5, "bn_momentum": 0.1,
        },
        "logreg_c": 1.0,
    }
    assert dumps(run_experiment(cfg).meta["algorithm_settings"]) == dumps(expected)


def test_evaluate_output_keys(tmp_path, capsys):
    from core.cli import main

    write_synthetic_dataset(tmp_path, "tiny", docs=36, classes=3, rank=4, dim=8, seed=1)
    matrix = str(tmp_path / "tiny.core")
    assert main(["evaluate", "--input", matrix, "--baseline", matrix, "--labels", str(tmp_path / "tiny.labels"),
                 "--repeats", "2", "--seed", "5"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert list(record) == sorted([
        "dataset", "representation", "compressor", "mode", "step", "dim", "mean_f1", "std_f1",
        "epsilon_f1", "repeats", "extra",
    ])
    assert (record["dataset"], record["representation"], record["dim"]) == ("tiny", "", 8)
    assert (record["compressor"], record["mode"], record["step"], record["repeats"]) == ("external", "external", 1, 2)
    assert record["extra"] == {"eval_seed": 5, "baseline_mean_f1": record["mean_f1"]}
    assert record["epsilon_f1"] == 0.0
