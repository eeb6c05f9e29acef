import json

import numpy as np
import pytest

from core.compressors import CompressorSpec
from core.errors import ConfigError
from core.experiment import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    make_synthetic_dataset,
    run_experiment,
    write_synthetic_dataset,
)
from core.report import emit_json, table_to_dict


def small_manifest(tmp_path, names=("dsA", "dsB")):
    entries = []
    for i, name in enumerate(names):
        entries.append(
            write_synthetic_dataset(
                tmp_path, name, docs=36, classes=3, rank=4, dim=16, seed=10 + i
            )
        )
    (tmp_path / "manifest.json").write_text(json.dumps(entries))
    return tmp_path / "manifest.json"


def small_config(manifest, **overrides):
    base = dict(
        manifest=str(manifest),
        specs=(CompressorSpec("svd", seed=1), CompressorSpec("random-subspace", seed=2)),
        kappa=2,
        modes=("recursive", "direct"),
        folds=3,
        repeats=2,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_synthetic_dataset_shape_and_determinism():
    e, labels = make_synthetic_dataset(60, 4, 8, 32, seed=5)
    assert e.shape == (60, 32)
    assert labels.n_classes == 4
    assert np.bincount(labels.ids).min() == 15
    e2, labels2 = make_synthetic_dataset(60, 4, 8, 32, seed=5)
    assert np.all(e == e2) and np.all(labels.ids == labels2.ids)


def test_synthetic_intrinsic_rank():
    e, _ = make_synthetic_dataset(100, 3, 5, 24, seed=1, noise=0.0)
    s = np.linalg.svd(e, compute_uv=False)
    assert s[4] > 1e-6 and s[5] < 1e-8


def test_config_json_mirror():
    cfg = small_config("m.json", margin=0.1, threads=3)
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(manifest="m", specs=())
    with pytest.raises(ConfigError):
        small_config("m", margin=-0.1)
    with pytest.raises(ConfigError):
        small_config("m", modes=("sideways",))


def test_run_experiment_record_inventory(tmp_path):
    manifest = small_manifest(tmp_path)
    table = run_experiment(small_config(manifest))
    assert table.meta["errors"] == []
    steps = (8, 4, 2)
    baselines = [r for r in table.records if r.compressor == "baseline"]
    assert {(b.dataset, b.step, b.dim) for b in baselines} == {("dsA", 0, 16), ("dsB", 0, 16)}
    assert all(b.epsilon_f1 == 0.0 for b in baselines)
    rest = [r for r in table.records if r.compressor != "baseline"]
    expected = {
        (ds, kind, mode, i + 1, d)
        for ds in ("dsA", "dsB")
        for kind in ("svd", "random-subspace")
        for mode in ("recursive", "direct")
        for i, d in enumerate(steps)
    }
    assert {(r.dataset, r.compressor, r.mode, r.step, r.dim) for r in rest} == expected
    base_mean = {b.dataset: b.mean_f1 for b in baselines}
    for r in rest:
        assert r.epsilon_f1 == pytest.approx(r.mean_f1 - base_mean[r.dataset])


def test_run_experiment_thread_invariant_bytes(tmp_path):
    manifest = small_manifest(tmp_path, names=("only",))
    dumps = []
    for threads in (1, 4):
        table = run_experiment(small_config(manifest, threads=threads))
        table.meta["config"]["threads"] = 0  # ignore the knob itself
        out = tmp_path / f"r{threads}.json"
        emit_json(table, out)
        dumps.append(out.read_bytes())
    assert dumps[0] == dumps[1]


def test_run_experiment_missing_labels_continues(tmp_path):
    manifest = small_manifest(tmp_path)
    entries = json.loads(manifest.read_text())
    entries[0]["labels"] = "missing.labels"
    manifest.write_text(json.dumps(entries))
    table = run_experiment(small_config(manifest))
    assert len(table.meta["errors"]) == 1
    assert "dsA" in table.meta["errors"][0]
    assert {r.dataset for r in table.records} == {"dsB"}


def test_run_experiment_json_is_deterministic(tmp_path):
    manifest = small_manifest(tmp_path, names=("only",))
    a = table_to_dict(run_experiment(small_config(manifest)))
    b = table_to_dict(run_experiment(small_config(manifest)))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_experiment_numeric_failure_is_recorded(tmp_path, monkeypatch):
    import core.compressors as compressors

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(compressors, "fit_svd", no_convergence)
    manifest = small_manifest(tmp_path, names=("only",))
    table = run_experiment(small_config(manifest))
    assert table.meta["errors"] == [
        "task only/svd/direct: SVD did not converge",
        "task only/svd/recursive: SVD did not converge",
    ]
    assert {r.compressor for r in table.records} == {"baseline", "random-subspace"}


def test_run_experiment_records_do_not_depend_on_completion_order(tmp_path, monkeypatch):
    import time

    import core.experiment as experiment

    manifest = small_manifest(tmp_path, names=("only",))
    specs = (CompressorSpec("svd", seed=1), CompressorSpec("svd", seed=2, params={"oversample": 20}))
    cfg = small_config(manifest, specs=specs, modes=("recursive",))
    expected = json.dumps(table_to_dict(run_experiment(cfg))["records"], sort_keys=True)

    run_task = experiment._run_task

    def spec_0_finishes_last(cfg, ds, spec_index, mode):
        if spec_index == 0:
            time.sleep(0.3)
        return run_task(cfg, ds, spec_index, mode)

    monkeypatch.setattr(experiment, "_run_task", spec_0_finishes_last)
    table = run_experiment(small_config(manifest, specs=specs, modes=("recursive",), threads=2))
    assert json.dumps(table_to_dict(table)["records"], sort_keys=True) == expected


def test_task_timeout_stops_the_running_task_and_runs_the_rest(tmp_path, monkeypatch):
    import time
    from types import SimpleNamespace

    import core.experiment as experiment
    import core.pipeline as pipeline

    entry = write_synthetic_dataset(tmp_path, "wide", docs=60, classes=3, rank=4, dim=64, seed=3)
    (tmp_path / "manifest.json").write_text(json.dumps([entry]))
    # Deadlines read a clock that only the slow fit advances, by as much as it
    # sleeps, so the svd task cannot time out on a busy host.
    fit, run_task, slow_calls, clock, task_seconds = pipeline.fit, experiment._run_task, [], [0.0], {}

    def slow_subspace_fit(spec, e, d_out):
        if spec.kind == "random-subspace":
            slow_calls.append(d_out)
            time.sleep(0.6)
            clock[0] += 0.6
        return fit(spec, e, d_out)

    def timed_task(cfg, ds, spec_index, mode):
        start = time.perf_counter()
        try:
            return run_task(cfg, ds, spec_index, mode)
        finally:
            task_seconds[cfg.specs[spec_index].kind] = time.perf_counter() - start

    monkeypatch.setattr(pipeline, "fit", slow_subspace_fit)
    monkeypatch.setattr(experiment, "_run_task", timed_task)
    monkeypatch.setattr(experiment, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    cfg = small_config(
        tmp_path / "manifest.json",
        specs=(CompressorSpec("random-subspace", seed=2), CompressorSpec("svd", seed=1)),
        modes=("recursive",),
        repeats=1,
        threads=1,
        task_timeout=1.0,
    )
    table = run_experiment(cfg)
    steps = 5  # 64 -> 32 -> 16 -> 8 -> 4 -> 2
    assert len(slow_calls) < steps
    assert table.meta["errors"] == ["task wide/random-subspace/recursive: timed out after 1.0s"]
    assert sorted(r.step for r in table.records if r.compressor == "svd") == list(range(1, steps + 1))
    assert not [r for r in table.records if r.compressor == "random-subspace"]
    assert task_seconds["random-subspace"] < 0.6 * steps  # its fit time without a timeout


def test_dataset_whose_baseline_cannot_be_scored_is_recorded(tmp_path):
    from core.io import Labels, save_labels, save_matrix

    # One class passes validate_dataset (3 members per fold) but no classifier can be trained on it.
    save_matrix(np.random.default_rng(0).standard_normal((12, 8)), tmp_path / "one.core")
    save_labels(Labels(ids=np.zeros(12, dtype=np.int64), names=("c0",)), tmp_path / "one.labels")
    valid = write_synthetic_dataset(tmp_path, "valid", docs=36, classes=3, rank=4, dim=16, seed=10)
    one = {"name": "one", "embeddings": "one.core", "labels": "one.labels", "representation": "synthetic"}
    (tmp_path / "manifest.json").write_text(json.dumps([one, valid]))
    table = run_experiment(small_config(tmp_path / "manifest.json"))
    assert table.meta["errors"] == ["dataset one: need at least 2 classes to train a classifier"]
    assert {r.dataset for r in table.records} == {"valid"}
    assert len(table.records) == 1 + 2 * 2 * 3  # baseline + 2 specs x 2 modes x 3 steps


def test_run_experiment_labels_not_utf8_is_a_dataset_error(tmp_path):
    manifest = small_manifest(tmp_path)
    labels = tmp_path / "dsA.labels"
    labels.write_bytes(b"\xff" + labels.read_bytes())
    table = run_experiment(small_config(manifest, repeats=1))
    assert table.meta["errors"] == [
        f"dataset dsA: cannot read labels {labels}: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    ]
    assert {r.dataset for r in table.records} == {"dsB"}
    assert len(table.records) == 1 + 2 * 2 * 3  # baseline + 2 specs x 2 modes x 3 steps


def test_load_config_missing_file(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"cannot read config {path}: [Errno 2] No such file or directory: '{path}'"
