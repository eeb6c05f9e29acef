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

    monkeypatch.setattr(compressors, "randomized_truncated_svd", no_convergence)
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

    def spec_0_finishes_last(cfg, ds, spec_index, mode, *shared):
        if spec_index == 0:
            time.sleep(0.3)
        return run_task(cfg, ds, spec_index, mode, *shared)

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

    def slow_subspace_fit(spec, e, d_out, prepared=None):
        if spec.kind == "random-subspace":
            slow_calls.append(d_out)
            time.sleep(0.6)
            clock[0] += 0.6
        return fit(spec, e, d_out, prepared)

    def timed_task(cfg, ds, spec_index, mode, *shared):
        start = time.perf_counter()
        try:
            return run_task(cfg, ds, spec_index, mode, *shared)
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


# Step 1 is the same fit on E_0 with the same seed in both modes, so a run of both fits
# and scores it once per (dataset, spec) and the other mode's task reuses it.
SHARED_SPECS = (
    CompressorSpec("svd-exact", seed=1),
    CompressorSpec("cluster-mean", seed=2),
    CompressorSpec("neural-small", seed=3, params={"max_epochs": 5}),
)
SHARED_STEPS = 3  # 16 -> 8 -> 4 -> 2


def _records_by_key(table):
    return {(r["dataset"], r["compressor"], r["mode"], r["step"]): json.dumps(r, sort_keys=True)
            for r in table_to_dict(table)["records"]}


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("threads", [1, 2])
def test_both_modes_fit_and_score_step_1_once(tmp_path, monkeypatch, threads):
    import collections

    import core.experiment as experiment
    import core.pipeline as pipeline

    manifest = small_manifest(tmp_path)
    fits, scores = [], []
    _counting(monkeypatch, pipeline, "fit", fits)
    _counting(monkeypatch, experiment, "evaluate_matrices", scores)
    table = run_experiment(small_config(manifest, specs=SHARED_SPECS, threads=threads))
    assert table.meta["errors"] == []
    pairs = 2 * len(SHARED_SPECS)  # (dataset, spec)
    per_pair = (2 * SHARED_STEPS - 1) * 2  # repeats=2
    assert collections.Counter(args[0].kind for args in fits) == {s.kind: 2 * per_pair for s in SHARED_SPECS}
    assert len(scores) == pairs * (2 * SHARED_STEPS - 1) * 2  # one scoring per (repeat, step)


def test_shared_step_1_records_match_separate_and_reordered_runs(tmp_path):
    manifest = small_manifest(tmp_path)
    both = run_experiment(small_config(manifest, specs=SHARED_SPECS))
    separate = {}
    for mode in ("recursive", "direct"):
        separate.update(_records_by_key(run_experiment(small_config(manifest, specs=SHARED_SPECS, modes=(mode,)))))
    assert _records_by_key(both) == separate
    reordered = run_experiment(small_config(manifest, specs=SHARED_SPECS, modes=("direct", "recursive")))
    assert _records_by_key(reordered) == separate
    threaded = run_experiment(small_config(manifest, specs=SHARED_SPECS, threads=2))
    assert table_to_dict(threaded)["records"] == table_to_dict(both)["records"]


@pytest.mark.parametrize("modes", [("recursive", "direct"), ("direct",)])
def test_no_step_output_outlives_the_mode_tasks_of_its_spec(tmp_path, monkeypatch, modes):
    import gc
    import weakref

    import core.experiment as experiment
    import core.pipeline as pipeline

    manifest = small_manifest(tmp_path)
    outputs, current = {}, [None]
    transform, run_task = pipeline.transform, experiment._run_task

    def kept_transform(fc, e):
        out = transform(fc, e)
        outputs.setdefault(current[0], []).append(weakref.ref(out))
        return out

    def checked_task(cfg, ds, spec_index, mode, *shared):
        gc.collect()
        # Every output of an earlier (dataset, spec) is gone once a later one starts.
        assert all(ref() is None for key, refs in outputs.items() if key != (ds.name, spec_index) for ref in refs)
        current[0] = (ds.name, spec_index)
        return run_task(cfg, ds, spec_index, mode, *shared)

    monkeypatch.setattr(pipeline, "transform", kept_transform)
    monkeypatch.setattr(experiment, "_run_task", checked_task)
    table = run_experiment(small_config(manifest, specs=SHARED_SPECS[:2], modes=modes))
    assert table.meta["errors"] == []
    gc.collect()
    assert outputs and all(ref() is None for refs in outputs.values() for ref in refs)


def test_each_dataset_draws_its_folds_once_per_repeat(tmp_path, monkeypatch):
    import core.evaluation as evaluation

    manifest = small_manifest(tmp_path)
    calls = []
    _counting(monkeypatch, evaluation, "stratified_kfold", calls)
    table = run_experiment(small_config(manifest, repeats=3))
    assert table.meta["errors"] == []
    # Two datasets with 3 repeats each; the baseline and both specs' steps in both modes share them.
    assert len(calls) == 2 * 3


@pytest.mark.parametrize("modes", [("recursive", "direct"), ("direct", "recursive")])
def test_a_step_is_scored_while_no_other_step_matrix_is_alive(tmp_path, monkeypatch, modes):
    import gc
    import weakref

    import core.experiment as experiment
    import core.pipeline as pipeline

    manifest = small_manifest(tmp_path, names=("only",))
    outputs = []  # (weakref of a step matrix, of its input, its width)
    transform, evaluate, scored = pipeline.transform, experiment.evaluate_matrices, []

    def kept_transform(fc, e):
        out = transform(fc, e)
        outputs.append((weakref.ref(out), weakref.ref(e), out.shape[1]))
        return out

    def checked_evaluate(matrices, *args):
        gc.collect()
        scoring = matrices[0]
        source = next((src() for out, src, _ in outputs if out() is scoring), scoring)
        if source is not scoring:  # a step matrix, not the baseline's input
            assert len(matrices) == 1
            alive = [(out(), width) for out, _, width in outputs if out() is not None]
            others = [m for m, width in alive if m is not scoring and m is not source and width != 8]
            assert others == []
            assert sum(width == 8 for _, width in alive) <= 2  # each repeat's step 1, 16 -> 8
            scored.append(scoring.shape[1])
        return evaluate(matrices, *args)

    monkeypatch.setattr(pipeline, "transform", kept_transform)
    monkeypatch.setattr(experiment, "evaluate_matrices", checked_evaluate)
    table = run_experiment(small_config(manifest, specs=SHARED_SPECS[:2], modes=modes))
    assert table.meta["errors"] == []
    assert len(scored) == 2 * 2 * (2 * SHARED_STEPS - 1)  # specs x repeats x (steps of both modes, step 1 once)


def test_recursive_failure_after_step_1_leaves_direct_records_unchanged(tmp_path, monkeypatch):
    import core.pipeline as pipeline
    from core.errors import CompressorError

    manifest = small_manifest(tmp_path, names=("only",))
    specs = SHARED_SPECS[:1]
    direct_only = _records_by_key(run_experiment(small_config(manifest, specs=specs, modes=("direct",))))
    fit, step_1_fits = pipeline.fit, []

    def fail_recursive_step_3(spec, e, d_out, prepared=None):
        if e.shape[1] == 4:  # only recursive step 3 fits on a 4-column matrix
            raise CompressorError("boom")
        if d_out == 8:
            step_1_fits.append(d_out)
        return fit(spec, e, d_out, prepared)

    monkeypatch.setattr(pipeline, "fit", fail_recursive_step_3)
    table = run_experiment(small_config(manifest, specs=specs))
    assert table.meta["errors"] == ["task only/svd-exact/recursive: step 3: boom"]
    assert {k: v for k, v in _records_by_key(table).items() if k[1] != "baseline"} == {
        k: v for k, v in direct_only.items() if k[1] != "baseline"}
    # The recursive task fails in its first repeat and publishes nothing; the direct task fits both repeats.
    assert len(step_1_fits) == 1 + 2


def test_reused_step_1_is_followed_by_a_deadline_check(tmp_path, monkeypatch):
    from types import SimpleNamespace

    import core.experiment as experiment
    import core.pipeline as pipeline

    manifest = small_manifest(tmp_path, names=("only",))
    clock, fits = [0.0], []
    _counting(monkeypatch, pipeline, "fit", fits)
    compress_direct = experiment.compress_direct

    def late_direct(*args, first=None, **kwargs):
        if first is not None:
            clock[0] += 10.0  # the reusing task's time runs out before it fits step 2
        return compress_direct(*args, first=first, **kwargs)

    monkeypatch.setattr(experiment, "compress_direct", late_direct)
    monkeypatch.setattr(experiment, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    table = run_experiment(small_config(manifest, specs=SHARED_SPECS[:1], repeats=1, task_timeout=1.0))
    assert table.meta["errors"] == ["task only/svd-exact/direct: timed out after 1.0s"]
    assert len(fits) == SHARED_STEPS  # the recursive task's; the direct task fitted nothing
