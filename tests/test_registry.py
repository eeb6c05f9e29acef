import json

import numpy as np
import pytest

from core.compressors import KINDS, CompressorSpec, fit, load_fitted, save_fitted, transform
from core.errors import CompressorError

BASE_META = ["kind", "input_dim", "output_dim"]
NEURAL_META = BASE_META + ["n_affine", "dropout_rate", "bn_eps", "embed_index", "train_meta"]

# The saved-state format: .npz entry names in file order, and the JSON meta keys in order.
SAVED_FORMAT = {
    "svd": (["meta", "components", "singular_values"], BASE_META),
    "svd-exact": (["meta", "components", "singular_values"], BASE_META),
    "sparse-projection": (["meta", "proj_data", "proj_indices", "proj_indptr"], BASE_META),
    "random-subspace": (["meta", "columns"], BASE_META),
    "cluster-max": (["meta", "assignment"], BASE_META + ["agg"]),
    "cluster-mean": (["meta", "assignment"], BASE_META + ["agg"]),
    "cluster-median": (["meta", "assignment"], BASE_META + ["agg"]),
    "neural-small": (["meta", "w0", "b0", "w1", "bn_mean0", "bn_var0"], NEURAL_META),
    "neural-large": (
        ["meta", "w0", "b0", "w1", "b1", "w2", "b2", "w3",
         "bn_mean0", "bn_var0", "bn_mean1", "bn_var1", "bn_mean2", "bn_var2"],
        NEURAL_META,
    ),
}


def test_saved_format_covers_every_kind():
    assert tuple(SAVED_FORMAT) == KINDS


@pytest.mark.parametrize("kind", KINDS)
def test_saved_state_format_and_round_trip(kind, tmp_path):
    e = np.random.default_rng(0).standard_normal((40, 12))
    params = {"max_epochs": 3} if kind.startswith("neural-") else {}
    fc = fit(CompressorSpec(kind, seed=7, params=params), e, 4)
    path = tmp_path / "state.npz"
    save_fitted(fc, path)
    files, meta_keys = SAVED_FORMAT[kind]
    with np.load(path) as blob:
        assert list(blob.files) == files
        meta = json.loads(blob["meta"].tobytes().decode())
        stored_bytes = sum(blob[name].nbytes for name in files if name != "meta")
    assert list(meta) == meta_keys
    assert fc.state_bytes() == stored_bytes
    assert (meta["kind"], meta["input_dim"], meta["output_dim"]) == (kind, 12, 4)
    loaded = load_fitted(path)
    assert (loaded.kind, loaded.input_dim, loaded.output_dim) == (kind, 12, 4)
    assert np.array_equal(transform(loaded, e), transform(fc, e))


@pytest.mark.parametrize("d_out", [0, 13])
@pytest.mark.parametrize("kind", KINDS)
def test_fit_rejects_d_out_outside_input_width(kind, d_out):
    # One rule and one message for every kind, checked before the kind's own fit runs.
    e = np.random.default_rng(0).standard_normal((40, 12))
    with pytest.raises(CompressorError) as info:
        fit(CompressorSpec(kind), e, d_out)
    assert str(info.value) == f"d_out must be in [1, 12], got {d_out}"


def test_load_unknown_serialized_kind(tmp_path):
    meta = json.dumps({"kind": "umap", "input_dim": 4, "output_dim": 2}).encode()
    path = tmp_path / "state.npz"
    np.savez(path, meta=np.frombuffer(meta, dtype=np.uint8))
    with pytest.raises(CompressorError, match="unknown serialized kind 'umap'"):
        load_fitted(path)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("cluster-mean", {"max_iter": "5"}),
        ("neural-small", {"max_epochs": "3"}),
        ("svd", {"oversample": 2.5}),
        ("svd", {"power_iters": True}),
        ("cluster-max", {"tol": False}),
        ("neural-large", {"learning_rate": "0.1"}),
        ("neural-small", {"max_epochs": None}),
    ],
)
def test_spec_rejects_param_of_wrong_type(kind, params):
    with pytest.raises(CompressorError, match="must be"):
        CompressorSpec(kind, params=params)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("svd", {"oversample": 4, "power_iters": 0}),
        ("cluster-median", {"max_iter": 7, "tol": 0}),
        ("neural-small", {"max_epochs": 3, "dropout_rate": 0, "tol": 1e-3}),
    ],
)
def test_spec_accepts_int_for_float_and_int_for_int(kind, params):
    assert CompressorSpec(kind, params=params).params == params


def test_spec_rejects_params_that_are_not_an_object():
    with pytest.raises(CompressorError, match="params must be an object"):
        CompressorSpec("svd", params=[])


@pytest.mark.parametrize("seed", [True, False])
def test_spec_rejects_a_boolean_seed(seed):
    with pytest.raises(CompressorError) as info:
        CompressorSpec("svd", seed=seed)
    assert str(info.value) == f"seed must be a non-negative integer, got {seed}"
