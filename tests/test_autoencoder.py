from dataclasses import replace

import numpy as np
import pytest

from core.compressors import CompressorSpec, fit, transform
from core.compressors.autoencoder import (
    AutoencoderParams,
    TrainConfig,
    autoencoder_forward,
    embed_autoencoder,
    init_params,
    reconstruction_loss_and_grads,
    sample_dropout_masks,
    softsign,
    train_autoencoder,
)
from core.errors import CompressorError, TrainingDivergedError
from core.pipeline import compress_direct, compress_recursive, dimension_schedule


def identity_params(d, bn_eps=1e-12):
    return AutoencoderParams(
        weights=[np.eye(d), np.eye(d)],
        biases=[np.zeros(d), None],
        bn_mean=[np.zeros(d)],
        bn_var=[np.ones(d)],
        dropout_rate=0.0,
        bn_eps=bn_eps,
        embed_index=0,
    )


def test_softsign_values():
    assert softsign(0.0) == 0.0
    assert softsign(1.0) == 0.5
    assert softsign(-3.0) == -0.75


def test_softsign_odd_and_bounded():
    x = np.random.default_rng(0).standard_normal(500) * 20
    np.testing.assert_array_equal(softsign(-x), -softsign(x))
    out = softsign(x)
    assert np.all(np.abs(out) < 1.0)


def test_batchnorm_constant_column():
    # Zero batch variance: the column normalizes to 0 (divided by sqrt(bn_eps) alone), not to nan.
    stats = []
    loss, grads = reconstruction_loss_and_grads(identity_params(1), np.full((3, 1), 5.0), stats_out=stats)
    assert stats[0][1] == 0.0
    assert loss == 25.0  # softsign(0) = 0 reconstructs 0 against 5
    assert np.all(np.isfinite(_flat_grads(grads)))


def test_batchnorm_population_variance():
    # Population variance of [-1, 1] is 1 (the sample variance would be 2).
    stats = []
    reconstruction_loss_and_grads(identity_params(1), np.array([[-1.0], [1.0]]), stats_out=stats)
    assert stats[0][0] == 0.0
    assert stats[0][1] == 1.0


def test_batchnorm_zero_mean():
    # Batch norm subtracts the batch mean, so a hidden-layer bias cannot change the loss.
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 6)) * 7 + 3
    p = init_params(6, 3, "large", rng, TrainConfig(dropout_rate=0.0))
    _, grads = reconstruction_loss_and_grads(p, x)
    for g in grads["biases"][:-1]:
        np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_batchnorm_rejects_nonpositive_eps():
    with pytest.raises(CompressorError):
        TrainConfig(bn_eps=0.0)


def test_forward_identity_weights_is_softsign():
    p = identity_params(4)
    x = np.random.default_rng(2).standard_normal((6, 4))
    np.testing.assert_allclose(autoencoder_forward(p, x), softsign(x), atol=1e-9)


def test_forward_zero_row_gives_zero_row():
    p = identity_params(3)
    out = autoencoder_forward(p, np.zeros((2, 3)))
    np.testing.assert_array_equal(out, np.zeros((2, 3)))


def test_forward_shape_mismatch():
    p = identity_params(3)
    with pytest.raises(CompressorError):
        autoencoder_forward(p, np.zeros((2, 4)))


def _flat_grads(grads):
    parts = [g.ravel() for g in grads["weights"]]
    parts += [g.ravel() for g in grads["biases"] if g is not None]
    return np.concatenate(parts)


def _fd_grads(p, x, masks, h=1e-6):
    slots = list(p.weights) + [b for b in p.biases if b is not None]
    out = []
    for arr in slots:
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = reconstruction_loss_and_grads(p, x, masks)
            flat[i] = orig - h
            lm, _ = reconstruction_loss_and_grads(p, x, masks)
            flat[i] = orig
            out.append((lp - lm) / (2 * h))
    return np.array(out)


@pytest.mark.parametrize("size,d_in,d_out,n", [("small", 3, 2, 4), ("large", 4, 2, 5)])
def test_gradients_match_finite_differences(size, d_in, d_out, n):
    rng = np.random.default_rng(10)
    for _ in range(5):
        x = rng.standard_normal((n, d_in))
        p = init_params(d_in, d_out, size, rng)
        p = replace(p, dropout_rate=0.2)
        masks = sample_dropout_masks(p, n, rng)
        _, grads = reconstruction_loss_and_grads(p, x, masks)
        analytic = _flat_grads(grads)
        numeric = _fd_grads(p, x, masks)
        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
        )
        assert rel < 1e-5


def test_train_reconstructs_representable_rank2_data():
    # Latent points on the two axes are exactly representable by one
    # softsign/batch-norm hidden layer, so the loss can be driven to ~0.
    rng = np.random.default_rng(3)
    latent = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.5], [0.0, -1.5]] * 10)
    e = latent @ rng.standard_normal((2, 8))
    cfg = TrainConfig(dropout_rate=0.0, learning_rate=1e-2, max_epochs=2000, tol=1e-4)
    p = train_autoencoder(e, 2, "small", seed=3, config=cfg)
    assert p.train_meta["final_loss"] <= 1e-3 * p.train_meta["initial_loss"]


def test_train_same_seed_bitwise_identical():
    rng = np.random.default_rng(4)
    e = rng.standard_normal((12, 6))
    cfg = TrainConfig(max_epochs=40)
    a = train_autoencoder(e, 3, "small", seed=7, config=cfg)
    b = train_autoencoder(e, 3, "small", seed=7, config=cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.all(wa == wb)
    for ba, bb in zip(a.biases, b.biases):
        assert ba is None and bb is None or np.all(ba == bb)


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_huge_learning_rate_diverges():
    rng = np.random.default_rng(5)
    e = rng.standard_normal((10, 4))
    cfg = TrainConfig(learning_rate=1e6, dropout_rate=0.0)
    with pytest.raises(TrainingDivergedError, match="epoch"):
        train_autoencoder(e, 2, "small", seed=0, config=cfg)


@pytest.mark.parametrize("kind", ["neural-small", "neural-large"])
def test_constant_column_trains_to_finite_outputs(kind):
    # A constant column has zero batch variance: batch norm divides by sqrt(bn_eps) alone.
    e = np.random.default_rng(12).standard_normal((60, 16))
    e[:, 5] = 3.0
    spec = CompressorSpec(kind, seed=2, params={"max_epochs": 50})
    assert np.all(np.isfinite(transform(fit(spec, e, 8), e)))
    schedule = dimension_schedule(16, 2)
    for compress in (compress_recursive, compress_direct):
        run = compress(e, spec, schedule)
        assert [s.dim for s in run.steps] == list(schedule.dims)
        for step in run.steps:
            assert np.all(np.isfinite(step.output))


def test_train_loss_finite_and_final_below_initial():
    rng = np.random.default_rng(6)
    e = rng.standard_normal((20, 5))
    for size in ("small", "large"):
        p = train_autoencoder(e, 2, size, seed=1, config=TrainConfig(max_epochs=200))
        meta = p.train_meta
        assert np.isfinite(meta["final_loss"])
        assert meta["final_loss"] < meta["initial_loss"]


def test_embed_identity_weights():
    p = identity_params(4)
    x = np.random.default_rng(7).standard_normal((5, 4))
    np.testing.assert_array_equal(embed_autoencoder(p, x), x)


def test_embed_constant_bias():
    p = identity_params(3)
    p.weights[0] = np.zeros((3, 3))
    p.biases[0] = np.array([2.0, -1.0, 0.5])
    out = embed_autoencoder(p, np.random.default_rng(8).standard_normal((4, 3)))
    np.testing.assert_array_equal(out, np.tile([2.0, -1.0, 0.5], (4, 1)))


def test_embed_is_affine():
    rng = np.random.default_rng(9)
    p = init_params(5, 2, "small", rng)
    p.biases[0] = rng.standard_normal(2)
    x = rng.standard_normal((1, 5))
    y = rng.standard_normal((1, 5))
    a, b = 1.7, -0.4
    lhs = embed_autoencoder(p, a * x + b * y)
    rhs = a * embed_autoencoder(p, x) + b * embed_autoencoder(p, y) - (a + b - 1) * p.biases[0]
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_embed_large_is_preactivation_bottleneck():
    rng = np.random.default_rng(11)
    p = init_params(6, 2, "large", rng)
    x = rng.standard_normal((7, 6))
    emb = embed_autoencoder(p, x)
    assert emb.shape == (7, 2)
    # Matches a manual walk: inference block after affine 0, then affine 1 only.
    h = softsign((x @ p.weights[0] + p.biases[0]) / np.sqrt(1.0 + p.bn_eps))
    np.testing.assert_allclose(emb, h @ p.weights[1] + p.biases[1], atol=1e-12)


def test_init_params_takes_dropout_and_eps_from_config():
    p = init_params(5, 2, "large", np.random.default_rng(0), TrainConfig(dropout_rate=0.3, bn_eps=1e-3))
    assert (p.dropout_rate, p.bn_eps) == (0.3, 1e-3)
    q = train_autoencoder(np.ones((6, 5)), 2, "small", config=TrainConfig(max_epochs=1, dropout_rate=0.0, bn_eps=0.5))
    assert (q.dropout_rate, q.bn_eps) == (0.0, 0.5)


def test_train_non_finite_loss_names_the_epoch(monkeypatch):
    import core.compressors.autoencoder as autoencoder

    real, losses = autoencoder.reconstruction_loss_and_grads, []

    def infinite_at_third_epoch(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        losses.append(loss)
        return (np.inf if len(losses) == 3 else loss), grads

    monkeypatch.setattr(autoencoder, "reconstruction_loss_and_grads", infinite_at_third_epoch)
    e = np.random.default_rng(5).standard_normal((10, 4))
    with pytest.raises(TrainingDivergedError) as info:
        train_autoencoder(e, 2, "small", seed=0)
    assert str(info.value) == "training loss became non-finite at epoch 2"
    assert info.value.__cause__ is None
