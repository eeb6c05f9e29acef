"""Dense reconstruction autoencoders trained with full-batch momentum gradient descent.

Each hidden layer applies, in order: dropout, batch normalization (population
variance, no learned scale/shift), then the softsign activation. The final
affine layer has no bias and no activation. The compressed representation is
the pre-activation input of the bottleneck layer, so extraction applies no
dropout, normalization, or activation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from ..errors import CompressorError, TrainingDivergedError


def softsign(x):
    """x / (1 + |x|), odd and bounded in (-1, 1)."""
    return x / (1.0 + np.abs(x))


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 2000
    tol: float = 1e-4  # stop once loss <= tol * initial loss
    learning_rate: float = 1e-3
    momentum: float = 0.9
    dropout_rate: float = 0.1
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1  # running = (1-m)*running + m*batch

    def __post_init__(self):
        if self.max_epochs < 1:
            raise CompressorError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0 <= self.dropout_rate < 1:
            raise CompressorError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.bn_eps <= 0:
            raise CompressorError(f"bn_eps must be > 0, got {self.bn_eps}")


@dataclass
class AutoencoderParams:
    """Affine weights plus per-hidden-layer batch-norm running statistics.

    ``weights[i]`` has shape (fan_in, fan_out); every affine except the last
    carries a bias. ``embed_index`` names the affine whose pre-activation
    output is the compressed representation.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray | None]
    bn_mean: list[np.ndarray]
    bn_var: list[np.ndarray]
    dropout_rate: float
    bn_eps: float
    embed_index: int
    train_meta: dict[str, Any] = field(default_factory=dict)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def apply(self, e: np.ndarray) -> np.ndarray:
        return embed_autoencoder(self, e)

    def to_arrays(self) -> tuple[dict, dict]:
        arrays = {}
        for i, w in enumerate(self.weights):
            arrays[f"w{i}"] = w
            if self.biases[i] is not None:
                arrays[f"b{i}"] = self.biases[i]
        for i in range(len(self.bn_mean)):
            arrays[f"bn_mean{i}"] = self.bn_mean[i]
            arrays[f"bn_var{i}"] = self.bn_var[i]
        meta = {
            "n_affine": len(self.weights),
            "dropout_rate": self.dropout_rate,
            "bn_eps": self.bn_eps,
            "embed_index": self.embed_index,
            "train_meta": self.train_meta,
        }
        return arrays, meta

    @classmethod
    def from_arrays(cls, blob, meta) -> "AutoencoderParams":
        n = meta["n_affine"]
        return cls(
            weights=[blob[f"w{i}"] for i in range(n)],
            biases=[blob[f"b{i}"] if f"b{i}" in blob else None for i in range(n)],
            bn_mean=[blob[f"bn_mean{i}"] for i in range(n - 1)],
            bn_var=[blob[f"bn_var{i}"] for i in range(n - 1)],
            dropout_rate=meta["dropout_rate"],
            bn_eps=meta["bn_eps"],
            embed_index=meta["embed_index"],
            train_meta=meta["train_meta"],
        )


def _check_input(p: AutoencoderParams, e: np.ndarray) -> np.ndarray:
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != p.input_dim:
        raise CompressorError(f"expected shape (*, {p.input_dim}), got {e.shape}")
    return e


def init_params(
    d_in: int, d_out: int, size: str, rng: np.random.Generator, config: TrainConfig = TrainConfig()
) -> AutoencoderParams:
    if size == "small":
        dims = [(d_in, d_out), (d_out, d_in)]
        embed_index = 0
    elif size == "large":
        dims = [(d_in, 2 * d_out), (2 * d_out, d_out), (d_out, 2 * d_out), (2 * d_out, d_in)]
        embed_index = 1
    else:
        raise CompressorError(f"unknown autoencoder size {size!r}")
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(dims):
        weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        biases.append(None if i == len(dims) - 1 else np.zeros(fan_out))
    widths = [fan_out for _, fan_out in dims[:-1]]
    return AutoencoderParams(
        weights=weights,
        biases=biases,
        bn_mean=[np.zeros(w) for w in widths],
        bn_var=[np.ones(w) for w in widths],
        dropout_rate=config.dropout_rate,
        bn_eps=config.bn_eps,
        embed_index=embed_index,
    )


def sample_dropout_masks(p: AutoencoderParams, n_rows: int, rng: np.random.Generator) -> list[np.ndarray] | None:
    if p.dropout_rate == 0:
        return None
    return [rng.random((n_rows, w.shape[1])) >= p.dropout_rate for w in p.weights[:-1]]


def _infer(p: AutoencoderParams, e: np.ndarray, stop: int) -> np.ndarray:
    """Hidden layers ``0..stop-1`` with the running batch-norm statistics, then
    the pre-activation output of affine ``stop``."""
    h = _check_input(p, e)
    for i in range(stop):
        z = h @ p.weights[i] + p.biases[i]
        z = (z - p.bn_mean[i]) / np.sqrt(p.bn_var[i] + p.bn_eps)
        h = softsign(z)
    z = h @ p.weights[stop]
    if p.biases[stop] is not None:
        z = z + p.biases[stop]
    return z


def autoencoder_forward(p: AutoencoderParams, e: np.ndarray) -> np.ndarray:
    """Full reconstruction pass; batch norm uses the stored running statistics."""
    return _infer(p, e, len(p.weights) - 1)


def embed_autoencoder(p: AutoencoderParams, e: np.ndarray) -> np.ndarray:
    """Pre-activation bottleneck output: no dropout, no batch norm, no activation."""
    return _infer(p, e, p.embed_index)


# A diverging run overflows here; the non-finite checks report it, not numpy's warnings.
@np.errstate(over="ignore", invalid="ignore")
def reconstruction_loss_and_grads(
    p: AutoencoderParams,
    x: np.ndarray,
    dropout_masks: list[np.ndarray] | None = None,
    stats_out: list[tuple[np.ndarray, np.ndarray]] | None = None,
):
    """Mean squared reconstruction loss and its analytic parameter gradients.

    Runs in training mode (batch statistics); gradients flow through the batch
    mean and variance. ``stats_out``, when given, collects the per-layer batch
    statistics so the training loop can update running averages.
    """
    x = _check_input(p, x)
    keep = 1.0 - p.dropout_rate
    last = len(p.weights) - 1

    h = x
    inputs, xhats, stds = [], [], []
    for i in range(last):
        inputs.append(h)
        z = h @ p.weights[i] + p.biases[i]
        if dropout_masks is not None:
            z = z * dropout_masks[i] / keep
        mean = z.mean(axis=0)
        var = z.var(axis=0)
        if not np.all(np.isfinite(var)):
            # Batch statistics overflow silently zeroes the layer; fail instead.
            raise CompressorError(f"non-finite batch statistics in hidden layer {i}")
        std = np.sqrt(var + p.bn_eps)
        xhat = (z - mean) / std
        if stats_out is not None:
            stats_out.append((mean, var))
        xhats.append(xhat)
        stds.append(std)
        h = softsign(xhat)
    inputs.append(h)
    out = h @ p.weights[last]

    diff = out - x
    loss = float(np.mean(diff**2))

    d_weights: list[np.ndarray] = [None] * len(p.weights)  # type: ignore[list-item]
    d_biases: list[np.ndarray | None] = [None] * len(p.weights)
    dout = 2.0 * diff / diff.size
    d_weights[last] = inputs[last].T @ dout
    dh = dout @ p.weights[last].T
    for i in range(last - 1, -1, -1):
        xhat = xhats[i]
        dxhat = dh / (1.0 + np.abs(xhat)) ** 2
        # Batch-norm backward with population variance and no scale/shift.
        dz = (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)) / stds[i]
        if dropout_masks is not None:
            dz = dz * dropout_masks[i] / keep
        d_weights[i] = inputs[i].T @ dz
        d_biases[i] = dz.sum(axis=0)
        if i > 0:
            dh = dz @ p.weights[i].T
    return loss, {"weights": d_weights, "biases": d_biases}


def train_autoencoder(
    e: np.ndarray,
    d_out: int,
    size: str = "small",
    seed: int = 0,
    config: TrainConfig = TrainConfig(),
) -> AutoencoderParams:
    """Overfit the reconstruction objective until the loss drops to
    ``tol`` of its initial value or ``max_epochs`` is reached."""
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] < 1:
        raise CompressorError(f"expected a non-empty 2-D matrix, got shape {e.shape}")
    if d_out < 1:
        raise CompressorError(f"d_out must be >= 1, got {d_out}")
    rng = np.random.default_rng(seed)
    p = init_params(e.shape[1], d_out, size, rng, config)

    vel_w = [np.zeros_like(w) for w in p.weights]
    vel_b = [None if b is None else np.zeros_like(b) for b in p.biases]
    initial = None
    loss = np.inf
    epochs_run = 0
    for epoch in range(config.max_epochs):
        masks = sample_dropout_masks(p, e.shape[0], rng)
        stats: list[tuple[np.ndarray, np.ndarray]] = []
        try:
            loss, grads = reconstruction_loss_and_grads(p, e, masks, stats_out=stats)
        except CompressorError as exc:
            raise TrainingDivergedError(f"training loss became non-finite at epoch {epoch}") from exc
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"training loss became non-finite at epoch {epoch}")
        for i, (mean, var) in enumerate(stats):
            p.bn_mean[i] = (1.0 - config.bn_momentum) * p.bn_mean[i] + config.bn_momentum * mean
            p.bn_var[i] = (1.0 - config.bn_momentum) * p.bn_var[i] + config.bn_momentum * var
        if initial is None:
            initial = loss
        for i in range(len(p.weights)):
            vel_w[i] = config.momentum * vel_w[i] - config.learning_rate * grads["weights"][i]
            p.weights[i] = p.weights[i] + vel_w[i]
            if p.biases[i] is not None:
                vel_b[i] = config.momentum * vel_b[i] - config.learning_rate * grads["biases"][i]
                p.biases[i] = p.biases[i] + vel_b[i]
        epochs_run = epoch + 1
        if loss <= config.tol * initial:
            break
    p.train_meta = {
        "size": size,
        "seed": seed,
        "epochs_run": epochs_run,
        "initial_loss": initial,
        "final_loss": loss,
        **asdict(config),
    }
    return p
