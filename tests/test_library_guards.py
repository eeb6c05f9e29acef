"""Input checks of the library functions that no `core` command reaches, because an
earlier check (a bound, the kind registry, the compressor spec) rejects the input first."""

import numpy as np
import pytest

from core.compressors import CompressorSpec, fit, transform
from core.compressors.autoencoder import TrainConfig, init_params, train_autoencoder
from core.errors import CompressorError, CoreError, EvaluationError, MatrixFormatError, ScheduleError
from core.evaluation import evaluate_matrices, stratified_kfold, train_logreg
from core.io import Labels, save_matrix
from core.pipeline import compress_recursive, dimension_schedule, estimate_cost

E = np.random.default_rng(0).standard_normal((12, 16))
LABELS = Labels(ids=np.arange(12) % 2, names=("a", "b"))
SPEC = CompressorSpec("random-subspace")


def _nan_features():
    x = E.copy()
    x[3, 2] = np.nan
    return train_logreg(x, LABELS.ids)


GUARDS = {
    "kfold-one-fold": (lambda _: stratified_kfold(LABELS, 1, 0), EvaluationError, "fold count must be >= 2, got 1"),
    "logreg-non-finite": (lambda _: _nan_features(), EvaluationError, "non-finite feature values"),
    "evaluate-rows-vs-labels": (lambda _: evaluate_matrices([E[:10]], LABELS), EvaluationError,
                                "repeat 0: 10 rows but 12 labels"),
    "save-1d-matrix": (lambda tmp: save_matrix(np.zeros(3), tmp / "m.core"), MatrixFormatError,
                       "matrix must be 2-D with at least one row and column, got shape (3,)"),
    "columns-vs-d0": (lambda _: compress_recursive(E[:, :8], SPEC, dimension_schedule(16, 2)), ScheduleError,
                      "matrix has 8 columns but schedule starts at d0=16"),
    "cost-k-zero": (lambda _: estimate_cost(16, 2, 0), ScheduleError, "k must be in [1, 3] for d0=16, kappa=2, got 0"),
    "cost-k-too-large": (lambda _: estimate_cost(16, 2, 4), ScheduleError,
                         "k must be in [1, 3] for d0=16, kappa=2, got 4"),
    "transform-1d": (lambda _: transform(fit(SPEC, E, 4), E[0]), CompressorError,
                     "expected a 2-D matrix, got shape (16,)"),
    "autoencoder-no-rows": (lambda _: train_autoencoder(E[:0], 4), CompressorError,
                            "expected a non-empty 2-D matrix, got shape (0, 16)"),
    "autoencoder-d-out-zero": (lambda _: train_autoencoder(E, 0), CompressorError, "d_out must be >= 1, got 0"),
    "autoencoder-unknown-size": (lambda _: init_params(16, 4, "huge", np.random.default_rng(0)), CompressorError,
                                 "unknown autoencoder size 'huge'"),
    "train-config-no-epochs": (lambda _: TrainConfig(max_epochs=0), CompressorError, "max_epochs must be >= 1, got 0"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_library_guard_raises_its_error(tmp_path, call, error, message):
    with pytest.raises(CoreError) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message
