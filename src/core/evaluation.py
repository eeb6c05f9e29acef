"""Extrinsic quality measurement: logistic-regression micro-F1 under repeated stratified CV."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lbfgs as optimize  # a module binding: train_logreg looks it up at each call
from .errors import EvaluationError
from .io import Labels
from .pipeline import mix64

DEFAULT_C = 1.0
MAX_ITER = 500
GRAD_TOL = 1e-5
NEWTON_MAX_PARAMS = 300  # a fit with at most this many parameters finishes with Newton steps


@dataclass(frozen=True)
class ClassifierModel:
    weights: np.ndarray  # (n_classes, dim)
    intercepts: np.ndarray  # (n_classes,)


@dataclass(frozen=True)
class EvalResult:
    mean_f1: float
    std_f1: float
    per_fold: tuple[tuple[int, int, float], ...]  # (repeat, fold, score)

    @classmethod
    def of(cls, scores) -> "EvalResult":
        """Mean and population std of the (repeat, fold, score) tuples, kept in their order."""
        values = np.array([s for _, _, s in scores])
        return cls(float(values.mean()), float(values.std()), tuple(scores))


@dataclass(frozen=True)
class EvaluationRecord:
    dataset: str
    representation: str
    compressor: str
    mode: str
    step: int
    dim: int
    mean_f1: float
    std_f1: float
    epsilon_f1: float
    repeats: int
    extra: dict = field(default_factory=dict, compare=False)


def stratified_kfold(labels: Labels, k: int, seed: int) -> np.ndarray:
    """Fold id per document: per-class shuffle then round-robin; deterministic given seed."""
    if k < 2:
        raise EvaluationError(f"fold count must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    fold_of = np.full(len(labels), -1, dtype=np.int64)
    for cls in range(labels.n_classes):
        members = np.flatnonzero(labels.ids == cls)
        if len(members) < k:
            raise EvaluationError(
                f"class {labels.names[cls]!r} has {len(members)} members, fewer than {k} folds"
            )
        rng.shuffle(members)
        fold_of[members] = np.arange(len(members)) % k
    return fold_of


def fold_plan(labels: Labels, k: int, seed: int, repeats: int) -> dict[int, np.ndarray]:
    """The fold ids of each repeat r, from ``stratified_kfold(labels, k, mix64(seed, r))``."""
    return {r: stratified_kfold(labels, k, mix64(seed, r)) for r in range(repeats)}


def logreg_loss_and_grad(theta: np.ndarray, x: np.ndarray, y: np.ndarray, n_classes: int, c: float):
    """Multinomial cross-entropy (summed) plus ||W||^2 / (2C); intercepts unpenalized.

    ``theta`` is row-major ``W`` (n_classes x dim), then ``b``. The logits are laid out class
    by document, ``(n_classes, n)``, so each per-class step runs over one contiguous row of n.
    Bit-exactness contract: loss and gradient are bit-for-bit the class-major textbook formula
    (``logits = w @ x.T + b[:, None]``, shift by the column max, ``exp / exp.sum(axis=0)``,
    subtract the one-hot labels, ``probs @ x + w / c``, ``probs.sum(axis=1)``) on a C-ordered
    ``x``, as ``train_logreg`` passes. Sums depend on their order, so the matmuls, the sum over
    classes, ``np.sum(w * w)`` and every sum over the n documents keep that form and layout;
    elementwise steps round each element once, whatever the buffer. The row-major formula
    (``x @ w.T``, sums along rows) sums in another order and differs in the last bits.
    """
    n, dim = x.shape
    split = n_classes * dim
    w = theta[:split].reshape(n_classes, dim)
    logits = w @ x.T
    logits += theta[split:, None]
    logits -= logits.max(axis=0)
    target = y * n + np.arange(n)  # flat index of (y[i], i)
    target_logits = logits.ravel()[target]
    probs = np.exp(logits, out=logits)
    denom = probs.sum(axis=0)
    loss = float(np.sum(np.log(denom) - target_logits) + np.sum(w * w) / (2.0 * c))
    probs /= denom
    probs.ravel()[target] -= 1.0
    grad = np.empty_like(theta)
    grad_w = grad[:split].reshape(n_classes, dim)
    np.matmul(probs, x, out=grad_w)
    grad_w += w / c
    np.sum(probs, axis=1, out=grad[split:])
    return loss, grad


def logreg_hessian(theta: np.ndarray, x: np.ndarray, y: np.ndarray, n_classes: int, c: float) -> np.ndarray:
    """Exact Hessian of ``logreg_loss_and_grad`` in ``theta``'s layout, plus ``n / K`` on every
    entry of the intercept block.

    With x~ = [x, 1] and Z the columns ``p_k * x`` of each class's weights, then ``p_k`` of each
    intercept: ``H = blockdiag_k(x~^T (p_k * x~)) - Z^T Z`` plus ``1/c`` on the weight diagonal.
    The intercepts' null direction ``b + t * 1`` leaves the loss unchanged, so H is singular along
    it; the added ``(n / K) 1 1^T`` gives it curvature. The gradient is orthogonal to that
    direction, so a Newton step does not change. ``y`` is unused: the Hessian does not depend on
    the labels.
    """
    n, dim = x.shape
    split = n_classes * dim
    probs = theta[:split].reshape(n_classes, dim) @ x.T
    probs += theta[split:, None]
    probs -= probs.max(axis=0)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=0)
    zt = np.empty((theta.size, n))  # Z^T, filled one class at a time: no (K, dim, n) temporary
    for k in range(n_classes):
        np.multiply(x.T, probs[k], out=zt[k * dim:(k + 1) * dim])
    zt[split:] = probs
    h = zt @ zt.T
    np.negative(h, out=h)
    xpx = zt[:split] @ x  # row block k is x^T (p_k * x)
    cross = zt[:split].sum(axis=1)  # x^T p_k, class by class
    for k in range(n_classes):
        block = slice(k * dim, (k + 1) * dim)
        h[block, block] += xpx[block]
        h[block, split + k] += cross[block]
        h[split + k, block] += cross[block]
    h[split:, split:] += np.diag(probs.sum(axis=1)) + n / n_classes
    h.flat[:split * (theta.size + 1):theta.size + 1] += 1.0 / c
    return h


def train_logreg(x: np.ndarray, labels: np.ndarray, c: float = DEFAULT_C) -> ClassifierModel:
    """L-BFGS fit (`core.lbfgs`) from a zero start to gradient tolerance 1e-5. ``x`` is copied to C
    order, so no layout changes the fit's bits.

    The run is preconditioned by the Hessian diagonal at the zero start, where every class
    probability is 1/K: with q = (1/K)(1 - 1/K), ``q * sum_i x_ij^2 + 1/c`` for ``W[k, j]`` and
    ``q * n`` for ``b[k]``. The stop test reads the unscaled gradient. A fit with at most
    ``NEWTON_MAX_PARAMS`` parameters passes ``logreg_hessian``, so after ``core.lbfgs.NEWTON_AFTER``
    iterations it goes on with Newton steps. A fit that ends unconverged (500 iterations, or no
    acceptable step) raises ``EvaluationError``: its score would rest on weights short of the optimum.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n_classes = int(y.max()) + 1
    if n_classes < 2:
        raise EvaluationError("need at least 2 classes to train a classifier")
    if not np.all(np.isfinite(x)):
        raise EvaluationError("non-finite feature values")
    q = (1.0 / n_classes) * (1.0 - 1.0 / n_classes)
    diag = np.concatenate([np.tile(q * np.einsum("ij,ij->j", x, x) + 1.0 / c, n_classes),
                           np.full(n_classes, q * x.shape[0])])
    theta0 = np.zeros(n_classes * x.shape[1] + n_classes)
    hess = logreg_hessian if theta0.size <= NEWTON_MAX_PARAMS else None
    result = optimize.minimize(logreg_loss_and_grad, theta0, args=(x, y, n_classes, c), maxiter=MAX_ITER,
                               gtol=GRAD_TOL, scale=1.0 / np.sqrt(diag), hess=hess)
    if not np.isfinite(result.fun):
        raise EvaluationError("logistic regression loss became non-finite")
    if not result.success:
        grad = logreg_loss_and_grad(result.x, x, y, n_classes, c)[1]
        raise EvaluationError(f"logistic regression did not converge at width {x.shape[1]}: "
                              f"{result.nit} iterations, max |grad| {np.abs(grad).max():.3g}")
    split = n_classes * x.shape[1]
    return ClassifierModel(weights=result.x[:split].reshape(n_classes, -1), intercepts=result.x[split:])


def predict(model: ClassifierModel, x: np.ndarray) -> np.ndarray:
    """Argmax class scores; ties resolve to the lowest class id."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.weights.shape[1]:
        raise EvaluationError(f"matrix has {x.shape[1]} columns but model expects {model.weights.shape[1]}")
    return np.argmax(x @ model.weights.T + model.intercepts, axis=1)


def micro_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    """F1 from globally pooled true/false positives and false negatives.

    With one label per document every miss is one false positive and one false
    negative, so 2TP / (2TP + FP + FN) is exactly TP / n, the accuracy.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise EvaluationError(f"length mismatch: {pred.shape} vs {truth.shape}")
    tp = int(np.count_nonzero(pred == truth))
    return tp / pred.size if tp else 0.0


def epsilon_f1(f1_compressed: float, f1_initial: float) -> float:
    """Signed score difference; positive means compression helped."""
    return f1_compressed - f1_initial


def scored_record(dataset: str, representation: str, compressor: str, mode: str, step: int, dim: int,
                  res: EvalResult, baseline_mean: float, repeats: int, **extra) -> EvaluationRecord:
    """The record of one scored matrix, with its epsilon-F1 against ``baseline_mean``."""
    return EvaluationRecord(dataset, representation, compressor, mode, step, dim, res.mean_f1, res.std_f1,
                            epsilon_f1(res.mean_f1, baseline_mean), repeats, extra)


def evaluate_matrices(
    matrices: list[np.ndarray],
    labels: Labels,
    k: int = 3,
    seed: int = 0,
    plan: dict[int, np.ndarray] | None = None,
) -> EvalResult:
    """Score one matrix per repeat; repeat r uses folds seeded with mix64(seed, r).

    Fold assignments depend only on (labels, k, seed), never on the matrices,
    so a baseline and any compressed variant evaluated with the same seed share
    folds exactly. ``plan`` maps the repeat of each matrix, in order, to its fold
    ids; when None it is ``fold_plan(labels, k, seed, len(matrices))``.
    """
    plan = fold_plan(labels, k, seed, len(matrices)) if plan is None else plan
    scores = []
    for (r, fold_of), e in zip(plan.items(), matrices, strict=True):
        e = np.asarray(e, dtype=np.float64)
        if e.shape[0] != len(labels):
            raise EvaluationError(f"repeat {r}: {e.shape[0]} rows but {len(labels)} labels")
        for f in range(k):
            test = fold_of == f
            model = train_logreg(e[~test], labels.ids[~test])
            scores.append((r, f, micro_f1(predict(model, e[test]), labels.ids[test])))
    return EvalResult.of(scores)


def evaluate_representation(
    e: np.ndarray,
    labels: Labels,
    k: int = 3,
    repeats: int = 3,
    seed: int = 0,
    plan: dict[int, np.ndarray] | None = None,
) -> EvalResult:
    """Repeated stratified k-fold evaluation of a single fixed matrix; ``plan`` is as in
    ``evaluate_matrices``."""
    return evaluate_matrices([e] * repeats, labels, k, seed, plan)
