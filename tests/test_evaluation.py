import numpy as np
import pytest

from core.errors import EvaluationError
from core.evaluation import (
    GRAD_TOL,
    epsilon_f1,
    evaluate_matrices,
    evaluate_representation,
    fold_plan,
    logreg_loss_and_grad,
    micro_f1,
    predict,
    score_fold,
    stratified_kfold,
    train_logreg,
)
from core.evaluation import ClassifierModel
from core.io import Labels


def make_labels(ids, names=None):
    ids = np.asarray(ids)
    n = int(ids.max()) + 1
    return Labels(ids=ids, names=names or tuple(chr(ord("a") + i) for i in range(n)))


def gaussian_blobs(n_per_class, centers, spread, seed):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for cls, center in enumerate(centers):
        xs.append(center + rng.standard_normal((n_per_class, len(center))) * spread)
        ys += [cls] * n_per_class
    order = rng.permutation(len(ys))
    return np.vstack(xs)[order], make_labels(np.array(ys)[order])


def test_stratified_exact_divisibility():
    labels = make_labels([0, 0, 0, 0, 0, 0, 1, 1, 1])
    fold_of = stratified_kfold(labels, 3, seed=0)
    for f in range(3):
        ids = labels.ids[fold_of == f]
        assert np.sum(ids == 0) == 2
        assert np.sum(ids == 1) == 1


def test_stratified_undersized_class():
    labels = make_labels([0, 0, 0, 1, 1])
    with pytest.raises(EvaluationError, match="'b' has 2"):
        stratified_kfold(labels, 3, seed=0)


def test_stratified_deterministic():
    labels = make_labels(np.arange(30) % 3)
    a = stratified_kfold(labels, 3, seed=5)
    b = stratified_kfold(labels, 3, seed=5)
    np.testing.assert_array_equal(a, b)


def test_stratified_counts_within_one():
    rng = np.random.default_rng(1)
    labels = make_labels(np.sort(rng.integers(0, 4, size=53)))
    fold_of = stratified_kfold(labels, 3, seed=2)
    for cls in range(labels.n_classes):
        per_fold = [np.sum((fold_of == f) & (labels.ids == cls)) for f in range(3)]
        assert max(per_fold) - min(per_fold) <= 1


def test_logreg_separable_data():
    x, labels = gaussian_blobs(30, [(-4.0, 0.0), (4.0, 0.0)], 0.5, seed=3)
    model = train_logreg(x, labels.ids, c=1.0)
    assert micro_f1(predict(model, x), labels.ids) >= 0.99


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 3))
    y = np.array([0, 1, 0, 1, 1, 0])
    theta = rng.standard_normal(2 * 3 + 2) * 0.5
    _, analytic = logreg_loss_and_grad(theta, x, y, 2, 1.0)
    h = 1e-6
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        numeric[i] = (
            logreg_loss_and_grad(up, x, y, 2, 1.0)[0] - logreg_loss_and_grad(down, x, y, 2, 1.0)[0]
        ) / (2 * h)
    rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
    assert rel < 1e-5


def test_logreg_weight_norm_monotone_in_c():
    # Smaller C means stronger regularization, hence no larger ||W||.
    x, labels = gaussian_blobs(25, [(-1.0, 1.0), (1.5, -0.5), (0.0, 2.5)], 1.0, seed=5)
    norms = [
        np.linalg.norm(train_logreg(x, labels.ids, c=c).weights) for c in (10.0, 1.0, 0.1, 0.01)
    ]
    assert all(a >= b - 1e-8 for a, b in zip(norms, norms[1:]))


def test_logreg_objective_nonincreasing_over_iterations():
    x, labels = gaussian_blobs(20, [(-2.0, 0.0), (2.0, 1.0)], 1.5, seed=6)
    y = labels.ids
    from scipy import optimize

    losses = []
    theta0 = np.zeros(2 * 2 + 2)
    optimize.minimize(
        logreg_loss_and_grad,
        theta0,
        args=(x, y, 2, 1.0),
        jac=True,
        method="L-BFGS-B",
        callback=lambda t: losses.append(logreg_loss_and_grad(t, x, y, 2, 1.0)[0]),
        options={"maxiter": 100},
    )
    assert all(a >= b - 1e-9 for a, b in zip(losses, losses[1:]))

    # core.lbfgs keeps no history; the same fit stopped after k iterations gives its k-th iterate.
    from core import lbfgs

    full = lbfgs.minimize(logreg_loss_and_grad, theta0, args=(x, y, 2, 1.0), maxiter=100, gtol=GRAD_TOL)
    losses = [lbfgs.minimize(logreg_loss_and_grad, theta0, args=(x, y, 2, 1.0), maxiter=k,
                             gtol=GRAD_TOL).fun
              for k in range(full.nit + 1)]
    assert full.success and losses[-1] == full.fun
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_predict_constant_bias():
    model = ClassifierModel(weights=np.zeros((2, 3)), intercepts=np.array([1.0, 0.0]))
    np.testing.assert_array_equal(predict(model, np.ones((4, 3))), [0, 0, 0, 0])


def test_predict_tie_breaks_to_lowest_class():
    model = ClassifierModel(weights=np.zeros((3, 2)), intercepts=np.zeros(3))
    np.testing.assert_array_equal(predict(model, np.ones((2, 2))), [0, 0])


def test_predict_dim_mismatch():
    model = ClassifierModel(weights=np.zeros((2, 3)), intercepts=np.zeros(2))
    with pytest.raises(EvaluationError):
        predict(model, np.ones((1, 4)))


def test_micro_f1_values():
    assert micro_f1(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0
    assert micro_f1(np.array([0, 0, 1]), np.array([0, 1, 1])) == pytest.approx(2 / 3)
    assert micro_f1(np.array([1, 1]), np.array([0, 0])) == 0.0


def test_micro_f1_equals_accuracy_property():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        n_classes = int(rng.integers(2, 6))
        pred = rng.integers(0, n_classes, size=n)
        truth = rng.integers(0, n_classes, size=n)
        accuracy = float(np.mean(pred == truth))  # independent computation
        assert micro_f1(pred, truth) == pytest.approx(accuracy, abs=1e-15)


def test_micro_f1_empty_input_is_zero():
    assert micro_f1(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == 0.0


def test_micro_f1_length_mismatch():
    with pytest.raises(EvaluationError):
        micro_f1(np.array([0, 1]), np.array([0]))


def test_epsilon_f1():
    assert epsilon_f1(0.85, 0.80) == pytest.approx(0.05)
    assert epsilon_f1(0.5, 0.5) == 0.0
    assert epsilon_f1(0.70, 0.75) == pytest.approx(-0.05)


def test_epsilon_f1_antisymmetric():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a, b = rng.random(2)
        assert epsilon_f1(a, b) == -epsilon_f1(b, a)


def test_evaluate_separable():
    x, labels = gaussian_blobs(20, [(-5.0, 0.0), (5.0, 0.0), (0.0, 5.0)], 0.4, seed=9)
    res = evaluate_representation(x, labels, k=3, repeats=3, seed=0)
    assert res.mean_f1 >= 0.99
    assert res.std_f1 < 0.05
    assert len(res.per_fold) == 9


def test_evaluate_duplication_stability():
    x, labels = gaussian_blobs(15, [(-2.0, 0.5), (2.0, -0.5)], 1.2, seed=10)
    doubled = np.vstack([x, x])
    doubled_labels = Labels(ids=np.concatenate([labels.ids, labels.ids]), names=labels.names)
    a = evaluate_representation(x, labels, seed=1)
    b = evaluate_representation(doubled, doubled_labels, seed=1)
    assert abs(a.mean_f1 - b.mean_f1) < 0.02


def test_evaluate_same_seed_identical():
    x, labels = gaussian_blobs(10, [(-1.0, 0.0), (1.0, 0.0)], 1.0, seed=11)
    a = evaluate_representation(x, labels, seed=4)
    b = evaluate_representation(x, labels, seed=4)
    assert a.per_fold == b.per_fold


def test_identity_compression_epsilon_is_zero():
    # Shared fold seeds plus a column permutation (cluster-mean singletons)
    # leave every fold score untouched, so epsilon-F1 is exactly 0.
    from core.compressors import CompressorSpec, fit, transform

    x, labels = gaussian_blobs(12, [(-1.5, 0.3, 0.0), (1.0, -1.0, 0.5)], 1.0, seed=12)
    fc = fit(CompressorSpec("cluster-mean", seed=3), x, x.shape[1])
    permuted = transform(fc, x)
    base = evaluate_representation(x, labels, seed=7)
    comp = evaluate_representation(permuted, labels, seed=7)
    assert epsilon_f1(comp.mean_f1, base.mean_f1) == 0.0


def test_evaluate_matrices_per_repeat():
    x, labels = gaussian_blobs(10, [(-3.0, 0.0), (3.0, 0.0)], 0.8, seed=13)
    res = evaluate_matrices([x, x + 0.0, x.copy()], labels, k=3, seed=2)
    assert len(res.per_fold) == 9
    single = evaluate_representation(x, labels, k=3, repeats=3, seed=2)
    assert res.per_fold == single.per_fold


def test_evaluate_matrices_scores_each_fold_with_score_fold():
    x, labels = gaussian_blobs(12, [(-1.0, 0.0, 0.5), (1.0, 0.0, -0.5), (0.0, 1.0, 0.0)], 1.0, seed=17)
    matrices = [x, x[:, ::-1] * 2.0]
    plan = fold_plan(labels, 3, 5, 2)
    res = evaluate_matrices(matrices, labels, k=3, seed=5, plan=plan)
    assert res.per_fold == tuple((r, f, score_fold(e, labels.ids, plan[r] == f))
                                 for r, e in enumerate(matrices) for f in range(3))


def test_score_fold_scores_a_matrix_made_inside_the_fold():
    # An in-fold matrix: the training rows and the test rows are each transformed by a compressor
    # fitted on the training rows alone.
    from core.compressors import CompressorSpec, fit, transform

    x, labels = gaussian_blobs(15, [(-2.0, 0.0, 1.0, 0.0), (2.0, 0.0, -1.0, 0.0), (0.0, 2.0, 0.0, 1.0)], 1.0, seed=5)
    test = stratified_kfold(labels, 3, seed=4) == 1
    fc = fit(CompressorSpec("svd-exact"), x[~test], 2)
    e = np.empty((len(x), 2))
    e[~test], e[test] = transform(fc, x[~test]), transform(fc, x[test])
    before = e.copy()
    model = train_logreg(e[~test], labels.ids[~test])
    assert score_fold(e, labels.ids, test) == micro_f1(predict(model, e[test]), labels.ids[test])
    assert e.tobytes() == before.tobytes()


def reference_loss_and_grad(theta, x, y, n_classes, c):
    # The class-major textbook kernel, kept as the oracle for the bit-exactness contract.
    n, dim = x.shape
    w = theta[: n_classes * dim].reshape(n_classes, dim)
    b = theta[n_classes * dim :]
    logits = w @ x.T + b[:, None]
    logits -= logits.max(axis=0, keepdims=True)
    exp = np.exp(logits)
    denom = exp.sum(axis=0)
    loss = float(np.sum(np.log(denom) - logits[y, np.arange(n)]) + np.sum(w * w) / (2.0 * c))
    probs = exp / denom
    probs[y, np.arange(n)] -= 1.0
    grad_w = probs @ x + w / c
    grad_b = probs.sum(axis=1)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


def row_major_loss_and_grad(theta, x, y, n_classes, c):
    # The same formula with the logits laid out document by class: the same math, summed in
    # another order.
    n, dim = x.shape
    w = theta[: n_classes * dim].reshape(n_classes, dim)
    b = theta[n_classes * dim :]
    logits = x @ w.T + b
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    denom = exp.sum(axis=1)
    loss = float(np.sum(np.log(denom) - logits[np.arange(n), y]) + np.sum(w * w) / (2.0 * c))
    probs = exp / denom[:, None]
    probs[np.arange(n), y] -= 1.0
    grad_w = probs.T @ x + w / c
    grad_b = probs.sum(axis=0)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


def kernel_case(n_classes, dim, scale):
    rng = np.random.default_rng(100 * n_classes + dim)
    n = 97
    x = rng.standard_normal((n, dim))
    y = rng.permutation(np.arange(n) % n_classes)
    theta = rng.standard_normal(n_classes * dim + n_classes) * 0.1
    if scale == "large":
        # Logits up to about +-700: unshifted, exp would overflow.
        w = theta[: n_classes * dim].reshape(n_classes, dim)
        theta *= 700.0 / np.abs(x @ w.T + theta[n_classes * dim :]).max()
    return theta, x, y


@pytest.mark.parametrize("n_classes", [2, 3, 4, 8, 13])
@pytest.mark.parametrize("dim", [1, 6, 64])
@pytest.mark.parametrize("scale", ["small", "large"])
def test_logreg_kernel_bit_identical_to_reference(n_classes, dim, scale):
    theta, x, y = kernel_case(n_classes, dim, scale)
    for c in (1.0, 0.01):
        loss, grad = logreg_loss_and_grad(theta, x, y, n_classes, c)
        ref_loss, ref_grad = reference_loss_and_grad(theta, x, y, n_classes, c)
        assert np.isfinite(loss)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("n_classes", [2, 3, 4, 8, 13])
@pytest.mark.parametrize("dim", [1, 6, 64])
@pytest.mark.parametrize("scale", ["small", "large"])
def test_logreg_kernel_within_rounding_of_row_major_formula(n_classes, dim, scale):
    theta, x, y = kernel_case(n_classes, dim, scale)
    for c in (1.0, 0.01):
        loss, grad = logreg_loss_and_grad(theta, x, y, n_classes, c)
        row_loss, row_grad = row_major_loss_and_grad(theta, x, y, n_classes, c)
        assert abs(loss - row_loss) <= 1e-13 * abs(row_loss)
        assert np.abs(grad - row_grad).max() <= 1e-13 * np.abs(row_grad).max()


def test_train_logreg_bit_identical_to_reference_fit(monkeypatch):
    import core.evaluation as evaluation

    x, labels = gaussian_blobs(15, [(-1.0, 0.5, 0.0), (1.0, -0.5, 0.3), (0.0, 1.5, -1.0), (0.5, 0.5, 1.0)],
                               1.2, seed=14)
    fast = train_logreg(x, labels.ids)
    monkeypatch.setattr(evaluation, "logreg_loss_and_grad", reference_loss_and_grad)
    reference = train_logreg(x, labels.ids)
    assert np.array_equal(fast.weights, reference.weights)
    assert np.array_equal(fast.intercepts, reference.intercepts)


def test_train_logreg_same_bits_for_any_memory_layout():
    rng = np.random.default_rng(15)
    big = rng.standard_normal((120, 128))
    y = np.arange(120) % 4
    c_order = np.ascontiguousarray(big[:, ::2])
    fitted = [train_logreg(view, y) for view in (c_order, np.asfortranarray(c_order), big[:, ::2])]
    for other in fitted[1:]:
        assert other.weights.tobytes() == fitted[0].weights.tobytes()
        assert other.intercepts.tobytes() == fitted[0].intercepts.tobytes()


def test_optimize_binding_returns_what_the_tracer_reads():
    # perfbench/tracing.py swaps the module attribute core.evaluation.optimize for a proxy that wraps
    # its `minimize` and reads `nit` (an int) and `success` (a bool) from each result.
    from core import evaluation

    assert callable(vars(evaluation)["optimize"].minimize)
    x, labels = gaussian_blobs(15, [(-2.0, 0.0, 1.0), (2.0, 1.0, 0.0), (0.0, 3.0, -1.0)], 1.2, seed=12)
    result = evaluation.optimize.minimize(logreg_loss_and_grad, np.zeros(3 * 3 + 3), args=(x, labels.ids, 3, 1.0),
                                          maxiter=evaluation.MAX_ITER, gtol=evaluation.GRAD_TOL)
    assert type(result.nit) is int and type(result.success) is bool and result.success
    assert result.fun == logreg_loss_and_grad(result.x, x, labels.ids, 3, 1.0)[0]
    assert result.nfev >= result.nit + 1


def test_train_logreg_calls_the_optimizer_bound_to_the_module(monkeypatch):
    # Tracing swaps core.evaluation.optimize for a stand-in and relies on train_logreg calling it, at
    # call time, with the loss bound to the module at that time.
    from core import evaluation

    original = evaluation.optimize
    x, labels = gaussian_blobs(15, [(-2.0, 0.0, 1.0), (2.0, 1.0, 0.0), (0.0, 3.0, -1.0)], 1.2, seed=12)
    expected = train_logreg(x, labels.ids)
    losses = []

    def traced_loss(*args):
        return logreg_loss_and_grad(*args)

    class StandIn:
        def minimize(self, fun, *args, **kwargs):
            losses.append(fun)
            return original.minimize(fun, *args, **kwargs)

    monkeypatch.setattr(evaluation, "optimize", StandIn())
    monkeypatch.setattr(evaluation, "logreg_loss_and_grad", traced_loss)
    fitted = train_logreg(x, labels.ids)
    monkeypatch.undo()
    assert losses == [traced_loss]
    assert fitted.weights.tobytes() == expected.weights.tobytes()
    assert fitted.intercepts.tobytes() == expected.intercepts.tobytes()
    assert evaluation.optimize is original


def test_train_logreg_converges_on_narrow_sparse_projection_steps(monkeypatch):
    # A sparse projection keeps row norms, so its column std grows about sqrt(2) per step, and at the
    # narrow steps the data term of the Hessian outweighs the 1/C term by orders of magnitude.
    # Unpreconditioned, these three fits stop at the 500-iteration cap with max |grad| 1e-3 to 0.3;
    # scaled by the Hessian diagonal at the zero start, each converges.
    from core import evaluation
    from core.compressors import CompressorSpec
    from core.experiment import make_synthetic_dataset
    from core.pipeline import compress_recursive, dimension_schedule

    original = evaluation.optimize
    results = []

    class StandIn:
        def minimize(self, *args, **kwargs):
            results.append(original.minimize(*args, **kwargs))
            return results[-1]

    e, labels = make_synthetic_dataset(1500, 8, 32, 384, seed=1)
    run = compress_recursive(e, CompressorSpec("sparse-projection", seed=1), dimension_schedule(384, 2))
    monkeypatch.setattr(evaluation, "optimize", StandIn())
    for step in run.steps:
        if step.dim in (24, 12, 6):
            x, y = step.output[:1000], labels.ids[:1000]
            train_logreg(x, y)
            result = results[-1]
            assert result.success, (step.dim, result.nit)
            gradient = logreg_loss_and_grad(result.x, np.ascontiguousarray(x, dtype=np.float64), y, 8, 1.0)[1]
            assert np.abs(gradient).max() <= GRAD_TOL
    assert len(results) == 3


def _recording_optimizer(monkeypatch, replace=None):
    """Swap ``core.evaluation.optimize`` for a stand-in; return the list of (kwargs, result) of its calls.

    ``replace(result)``, if given, is what the stand-in returns in place of the solver's result."""
    from core import evaluation

    original, calls = evaluation.optimize, []

    class StandIn:
        def minimize(self, *args, **kwargs):
            calls.append((kwargs, original.minimize(*args, **kwargs)))
            return calls[-1][1] if replace is None else replace(calls[-1][1])

    monkeypatch.setattr(evaluation, "optimize", StandIn())
    return calls


def test_train_logreg_passes_the_hessian_up_to_the_parameter_bound(monkeypatch):
    from core import evaluation

    calls = _recording_optimizer(monkeypatch)
    x, y = np.random.default_rng(16).standard_normal((120, 75)), np.arange(120) % 4
    train_logreg(x[:, :74], y)  # 4 * (74 + 1) = 300 parameters
    train_logreg(x, y)  # 304 parameters: plain L-BFGS
    assert evaluation.NEWTON_MAX_PARAMS == 300
    assert [kwargs["hess"] for kwargs, _ in calls] == [evaluation.logreg_hessian, None]


@pytest.mark.parametrize("classes, dim", [(8, 3), (8, 2), (20, 12)])
def test_train_logreg_converges_where_l_bfgs_alone_does_not(monkeypatch, classes, dim):
    # 1,333 training rows of a narrow recursive sparse-projection step of a 2000x384 corpus, eval-wide's
    # shape. L-BFGS alone ends the 8-class fits at widths 3 and 2 by a line search that finds no
    # decrease, with max |grad| 4e-5 and 8e-5 (f is about 2,000 and its last decreases fall below its
    # rounding), and the 20-class fit at width 12 (260 parameters) at the iteration cap.
    from core import evaluation, lbfgs
    from core.compressors import CompressorSpec
    from core.experiment import make_synthetic_dataset
    from core.pipeline import compress_recursive, dimension_schedule

    e, labels = make_synthetic_dataset(2000, classes, 32, 384, seed=1)
    run = compress_recursive(e, CompressorSpec("sparse-projection", seed=1), dimension_schedule(384, 2))
    x = np.ascontiguousarray(next(step.output for step in run.steps if step.dim == dim)[:1333], dtype=np.float64)
    y = labels.ids[:1333]
    calls = _recording_optimizer(monkeypatch)
    train_logreg(x, y)
    (kwargs, newton), = calls
    plain = lbfgs.minimize(logreg_loss_and_grad, np.zeros(classes * (dim + 1)), **dict(kwargs, hess=None))
    assert not plain.success
    assert newton.success and newton.nit <= evaluation.MAX_ITER // 10
    assert np.abs(logreg_loss_and_grad(newton.x, x, y, classes, 1.0)[1]).max() <= GRAD_TOL
    assert newton.fun == logreg_loss_and_grad(newton.x, x, y, classes, 1.0)[0] <= plain.fun


def test_newton_steps_accept_a_rise_of_f_within_its_rounding(monkeypatch):
    # Width 2 of a direct sparse projection of a 2000x384 corpus stored in f32, training on folds 0 and 1
    # of 3. Near the optimum f is about 2,184, and the Newton step that lowers max |grad| towards
    # GRAD_TOL raises f by one unit in its last place (2e-16 of it): no step length lowers f there.
    from core import lbfgs
    from core.compressors import CompressorSpec
    from core.experiment import make_synthetic_dataset
    from core.pipeline import compress_direct, dimension_schedule

    e, labels = make_synthetic_dataset(2000, 8, 32, 384, seed=2)
    train = stratified_kfold(labels, 3, seed=2) != 2
    run = compress_direct(e.astype(np.float32).astype(np.float64), CompressorSpec("sparse-projection", seed=1),
                          dimension_schedule(384, 2))
    x = next(step.output for step in run.steps if step.dim == 2)[train]
    model = train_logreg(x, labels.ids[train])
    theta = np.concatenate([model.weights.ravel(), model.intercepts])
    assert np.abs(logreg_loss_and_grad(theta, np.ascontiguousarray(x), labels.ids[train], 8, 1.0)[1]).max() <= GRAD_TOL
    monkeypatch.setattr(lbfgs, "F_ROUNDING", 0.0)
    with pytest.raises(EvaluationError, match="did not converge at width 2"):
        train_logreg(x, labels.ids[train])


def test_train_logreg_raises_on_an_unconverged_fit(monkeypatch):
    _recording_optimizer(monkeypatch, replace=lambda result: result._replace(success=False))
    x, labels = gaussian_blobs(15, [(-2.0, 0.0, 1.0), (2.0, 1.0, 0.0), (0.0, 3.0, -1.0)], 1.2, seed=12)
    with pytest.raises(EvaluationError, match=r"^logistic regression did not converge at width 3: "
                                              r"\d+ iterations, max \|grad\| \S+$"):
        train_logreg(x, labels.ids)
