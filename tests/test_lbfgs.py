"""``core.lbfgs`` against scipy's L-BFGS-B, the oracle here; the program does not import scipy.optimize."""

import numpy as np
import pytest
from scipy import optimize

from core import lbfgs
from core.evaluation import GRAD_TOL, MAX_ITER, NEWTON_MAX_PARAMS, logreg_hessian, logreg_loss_and_grad
from core.experiment import make_synthetic_dataset

GRID = [(k, dim) for k in (2, 3, 8) for dim in (1, 6, 64)]


def multinomial(k: int, dim: int, n: int, seed: int):
    """Normal features with column scales from 1 to 10 ** 0.5, and labels drawn from a random softmax model."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim)) * np.logspace(0, 0.5, dim)
    logits = x @ rng.standard_normal((k, dim)).T
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return x, np.array([rng.choice(k, p=row) for row in p])


def fit(x, y, k, c=1.0, maxiter=MAX_ITER, hess=None):
    return lbfgs.minimize(logreg_loss_and_grad, np.zeros(k * x.shape[1] + k), args=(x, y, k, c), maxiter=maxiter,
                           gtol=GRAD_TOL, hess=hess)


def predictions(theta, x, k):
    split = k * x.shape[1]
    return np.argmax(x @ theta[:split].reshape(k, -1).T + theta[split:], axis=1)


@pytest.mark.parametrize("k, dim", GRID)
def test_loss_and_predictions_match_scipy(k, dim):
    x, y = multinomial(k, dim, 500, seed=10 * k + dim)
    train, held_out = slice(0, 300), slice(300, None)
    ours = fit(x[train], y[train], k)
    ref = optimize.minimize(logreg_loss_and_grad, np.zeros(k * dim + k), args=(x[train], y[train], k, 1.0),
                            jac=True, method="L-BFGS-B",
                            options={"maxiter": MAX_ITER, "gtol": GRAD_TOL, "ftol": 1e-16})
    assert ours.success and ref.success
    assert ours.nit <= ref.nit + max(3, ref.nit // 5)  # quasi-Newton steps, not steepest descent
    assert np.abs(logreg_loss_and_grad(ours.x, x[train], y[train], k, 1.0)[1]).max() <= GRAD_TOL
    assert abs(ours.fun - ref.fun) <= 1e-8 * abs(ref.fun)
    np.testing.assert_array_equal(predictions(ours.x, x[held_out], k), predictions(ref.x, x[held_out], k))


@pytest.mark.parametrize("k, dim", GRID)
def test_loss_decreases_at_every_iteration(k, dim):
    # The same fit stopped after j iterations gives its j-th iterate.
    x, y = multinomial(k, dim, 300, seed=k + dim)
    full = fit(x, y, k)
    losses = [fit(x, y, k, maxiter=j).fun for j in range(full.nit + 1)]
    assert losses[0] == logreg_loss_and_grad(np.zeros(k * dim + k), x, y, k, 1.0)[0]
    assert losses[-1] == full.fun
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_start_at_the_optimum_takes_no_iteration():
    x, y = multinomial(3, 6, 300, seed=1)
    optimum = fit(x, y, 3).x
    again = lbfgs.minimize(logreg_loss_and_grad, optimum, args=(x, y, 3, 1.0), maxiter=MAX_ITER, gtol=GRAD_TOL)
    assert (again.nit, again.nfev, again.success) == (0, 1, True)
    assert again.x.tobytes() == optimum.tobytes()


def test_separable_classes_stop_at_the_iteration_cap():
    # Well-separated classes and a weak penalty (C = 1000): the weights grow and the fit is slow.
    e, labels = make_synthetic_dataset(150, 8, 6, 6, seed=0, separation=4.0)
    result = fit(e, labels.ids, 8, c=1e3)
    assert (result.nit, result.success) == (MAX_ITER, False)
    assert result.nfev <= 1 + lbfgs.MAX_TRIALS * MAX_ITER


def _quadratic(n: int):
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a, b = (q * np.logspace(0, 2, n)) @ q.T, rng.standard_normal(n)

    def fun(x):
        ax = a @ x
        return float(0.5 * x @ ax - b @ x), ax - b

    return fun, np.zeros(n), ()


def _logreg():
    x, y = multinomial(3, 6, 300, seed=2)
    return logreg_loss_and_grad, np.zeros(3 * 6 + 3), (x, y, 3, 1.0)


@pytest.mark.parametrize("problem", [lambda: _quadratic(50), _logreg], ids=["quadratic", "logreg"])
def test_unreachable_gtol_ends_when_no_decrease_is_found(problem):
    fun, x0, args = problem()
    result = lbfgs.minimize(fun, x0, args=args, maxiter=MAX_ITER, gtol=1e-12)
    assert not result.success
    assert result.nit < MAX_ITER
    assert result.nfev <= 1 + lbfgs.MAX_TRIALS * (result.nit + 1)
    assert result.fun == fun(result.x, *args)[0]


def test_two_runs_give_the_same_bytes():
    x, y = multinomial(8, 64, 300, seed=3)
    first, second = fit(x, y, 8), fit(x, y, 8)
    assert first.x.tobytes() == second.x.tobytes()
    assert (first.fun, first.nit, first.nfev, first.success) == (second.fun, second.nit, second.nfev, second.success)


def test_unit_scale_gives_the_bytes_of_the_default():
    fun, x0, args = _logreg()
    default = lbfgs.minimize(fun, x0, args=args, maxiter=MAX_ITER, gtol=GRAD_TOL)
    ones = lbfgs.minimize(fun, x0, args=args, maxiter=MAX_ITER, gtol=GRAD_TOL, scale=np.ones(x0.size))
    assert ones.x.tobytes() == default.x.tobytes()
    assert (ones.fun, ones.nit, ones.nfev, ones.success) == (default.fun, default.nit, default.nfev, default.success)


def test_scaling_by_the_curvature_converges_in_a_few_iterations():
    # 0.5 sum_i c_i x_i^2 - b.x with curvatures c_i spread over 1e-3 to 1e3.
    curvature = np.logspace(-3, 3, 30)
    b = np.random.default_rng(30).standard_normal(30)

    def fun(x):
        return float(0.5 * x @ (curvature * x) - b @ x), curvature * x - b

    plain = lbfgs.minimize(fun, np.zeros(30), maxiter=MAX_ITER, gtol=1e-6)
    scaled = lbfgs.minimize(fun, np.zeros(30), maxiter=MAX_ITER, gtol=1e-6, scale=curvature ** -0.5)
    assert scaled.success and scaled.nit <= 3
    assert plain.nit >= 10 * scaled.nit


@pytest.mark.parametrize("scale", [1e-3, 1e3, "per-coordinate"])
def test_success_means_the_gradient_in_x_is_within_gtol(scale):
    # A stop test on the gradient in u = x / scale would end a run at scale 1e-3 too early.
    fun, x0, args = _logreg()
    if scale == "per-coordinate":
        scale = 1e-3 * np.random.default_rng(0).uniform(0.5, 2.0, x0.size)
    result = lbfgs.minimize(fun, x0, args=args, maxiter=MAX_ITER, gtol=GRAD_TOL, scale=scale)
    assert result.success
    assert np.abs(fun(result.x, *args)[1]).max() <= GRAD_TOL
    assert result.fun == fun(result.x, *args)[0]


def test_a_nan_gradient_never_reads_as_converged():
    result = lbfgs.minimize(lambda x: (float(x @ x), np.full_like(x, np.nan)), np.ones(3), maxiter=10, gtol=1e-5)
    assert not result.success
    assert result.nit == 0


@pytest.mark.parametrize("k, dim", GRID)
def test_logreg_hessian_matches_differences_of_the_gradient(k, dim):
    x, y = multinomial(k, dim, 300, seed=k + dim)
    theta = np.random.default_rng(k * dim).standard_normal(k * dim + k) * 0.1
    hessian = logreg_hessian(theta, x, y, k, 1.0)
    hessian[k * dim:, k * dim:] -= 300 / k  # the curvature added along the intercepts' null direction
    h, numeric = 1e-5, np.empty_like(hessian)
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h
        numeric[:, j] = (logreg_loss_and_grad(theta + step, x, y, k, 1.0)[1]
                         - logreg_loss_and_grad(theta - step, x, y, k, 1.0)[1]) / (2 * h)
    assert np.abs(hessian - numeric).max() <= 1e-8 * np.abs(numeric).max()
    np.testing.assert_allclose(hessian, hessian.T, rtol=0, atol=1e-12 * np.abs(hessian).max())


@pytest.mark.parametrize("k, dim", GRID)
def test_logreg_hessian_curves_the_null_direction_by_n(k, dim):
    # b + t * 1 leaves every softmax, hence the loss, unchanged: along (0, 1_K) the data term is 0, and
    # the added (n / K) 1 1^T gives H (0, 1_K) = n (0, 1_K).
    x, y = multinomial(k, dim, 300, seed=k + dim)
    theta = np.random.default_rng(k * dim).standard_normal(k * dim + k) * 0.1
    null = np.concatenate([np.zeros(k * dim), np.ones(k)])
    hessian = logreg_hessian(theta, x, y, k, 1.0)
    np.testing.assert_allclose(hessian @ null, 300 * null, rtol=0, atol=1e-10 * np.abs(hessian).max())


@pytest.mark.parametrize("k, dim", [(k, dim) for k, dim in GRID if k * (dim + 1) <= NEWTON_MAX_PARAMS])
def test_newton_finish_reaches_the_loss_and_predictions_of_l_bfgs(k, dim):
    x, y = multinomial(k, dim, 500, seed=10 * k + dim)
    train, held_out = slice(0, 300), slice(300, None)
    plain, newton = fit(x[train], y[train], k), fit(x[train], y[train], k, hess=logreg_hessian)
    assert plain.success and newton.success
    # Never above L-BFGS's loss; at 64 columns L-BFGS stops at gtol up to 1e-11 above the optimum.
    assert newton.fun <= plain.fun + 1e-12 * abs(plain.fun)
    assert plain.fun - newton.fun <= (1e-12 if dim < 64 else 1e-11) * abs(plain.fun)
    np.testing.assert_array_equal(predictions(newton.x, x[held_out], k), predictions(plain.x, x[held_out], k))
    if plain.nit <= lbfgs.NEWTON_AFTER:  # converged before the switch: the same run, bit for bit
        assert newton.x.tobytes() == plain.x.tobytes() and newton.nfev == plain.nfev


def test_newton_converges_where_l_bfgs_stops_at_the_cap():
    e, labels = make_synthetic_dataset(150, 8, 6, 6, seed=0, separation=4.0)
    plain, newton = fit(e, labels.ids, 8, c=1e3), fit(e, labels.ids, 8, c=1e3, hess=logreg_hessian)
    assert (plain.nit, plain.success) == (MAX_ITER, False)
    assert newton.success and newton.nit <= lbfgs.NEWTON_AFTER + 20
    assert np.abs(logreg_loss_and_grad(newton.x, e, labels.ids, 8, 1e3)[1]).max() <= GRAD_TOL
    assert newton.fun == logreg_loss_and_grad(newton.x, e, labels.ids, 8, 1e3)[0] < plain.fun
    # Newton steps count in nit, and maxiter bounds L-BFGS and Newton steps together.
    capped = fit(e, labels.ids, 8, c=1e3, maxiter=lbfgs.NEWTON_AFTER + 1, hess=logreg_hessian)
    assert (capped.nit, capped.success) == (lbfgs.NEWTON_AFTER + 1, False)
    assert capped.fun == logreg_loss_and_grad(capped.x, e, labels.ids, 8, 1e3)[0]


def test_newton_without_an_acceptable_step_ends_unconverged():
    # A Hessian of the wrong sign points uphill: f rises and so does max |grad| at every trial step.
    fun, x0, args = _quadratic(20)
    result = lbfgs.minimize(fun, x0, args=args, maxiter=MAX_ITER, gtol=1e-12,
                            hess=lambda x: -np.eye(x.size))
    assert not result.success
    assert result.nit < MAX_ITER
    assert result.fun == fun(result.x)[0]


@pytest.mark.parametrize("problem", [lambda: _quadratic(50), _logreg], ids=["quadratic", "logreg"])
def test_a_stalled_line_search_goes_on_with_newton_steps(problem, monkeypatch):
    # No switch by count: only the stall at gtol 1e-12 can start the Newton phase.
    monkeypatch.setattr(lbfgs, "NEWTON_AFTER", MAX_ITER + 1)
    fun, x0, args = problem()
    if args:
        hess = logreg_hessian
    else:  # the quadratic's matrix, column by column from its gradients
        a = np.column_stack([fun(e)[1] - fun(x0)[1] for e in np.eye(x0.size)])
        hess = lambda x: a  # noqa: E731
    stalled = lbfgs.minimize(fun, x0, args=args, maxiter=MAX_ITER, gtol=1e-12)
    newton = lbfgs.minimize(fun, x0, args=args, maxiter=MAX_ITER, gtol=1e-12, hess=hess)
    assert not stalled.success and stalled.nit < MAX_ITER
    # The stalled line search's trials are spent, then one Newton step reaches gtol.
    assert newton.success
    assert (newton.nit, newton.nfev) == (stalled.nit + 1, stalled.nfev + 1)
    assert np.abs(fun(newton.x, *args)[1]).max() <= 1e-12


def test_a_newton_phase_from_iteration_0_takes_the_full_step_first(monkeypatch):
    monkeypatch.setattr(lbfgs, "NEWTON_AFTER", 0)
    e, labels = make_synthetic_dataset(150, 8, 6, 6, seed=0, separation=4.0)
    args, x0 = (e, labels.ids, 8, 1e3), np.zeros(8 * 6 + 8)
    first = lbfgs.minimize(logreg_loss_and_grad, x0, args=args, maxiter=1, gtol=GRAD_TOL, hess=logreg_hessian)
    full_step = x0 + np.linalg.solve(logreg_hessian(x0, *args), -logreg_loss_and_grad(x0, *args)[1])
    assert (first.nit, first.nfev) == (1, 2)
    np.testing.assert_allclose(first.x, full_step, rtol=0, atol=1e-12 * np.abs(full_step).max())
    # t = 1 is taken at every iteration of this run: one loss evaluation per Newton step.
    full = lbfgs.minimize(logreg_loss_and_grad, x0, args=args, maxiter=MAX_ITER, gtol=GRAD_TOL, hess=logreg_hessian)
    assert full.success and full.nfev == full.nit + 1


def _boxed_quadratic():
    # 0.5 x.Ax - b.x with its optimum A^-1 b outside |x_i| <= 1; outside that box f is NaN where some
    # x_i > 1 and +inf where some x_i < -1, while the gradient stays the quadratic's.
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = (q * np.logspace(0, 1, 6)) @ q.T
    b = a @ np.array([3.0, -3.0, 2.0, -2.0, 0.5, 0.0])

    def fun(x):
        f = float(0.5 * x @ a @ x - b @ x)
        if np.any(x > 1):
            f = np.nan
        elif np.any(x < -1):
            f = np.inf
        return f, a @ x - b

    return fun


@pytest.mark.parametrize("newton_after", [30, 0])
@pytest.mark.parametrize("hess", [None, lambda x: np.eye(x.size)], ids=["l-bfgs", "identity-hessian"])
def test_no_nan_or_inf_trial_point_is_taken(newton_after, hess, monkeypatch):
    monkeypatch.setattr(lbfgs, "NEWTON_AFTER", newton_after)
    fun = _boxed_quadratic()
    result = lbfgs.minimize(fun, np.zeros(6), maxiter=MAX_ITER, gtol=GRAD_TOL, hess=hess)
    assert not result.success  # the box holds no stationary point
    assert np.isfinite(result.fun) and result.fun == fun(result.x)[0]
    assert np.abs(result.x).max() <= 1
