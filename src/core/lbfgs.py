"""Unbounded L-BFGS (Liu & Nocedal 1989) in numpy, with a backtracking Armijo line search.

The objective is smooth and convex, so sufficient decrease is enough: no Wolfe test, no bounds.
A pair with ``s.y <= eps * y.y`` is not stored, so every direction is a descent direction.
An optional diagonal ``scale`` preconditions the run: it iterates on ``u = x / scale``, while
the stop test still reads the gradient in ``x`` itself. Given an exact Hessian, a run that has not
converged after ``NEWTON_AFTER`` iterations, or whose line search stalls before, goes on with Newton
steps (Minka 2003; Lin, Weng & Keerthi 2008), which converge quadratically where L-BFGS crawls or
stalls on rounding.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

MEMORY = 10  # (s, y) pairs kept, scipy's L-BFGS-B default
ARMIJO_C1 = 1e-4
EPS = float(np.finfo(np.float64).eps)
MAX_TRIALS = 20  # loss evaluations per line search
NEWTON_AFTER = 30  # L-BFGS iterations before a run given a Hessian switches to Newton steps
F_ROUNDING = 64 * EPS  # relative rise of f that a Newton step may show while it lowers max |g|


class Result(NamedTuple):
    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


def minimize(fun, x0: np.ndarray, args: tuple = (), *, maxiter: int, gtol: float, scale=1.0,
             hess=None) -> Result:
    """Minimize ``fun(x, *args) -> (f, gradient)`` from ``x0``; f decreases at every L-BFGS iteration.

    Iterates on ``u = x / scale`` (a scalar or one positive entry per coordinate), so the gradient
    in u is ``scale * gradient`` and the start inverse Hessian is ``gamma * diag(scale ** 2)`` in x.
    Stops with ``success`` once every entry of the gradient in x is within ``gtol`` of 0 (a
    non-finite entry never is), and without it after ``maxiter`` iterations or when a line search
    finds no acceptable step in ``MAX_TRIALS`` trials. The first trial step is 1 over the norm of the
    gradient in u on the first iteration and 1 afterwards, as in L-BFGS-B. With ``scale = 1.0``
    every product by it is exact, so an unscaled run keeps the bits of plain L-BFGS.

    ``hess(x, *args)``, if given, returns the ``(p, p)`` Hessian in x. From iteration
    ``NEWTON_AFTER`` on, or from an earlier line search that finds no decrease, each iteration then
    solves ``hess(x) s = -gradient`` in x (``scale`` plays no part) and backtracks from ``t = 1``
    under the Armijo test. Where f can no longer resolve the decrease, a step that lowers
    max |gradient| while f rises by at most ``F_ROUNDING * |f|`` is accepted too, so f need not
    decrease there. Newton steps count in ``nit`` and ``maxiter``. Without ``hess`` the run is the
    same, bit for bit.
    """
    u = np.array(x0, dtype=np.float64) / scale
    f, g = fun(scale * u, *args)
    gu = scale * g
    nfev, nit, stored, used, gamma, m = 1, 0, 0, 0, 1.0, MEMORY
    # The i-th stored pair sits at rows i % m and i % m + m, so the `used` newest are one slice.
    s_rows, y_rows = np.zeros((2 * m, u.size)), np.zeros((2 * m, u.size))
    r_inv, r_diag = np.zeros((m, m)), np.zeros(m)  # of R = triu(S Y^T) over the pairs in use
    while not (abs(g).max() <= gtol):
        if nit == maxiter:
            return Result(scale * u, f, nit, nfev, False)
        if hess is not None and nit == NEWTON_AFTER:
            return _newton(fun, scale * u, f, g, args, hess, nit, nfev, maxiter, gtol)
        # -H gu by the two-loop recursion in matrix form (Byrd, Nocedal & Schnabel 1994):
        # a = R^-1 S gu, q = gamma (gu - Y^T a), H gu = q + S^T R^-T (diag(R) a - Y q).
        lo = (stored - used) % m
        s_in, y_in, inv = s_rows[lo:lo + used], y_rows[lo:lo + used], r_inv[:used, :used]
        a = inv @ (s_in @ gu)
        q = gamma * (gu - a @ y_in)
        d = -(q + ((r_diag[:used] * a - y_in @ q) @ inv) @ s_in)
        gd = float(gu @ d)
        t = 1.0 / float(np.linalg.norm(gu)) if nit == 0 else 1.0
        for _ in range(MAX_TRIALS):
            s = t * d
            u_new = u + s
            f_new, g_new = fun(scale * u_new, *args)
            nfev += 1
            if f_new < f and f_new <= f + ARMIJO_C1 * t * gd:
                break
            # The minimizer of the quadratic through f, gd and f_new, kept in [0.1 t, 0.5 t].
            curvature = f_new - f - t * gd
            t = max(0.1 * t, min(0.5 * t, -gd * t * t / (2.0 * curvature))) if curvature > 0 else 0.1 * t
        else:
            if hess is not None:
                return _newton(fun, scale * u, f, g, args, hess, nit, nfev, maxiter, gtol)
            return Result(scale * u, f, nit, nfev, False)
        gu_new = scale * g_new
        y = gu_new - gu
        s_dot_y, y_dot_y = float(s @ y), float(y @ y)
        if s_dot_y > EPS * y_dot_y:
            col = s_in @ y  # R's new last column, above its diagonal entry s.y
            if used == m:  # the oldest pair leaves: R loses its first row and column
                r_inv[:-1, :-1], r_diag[:-1], col, used = r_inv[1:, 1:], r_diag[1:], col[1:], used - 1
            r_inv[:used, used] = -(r_inv[:used, :used] @ col) / s_dot_y
            r_inv[used, used], r_diag[used] = 1.0 / s_dot_y, s_dot_y
            k = stored % m
            s_rows[k] = s_rows[k + m] = s
            y_rows[k] = y_rows[k + m] = y
            gamma, stored, used = s_dot_y / y_dot_y, stored + 1, used + 1
        u, f, g, gu = u_new, f_new, g_new, gu_new
        nit += 1
    return Result(scale * u, f, nit, nfev, True)


def _newton(fun, x, f, g, args, hess, nit, nfev, maxiter, gtol) -> Result:
    """Newton steps from ``x`` (where ``fun`` gave ``f, g``), as ``minimize`` documents them."""
    while not (abs(g).max() <= gtol):
        if nit == maxiter:
            return Result(x, f, nit, nfev, False)
        d = np.linalg.solve(hess(x, *args), -g)
        gd, g_max, t = float(g @ d), abs(g).max(), 1.0
        for _ in range(MAX_TRIALS):
            x_new = x + t * d
            f_new, g_new = fun(x_new, *args)
            nfev += 1
            if (f_new < f and f_new <= f + ARMIJO_C1 * t * gd) or (
                    f_new - f <= F_ROUNDING * abs(f) and abs(g_new).max() < g_max):
                break
            t *= 0.5
        else:
            return Result(x, f, nit, nfev, False)
        x, f, g = x_new, f_new, g_new
        nit += 1
    return Result(x, f, nit, nfev, True)
