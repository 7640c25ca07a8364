"""Test-side reference for the fitter's search.

``lomaxmix.fitting._minimize`` gives each row its own line search, so one
call of ``fun`` evaluates every running row at that row's own trial point.
This is the same projected BFGS with the starts in lockstep: every row's
line search runs to its end before any row starts the next, and each
halving is a call of ``fun`` over the rows still searching.  Each row runs
the same arithmetic in both, so both must return the same bits.
"""

import math

import numpy as np

from lomaxmix.fitting import (
    _ARMIJO,
    _EPS,
    _MAX_HALVINGS,
    _WINDOW,
    _WOLFE_DELTA,
    _WOLFE_SIGMA,
    _held,
)


def minimize(fun, x, lo, hi, tol: float, max_evals: int):
    """The lockstep search: same arguments and results as ``_minimize``."""
    n_par = x.shape[1]
    diag = np.arange(n_par)
    x = np.clip(x, lo, hi)
    f, g = fun(x)
    out = [x.copy(), f.copy(), np.zeros(f.size, dtype=bool), np.ones(f.size, dtype=np.int64)]
    # the rows still running, in row order
    row, evals, converged = np.arange(f.size), out[3].copy(), out[2].copy()
    h_inv = np.zeros((f.size, n_par, n_par))
    fresh = np.ones(f.size, dtype=bool)  # no H: step along the scaled gradient
    gamma = np.full(f.size, math.nan)  # latest s.y / y.y
    held = _held(x, g, lo, hi)
    recent = np.full((f.size, _WINDOW + 1), math.inf)  # f over the last steps
    recent[:, -1] = f
    while True:
        limit = tol * np.maximum(1.0, np.abs(f))
        converged |= np.abs(np.clip(x - g, lo, hi) - x).max(axis=1) <= limit
        converged |= recent[:, 0] - f <= limit
        done = converged | (evals >= max_evals) | ~np.isfinite(f)
        if done.any():
            for dst, val in zip(out, (x, f, converged, evals)):
                dst[row[done]] = val[done]
            if done.all():
                return tuple(out)
            state = (row, x, f, g, evals, converged, h_inv, fresh, gamma, held, recent, limit)
            row, x, f, g, evals, converged, h_inv, fresh, gamma, held, recent, limit = (
                a[~done] for a in state
            )

        free = ~held
        g_free = g * free
        step = -(h_inv * g_free[:, None, :]).sum(axis=2)
        fresh |= (step * g_free).sum(axis=1) >= 0.0  # not a descent direction
        scale = np.where(np.isnan(gamma), 1.0 / np.abs(g_free).max(axis=1), gamma)
        step = np.where(fresh[:, None], -scale[:, None] * g_free, step)
        # the noise floor: the decrease -g.step predicts is at most
        # eps max(1, |f|) = limit eps / tol, below what f can resolve
        floor = (step * g_free).sum(axis=1) * (-tol / _EPS) <= limit

        trial, f_t, g_t = x.copy(), f.copy(), g.copy()
        good = np.zeros(row.size, dtype=bool)
        pending = np.arange(row.size)
        for halving in range(_MAX_HALVINGS + 1):
            x_p = np.clip(x[pending] + 0.5**halving * step[pending], lo, hi)
            f_p, g_p = fun(x_p)
            evals[pending] += 1
            dx = x_p - x[pending]
            slope = (dx * g[pending]).sum(axis=1)  # phi'(0)
            ok = f_p <= f[pending] + _ARMIJO * slope
            retry = ~ok & (evals[pending] < max_evals)
            if halving == 0 and floor.any():  # one trial, tested on the derivative
                end = (dx * g_p).sum(axis=1)  # phi'(1)
                wolfe = (f_p <= f + limit * (_EPS / tol)) & (
                    (_WOLFE_SIGMA * slope <= end) & (end <= (2.0 * _WOLFE_DELTA - 1.0) * slope)
                )
                ok = np.where(floor, wolfe, ok)
                retry &= ~floor
            moved = pending[ok]
            trial[moved], f_t[moved], g_t[moved], good[moved] = x_p[ok], f_p[ok], g_p[ok], True
            pending = pending[retry]
            if pending.size == 0:
                break
        failed = ~good & (evals < max_evals)
        converged |= failed & fresh  # failed along the scaled gradient too
        fresh |= failed

        # BFGS update on the free parameters; a fresh row first gets gamma I
        s, y = trial - x, (g_t - g) * free
        sy, yy = (s * y).sum(axis=1), (y * y).sum(axis=1)
        curved = good & (sy > 1e-12 * np.sqrt((s * s).sum(axis=1) * yy))
        sy = np.where(curved, sy, 1.0)
        gamma = np.where(curved, sy / np.where(curved, yy, 1.0), gamma)
        h = np.where((curved & fresh)[:, None, None], 0.0, h_inv)
        h[:, diag, diag] += np.where((curved & fresh)[:, None] & free, gamma[:, None], 0.0)
        hy = (h * y[:, None, :]).sum(axis=2)
        rho = 1.0 / sy
        coef = rho * (1.0 + rho * (y * hy).sum(axis=1))
        h += coef[:, None, None] * s[:, :, None] * s[:, None, :]
        h -= rho[:, None, None] * (hy[:, :, None] * s[:, None, :] + s[:, :, None] * hy[:, None, :])
        h_inv = np.where(curved[:, None, None], h, h_inv)
        fresh &= ~curved

        x, g = np.where(good[:, None], trial, x), np.where(good[:, None], g_t, g)
        f = np.where(good, f_t, f)
        now_held = _held(x, g, lo, hi)
        changed = now_held != held
        h_inv *= ~(changed[:, :, None] | changed[:, None, :])
        h_inv[:, diag, diag] += np.where(changed & ~now_held & ~fresh[:, None], gamma[:, None], 0.0)
        held = now_held
        recent = np.concatenate([recent[:, 1:], f[:, None]], axis=1)
