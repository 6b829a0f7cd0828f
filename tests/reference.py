"""Plain references for the tests: straight loops that the package's
vectorized code must agree with bit for bit.

``rk`` is the Runge-Kutta loop of ``cgsys.flow._rk`` written as a loop over
the nonzero entries of the DP8 tableau, each stage sum formed left to right
as ``total = total + a * k_j`` and each error estimator summed from 0.0.
It takes and calls its callbacks exactly as ``_rk`` does.
"""

import numpy as np

from cgsys.flow import _DP8_A, _DP8_B, _DP8_C, _DP8_E3, _DP8_E5


def _embedded(E, ks):
    """sum_j E_j (k_j - k0), j >= 1, on the point column of the stage
    differences ks."""
    total = 0.0
    for j, e in E.items():
        if j:
            total = total + e * ks[j][:, 0]
    return total


def rk(velocity, state, h, nsteps, guard, error=None, path=None):
    """``flow._rk``: row i of ``state`` takes nsteps[i] steps of size h[i];
    each stage sum is c_i k0 (k0 at the step's end) plus a_ij (k_j - k0)
    (b_j at the end) for the nonzero entries j >= 1 in column order, and
    ``error`` gathers DOP853's estimate of each step."""
    n = len(state)
    h = np.broadcast_to(np.asarray(h, dtype=float), (n,))
    nsteps = np.broadcast_to(nsteps, (n,))
    ends = set(nsteps.tolist())
    column = (slice(None),) + (None,) * (state.ndim - 1)
    stages = [(c, row) for c, row in zip(_DP8_C[1:], _DP8_A[1:])] + [(None, _DP8_B)]
    for s in range(max(ends, default=0)):
        if not s or s in ends:
            rows = np.flatnonzero(nsteps > s)
            hh = h[rows][column]
        y = state[rows]
        if np.isnan(y).all():
            break
        ks = [velocity(rows, y)]
        for c, row in stages:
            total = ks[0] if c is None else c * ks[0]
            for j, a in row.items():
                if j:
                    total = total + a * ks[j]
            arg = y + hh * total
            guard(rows, arg)
            if c is None:
                break
            ks.append(velocity(rows, arg) - ks[0])
        if path is not None:
            path(rows, y, arg, hh, ks[0], ks[0] + ks[-1])
        if error is not None:
            hp = hh[:, 0]
            e5 = np.abs(hp * _embedded(_DP8_E5, ks)) ** 2
            e3 = np.abs(hp * _embedded(_DP8_E3, ks)) ** 2
            e5, e3 = (e.reshape(len(rows), -1).sum(axis=1) for e in (e5, e3))
            with np.errstate(invalid="ignore"):
                error[rows] += np.where(e5 > 0.0, e5 / np.sqrt(e5 + 0.01 * e3), 0.0)
        state[rows] = arg
    return state
