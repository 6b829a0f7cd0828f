"""Plain references for the tests: straight loops that the package's
vectorized code must agree with bit for bit.

``evaluate`` walks one tree at one point with Python's ``math``: the tape
(``expr.Program``, the package's only evaluator) must match it bit for bit
on ``+ - * /``, negation, ``sqrt`` and ``^`` and report its first fault,
by the one rule written here again: a node faults where its value is not
finite while its operands are.
``env_at``, ``values``, ``field_matrix`` and ``in_domain`` are the walk's
forms of the one-row views.  This file takes from cgsys only node and error
classes, ``to_string``, the DP8 tableau and MAX_SQUARINGS
(``test_reference.py``).

``to_sympy`` is a tree as sympy holds it, for tests whose oracle is
sympy's own calculus (Meurer et al., "SymPy: symbolic computing in
Python", PeerJ CS 2017): derivatives, brackets, Laplacians and
substitutions done there share no code with cgsys.

``rk`` is the Runge-Kutta loop of ``cgsys.flow._rk`` written as a loop over
the nonzero entries of the DP8 tableau, each stage sum formed left to right
as ``total = total + a * k_j`` and each error estimator summed from 0.0.
It takes and calls its callbacks exactly as ``_rk`` does.

``compose`` is the check table's dense composition as ``cgsys.verify``
composed it before the composition learned the jets' zeros: geometry's
numpy helpers (``d_values``, ``dc_values``, ``bracket_values``,
``dc_differentials``, ``ddc_terms``) and ``np.trace`` over every product,
zero or not, on the jets' values with the point axis last.  The package's
sparse composition must equal it bit for bit up to the sign of a zero at
the rows it accepts, and refuse exactly the rows where it is not finite.

``matrix_exp`` and ``exp_frechet`` are ``cgsys.flow.matrix_exp`` and
``cgsys.flow._exp_frechet`` as plain scaling and squaring: each row's
squaring count is found by halving twice its 1-norm until it is at most 1,
and each row adds its terms until its own are exactly zero, by a per-row
mask, where the package adds every term and stops the whole stack at once.
"""

import math
from functools import reduce

import numpy as np
import sympy

from cgsys.expr import (
    Atan2, Binary, Const, DomainError, Expr, UnboundVariableError, Unary, Var, to_string,
)
from cgsys.flow import _DP8_A, _DP8_B, _DP8_C, _DP8_E3, _DP8_E5, MAX_SQUARINGS


def _power(base: float, expo: float) -> float:
    """Python's float power: NaN where it has no real value (0 to a
    negative power, a negative base to a non-integer exponent), inf where
    it overflows."""
    if (base == 0.0 and expo < 0.0) or (base < 0.0 and not float(expo).is_integer()):
        return math.nan
    try:
        return float(base ** expo)
    except OverflowError:
        return math.inf


def _quotient(a: float, b: float) -> float:
    """a / b, with IEEE 754's value where Python raises: a signed infinity
    for a nonzero a over a zero, NaN for 0/0 and NaN/0."""
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _math(fn, x: float) -> float:
    """fn(x) in Python's math, with IEEE 754's value where Python raises:
    inf for an overflow of exp, NaN for sin, cos, tan of an infinity and
    for log and sqrt of -inf (a finite operand that raises faults)."""
    try:
        return fn(x)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


_UNARY = {"neg": lambda x: -x, "sin": math.sin, "cos": math.cos, "tan": math.tan,
          "atan": math.atan, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
_BINARY = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b,
           "div": _quotient, "pow": _power}


def _reason(op: str, x: float, y: float | None) -> str:
    if op == "div" and y == 0.0:
        return "division by zero"
    if op in ("log", "sqrt"):
        return {"log": "log of non-positive value", "sqrt": "sqrt of negative value"}[op]
    if op == "pow" and x == 0.0 and y < 0.0:
        return "zero raised to negative power"
    if op == "pow" and x < 0.0 and not float(y).is_integer():
        return "negative base with non-integer exponent"
    return "overflow"


def _checked(node, op, value, x, y=None) -> float:
    """value, the node's at the operands x (and y), or the DomainError of
    the one fault rule: a value that is not finite at finite operands."""
    if not math.isfinite(value) and math.isfinite(x) and (y is None or math.isfinite(y)):
        raise DomainError(f"{_reason(op, x, y)} in '{to_string(node)}'")
    return value


def evaluate(e: Expr, env: dict[str, float]) -> float:
    """Evaluate ``e`` with variables bound by ``env``.

    Deterministic IEEE double arithmetic: the same tree and environment give
    a bit-identical result.  Lookup of an absent variable raises
    UnboundVariableError, never a default.  A node whose value is not
    finite while its operands are (an overflow, a division by zero, log of
    a non-positive value, sqrt of a negative value, a power with no real
    value) raises DomainError naming it, never NaN; a non-finite operand
    gives IEEE 754's value and no fault.
    """
    match e:
        case Const(value=v):
            return v
        case Var(name=n):
            try:
                return float(env[n])
            except KeyError:
                raise UnboundVariableError(f"unbound variable '{n}'") from None
        case Unary(op=op, arg=a):
            if op not in _UNARY:
                raise ValueError(f"unknown unary operation {op!r}")
            x = evaluate(a, env)
            return _checked(e, op, _math(_UNARY[op], x), x)
        case Binary(op=op, lhs=l, rhs=r):
            if op not in _BINARY:
                raise ValueError(f"unknown binary operation {op!r}")
            a = evaluate(l, env)
            b = evaluate(r, env)
            return _checked(e, op, _BINARY[op](a, b), a, b)
        case Atan2(y=ye, x=xe):
            a, b = evaluate(ye, env), evaluate(xe, env)
            return _checked(e, "atan2", math.atan2(a, b), a, b)
    raise TypeError(f"not an expression: {e!r}")


def env_at(chart, p) -> dict[str, float]:
    """The environment binding the chart's coordinates to the point p (2N,)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (chart.dim,):
        raise ValueError(f"point must have {chart.dim} coordinates, got {p.shape}")
    return dict(zip(chart.names, p))


def values(field, p) -> np.ndarray:
    """``VectorField.values``: the field's components walked at p."""
    env = env_at(field.chart, p)
    return np.array([evaluate(c, env) for c in field.components])


def field_matrix(fields, p) -> np.ndarray:
    """``geometry.field_matrix``: the fields' walked values as columns."""
    return np.column_stack([values(f, p) for f in fields])


def in_domain(system, p) -> bool:
    """``GradientSystem.in_domain``: all() of the domain walked at p > 0."""
    env = env_at(system.chart, p)
    return all(evaluate(g, env) > 0.0 for g in system.domain)


_SYMPY_UNARY = {"sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan, "atan": sympy.atan,
                "exp": sympy.exp, "log": sympy.log, "sqrt": sympy.sqrt}


def to_sympy(e: Expr, syms):
    """The sympy expression of a cgsys tree over the symbols syms (a dict
    by variable name); constants become the exact rationals of their
    doubles."""
    match e:
        case Const(value=v):
            return sympy.Rational(float(v))
        case Var(name=n):
            return syms[n]
        case Unary(op="neg", arg=a):
            return -to_sympy(a, syms)
        case Unary(op=op, arg=a):
            return _SYMPY_UNARY[op](to_sympy(a, syms))
        case Binary(op=op, lhs=l, rhs=r):
            a, b = to_sympy(l, syms), to_sympy(r, syms)
            return {"add": a + b, "sub": a - b, "mul": a * b, "div": a / b,
                    "pow": a ** b}[op]
        case Atan2(y=a, x=b):
            return sympy.atan2(to_sympy(a, syms), to_sympy(b, syms))
    raise TypeError(e)


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


def _scaled(A):
    """The squaring count s of each matrix of the stack A (n, d, d), the
    number of halvings that bring twice its 1-norm to at most 1 (0 where
    that is not finite), and A scaled by 2^-s (NaN where it is not)."""
    n, d = len(A), A.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        colsum = np.abs(A[:, 0])
        for i in range(1, d):
            colsum = colsum + np.abs(A[:, i])
        twice = colsum.max(axis=1, initial=0.0) / 0.5
    s = np.zeros(n, dtype=int)
    for i, x in enumerate(twice.tolist()):
        while 1.0 < x < math.inf:
            x /= 2.0
            s[i] += 1
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.where(np.isfinite(twice), np.ldexp(1.0, -s), np.nan)[:, None, None]
        return s, scale, A * scale


def matrix_exp(A):
    """exp of each matrix of the stack A (n, d, d): scaling, a Taylor sum
    that stops per row at its first zero term, NaN for a row with no finite
    scaling, the MAX_SQUARINGS NaN rule, squarings."""
    n, d = len(A), A.shape[-1]
    s, scale, B = _scaled(A)
    out = np.broadcast_to(np.eye(d, dtype=np.result_type(A.dtype, float)), A.shape).copy()
    term = out.copy()
    live = np.ones(n, dtype=bool)
    for j in range(1, 17):
        term = term @ B
        term /= j
        live &= term.any(axis=(1, 2))
        if live.all():
            out += term
        elif live.any():
            out[live] += term[live]
        else:
            break
    out[~np.isfinite(scale[:, 0, 0])] = np.nan
    inexact = live & (s > MAX_SQUARINGS)
    if inexact.any():
        out[inexact], s[inexact] = np.nan, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(int(s.max(initial=0))):
            sq = s > i
            if sq.all():
                out = out @ out
            else:
                out[sq] = out[sq] @ out[sq]
    return out


def exp_frechet(A, D):
    """exp(A_i) and L(A_i, D_b) (E (n, d, d), L (n, k, d, d)) of the stack A
    (n, d, d) in the shared directions D (k, d, d), by the products of
    ``cgsys.flow._exp_frechet``, with per-row masks: a row adds its terms
    while its own exponential term or any of its derivative terms is
    nonzero, a row with no finite scaling is NaN, and its derivatives (its
    exponential) are NaN where their sum (its sum) did not stop and
    s > MAX_SQUARINGS."""
    n, d, k = len(A), A.shape[-1], len(D)
    s, scale, B = _scaled(A)
    term = np.zeros((n, d, k + 1, d), dtype=np.result_type(A.dtype, D.dtype, float))
    term[:, :, 0] = np.eye(d)
    out = term.copy()
    beside = np.swapaxes(D, 0, 1).reshape(d, k * d)
    live = np.ones(n, dtype=bool)
    for j in range(1, 17):
        step = (term.reshape(n, d * (k + 1), d) @ B).reshape(term.shape)
        if k:
            step[:, :, 1:] += ((term[:, :, 0] * scale).reshape(n * d, d) @ beside).reshape(
                n, d, k, d)
        term = step
        term /= j
        nonzero = term.any(axis=(1, 3))
        live &= nonzero[:, 0]
        moving = live | nonzero[:, 1:].any(axis=1) if k else live
        if moving.all():
            out += term
        elif moving.any():
            out[moving] += term[moving]
        else:
            break
    out[~np.isfinite(scale[:, 0, 0])] = np.nan
    far = s > MAX_SQUARINGS
    if k:
        out[:, :, 1:][moving & far] = np.nan
    inexact = live & far
    if inexact.any():
        out[inexact], s[inexact] = np.nan, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(int(s.max(initial=0))):
            sq = s > i
            rows = out if sq.all() else out[sq]
            m, E = len(rows), rows[:, :, 0]
            step = (rows.reshape(m, d * (k + 1), d) @ E).reshape(rows.shape)
            if k:
                step[:, :, 1:] += (E @ rows[:, :, 1:].reshape(m, d, k * d)).reshape(m, d, k, d)
            if sq.all():
                out = step
            else:
                out[sq] = step
    return out[:, :, 0], np.swapaxes(out[:, :, 1:], 1, 2)


# --- the dense composition ------------------------------------------------------
# The helpers take and return arrays whose last axis is the points, with the
# coordinates on the axis before it, and sum each coordinate sum in
# coordinate order.


def j_rotate(v, axis: int = -1) -> np.ndarray:
    """J on chart vectors along an axis: (v_x, v_y) becomes (-v_y, v_x)."""
    v = np.moveaxis(np.asarray(v, dtype=float), axis, -1)
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return np.moveaxis(out, -1, axis)


def d_values(G, V) -> np.ndarray:
    """du(V) for the differential rows G (k, 2N, n) and the vectors V
    (m, 2N, n): (k, m, n)."""
    return np.sum(G[:, None] * V[None], axis=-2)


def dc_values(G, V) -> np.ndarray:
    """d^c u(V) = -du(JV), laid out as d_values."""
    G, V = G[:, None], V[None]
    return np.sum(G[:, :, 0::2] * V[:, :, 1::2] - G[:, :, 1::2] * V[:, :, 0::2], axis=-2)


def _pair_index(pairs):
    return np.reshape(np.asarray(pairs, dtype=int), (-1, 2)).T


def bracket_values(X, DX, pairs) -> np.ndarray:
    """[X_i, X_j] = DX_j X_i - DX_i X_j for (i, j) in pairs, (P, 2N, n)."""
    i, j = _pair_index(pairs)
    return reduce(np.add, (DX[j, :, l] * X[i, None, l] - DX[i, :, l] * X[j, None, l]
                           for l in range(X.shape[1])))


def dc_differentials(dU, D2U, X, DX) -> np.ndarray:
    """The differentials of d^c u_c(X_b), (k, m, 2N, n), by the product rule."""
    H, G, X, DX = D2U[:, None], dU[:, None, :, None], X[None, :, :, None], DX[None]
    return reduce(np.add, ((H[:, :, x] * X[:, :, x + 1] + G[:, :, x] * DX[:, :, x + 1])
                           - (H[:, :, x + 1] * X[:, :, x] + G[:, :, x + 1] * DX[:, :, x])
                           for x in range(0, dU.shape[1], 2)))


def ddc_terms(dU, D2U, X, DX, pairs, brackets) -> tuple[np.ndarray, ...]:
    """X(d^c u(Y)), Y(d^c u(X)) and d^c u([X, Y]), each (P, k, n)."""
    xs, ys = _pair_index(pairs)
    d_dc = dc_differentials(dU, D2U, X, DX)
    return (np.swapaxes(np.sum(X[xs][None] * d_dc[:, ys], axis=-2), 0, 1),
            np.swapaxes(np.sum(X[ys][None] * d_dc[:, xs], axis=-2), 0, 1),
            np.swapaxes(dc_values(dU, brackets), 0, 1))


def compose(jets, pairs) -> dict[str, np.ndarray]:
    """The check table's composed blocks, with the point axis last, from
    its jets ``X``, ``DX``, ``dU`` and ``D2U`` (point axis last) and the
    frame pairs."""
    xi, Dxi, dU, D2U = jets["X"], jets["DX"], jets["dU"], jets["D2U"]
    X = np.concatenate([xi, j_rotate(xi, axis=1)])
    DX = np.concatenate([Dxi, j_rotate(Dxi, axis=1)])
    brackets = bracket_values(X, DX, pairs)
    t1, t2, t3 = ddc_terms(dU, D2U, X, DX, pairs, brackets)
    return {"d": d_values(dU, xi), "dc": dc_values(dU, xi),
            "bracket": np.swapaxes(brackets, 0, 1), "t1": t1, "t2": t2, "t3": t3,
            "lap": np.trace(D2U, axis1=1, axis2=2)}
