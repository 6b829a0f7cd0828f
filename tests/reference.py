"""Plain references for the tests: straight loops that the package's
vectorized code must agree with bit for bit.

``evaluate`` walks one tree at one point with Python's ``math``: the tape
(``expr.Program``, the package's only evaluator) must match it bit for bit
on ``+ - * /``, negation, ``sqrt`` and ``^`` and report its first fault.
``env_at``, ``values``, ``field_matrix`` and ``in_domain`` are the walk's
forms of the one-row views.  This file takes from cgsys only node and error
classes, ``to_string`` and the DP8 tableau (``test_reference.py``).

``to_sympy`` is a tree as sympy holds it, for tests whose oracle is
sympy's own calculus (Meurer et al., "SymPy: symbolic computing in
Python", PeerJ CS 2017): derivatives, brackets, Laplacians and
substitutions done there share no code with cgsys.

``rk`` is the Runge-Kutta loop of ``cgsys.flow._rk`` written as a loop over
the nonzero entries of the DP8 tableau, each stage sum formed left to right
as ``total = total + a * k_j`` and each error estimator summed from 0.0.
It takes and calls its callbacks exactly as ``_rk`` does.
"""

import math

import numpy as np
import sympy

from cgsys.expr import (
    Atan2, Binary, Const, DomainError, Expr, UnboundVariableError, Unary, Var, to_string,
)
from cgsys.flow import _DP8_A, _DP8_B, _DP8_C, _DP8_E3, _DP8_E5


def _eval_pow(base: float, expo: float, node) -> float:
    if base == 0.0 and expo < 0.0:
        raise DomainError(f"zero raised to negative power in '{_name(node)}'")
    if base < 0.0 and not float(expo).is_integer():
        raise DomainError(f"negative base with non-integer exponent in '{_name(node)}'")
    try:
        return float(base ** expo)
    except OverflowError:
        raise DomainError(f"overflow in '{_name(node)}'") from None


def _name(node) -> str:
    return to_string(node) if node is not None else "pow"


_TRIG = {"sin": math.sin, "cos": math.cos, "tan": math.tan}


def evaluate(e: Expr, env: dict[str, float]) -> float:
    """Evaluate ``e`` with variables bound by ``env``.

    Deterministic IEEE double arithmetic: the same tree and environment give
    a bit-identical result.  Lookup of an absent variable raises
    UnboundVariableError, never a default.  Division by zero, log of a
    non-positive value, sqrt of a negative value and similar propagate as
    DomainError naming the offending node, never as NaN.
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
            x = evaluate(a, env)
            if op == "neg":
                return -x
            if op in _TRIG:
                if math.isinf(x):
                    raise DomainError(f"{op} of infinite value in '{to_string(e)}'")
                return _TRIG[op](x)
            if op == "atan":
                return math.atan(x)
            if op == "exp":
                try:
                    return math.exp(x)
                except OverflowError:
                    raise DomainError(f"overflow in '{to_string(e)}'") from None
            if op == "log":
                if x <= 0.0:
                    raise DomainError(f"log of non-positive value in '{to_string(e)}'")
                return math.log(x)
            if op == "sqrt":
                if x < 0.0:
                    raise DomainError(f"sqrt of negative value in '{to_string(e)}'")
                return math.sqrt(x)
            raise ValueError(f"unknown unary operation {op!r}")
        case Binary(op=op, lhs=l, rhs=r):
            a = evaluate(l, env)
            b = evaluate(r, env)
            if op == "add":
                return a + b
            if op == "sub":
                return a - b
            if op == "mul":
                return a * b
            if op == "div":
                if b == 0.0:
                    raise DomainError(f"division by zero in '{to_string(e)}'")
                return a / b
            if op == "pow":
                return _eval_pow(a, b, e)
            raise ValueError(f"unknown binary operation {op!r}")
        case Atan2(y=ye, x=xe):
            return math.atan2(evaluate(ye, env), evaluate(xe, env))
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
