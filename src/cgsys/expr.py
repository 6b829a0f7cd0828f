"""Expression trees over named real variables.

A scalar expression is an immutable tree built from real constants, named
variables, the unary functions neg/sin/cos/tan/atan/exp/log/sqrt, the binary
operators ``+ - * / ^`` and the two-argument ``atan2``.  Trees evaluate in
IEEE double precision and differentiate structurally, so nested second
derivatives (needed for dd^c and Laplacian residuals) stay exact instead of
picking up finite-difference noise.

Construction applies a fixed list of light simplifications and nothing more:

* constant folding of arithmetic on two constants, only to a finite value
  (skipped when it would raise, e.g. division by a zero constant, or
  overflow, so ``1e308*10`` stays a product)
* ``0 + e -> e``, ``e + 0 -> e``, ``e - 0 -> e``
* ``0 * e -> 0``, ``e * 0 -> 0``, ``1 * e -> e``, ``e * 1 -> e``
* ``e / 1 -> e``, ``e ^ 1 -> e``
* negation of a constant folds to a constant

There is no canonicalization beyond that list.  The parser builds nodes
through the same constructors, which is what keeps
``parse_expr(to_string(t))`` structurally equal to ``t``.

One evaluator carries these semantics.  ``compile_exprs`` turns a list of
trees into a ``Program``: a straight-line tape with value numbering, so
structurally equal subtrees are computed once, run with numpy ufuncs over
an ``(n_points, n_vars)`` array.  Its instructions are bound at compile
time: a power with a constant exponent runs ``_pow_by``, which tests only
the faults that exponent can have, and constant outputs are filled in one
assignment.  One pass of the tape over all the rows records each row's
first faulting instruction; a DomainError's message is built only for a
row that reports one, and names the node and the point.  A domain fault is
never returned as NaN.  ``evaluate`` is the tape's one-row view, and the
folding of a constant raised to a constant power runs the tape's own pow.
Determinism contract: the tape is bit-reproducible from run to run; on
``+ - * /``, negation, ``sqrt`` and ``^`` (computed by Python's own power)
it agrees bit for bit with a plain recursive walk of the tree in Python's
``math``, and faults at the node and point where that walk first faults,
while numpy's ``sin``/``exp``/``log``/``atan2`` and the other
transcendental ufuncs may differ from libm in the last ulp.

``Table`` names the blocks of a Program's outputs and ``Predicate`` is a
compiled domain test with its block-draw sampler; gradient systems and CR
initial data both check and sample through them.

Everything in this module is pure and immutable; expressions, environments
and programs can be shared between threads without synchronization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Unary", "Binary", "Atan2",
    "ExprError", "ParseError", "UnknownFunctionError",
    "UnboundVariableError", "DomainError",
    "parse_expr", "evaluate", "compile_exprs", "Program", "Table", "Predicate",
    "diff", "free_vars", "require_vars", "subst", "to_string", "depth", "MAX_DEPTH",
    "add", "sub", "mul", "div", "pow_", "neg", "unary", "as_expr",
    "UNARY_OPS", "BINARY_OPS",
]

UNARY_OPS = ("neg", "sin", "cos", "tan", "atan", "exp", "log", "sqrt")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")

# the deepest nesting the parser takes and the deepest tree a system file
# may hold: the gallery's deepest expression has depth 10.  Trees are
# walked recursively (hashing, equality, diff, compile, printing), and a
# derivative is deeper than its source, so a bound keeps every walk of an
# input and of its second derivatives inside Python's default recursion
# limit, with room for a caller's own stack
MAX_DEPTH = 64


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Malformed expression text; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownFunctionError(ParseError):
    """An identifier was called like a function but names none."""


class UnboundVariableError(ExprError):
    """Evaluation met a variable absent from the environment."""


class DomainError(ExprError):
    """Evaluation left an operation's domain; the message names the node.

    ``index`` is the label of the offending row when a Program reported
    it; a one-row view such as ``evaluate`` names row 0.  It is None only
    for a fault raised outside a Program."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class Expr:
    """Base node type.  Subclasses are frozen dataclasses, equality is
    structural, and arithmetic operators build new trees through the
    simplifying constructors below."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, other):
        return pow_(self, as_expr(other))

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    op: str
    arg: Expr


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, slots=True)
class Atan2(Expr):
    y: Expr
    x: Expr


ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(value) -> Expr:
    """Coerce a number or string to an expression (strings are parsed)."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse_expr(value)
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot convert {type(value).__name__} to Expr")


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(v := a.value + b.value):
        return Const(v)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(v := a.value - b.value):
        return Const(v)
    if _is_const(b, 0.0):
        return a
    return Binary("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(v := a.value * b.value):
        return Const(v)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("mul", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if (isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0
            and math.isfinite(v := a.value / b.value)):
        return Const(v)
    if _is_const(b, 1.0):
        return a
    return Binary("div", a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        # the tape's own pow, folded only where it reports no fault
        (v,), (bad,) = _pow_values(a.value, b.value)
        if not bad and math.isfinite(v):
            return Const(float(v))
    return Binary("pow", a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    return Unary("neg", a)


def unary(op: str, a: Expr) -> Expr:
    if op == "neg":
        return neg(a)
    if op not in UNARY_OPS:
        raise ValueError(f"unknown unary operation {op!r}")
    return Unary(op, a)


# ---------------------------------------------------------------------------
# compiled straight-line programs


def _is_integer(y):
    return np.isfinite(y) & (np.floor(y) == y)


def _pow_values(x, y):
    """x ** y elementwise through Python's float power, which a walk of the
    tree in Python's ``math`` takes too; returns the values and the fault
    mask."""
    x, y = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
    bad = ((x == 0.0) & (y < 0.0)) | ((x < 0.0) & ~_is_integer(y))
    return _python_pow(np.where(bad, 1.0, x).tolist(), np.where(bad, 1.0, y).tolist(), bad)


def _python_pow(xs, ys, bad):
    """Python's float power over the lists xs and ys (ys may be an endless
    iterator of one exponent), with overflow marked in ``bad`` (None: no
    fault yet); the values and the fault mask."""
    try:
        return np.fromiter(map(pow, xs, ys), dtype=float, count=len(xs)), bad
    except OverflowError:
        pass
    out = np.empty(len(xs))
    bad = np.zeros(len(xs), dtype=bool) if bad is None else bad.copy()
    for i, (a, b) in enumerate(zip(xs, ys)):
        try:
            out[i] = a ** b
        except OverflowError:
            out[i], bad[i] = math.inf, True
    return out, bad


# x^2 runs here too, not as x*x: Python's pow (libm's) is not always
# correctly rounded, and pow(x, 2.0) differs from x*x on about 1 in 1,100
# random doubles and on about 1 in 8 doubles with 27-bit significands.
# np.square and np.power(x, 2.0) agree with x*x, not with pow, so the tape
# keeps pow to agree bit for bit with a walk that takes Python's.
def _pow_by(e: float):
    """x ** e for the constant exponent e over an array x: Python's float
    power as in _pow_values, with the fault mask computed only where e can
    fault (x == 0 for e < 0, x < 0 for a non-integer e, and overflow)."""
    zero_faults, negative_faults = e < 0.0, not e.is_integer()

    def run(x, _):
        bad = None
        if zero_faults:
            bad = x == 0.0
        if negative_faults:
            bad = x < 0.0 if bad is None else bad | (x < 0.0)
        if bad is not None and bad.any():
            x = np.where(bad, 1.0, x)
        else:
            bad = None
        return _python_pow(x.tolist(), itertools.repeat(e), bad)
    return run


def _pow_reason(x, y) -> str:
    if x == 0.0 and y < 0.0:
        return "zero raised to negative power"
    if x < 0.0 and not float(y).is_integer():
        return "negative base with non-integer exponent"
    return "overflow"


def _checked_div(x, y):
    return np.divide(x, y), np.equal(y, 0.0)


def _checked_log(x):
    return np.log(x), np.less_equal(x, 0.0)


def _checked_sqrt(x):
    return np.sqrt(x), np.less(x, 0.0)


def _checked_exp(x):
    v = np.exp(x)
    return v, np.isinf(v) & np.isfinite(x)


def _checked_trig(fn):
    def run(x):
        return fn(x), np.isinf(x)
    return run


# op -> (ufunc, or a checked function returning (values, fault mask or
# None), and the reason a fault names; pow takes its reason from the
# operands)
_TAPE_OPS = {
    "neg": (np.negative, None), "atan": (np.arctan, None),
    "sin": (_checked_trig(np.sin), "sin of infinite value"),
    "cos": (_checked_trig(np.cos), "cos of infinite value"),
    "tan": (_checked_trig(np.tan), "tan of infinite value"),
    "exp": (_checked_exp, "overflow"),
    "log": (_checked_log, "log of non-positive value"),
    "sqrt": (_checked_sqrt, "sqrt of negative value"),
    "add": (np.add, None), "sub": (np.subtract, None),
    "mul": (np.multiply, None), "div": (_checked_div, "division by zero"),
    "pow": (_pow_values, "pow"), "atan2": (np.arctan2, None),
}


class Program:
    """A straight-line tape for several output expressions over named inputs.

    Calling it on an ``(n, len(names))`` point array returns the ``(n, m)``
    array of the m outputs, one row per point.  Slots ``0..len(names)-1``
    hold the input columns, constants have slots of their own, and each
    instruction writes one new slot from earlier ones.  One pass over all
    the rows records each row's first faulting instruction, the node where
    a walk of the trees faults at that point; a call raises the first faulting
    row's DomainError (node, row index, coordinates), ``rows`` returns each
    row's, and no other error message is built.
    """

    __slots__ = ("names", "code", "outputs", "nodes", "_registers", "_const_row",
                 "_slot_outputs")

    def __init__(self, names, n_slots, consts, code, outputs, nodes):
        self.names = names        # input variable per column
        self.code = code          # (function, out slot, lhs slot, rhs slot or None, reason)
        self.outputs = outputs    # slot of each output expression
        self.nodes = nodes        # expression node of each instruction
        # the register file before a call: the constants in their slots
        self._registers = [None] * n_slots
        for slot, value in consts:
            self._registers[slot] = value
        # an output row holding the constant outputs, which fills them all
        # in one assignment (None: there are none); the other outputs, with
        # their slots, are copied one by one
        const_slots = dict(consts)
        row = np.array([const_slots.get(slot, np.nan) for slot in outputs])
        self._const_row = row if len(const_slots.keys() & set(outputs)) else None
        self._slot_outputs = [(j, slot) for j, slot in enumerate(outputs)
                              if slot not in const_slots]

    def __len__(self) -> int:
        return len(self.code)

    def __call__(self, P, labels=None) -> np.ndarray:
        """Outputs at the rows of ``P``; ``labels`` optionally gives the
        index a DomainError reports for each row (default: the row)."""
        out, first, error = self._pass(P)
        if first is not None:
            raise error(int(np.argmax(first >= 0)), labels)
        return out

    def rows(self, P, labels=None):
        """The outputs at the rows of P, and per row None or the DomainError
        that refuses it (its outputs NaN), which names row i as labels[i]
        (default: i)."""
        out, first, error = self._pass(P)
        errors = [None] * len(out)
        if first is not None:
            out[first >= 0] = np.nan
            for i in np.flatnonzero(first >= 0):
                errors[i] = error(i, labels)
        return out, errors

    def _pass(self, P):
        """The tape run once over the rows of P: the outputs, each row's first
        faulting instruction (-1: none; None if no row faults) and
        ``error(i, labels)``, which builds row i's DomainError."""
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[1] != len(self.names):
            raise ValueError(f"points must have shape (n, {len(self.names)}), "
                             f"got {P.shape}")
        n = len(P)
        out = np.empty((n, len(self.outputs)))
        if self._const_row is not None:
            out[:] = self._const_row
        if n == 0 or not self._slot_outputs:    # then there is no instruction
            return out, None, None
        reg = self._registers.copy()
        reg[:len(self.names)] = np.ascontiguousarray(P.T)
        first = None
        with np.errstate(all="ignore"):
            for pos, (fn, dst, a, b, reason) in enumerate(self.code):
                v = fn(reg[a]) if b is None else fn(reg[a], reg[b])
                if reason:
                    v, bad = v
                    if bad is not None and bad.any():
                        first = np.full(n, -1) if first is None else first
                        first[bad & (first < 0)] = pos
                reg[dst] = v
        for j, slot in self._slot_outputs:
            out[:, j] = reg[slot]
        return out, first, lambda i, labels: self._fault(P, i, first[i], reg, labels)

    def _fault(self, P, row, pos, reg, labels) -> DomainError:
        _, _, a, b, reason = self.code[pos]
        if reason == "pow":
            x, y = (float(np.broadcast_to(reg[s], (len(P),))[row]) for s in (a, b))
            reason = _pow_reason(x, y)
        index = int(row if labels is None else labels[row])
        coords = ", ".join(f"{name}={float(v)!r}"
                           for name, v in zip(self.names, P[row]))
        return DomainError(f"{reason} in '{to_string(self.nodes[pos])}' at point {index} "
                           f"({coords})", index)


def compile_exprs(exprs, names) -> Program:
    """Compile ``exprs`` into one Program over the input variables ``names``.

    One pass over the trees, memoized by node identity, numbers every value
    by (op, operand slots), so structurally equal subtrees share a slot
    whether or not they are the same object.  A variable absent from
    ``names`` raises UnboundVariableError here rather than at run time.  A
    power of a point-dependent base to a constant exponent runs the
    specialized ``_pow_by``.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError("input variable names must be distinct")
    roots = [as_expr(e) for e in exprs]       # alive while ids are memoized
    slots: dict[tuple, int] = {("var", n): i for i, n in enumerate(names)}
    consts: dict[int, float] = {}
    scalar: set[int] = set()                  # slots that hold one value, not a column
    code: list[tuple] = []
    nodes: list[Expr] = []
    seen: dict[int, int] = {}

    def number(key, make):
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(slots)
            make(slot)
        return slot

    def emit(e, op, args):
        fn, reason = _TAPE_OPS[op]
        if op == "pow" and args[1] in consts and args[0] not in scalar:
            fn = _pow_by(consts[args[1]])

        def make(slot):
            code.append((fn, slot, args[0], args[1] if len(args) > 1 else None, reason))
            nodes.append(e)
            if all(a in scalar for a in args):
                scalar.add(slot)
        return number((op, *args), make)

    def add_const(slot, v):
        consts[slot] = v
        scalar.add(slot)

    def visit(e: Expr) -> int:
        slot = seen.get(id(e))
        if slot is not None:
            return slot
        match e:
            case Const(value=v):
                v = float(v)
                slot = number(("const", v.hex()), lambda s: add_const(s, v))
            case Var(name=n):
                slot = slots.get(("var", n))
                if slot is None:
                    raise UnboundVariableError(f"unbound variable '{n}'")
            case Unary(op=op, arg=a):
                if op not in _TAPE_OPS:
                    raise ValueError(f"unknown unary operation {op!r}")
                slot = emit(e, op, (visit(a),))
            case Binary(op=op, lhs=l, rhs=r):
                if op not in _TAPE_OPS:
                    raise ValueError(f"unknown binary operation {op!r}")
                slot = emit(e, op, (visit(l), visit(r)))
            case Atan2(y=ye, x=xe):
                slot = emit(e, "atan2", (visit(ye), visit(xe)))
            case _:
                raise TypeError(f"not an expression: {e!r}")
        seen[id(e)] = slot
        return slot

    outputs = [visit(e) for e in roots]
    return Program(names, len(slots), list(consts.items()), code, outputs, nodes)


def evaluate(e: Expr, env: dict[str, float]) -> float:
    """``e`` at the point ``env`` binds: ``[e]`` compiled over env's names
    and run on one row.  A variable absent from ``env`` raises
    UnboundVariableError; a domain fault raises that row's DomainError,
    naming the node and the point as point 0, never NaN."""
    names = tuple(env)
    row = np.array([[float(env[n]) for n in names]])
    return float(compile_exprs([e], names)(row)[0, 0])


class Table:
    """Named blocks of expressions, (name, shape, exprs) with prod(shape)
    expressions in row-major order each, compiled into one Program.
    ``at(pts)`` returns every block at every row of ``pts``, each with a
    leading point axis; rows are computed independently of each other."""

    def __init__(self, blocks, names):
        self.exprs, self._blocks = [], []
        for name, shape, exprs in blocks:
            self._blocks.append((name, len(self.exprs), shape))
            self.exprs += exprs
        self.program = compile_exprs(self.exprs, names)

    def at(self, pts) -> dict[str, np.ndarray]:
        return self.blocks(self.program(pts))

    def blocks(self, vals) -> dict[str, np.ndarray]:
        """The blocks of the program's output rows ``vals``."""
        return {name: vals[:, lo:lo + int(np.prod(shape))].reshape((len(vals), *shape))
                for name, lo, shape in self._blocks}


class Predicate:
    """The domain test "every expression > 0" over ``names``, one program per
    expression, each run once over the rows where the earlier ones hold."""

    def __init__(self, exprs, names):
        self.dim = len(names)
        self.programs = [compile_exprs([g], names) for g in exprs]

    def rows(self, C):
        """Per row of C the predicate, and None or the DomainError of the
        expression that faults there, naming the row by its index."""
        inside, faults = self._passes(C)
        errors = [None] * len(C)
        for rows, bad, error in faults:
            for j in bad:
                errors[rows[j]] = error(j, rows)
        return inside, errors

    def holds(self, C, first: int = 0):
        """``rows`` up to its first error, the only one built: the predicate
        at the rows before it, and that DomainError (or None), which names
        the row as ``first`` + its index."""
        inside, faults = self._passes(C)
        if not faults:
            return inside, None
        rows, bad, error = min(faults, key=lambda f: f[0][f[1][0]])
        return inside[:rows[bad[0]]], error(bad[0], rows + first)

    def _passes(self, C):
        """The mask of the rows of C where all hold, and per faulting program
        (the rows it ran on, the indices among them that fault, ``error``)."""
        inside, faults = np.ones(len(C), dtype=bool), []
        for prog in self.programs:
            rows = np.flatnonzero(inside)
            vals, at, error = prog._pass(C[rows])
            inside[rows] = vals[:, 0] > 0.0
            if at is not None:
                inside[rows[at >= 0]] = False
                faults.append((rows, np.flatnonzero(at >= 0), error))
        return inside, faults

    def sample(self, draw, n: int, budget: int) -> np.ndarray:
        """The first n candidates that hold, from at most ``budget`` drawn in
        growing blocks ``draw(size)`` of one stream: the candidates that
        drawing and testing one at a time gives.  A fault counts only at a
        candidate that one-at-a-time drawing would reach."""
        drawn, size = 0, max(n, 1)
        found = np.empty((0, self.dim))
        while len(found) < n and drawn < budget:
            C = draw(min(size, budget - drawn))
            inside, fault = self.holds(C, drawn)
            drawn += len(C)
            found = np.concatenate([found, C[:len(inside)][inside]])[:n]
            if fault is not None and len(found) < n:
                raise fault
            size *= 2
        return found


# ---------------------------------------------------------------------------
# structural differentiation

# the bound of the diff and free_vars caches: one table build makes a few
# hundred entries (228 for the largest in the gallery), so it never evicts
# its own, while a long-lived process that loads many systems stays bounded
CACHE_SIZE = 1 << 14


@lru_cache(maxsize=CACHE_SIZE)
def diff(e: Expr, name: str) -> Expr:
    """Exact structural derivative of ``e`` with respect to variable ``name``.

    The result contains only variables already present in ``e`` and is built
    through the light-simplification constructors.
    """
    match e:
        case Const():
            return ZERO
        case Var(name=n):
            return ONE if n == name else ZERO
        case Unary(op=op, arg=a):
            da = diff(a, name)
            if op == "neg":
                return neg(da)
            if op == "sin":
                return mul(Unary("cos", a), da)
            if op == "cos":
                return neg(mul(Unary("sin", a), da))
            if op == "tan":
                return div(da, pow_(Unary("cos", a), Const(2.0)))
            if op == "atan":
                return div(da, add(ONE, pow_(a, Const(2.0))))
            if op == "exp":
                return mul(e, da)
            if op == "log":
                return div(da, a)
            if op == "sqrt":
                return div(da, mul(Const(2.0), e))
            raise ValueError(f"unknown unary operation {op!r}")
        case Binary(op=op, lhs=l, rhs=r):
            if op == "add":
                return add(diff(l, name), diff(r, name))
            if op == "sub":
                return sub(diff(l, name), diff(r, name))
            if op == "mul":
                return add(mul(diff(l, name), r), mul(l, diff(r, name)))
            if op == "div":
                num = sub(mul(diff(l, name), r), mul(l, diff(r, name)))
                return div(num, pow_(r, Const(2.0)))
            if op == "pow":
                if isinstance(r, Const):
                    return mul(mul(r, pow_(l, Const(r.value - 1.0))), diff(l, name))
                # general case: a^b * (b' log a + b a'/a)
                inner = add(mul(diff(r, name), Unary("log", l)),
                            div(mul(r, diff(l, name)), l))
                return mul(e, inner)
            raise ValueError(f"unknown binary operation {op!r}")
        case Atan2(y=a, x=b):
            num = sub(mul(b, diff(a, name)), mul(a, diff(b, name)))
            den = add(pow_(a, Const(2.0)), pow_(b, Const(2.0)))
            return div(num, den)
    raise TypeError(f"not an expression: {e!r}")


@lru_cache(maxsize=CACHE_SIZE)
def free_vars(e: Expr) -> frozenset[str]:
    """The set of variable names appearing in ``e``."""
    match e:
        case Const():
            return frozenset()
        case Var(name=n):
            return frozenset((n,))
        case Unary(arg=a):
            return free_vars(a)
        case Binary(lhs=l, rhs=r):
            return free_vars(l) | free_vars(r)
        case Atan2(y=a, x=b):
            return free_vars(a) | free_vars(b)
    raise TypeError(f"not an expression: {e!r}")


def depth(e: Expr) -> int:
    """The number of nodes on the longest path from ``e`` down to a leaf,
    counted level by level without recursion, so that a tree of any depth
    is measured.  A node's children are its slots that hold an Expr."""
    deepest, level = 0, [e]
    while level:
        deepest += 1
        level = [c for node in level for name in node.__slots__
                 if isinstance(c := getattr(node, name), Expr)]
    return deepest


def require_vars(exprs, names, what: str) -> None:
    """Raise ValueError unless ``exprs`` use only variables among ``names``."""
    extra = set().union(*map(free_vars, exprs)) - set(names)
    if extra:
        raise ValueError(f"{what} uses undeclared variables {sorted(extra)}")


def subst(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace each variable by the expression ``mapping`` assigns it.

    Variables absent from the mapping stay themselves.
    """
    match e:
        case Const():
            return e
        case Var(name=n):
            return mapping.get(n, e)
        case Unary(op=op, arg=a):
            return unary(op, subst(a, mapping))
        case Binary(op=op, lhs=l, rhs=r):
            ctor = {"add": add, "sub": sub, "mul": mul, "div": div, "pow": pow_}[op]
            return ctor(subst(l, mapping), subst(r, mapping))
        case Atan2(y=a, x=b):
            return Atan2(subst(a, mapping), subst(b, mapping))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# printing

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 3}
_SYM = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}
_ATOM = 9
_NEG = 2


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Unary) and e.op == "neg":
        return _NEG
    return _ATOM


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e: Expr) -> str:
    """Render with minimal parentheses; reparsing reproduces the tree."""
    match e:
        case Const(value=v):
            return _fmt_const(v)
        case Var(name=n):
            return n
        case Unary(op="neg", arg=a):
            s = to_string(a)
            if _prec(a) < 3:
                s = f"({s})"
            return f"-{s}"
        case Unary(op=op, arg=a):
            return f"{op}({to_string(a)})"
        case Binary(op=op, lhs=l, rhs=r):
            p = _PREC[op]
            ls = to_string(l)
            rs = to_string(r)
            if op == "pow":
                if _prec(l) <= p or (isinstance(l, Const) and l.value < 0.0):
                    ls = f"({ls})"
                if _prec(r) < p:
                    rs = f"({rs})"
            else:
                if _prec(l) < p:
                    ls = f"({ls})"
                if _prec(r) <= p:
                    rs = f"({rs})"
            return f"{ls} {_SYM[op]} {rs}" if op in ("add", "sub") else f"{ls}{_SYM[op]}{rs}"
        case Atan2(y=a, x=b):
            return f"atan2({to_string(a)}, {to_string(b)})"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# parsing

_FUNCTIONS = {"sin", "cos", "tan", "atan", "exp", "log", "sqrt", "atan2"}


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := number | ident | ident '(' expr (',' expr)? ')' | '(' expr ')'

    '+'/'-' and '*'/'/' associate left, '^' associates right and binds
    tighter than unary minus, so "-x^2" is -(x^2).  Every nested factor
    (a parenthesis, a function argument, a unary minus or an exponent)
    goes through ``_factor``, whose nesting is bounded by MAX_DEPTH.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.n = len(text)
        self.nesting = 0

    def parse(self) -> Expr:
        e = self._expr()
        self._skip_ws()
        if self.pos < self.n:
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return e

    def _skip_ws(self):
        while self.pos < self.n and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < self.n else ""

    def _expr(self) -> Expr:
        e = self._term()
        while True:
            c = self._peek()
            if c == "+":
                self.pos += 1
                e = add(e, self._term())
            elif c == "-":
                self.pos += 1
                e = sub(e, self._term())
            else:
                return e

    def _term(self) -> Expr:
        e = self._factor()
        while True:
            c = self._peek()
            if c == "*":
                self.pos += 1
                e = mul(e, self._factor())
            elif c == "/":
                self.pos += 1
                e = div(e, self._factor())
            else:
                return e

    def _factor(self) -> Expr:
        if self.nesting == MAX_DEPTH:
            raise ParseError(f"expression nested deeper than MAX_DEPTH = {MAX_DEPTH}",
                             self.pos)
        self.nesting += 1
        if self._peek() == "-":
            self.pos += 1
            e = neg(self._factor())
        else:
            e = self._base()
            if self._peek() == "^":
                self.pos += 1
                e = pow_(e, self._factor())
        self.nesting -= 1
        return e

    def _base(self) -> Expr:
        c = self._peek()
        if c == "":
            raise ParseError("unexpected end of input", self.pos)
        if c == "(":
            self.pos += 1
            e = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return e
        if c.isdigit() or c == ".":
            return self._number()
        if c.isalpha() or c == "_":
            return self._ident()
        raise ParseError(f"unexpected character {c!r}", self.pos)

    def _number(self) -> Expr:
        start = self.pos
        t = self.text
        while self.pos < self.n and t[self.pos].isdigit():
            self.pos += 1
        if self.pos < self.n and t[self.pos] == ".":
            self.pos += 1
            while self.pos < self.n and t[self.pos].isdigit():
                self.pos += 1
        if self.pos < self.n and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < self.n and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < self.n and t[self.pos].isdigit():
                while self.pos < self.n and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent, e.g. "2e" where e is a name boundary
        token = t[start:self.pos]
        try:
            value = float(token)
        except ValueError:
            value = math.inf
        if not math.isfinite(value):      # e.g. "1e309" overflows
            raise ParseError(f"bad number {token!r}", start)
        return Const(value)

    def _ident(self) -> Expr:
        start = self.pos
        t = self.text
        while self.pos < self.n and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        name = t[start:self.pos]
        if self._peek() != "(":
            return Var(name)
        if name not in _FUNCTIONS:
            raise UnknownFunctionError(f"unknown function {name!r}", start)
        self.pos += 1  # consume '('
        args = [self._expr()]
        if self._peek() == ",":
            self.pos += 1
            args.append(self._expr())
        if self._peek() != ")":
            raise ParseError("expected ')'", self.pos)
        self.pos += 1
        if name == "atan2":
            if len(args) != 2:
                raise ParseError("atan2 takes two arguments", start)
            return Atan2(args[0], args[1])
        if len(args) != 1:
            raise ParseError(f"{name} takes one argument", start)
        return unary(name, args[0])


def parse_expr(text: str) -> Expr:
    """Parse ``text`` under standard precedence (see module docstring)."""
    return _Parser(text).parse()
