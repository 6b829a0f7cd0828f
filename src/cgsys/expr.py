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
the bases that exponent has no real power of, and constant outputs are
filled in one assignment.  One rule names every fault: a point faults at
the first node whose value is not finite while its operands are (IEEE
754's overflow, division by zero and invalid operation), and a non-finite
input never faults anew.  One pass of the tape over all the rows finds
each row's first faulting instruction; a DomainError's message is built
only for a row that has one, and names the node, the reason and the point.
A domain fault is never returned as NaN.  ``evaluate`` is the tape's
one-row view, and the folding of a constant raised to a constant power
runs the tape's own pow.  ``Program.then`` makes one tape of two, the
second run on the first's outputs, and names a fault of the second tape
over the first one's inputs; ``Program.select`` reads the sub-tape of some
outputs off a tape, with no compile.
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
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Unary", "Binary", "Atan2",
    "ExprError", "ParseError", "UnknownFunctionError",
    "UnboundVariableError", "DomainError",
    "parse_expr", "evaluate", "compile_exprs", "Program", "Table", "Predicate",
    "diff", "free_vars", "require_vars", "to_string", "depth", "MAX_DEPTH",
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
    """Base node type.  Subclasses are frozen dataclasses and equality is
    structural; trees are built through the simplifying constructors
    below or by ``parse_expr``."""

    __slots__ = ()

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
        # the tape's own pow, folded only where it does not fault
        (v,) = _pow_values(a.value, b.value)
        if math.isfinite(v):
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

# the bound of the diff, free_vars and evaluate caches: a table build makes a
# few hundred entries (228 for the largest in the gallery), so it never evicts
# its own, while a long-lived process that loads many systems stays bounded
CACHE_SIZE = 1 << 14


def _is_integer(y):
    return np.isfinite(y) & (np.floor(y) == y)


def _pow_values(x, y):
    """x ** y elementwise through Python's float power, which a walk of the
    tree in Python's ``math`` takes too; NaN where the power has no real
    value (0 to a negative power, a negative base to a non-integer
    exponent) and inf where it overflows."""
    x, y = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
    bad = ((x == 0.0) & (y < 0.0)) | ((x < 0.0) & ~_is_integer(y))
    return _python_pow(x, np.where(bad, 1.0, y).tolist(), bad)


def _python_pow(x, ys, bad=None):
    """Python's float power of the array x to the exponents ys (a list, or
    an endless iterator of one exponent): NaN where ``bad`` (None: nowhere),
    inf where it overflows."""
    xs = (x if bad is None else np.where(bad, 1.0, x)).tolist()
    try:
        out = np.fromiter(map(pow, xs, ys), dtype=float, count=len(xs))
    except OverflowError:
        out = np.empty(len(xs))
        for i, (a, b) in enumerate(zip(xs, ys)):
            try:
                out[i] = a ** b
            except OverflowError:
                out[i] = math.inf
    if bad is not None:
        out[bad] = np.nan
    return out


# x^2 runs here too, not as x*x: Python's pow (libm's) is not always
# correctly rounded, and pow(x, 2.0) differs from x*x on about 1 in 1,100
# random doubles and on about 1 in 8 doubles with 27-bit significands.
# np.square and np.power(x, 2.0) agree with x*x, not with pow, so the tape
# keeps pow to agree bit for bit with a walk that takes Python's.
def _pow_by(e: float):
    """x ** e for the constant exponent e over an array x: _pow_values,
    with the bases that have no real power tested only where e has such
    bases (x == 0 for e < 0, x < 0 for a non-integer e)."""
    zero_faults, negative_faults = e < 0.0, not e.is_integer()

    def run(x, _):
        bad = None
        if zero_faults:
            bad = x == 0.0
        if negative_faults:
            bad = x < 0.0 if bad is None else bad | (x < 0.0)
        return _python_pow(x, itertools.repeat(e), bad if bad is not None and bad.any() else None)
    return run


def _reason(op: str, x: float, y: float | None) -> str:
    """Why the op's value at the finite operands x (and y) is not finite."""
    if op == "div" and y == 0.0:
        return "division by zero"
    if op == "log":
        return "log of non-positive value"
    if op == "sqrt":
        return "sqrt of negative value"
    if op == "pow" and x == 0.0 and y < 0.0:
        return "zero raised to negative power"
    if op == "pow" and x < 0.0 and not float(y).is_integer():
        return "negative base with non-integer exponent"
    return "overflow"


def _masking(op: str, a: int, b: int | None, consts) -> tuple:
    """The operand slots of an instruction through which a non-finite value
    can give a finite result (x/inf, exp(-inf), atan(inf), atan2, pow(inf,
    0)), given the constants by slot; through any other operand a non-finite
    value gives a non-finite result."""
    if op in ("exp", "atan"):
        return (a,)
    if op == "div":
        return (b,)
    if op == "atan2" or (op == "pow" and not consts.get(b, 0.0) > 0.0):
        return (a, b)
    return ()


# op -> the function an instruction runs on its operand registers
_TAPE_OPS = {
    "neg": np.negative, "atan": np.arctan, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "add": np.add, "sub": np.subtract,
    "mul": np.multiply, "div": np.divide, "pow": _pow_values, "atan2": np.arctan2,
}


def _frozen(value) -> np.ndarray:
    """A constant as the read-only 0-d float64 array an instruction reads."""
    value = np.array(value, dtype=float)
    value.flags.writeable = False
    return value


class Program:
    """A straight-line tape for several output expressions over named inputs.

    Calling it on an ``(n, len(names))`` point array returns the ``(n, m)``
    array of the m outputs, one row per point.  Slots ``0..len(names)-1``
    hold the input columns, constants have slots of their own, and each
    instruction writes one new slot from earlier ones, with no fault test of
    its own.

    One rule finds the faults: a row faults at its first instruction whose
    value is not finite while its operands are, the node where a walk of
    the trees faults at that point; a non-finite input never faults anew.
    A pass tests once whether any value may have turned non-finite: its
    non-constant outputs, the values no instruction reads, and the operands
    through which a non-finite value can give a finite one (``_masking``);
    every other value feeds one of those, non-finite if it is.  Only where
    that test fails are the registers scanned for each row's first fault.
    A call raises the first faulting row's DomainError (node, row index,
    coordinates), ``rows`` returns each row's, and no other error message is
    built.
    """

    __slots__ = ("names", "code", "outputs", "exprs", "nodes", "_registers", "_const_row",
                 "_slot_outputs", "_tested", "_watched")

    def __init__(self, names, n_slots, consts, code, outputs, exprs, nodes):
        self.names = names        # input variable per column
        self.code = code          # (function, out slot, lhs slot, rhs slot or None, op)
        self.outputs = outputs    # slot of each output expression
        self.exprs = exprs        # each output's expression, and each
        self.nodes = nodes        # instruction's node (read by ``_expr``)
        # the register file after the input columns before a call: the
        # constants in their slots
        const_slots = {slot: _frozen(value) for slot, value in consts}
        self._registers = [const_slots.get(slot) for slot in range(len(names), n_slots)]
        # an output row holding the constant outputs, which fills them all
        # in one assignment (None: there are none); the other outputs, with
        # their slots, are copied one by one
        row = np.array([const_slots.get(slot, np.nan) for slot in outputs])
        self._const_row = row if len(const_slots.keys() & set(outputs)) else None
        self._slot_outputs = [(j, slot) for j, slot in enumerate(outputs)
                              if slot not in const_slots]
        # the output columns the pass tests (all of them: a slice), and the
        # other registers it tests: the operands through which a non-finite
        # value can vanish and the values that no instruction reads
        tested = [j for j, slot in self._slot_outputs if slot >= len(names)]
        self._tested = slice(None) if len(tested) == len(outputs) else np.array(tested, int)
        read = {s for _, _, a, b, _ in code for s in (a, b)}
        self._watched = sorted(
            {s for _, _, a, b, op in code for s in _masking(op, a, b, const_slots)
             if s not in const_slots}
            | ({dst for _, dst, _, _, _ in code} - read - set(outputs)))

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
        reg = [*P.T, *self._registers]     # the input columns are views of P
        with np.errstate(all="ignore"):
            for fn, dst, a, b, _ in self.code:
                reg[dst] = fn(reg[a]) if b is None else fn(reg[a], reg[b])
        columns = out.T
        for j, slot in self._slot_outputs:
            columns[j] = reg[slot]
        first = None if np.isfinite(out[:, self._tested]).all() and all(
            np.isfinite(reg[s]).all() for s in self._watched) else self._first_faults(reg, n)
        if first is None:
            return out, None, None
        return out, first, lambda i, labels: self._fault(P, i, first[i], reg, labels)

    def _first_faults(self, reg, n):
        """Each row's first instruction whose value is not finite while its
        operands are (-1: none; None where no row has one), read off the
        registers of a pass in one stack."""
        stack = np.empty((len(reg), n))
        for slot, r in enumerate(reg):
            stack[slot] = r
        finite = np.isfinite(stack)
        dst, a, b = np.array([(dst, a, a if b is None else b)
                              for _, dst, a, b, _ in self.code]).T
        new = ~finite[dst] & finite[a] & finite[b]
        if not new.any():
            return None
        return np.where(new.any(axis=0), new.argmax(axis=0), -1)

    def select(self, outputs) -> "Program":
        """The sub-tape of the outputs at the indices ``outputs``, in that
        order: the instructions that feed them, in this tape's order, so
        each output is this tape's value bit for bit and a row is refused
        exactly where the tape of those outputs compiled alone refuses it.
        Where two of a row's instructions fault, the fault named is the
        first in this tape's order, which a tape compiled alone may not
        visit first."""
        outs, base = [self.outputs[j] for j in outputs], len(self.names)
        need = set(outs)
        for _, dst, a, b, _ in reversed(self.code):
            if dst in need:
                need.update((a, b))
        keep = [pos for pos, c in enumerate(self.code) if c[1] in need]
        # the slots kept, renumbered in order: the inputs, then the constants
        # and values the kept instructions read or write
        new = {s: i for i, s in enumerate([*range(base), *sorted(need - {None, *range(base)})])}
        consts = [(new[s], v) for s, v in enumerate(self._registers, base)
                  if v is not None and s in new]
        code = [(fn, new[dst], new[a], None if b is None else new[b], op)
                for fn, dst, a, b, op in (self.code[pos] for pos in keep)]
        return Program(self.names, len(new), consts, code, [new[s] for s in outs],
                       [self.exprs[j] for j in outputs], [self.nodes[pos] for pos in keep])

    def then(self, other: "Program") -> "Program":
        """One tape that runs this one and then ``other`` on its outputs:
        ``other``'s input columns are this tape's outputs, in order, and its
        outputs are the tape's.  This tape's instructions come first, so a
        row faults where this tape alone faults first.  A fault in
        ``other``'s instructions names its node with each input replaced
        by the output expression of this tape that feeds it, so it reads
        over this tape's inputs."""
        if len(other.names) != len(self.outputs):
            raise ValueError(f"the second tape needs {len(self.outputs)} inputs, "
                             f"got {len(other.names)}")
        base = len(self.names) + len(self._registers)
        # other's slots: its inputs are this tape's outputs, the rest follow
        # this tape's slots
        slot = [*self.outputs, *range(base, base + len(other._registers))]
        consts = [(i, v) for i, v in enumerate([*self._registers, *other._registers],
                                                len(self.names)) if v is not None]
        code = [(fn, slot[dst], slot[a], None if b is None else slot[b], op)
                for fn, dst, a, b, op in other.code]

        def over(e):       # e over this tape's inputs, read on the error path alone
            return _substitute(_expr(e), dict(zip(other.names, map(_expr, self.exprs))))
        return Program(self.names, base + len(other._registers), consts, self.code + code,
                       [slot[s] for s in other.outputs], [partial(over, e) for e in other.exprs],
                       self.nodes + [partial(over, node) for node in other.nodes])

    def _fault(self, P, row, pos, reg, labels) -> DomainError:
        _, _, a, b, op = self.code[pos]
        x, y = (None if s is None else float(np.broadcast_to(reg[s], (len(P),))[row])
                for s in (a, b))
        index = int(row if labels is None else labels[row])
        coords = ", ".join(f"{name}={float(v)!r}"
                           for name, v in zip(self.names, P[row]))
        return DomainError(f"{_reason(op, x, y)} in '{to_string(_expr(self.nodes[pos]))}' "
                           f"at point {index} ({coords})", index)


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
        fn = _TAPE_OPS[op]
        if op == "pow" and args[1] in consts and args[0] not in scalar:
            fn = _pow_by(consts[args[1]])

        def make(slot):
            code.append((fn, slot, args[0], args[1] if len(args) > 1 else None, op))
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
    return Program(names, len(slots), list(consts.items()), code, outputs, roots, nodes)


def evaluate(e: Expr, env: dict[str, float]) -> float:
    """``e`` at the point ``env`` binds: ``[e]`` compiled over env's names,
    once per tree and names, and run on one row.  A variable absent from
    ``env`` raises UnboundVariableError; a domain fault raises that row's
    DomainError, naming the node and the point as point 0, never NaN."""
    names = tuple(env)
    row = np.array([[float(env[n]) for n in names]])
    return float(_one_row(e, names, repr(e))(row)[0, 0])


@lru_cache(maxsize=CACHE_SIZE)
def _one_row(e: Expr, names: tuple[str, ...], text: str) -> Program:
    """``[e]`` compiled over ``names``, once per tree: ``text``, e's repr,
    tells apart the trees that are equal but for the sign of a zero
    constant, as Const(0.0) == Const(-0.0)."""
    return compile_exprs([e], names)


class Table:
    """Named blocks of expressions, (name, shape, exprs) with prod(shape)
    expressions in row-major order each, compiled into one Program.
    ``at(pts)`` returns every block at every row of ``pts``, each with a
    leading point axis; rows are computed independently of each other.
    ``columns`` maps each block's name to its range of the program's
    outputs and its shape, fixed at construction.  ``select`` gives a
    Table of some of the blocks on the sub-tape of their outputs."""

    def __init__(self, blocks, names, program=None):
        self.exprs, self.columns = [], {}
        for name, shape, exprs in blocks:
            self.columns[name] = (slice(len(self.exprs), len(self.exprs) + len(exprs)),
                                  tuple(shape))
            self.exprs += exprs
        self.program = compile_exprs(self.exprs, names) if program is None else program

    def select(self, names) -> "Table":
        """The blocks ``names``, in that order, on ``Program.select`` of
        their outputs: no compile, and the values of this Table's tape."""
        cols = [self.columns[name] for name in names]
        return Table([(name, shape, self.exprs[c]) for name, (c, shape) in zip(names, cols)],
                     self.program.names, self.program.select(np.r_[tuple(c for c, _ in cols)]))

    def at(self, pts, labels=None) -> dict[str, np.ndarray]:
        """The blocks at the rows of pts; a fault raises the first faulting
        row's DomainError, naming it as labels[row] (default: the row)."""
        return self.blocks(self.program(pts, labels))

    def blocks(self, vals) -> dict[str, np.ndarray]:
        """The blocks of the program's output rows ``vals``."""
        return {name: vals[:, cols].reshape((len(vals), *shape))
                for name, (cols, shape) in self.columns.items()}


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


def _expr(node) -> Expr:
    """A Program's output expression or node as an expression over its
    inputs: the one it holds, or, where that was made over another tape's
    inputs (``Program.then``), what the call it holds gives."""
    return node() if callable(node) else node


def _substitute(e: Expr, env: dict) -> Expr:
    """``e`` with each variable that ``env`` names replaced by its
    expression there, node for node, with no simplification."""
    if isinstance(e, Var):
        return env.get(e.name, e)
    return type(e)(*(_substitute(c, env) if isinstance(c, Expr) else c
                     for c in map(e.__getattribute__, e.__slots__)))


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
