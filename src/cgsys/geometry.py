"""Complex charts, vector fields, and the first-order complex calculus.

A chart of complex dimension N carries real coordinates ordered
x1, y1, ..., xN, yN with z_mu = x_mu + i y_mu.  The complex structure J acts
on coordinate fields by J d/dx_mu = d/dy_mu and J d/dy_mu = -d/dx_mu, and the
twisted differential is d^c f(V) = -df(J V).

Vector fields and functions are expression trees, but only their jets are
differentiated symbolically: ``jet_blocks`` lists the fields, their
Jacobians, the differentials and the Hessians of the functions, which one
compiled Table evaluates.  Everything built from them is composed
numerically from those values: d and d^c (``d_values``, ``dc_values``),
brackets [X, Y] = DY X - DX Y (``bracket_values``) and the terms of dd^c by
the product rule (``dc_differentials``, ``ddc_terms``), so second-derivative
quantities (dd^c, Laplacians) are exact up to rounding with no nested
symbolic derivatives; ``lie_bracket`` alone builds a bracket as a tree.
The helpers write each composed entry as a sum of products of jets; a
``Composition`` runs them once per structure on the jets as ``Term``s,
expressions that drop every product with a ``Const(0.0)`` jet and fold
the constant ones, and compiles the products and sums left, in the
helpers' order and association, onto the end of the jets' own tape, so
each entry is the helpers' value up to the sign of a zero and a call is one
Program pass (Griewank & Walther, Evaluating Derivatives, 2nd ed., 2008,
Ch. 7-8, on exploiting sparsity).  The tape refuses a row of finite
inputs where a jet turns non-finite, so a dropped product never meets one
there, and a product that faults is named as an expression over the
chart's coordinates.  The check table,
the CR data's brackets and the complex flows' stage reads are each such a
layout of the jets; a gradient system's two are layouts of selections of
its one jets Table (``Table.select``).
A field's values at one point (``VectorField.values``, ``field_matrix``)
are the one-row view of its compiled ``program``, so no point value walks
a tree.  All values are immutable and every operation is pure; evaluation
over point batches can run concurrently without synchronization.  Field
derivatives have one layout, the Jacobians DX of ``jet_blocks``, and
holomorphy one residual: ``cr_residuals``, |dZ/dzbar| of the complexified
fields read off DX.  Chart vectors and complex coordinates have one layout
too, z_mu = v^{x_mu} + i v^{y_mu}, which only ``to_complex`` and
``to_chart`` convert, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .expr import (
    ZERO, Const, Expr, Program, Table, Var, add, as_expr, compile_exprs, diff, mul, neg,
    require_vars, sub,
)

__all__ = [
    "ComplexChart", "VectorField",
    "apply_J", "j_rotate", "to_complex", "to_chart", "jet_blocks",
    "d_values", "dc_values", "bracket_values", "dc_differentials", "ddc_terms",
    "Composition",
    "lie_bracket", "cr_residuals", "holomorphic_jacobians",
    "is_holomorphic", "rank_cutoff", "Span", "field_matrix",
]


@dataclass(frozen=True)
class ComplexChart:
    """Coordinate names of one complex chart, interleaved x1, y1, ..., xN, yN."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) % 2 != 0 or not self.names:
            raise ValueError("chart needs an even, positive number of coordinates")
        if len(set(self.names)) != len(self.names):
            raise ValueError("chart coordinate names must be distinct")

    @classmethod
    def standard(cls, n: int) -> "ComplexChart":
        names = []
        for mu in range(1, n + 1):
            names.extend((f"x{mu}", f"y{mu}"))
        return cls(tuple(names))

    @property
    def N(self) -> int:
        """Complex dimension."""
        return len(self.names) // 2

    @property
    def dim(self) -> int:
        """Real dimension 2N."""
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def row(self, p) -> np.ndarray:
        """The point p (2N,) as the one row (1, 2N) that a one-row view
        runs its Program on."""
        p = np.asarray(p, dtype=float)
        if p.shape != (self.dim,):
            raise ValueError(f"point must have {self.dim} coordinates, got {p.shape}")
        return p[None]


@dataclass(frozen=True)
class VectorField:
    """Real vector field on a chart; 2N symbolic components in chart order."""

    chart: ComplexChart
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ValueError(
                f"field needs {self.chart.dim} components, got {len(self.components)}")
        require_vars(self.components, self.chart.names, "field component")

    @classmethod
    def from_exprs(cls, chart: ComplexChart, comps) -> "VectorField":
        return cls(chart, tuple(as_expr(c) for c in comps))

    @classmethod
    def zero(cls, chart: ComplexChart) -> "VectorField":
        return cls(chart, (Const(0.0),) * chart.dim)

    @classmethod
    def coordinate(cls, chart: ComplexChart, name: str) -> "VectorField":
        comps = [Const(0.0)] * chart.dim
        comps[chart.index(name)] = Const(1.0)
        return cls(chart, tuple(comps))

    def values(self, p) -> np.ndarray:
        """The components at the point p (2N,): ``program``'s one-row view."""
        return self.program(self.chart.row(p))[0]

    @cached_property
    def program(self) -> Program:
        """The components compiled into one Program over the chart."""
        return compile_exprs(self.components, self.chart.names)


def _same_chart(*objs):
    charts = {o.chart for o in objs}
    if len(charts) != 1:
        raise ValueError("operands live on different charts")


def j_rotate(v, axis: int = -1) -> np.ndarray:
    """J on chart vectors along an axis of an array (the last by default):
    the components (v_x, v_y) of each complex coordinate become (-v_y, v_x).
    An exact shuffle and negation, no arithmetic; an array of Terms stays
    one, so a Composition maps the jets' zeros onto J xi."""
    v = np.asarray(v)
    v = np.moveaxis(v if v.dtype == object else v.astype(float, copy=False), axis, -1)
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return np.moveaxis(out, -1, axis)


def to_complex(v, axis: int = -1) -> np.ndarray:
    """The complex coordinates of chart vectors along an axis of an array
    (the last by default): each pair (v^{x_mu}, v^{y_mu}) becomes z_mu =
    v^{x_mu} + i v^{y_mu}, the coefficient on d/dz_mu of the complexified
    vector v - iJv.  Exact, with no arithmetic: a view of the pairs as
    complex128, copied first only where they are not adjacent in memory.
    ``to_chart`` is its inverse."""
    v = np.asarray(v, dtype=float)
    if axis not in (-1, v.ndim - 1) or v.strides[-1] != v.itemsize:
        return v.swapaxes(axis, -1).copy().view(complex).swapaxes(axis, -1)
    return v.view(complex)


def to_chart(z, axis: int = -1) -> np.ndarray:
    """The chart vectors of complex coordinates along an axis of an array
    (the last by default), the inverse of ``to_complex`` and exact as it
    is: z_mu becomes the pair (Re z_mu, Im z_mu), a view of complex128
    memory as its (re, im) pairs, copied first only where the coordinates
    are not adjacent in memory."""
    z = np.asarray(z, dtype=complex)
    if axis not in (-1, z.ndim - 1) or z.strides[-1] != z.itemsize:
        return z.swapaxes(axis, -1).copy().view(float).swapaxes(axis, -1)
    return z.view(float)


def apply_J(V: VectorField) -> VectorField:
    """Rotate a field by the complex structure: J dx_mu = dy_mu, J dy_mu = -dx_mu."""
    comps = list(V.components)
    out = [None] * len(comps)
    for mu in range(V.chart.N):
        out[2 * mu] = neg(comps[2 * mu + 1])
        out[2 * mu + 1] = comps[2 * mu]
    return VectorField(V.chart, tuple(out))


def jet_blocks(grads, fields, chart: ComplexChart) -> list:
    """The Table blocks every composed quantity is read from: the fields
    ``X`` (m, 2N) and their Jacobians ``DX`` (m, 2N, 2N), DX[a, i, j] =
    dX_a^i/dx_j; the differentials ``dU`` (k, 2N) of the functions, their
    Hessians ``D2U`` (k, 2N, 2N) laid out as DX, and the functions ``U``
    (k,) themselves.  ``U`` comes last, so the tape of the others is the
    one they compile to alone, instruction for instruction."""
    names, dim = chart.names, chart.dim
    dU = [diff(g, x) for g in grads for x in names]
    return [
        ("X", (len(fields), dim), [c for V in fields for c in V.components]),
        ("DX", (len(fields), dim, dim),
         [diff(c, x) for V in fields for c in V.components for x in names]),
        ("dU", (len(grads), dim), dU),
        ("D2U", (len(grads), dim, dim), [diff(e, x) for e in dU for x in names]),
        ("U", (len(grads),), list(grads)),
    ]


# The helpers below take and return arrays whose last axis is the points,
# with the coordinates on the axis before it, and sum each coordinate sum in
# coordinate order.  A Composition runs them once, on the jets as Terms with
# a point axis of one, and compiles only what they leave: every entry is
# the sum they write, less its structurally zero products.


def d_values(G, V) -> np.ndarray:
    """du(V) for the differential rows G (k, 2N, n) and the vectors V
    (m, 2N, n): (k, m, n)."""
    return np.sum(G[:, None] * V[None], axis=-2)


def dc_values(G, V) -> np.ndarray:
    """d^c u(V) = -du(JV), laid out as d_values and written in coordinates:
    the sum over mu of du/dx_mu V^{y_mu} - du/dy_mu V^{x_mu}."""
    G, V = G[:, None], V[None]
    return np.sum(G[:, :, 0::2] * V[:, :, 1::2] - G[:, :, 1::2] * V[:, :, 0::2], axis=-2)


def _pair_index(pairs):
    """The first and the second members of the index pairs, as two arrays."""
    return np.reshape(np.asarray(pairs, dtype=int), (-1, 2)).T


def bracket_values(X, DX, pairs) -> np.ndarray:
    """[X_i, X_j] = DX_j X_i - DX_i X_j for (i, j) in pairs, (P, 2N, n),
    from the fields X (m, 2N, n) and their Jacobians DX (m, 2N, 2N, n);
    each component sums X_i^l dX_j/dx_l - X_j^l dX_i/dx_l over l in order,
    as lie_bracket does."""
    i, j = _pair_index(pairs)
    return reduce(np.add, (DX[j, :, l] * X[i, None, l] - DX[i, :, l] * X[j, None, l]
                           for l in range(X.shape[1])))


def dc_differentials(dU, D2U, X, DX) -> np.ndarray:
    """The differentials of the functions d^c u_c(X_b), (k, m, 2N, n), from
    the Hessians D2U and the fields X with their Jacobians DX, by the
    product rule applied to each term of d^c u(X)'s coordinate sum."""
    H, G, X, DX = D2U[:, None], dU[:, None, :, None], X[None, :, :, None], DX[None]
    # d/dx_j of du/dx_mu X^{y_mu} - du/dy_mu X^{x_mu}, summed over mu in order
    return reduce(np.add, ((H[:, :, x] * X[:, :, x + 1] + G[:, :, x] * DX[:, :, x + 1])
                           - (H[:, :, x + 1] * X[:, :, x] + G[:, :, x + 1] * DX[:, :, x])
                           for x in range(0, dU.shape[1], 2)))


def ddc_terms(dU, D2U, X, DX, pairs, brackets) -> tuple[np.ndarray, ...]:
    """The terms X(d^c u(Y)), Y(d^c u(X)) and d^c u([X, Y]) of
    dd^c u(X, Y), each (P, k, n), over the field pairs (X_x, X_y) for
    (x, y) in pairs, given their brackets (P, 2N, n).  The first two apply
    the dc_differentials of one member to the other member."""
    xs, ys = _pair_index(pairs)
    d_dc = dc_differentials(dU, D2U, X, DX)
    return (np.swapaxes(np.sum(X[xs][None] * d_dc[:, ys], axis=-2), 0, 1),
            np.swapaxes(np.sum(X[ys][None] * d_dc[:, xs], axis=-2), 0, 1),
            np.swapaxes(dc_values(dU, brackets), 0, 1))


# ---------------------------------------------------------------------------
# composition over the structurally nonzero jets


class Term:
    """One entry of a composed block, as a Composition builds it from the
    jets: ``expr``, an expression of the jets' non-constant columns
    (variables ``j<col>``, which a fault's message replaces by the jets'
    own expressions).

    The operators are expr's add, sub, mul and neg, which keep the order
    and association the helpers write and fold constants.  A zero operand
    (a ``Const(0.0)``) drops out of a sum (x + 0 = x and 0 - x = -x, exact
    up to the sign of a zero), a product with a zero factor is the zero
    term, and a negation is exact, a zero's sign included, as numpy's is."""

    __slots__ = ("expr", "zero")

    def __init__(self, expr: Expr):
        self.expr = expr
        self.zero = isinstance(expr, Const) and expr.value == 0.0

    def __neg__(self) -> "Term":
        return Term(neg(self.expr))

    def __add__(self, other: "Term") -> "Term":
        if other.zero:
            return self
        if self.zero:
            return other
        return Term(add(self.expr, other.expr))

    def __sub__(self, other: "Term") -> "Term":
        if self.zero or other.zero:
            return self + -other
        return Term(sub(self.expr, other.expr))

    def __mul__(self, other: "Term") -> "Term":
        return _ZERO if self.zero or other.zero else Term(mul(self.expr, other.expr))


_ZERO = Term(ZERO)


# a table is built for every op that loads a system, and its structure
# repeats across loads, so each structure is compiled once per process; the
# gallery has nine, and the bound keeps a process that loads many bounded
@lru_cache(maxsize=256)
def _plan(compose, layout, pattern):
    """``compose`` run once on the jets as Terms with a point axis of one
    and compiled over every jet column (``j<col>``): the Program of the
    entries, each composed block's columns and shape (as
    ``Table.columns``), and each entry's value where it is a constant,
    else None.  The ``j<col>`` variables live on this tape alone: joined
    to the jets' tape (``Program.then``), a faulting entry is named with
    each ``j<col>`` replaced by the jet's expression, over the chart."""
    terms = np.array([Term(Var(f"j{col}")) if value is None else Term(Const(value))
                      for col, value in enumerate(pattern)], dtype=object)
    ends = np.cumsum([math.prod(shape) for _, shape in layout])
    jets = {name: block.reshape(*shape, 1)
            for (name, shape), block in zip(layout, np.split(terms, ends[:-1]))}
    columns, entries = {}, []
    for name, block in compose(jets).items():
        columns[name] = (slice(len(entries), len(entries) + block.size), block.shape[:-1])
        entries += [t.expr for t in block.ravel()]
    program = compile_exprs(entries, [f"j{col}" for col in range(len(pattern))])
    return program, columns, tuple(e.value if isinstance(e, Const) else None for e in entries)


class Composition:
    """Blocks composed from the jets of a Table by ``compose``, computing
    only the structurally nonzero products, on one tape with the jets.

    ``compose`` maps the Table's blocks to every block a caller reads,
    the jets it passes through included, with the helpers above.  It runs
    once per structure (the block layout and which jets are constants, and
    their values), on the jets as Terms: a ``Const(0.0)`` jet is a zero
    term, so every product with it is dropped, and a sum with no product
    left is an exact zero; products of constant jets fold.  What is left,
    in the order and association the helpers write, is compiled over the
    jets' columns and follows the jets' tape (``Program.then``), so
    ``program`` is one tape and ``at`` on points is one Program pass, and
    every entry equals the helper's value on the jets up to the sign of a
    zero; a jet passed through, or negated, is the jet's own value.  The
    jets' instructions come first, so a row faults where the jets' tape
    does; it refuses a row of finite inputs where a jet turns non-finite,
    so a dropped product meets no non-finite value at a row it accepts
    whose inputs are finite.  A product of finite jets that faults is
    named as the product of the jets' own expressions, over the chart's
    coordinates, like a node of the file.  ``jets`` may be a selection of
    a larger Table (``Table.select``).  ``at`` gives the
    blocks, each with a leading point axis, as views of one array of the
    entries, and ``constants`` holds each entry's value where it is a
    constant, else None."""

    def __init__(self, jets: Table, compose):
        layout = tuple((name, shape) for name, (_, shape) in jets.columns.items())
        pattern = tuple(e.value if isinstance(e, Const) else None for e in jets.exprs)
        self.jets = jets
        plan, self.columns, self.constants = _plan(compose, layout, pattern)
        self.program = jets.program.then(plan)

    at, blocks = Table.at, Table.blocks

    def rows(self, pts, labels=None):
        """The entries at the rows of pts, and a dict j -> the DomainError
        that refuses row j (its entries NaN), naming row j as labels[j]
        (default j); the errors are made only for the rows refused."""
        vals, first, error = self.program._pass(pts)
        if first is None:
            return vals, {}
        faulted = np.flatnonzero(first >= 0).tolist()
        vals[faulted] = np.nan
        return vals, {j: error(j, labels) for j in faulted}


def lie_bracket(V: VectorField, W: VectorField) -> VectorField:
    """Lie bracket [V, W], built symbolically:
    [V,W]^i = sum_j (V^j dW^i/dx_j - W^j dV^i/dx_j)."""
    _same_chart(V, W)
    names = V.chart.names
    comps = []
    for i in range(V.chart.dim):
        total: Expr = Const(0.0)
        for j, nj in enumerate(names):
            total = add(total, sub(mul(V.components[j], diff(W.components[i], nj)),
                                   mul(W.components[j], diff(V.components[i], nj))))
        comps.append(total)
    return VectorField(V.chart, tuple(comps))


def cr_residuals(DX) -> np.ndarray:
    """|dZ_mu/dzbar_nu| (..., N, N) of the complexified fields Z = (V - iJV)/2
    from the Jacobians DX (..., 2N, 2N) of jet_blocks.  In the basis d/dz_mu
    = (d/dx_mu - i d/dy_mu)/2 the coefficient Z_mu is V^{x_mu} + i V^{y_mu},
    so dZ/dzbar = (dZ/dx + i dZ/dy)/2 is linear in DX.  It vanishes where the
    Cauchy-Riemann equations hold."""
    return 0.5 * np.hypot(DX[..., 0::2, 0::2] - DX[..., 1::2, 1::2],
                          DX[..., 1::2, 0::2] + DX[..., 0::2, 1::2])


def holomorphic_jacobians(DX) -> np.ndarray:
    """dZ_mu/dz_nu (..., N, N) of the complexified fields from the
    Jacobians DX (..., 2N, 2N) of jet_blocks, where ``cr_residuals``
    vanish: there dZ/dz = (dZ/dx - i dZ/dy)/2 = dZ/dx, so dZ_mu/dz_nu =
    DX[2 mu, 2 nu] + i DX[2 mu + 1, 2 nu]: ``to_complex`` of DX's x_nu
    columns along the rows, set here directly and C-ordered.  The complex
    flows' stage tape lays out the same numbers as its outputs."""
    dZ = np.empty(DX.shape[:-2] + (DX.shape[-1] // 2,) * 2, dtype=complex)
    dZ.real, dZ.imag = DX[..., 0::2, 0::2], DX[..., 1::2, 0::2]
    return dZ


def is_holomorphic(V: VectorField, pts, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether every coefficient of the complexification of the real field
    V satisfies the Cauchy-Riemann equations at the sample points; returns
    the verdict and the max residual modulus.  Only the selection of V's
    Jacobian from its jets runs, so only its partials can fault."""
    jets = Table(jet_blocks((), [V], V.chart), V.chart.names).select(["DX"])
    DX = jets.at(np.reshape(np.asarray(pts, dtype=float), (-1, V.chart.dim)))["DX"]
    worst = float(np.max(cr_residuals(DX), initial=0.0))
    return worst < tol, worst


def field_matrix(fields, p) -> np.ndarray:
    """Column matrix of field values at a point (2N x m), each column one
    field's ``values``."""
    return np.column_stack([f.values(p) for f in fields])


def rank_cutoff(M, s) -> np.ndarray:
    """max(d, r) * eps * sigma_max (..., 1) of matrices M (..., d, r) with
    singular values s: the singular values at or below it count as zero,
    as in ``np.linalg.matrix_rank`` and ``np.linalg.lstsq(rcond=None)``."""
    return max(np.shape(M)[-2:]) * np.finfo(float).eps * s[..., :1]


class Span:
    """The column spans of a stack of frames S (..., d, r) from one stacked
    SVD, the one rank of cgsys: every dimension count reads ``rank``.
    ``s`` (..., min(d, r)) holds the singular values in descending order,
    ``rank`` (...,) counts those above ``rank_cutoff``, as
    ``np.linalg.matrix_rank`` counts them, and ``basis`` (..., d, min(d, r))
    holds the left-singular vectors of those values, the other columns
    zeroed.  Projecting on ``basis`` stands for a least-squares solve per
    column with the cutoff of ``np.linalg.lstsq(rcond=None)``, so
    rank-deficient frames project as that solve does (Golub & Van Loan,
    Matrix Computations, 4th ed., 2013, on numerical rank).

    A span read only for its rank and singular values is factored with
    ``basis=False``: no singular vectors (``compute_uv=False``, as
    ``np.linalg.matrix_rank`` factors), and ``basis`` None.  The singular
    values of the two factorizations may differ in their last bits, so a
    rank may differ where a singular value sits at the cutoff.  Indexing a
    Span over its leading axes gives the spans of those frames: each frame
    is factored alone, so they are what factoring those frames gives."""

    def __init__(self, S, basis: bool = True):
        if basis:
            U, self.s, _ = np.linalg.svd(S, full_matrices=False)
        else:
            self.s = np.linalg.svd(S, compute_uv=False)
        keep = self.s > rank_cutoff(S, self.s)
        self.rank = np.sum(keep, axis=-1)
        self.basis = U * keep[..., None, :] if basis else None

    def __getitem__(self, frames) -> "Span":
        out = object.__new__(Span)
        out.s, out.rank = self.s[frames], self.rank[frames]
        out.basis = None if self.basis is None else self.basis[frames]
        return out

    def residuals(self, V) -> np.ndarray:
        """Norm of each column of V (..., d, m) outside the span: (..., m)."""
        return np.linalg.norm(V - self.basis @ (np.swapaxes(self.basis, -1, -2) @ V), axis=-2)
