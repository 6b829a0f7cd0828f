"""Flows of vector fields, matrix exponentials, and complexified flows.

Real flows use classical fixed-step RK4: trajectories here are short and the
reproducibility of residual tables matters more than adaptive speed, so the
step count is a plain config knob.  Complex time is supported on two routes:

* matrix-group data, where the flow of a left-invariant field is the exact
  product g exp(w V) and complex w costs nothing extra, and
* ambient fields whose complexification satisfies the Cauchy-Riemann
  equations in the chart, integrated with complex arithmetic on the N
  holomorphic components.  Holomorphy is the computable sufficient condition
  for the flow to extend; fields that fail it are refused.

Every route also gives exact derivatives of the flow map.  On a matrix group
one block-triangular exponential yields exp(X) and its Frechet derivatives
L(X, E) together (Al-Mohy & Higham 2009).  Real flows, of one point or of a
stack of them, and ambient complex flows step the tangent columns, and the
column of the time derivative, in the same RK4 loop as the trajectory (the
variational equations, Hairer-Norsett-Wanner I.14): the exact derivative of
the discrete map.

One RK4 loop (``_rk4``) steps every flow, over a stack of rows that each
have their own step size and step count.  ``ComplexFlow.rows`` runs the
ambient complex flows of a whole stack in it: one compiled tape per stage
gives the fields and, at the first stage of a step, their Cauchy-Riemann
residuals, so holomorphy is checked at the start point and after every
step; a row that diverges, leaves the holomorphic region, exceeds max_time
or faults is refused alone, with the error the per-point tree walk gives.

The matrix-group maps (``matrix_exp``, ``complexified_flow_matrix``,
``complexified_flow_jacobian``) also take stacks of rows: each matrix gets
its own scaling and its own Taylor stopping point, and a row comes out as
it would alone.  ``newton_rows`` runs damped Newton over stacked rows in
lockstep, each row with its own step halvings and convergence test, and
``newton_inverse`` is its one-row view.  Newton takes one map that returns
the values and the Jacobians together, so every start row and every trial
is evaluated once (an accepted trial's Jacobian is the next step's), and
it returns F and dF at the solutions as the map gave them.  Stacked maps
report the error that refuses a row beside the values, so one failing row
fails alone.

Everything is pure: configs are read-only shared data and independent
trajectories or Newton solves can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .expr import (
    Const, DomainError, Expr, Var, add, compile_exprs, diff, evaluate, mul, sub,
)
from .geometry import (
    ComplexChart, ComplexField, VectorField, complexify, env_at,
    _wirtinger_bar_residuals,
)

__all__ = [
    "FlowConfig", "FlowError", "DivergenceError", "HolomorphyError",
    "NewtonError", "EmbeddingError",
    "flow_real", "exp_map", "matrix_exp",
    "MatrixGroupSpec", "complexified_flow_matrix", "complexified_flow_jacobian",
    "left_invariant_fields", "ComplexFlow", "flow_complex", "flow_complex_multi",
    "newton_inverse", "newton_rows", "NewtonRows", "solve_rows", "numerical_jacobian",
]


class FlowError(RuntimeError):
    """Base class for flow failures."""


class DivergenceError(FlowError):
    """A trajectory left the divergence bound."""


class HolomorphyError(FlowError):
    """A field's complexification fails the Cauchy-Riemann equations."""


class NewtonError(FlowError):
    """The damped Newton inverse failed to converge."""


class EmbeddingError(FlowError):
    """A matrix is not in the embedded coordinate pattern of the group."""


@dataclass(frozen=True)
class FlowConfig:
    """Shared numerical knobs for flows and the construction pipeline."""

    steps_per_unit: int = 256
    max_time: float = 16.0
    divergence_bound: float = 1e6
    holomorphy_tol: float = 1e-8
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    construction_tol: float = 1e-8

    def __post_init__(self):
        if self.steps_per_unit < 1:
            raise ValueError("steps_per_unit must be at least 1")

    def with_(self, **kw) -> "FlowConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = FlowConfig()


def _rk4(velocity, state, h, nsteps, after_step):
    """The one fixed-step RK4 loop, over a stack of rows: row i of ``state``
    takes nsteps[i] steps of size h[i] (``h`` and ``nsteps`` are arrays over
    the rows or shared scalars).  ``velocity(rows, y, stage)`` returns the
    velocities at the states y of the rows ``rows`` (indices into state)
    for RK4 stage 0..3, and ``after_step(rows, y)`` sees their new states;
    each also returns the mask of the rows it keeps, or None to keep all,
    and may raise to abort the whole stack.  A refused row drops out, as
    does a finished one, and keeps the state it had before the step."""
    n = len(state)
    h = np.broadcast_to(np.asarray(h, dtype=float), (n,))
    nsteps = np.broadcast_to(nsteps, (n,))
    ends = set(nsteps.tolist())
    column = (slice(None),) + (None,) * (state.ndim - 1)
    rows = np.flatnonzero(nsteps > 0)
    hh = h[rows][column]
    for s in range(max(ends, default=0)):
        if s in ends:            # rows that took nsteps[i] = s steps are done
            rows = rows[nsteps[rows] > s]
            hh = h[rows][column]
        y, ks = state[rows], []
        for stage in range(4):
            arg = y if stage == 0 else y + (hh if stage == 3 else 0.5 * hh) * ks[-1]
            k, keep = velocity(rows, arg, stage)
            ks.append(k)
            if keep is not None:
                rows, y, hh, ks = rows[keep], y[keep], hh[keep], [k[keep] for k in ks]
        y = y + (hh / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
        keep = after_step(rows, y)
        if keep is not None:
            rows, y, hh = rows[keep], y[keep], hh[keep]
        state[rows] = y
    return state


def flow_real(V: VectorField, p, t: float, cfg: FlowConfig = DEFAULT_CONFIG,
              tangents=None):
    """The flow of V for time t from p: RK4 solution of dg/ds = V(g).

    ``p`` is one point (2N,) or a stack of rows (n, 2N), stepped together by
    V's compiled components.  Given ``tangents`` (p.shape + (r,)), also
    returns r + 1 columns stepped by the same RK4 steps with V's compiled
    Jacobian: the tangents pushed through the discrete flow map, then
    d(end)/dt.  The divergence bound applies to the trajectory only.
    """
    p = np.asarray(p, dtype=float)
    if abs(t) > cfg.max_time:
        raise FlowError(f"|t| = {abs(t):g} exceeds max_time {cfg.max_time:g}")
    rows = p.reshape(-1, p.shape[-1])
    # state columns [g | tangents | d/dt]: the tangents follow DV, and the
    # last column c = (s/t) V(g(s)) follows c' = DV c + V/t from c(0) = 0
    state = rows[..., None].copy() if tangents is None else np.concatenate(
        [rows[..., None], np.reshape(tangents, (*rows.shape, -1)),
         np.zeros((*rows.shape, 1))], axis=-1)

    def velocity(_, state, __):
        out = np.empty_like(state)
        out[..., 0] = vals = V.program(state[..., 0])
        if tangents is not None:
            DV = V.jacobian_program(state[..., 0]).reshape(len(vals), vals.shape[1], -1)
            out[..., 1:] = DV @ state[..., 1:]
            out[..., -1] += vals / t
        return out, None

    def after_step(_, state):
        if np.max(np.abs(state[..., 0])) > cfg.divergence_bound:
            raise DivergenceError(f"trajectory exceeded bound {cfg.divergence_bound:g}")

    if t != 0.0:
        nsteps = max(1, math.ceil(abs(t) * cfg.steps_per_unit))
        state = _rk4(velocity, state, t / nsteps, nsteps, after_step)
    elif tangents is not None:
        state[..., -1] = V.program(rows)
    end = state[..., 0].reshape(p.shape)
    return end if tangents is None else (end, state[..., 1:].reshape(*p.shape, -1))


def exp_map(p, V: VectorField, cfg: FlowConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Exp_p(V): the time-one flow of V from p."""
    return flow_real(V, p, 1.0, cfg)


def matrix_exp(A) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated Taylor sum.

    ``A`` is one square matrix or a stack of them (n, d, d).  Each matrix is
    scaled to norm <= 1/2 by its own power of two and its series runs to
    degree 16 (remainder below double rounding), stopping early only when
    its own term is exactly zero, which makes the result exact for
    nilpotent input.  A row of a stack comes out as it would alone.
    """
    A = np.asarray(A)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError("matrix_exp needs a square matrix or a stack of them")
    if A.ndim == 2:
        return matrix_exp(A[None])[0]
    n, d = len(A), A.shape[-1]
    # each matrix's 1-norm, its largest absolute column sum
    colsum = np.abs(A[:, 0])
    for i in range(1, d):
        colsum = colsum + np.abs(A[:, i])
    s = np.array([max(0, math.ceil(math.log2(x / 0.5))) if x > 0.5 else 0
                  for x in colsum.max(axis=1, initial=0.0)], dtype=int)
    B = A / (2.0 ** s)[:, None, None]
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
    for i in range(int(s.max(initial=0))):
        sq = s > i
        if sq.all():
            out = out @ out
        else:
            out[sq] = out[sq] @ out[sq]
    return out


def _raise_first(errors) -> None:
    """Raise the first exception of a per-row error list, if any."""
    for err in errors:
        if err is not None:
            raise err


@dataclass(frozen=True, eq=False)
class MatrixGroupSpec:
    """A matrix Lie group embedded in a chart.

    ``base`` holds the constant entries of the pattern and ``positions``
    lists the (row, col) slot of each complex chart coordinate; a group
    element is base + sum_mu z_mu E_(positions[mu]).  ``basis`` spans the
    real Lie algebra.  The real form sits at y = 0 in the chart.
    """

    chart: ComplexChart
    base: np.ndarray
    positions: tuple[tuple[int, int], ...]
    basis: tuple[np.ndarray, ...]

    def __post_init__(self):
        m = self.base.shape[0]
        if self.base.shape != (m, m):
            raise ValueError("base matrix must be square")
        if len(self.positions) != self.chart.N:
            raise ValueError("one matrix position per complex coordinate")
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("coordinate positions must be distinct")
        if not all(0 <= r < m and 0 <= c < m for r, c in self.positions):
            raise ValueError(f"coordinate positions must lie inside the {m}x{m} matrix")
        if not self.basis or any(np.shape(E) != (m, m) for E in self.basis):
            raise ValueError(f"need at least one {m}x{m} algebra basis matrix")
        flat = np.stack([np.asarray(E, dtype=float).ravel() for E in self.basis])
        if np.linalg.matrix_rank(flat) != len(self.basis):
            raise ValueError("algebra basis matrices must be linearly independent")

    @property
    def k(self) -> int:
        return len(self.basis)

    @property
    def matrix_dim(self) -> int:
        return self.base.shape[0]

    def embed(self, p) -> np.ndarray:
        """Chart point -> complex group matrix (over the last axis of p)."""
        return np.asarray(self.base, dtype=complex) + self.embed_tangent(p)

    def embed_tangent(self, v) -> np.ndarray:
        """Chart tangent vector -> complex matrix: the linear part of embed.
        A stack of vectors (..., 2N) gives a stack of matrices."""
        z = np.ascontiguousarray(v, dtype=float).view(complex)
        M = np.zeros(z.shape[:-1] + self.base.shape, dtype=complex)
        M[(..., *zip(*self.positions))] = z
        return M

    def read_slots(self, M) -> np.ndarray:
        """The chart vector held in the coordinate slots of a complex matrix
        (of each matrix of a stack)."""
        return _complex_to_real(np.asarray(M)[(..., *zip(*self.positions))])

    def unembed(self, M, tol: float = 1e-9) -> np.ndarray:
        """Complex group matrix -> chart point; rejects off-pattern matrices."""
        points, errors = self.unembed_rows(np.asarray(M)[None], tol)
        _raise_first(errors)
        return points[0]

    def unembed_rows(self, M, tol: float = 1e-9):
        """unembed over a stack of matrices (n, m, m): the chart points and,
        per row, None or the EmbeddingError that refuses it."""
        offset = np.asarray(M, dtype=complex) - self.base
        rest = offset.copy()
        rest[(..., *zip(*self.positions))] = 0.0
        drift = np.max(np.abs(rest), axis=(-2, -1), initial=0.0)
        errors = [EmbeddingError(
            f"matrix leaves the embedded coordinate pattern (drift {d:.3e})")
            if d > tol else None for d in drift]
        return self.read_slots(offset), errors

    def algebra_element(self, coeffs) -> np.ndarray:
        """sum_a coeffs_a E_a, over the last axis of coeffs."""
        coeffs = np.asarray(coeffs)
        total = np.zeros(coeffs.shape[:-1] + self.base.shape, dtype=complex)
        for a, E in enumerate(self.basis):
            total = total + coeffs[..., a, None, None] * np.asarray(E, dtype=complex)
        return total


def complexified_flow_matrix(spec: MatrixGroupSpec, g, V,
                             cfg: FlowConfig = DEFAULT_CONFIG):
    """The complexified flow on a matrix group: (g, V) -> g exp(sum V_a E_a),
    with V a vector of k complex numbers, mapped back to chart coordinates.

    ``g`` is a chart point or a group matrix.  Stacks of rows, g (n, 2N)
    and V (n, k), give (points (n, 2N), errors), errors[i] None or the
    EmbeddingError that refuses row i; a row equals its one-point call.
    """
    if np.ndim(V) == 2:
        return spec.unembed_rows(spec.embed(g) @ matrix_exp(spec.algebra_element(V)))
    M = spec.embed(g) if np.ndim(g) == 1 else np.asarray(g, dtype=complex)
    return spec.unembed(M @ matrix_exp(spec.algebra_element(V)))


def complexified_flow_jacobian(spec: MatrixGroupSpec, g, V, dg, dV):
    """The flow point g exp(X), X = sum V_a E_a, and its exact real Jacobian.

    ``dg`` holds chart tangent columns at g (2N x r) and ``dV`` complex
    coefficient columns of algebra directions (k x s).  Returns the chart
    point and the 2N x (r + s) Jacobian: column j is dg_j exp(X), and
    column r + b is g L(X, D_b), with L the Frechet derivative of exp.  The
    Jacobian's exp(X) and the L(X, D_b) come from the first block row of
    one exponential of the block upper-triangular matrix with X on the
    diagonal and D_1, ..., D_s beside the first block; it is exact where
    the Taylor sum terminates, i.e. on nilpotent algebras.  The point is
    g matrix_exp(X), as complexified_flow_matrix computes it (the block's
    corner can differ from it in the last bits), so the point equals F's.

    Stacks of rows, g (n, 2N), V (n, k) and dg (n, 2N, r), with ``dV``
    shared, give (points, Jacobians (n, 2N, r + s), errors) as
    complexified_flow_matrix does; a row equals its one-point call.
    """
    if np.ndim(V) == 1:
        points, J, errors = complexified_flow_jacobian(
            spec, np.asarray(g)[None], np.asarray(V)[None], np.asarray(dg)[None], dV)
        _raise_first(errors)
        return points[0], J[0]
    M = spec.embed(g)
    X = spec.algebra_element(V)
    dirs = spec.algebra_element(np.asarray(dV).T)
    rows, n, s = len(X), spec.matrix_dim, len(dirs)
    block = np.zeros((rows, s + 1, n, s + 1, n), dtype=complex)
    for b in range(s + 1):
        block[:, b, :, b] = X
    block[:, 0, :, 1:] = dirs.transpose(1, 0, 2)
    top = matrix_exp(block.reshape(rows, (s + 1) * n, (s + 1) * n))[:, :n].copy()
    expX = top[:, :, :n]
    # column j: dg_j exp(X); column r + b: g L(X, D_b)
    tangent = spec.read_slots(spec.embed_tangent(np.swapaxes(dg, 1, 2)) @ expX[:, None])
    frechet = (M @ top[:, :, n:]).reshape(rows, n, s, n).transpose(0, 2, 1, 3)
    J = np.concatenate([tangent, spec.read_slots(frechet)], axis=1)
    points, errors = spec.unembed_rows(M @ matrix_exp(X))
    return points, np.swapaxes(J, 1, 2), errors


def left_invariant_fields(spec: MatrixGroupSpec) -> tuple[VectorField, ...]:
    """Symbolic left-invariant fields of the embedded complex group.

    The velocity of t -> g exp(t E_a) at t = 0 is the matrix g E_a; reading
    its entries at the coordinate positions gives the chart components, which
    are complex-linear in the coordinates, hence holomorphic."""
    chart = spec.chart
    m = spec.matrix_dim
    coord_at = {pos: mu for mu, pos in enumerate(spec.positions)}
    base = np.asarray(spec.base, dtype=complex)

    def entry(r, c) -> tuple[Expr, Expr]:
        """The symbolic complex entry (re, im) of the generic group element."""
        re, im = Const(float(base[r, c].real)), Const(float(base[r, c].imag))
        if (r, c) in coord_at:
            x, y = chart.names[2 * coord_at[(r, c)]:][:2]
            re, im = add(re, Var(x)), add(im, Var(y))
        return re, im

    entries = [[entry(r, c) for c in range(m)] for r in range(m)]
    fields = []
    for E in spec.basis:
        E = np.asarray(E, dtype=float)
        comps: list[Expr] = []
        for mu, (r, c) in enumerate(spec.positions):
            re = im = Const(0.0)
            for j in range(m):
                if E[j, c] != 0.0:
                    coeff = Const(float(E[j, c]))
                    re = add(re, mul(entries[r][j][0], coeff))
                    im = add(im, mul(entries[r][j][1], coeff))
            comps.extend((re, im))
        fields.append(VectorField(chart, tuple(comps)))
    return tuple(fields)


# ---------------------------------------------------------------------------
# complex-time flows of holomorphic fields


class _HolomorphicFrame:
    """The fields' complexifications, Cauchy-Riemann residuals and
    holomorphic Jacobians, as expression trees and as compiled tapes.

    ``at`` runs a tape over a stack of chart rows; the per-point methods
    (``check_holomorphy``, ``coefficients``, ``derivatives``) walk the
    trees with ``evaluate``.  They are the reference: a row that the tape
    refuses takes its error, and its text, from them.
    """

    def __init__(self, fields, cfg: FlowConfig):
        self.chart = fields[0].chart
        self.cfg = cfg
        self.complexified = [complexify(V) for V in fields]
        self.residuals = [_wirtinger_bar_residuals(Z) for Z in self.complexified]
        # holomorphic Jacobians dZ_mu/dz_nu = d re/dx_nu + i d im/dx_nu
        # (Cauchy-Riemann), one N x N table of expression pairs per field
        xs = self.chart.names[0::2]
        self.jacobians = [[[(diff(re, x), diff(im, x)) for x in xs]
                           for re, im in Z.parts] for Z in self.complexified]
        # block -> (its expressions as (re, im) pairs in order, the
        # reference that evaluates it at one point); a residual pair that
        # is the constant 0 can neither fault nor fail, and is left out
        self._blocks = {
            "res": ([pair for res in self.residuals for pair in res
                     if not all(isinstance(e, Const) and e.value == 0.0 for e in pair)],
                    self.check_holomorphy),
            "Z": ([pair for Z in self.complexified for pair in Z.parts], self.coefficients),
            "dZ": ([pair for table in self.jacobians for row in table for pair in row],
                   self.derivatives),
        }
        self.checks_holomorphy = bool(self._blocks["res"][0])
        self._plans = {}

    def check_holomorphy(self, p):
        env = env_at(self.chart, p)
        worst = max([0.0] + [0.5 * math.hypot(evaluate(rr, env), evaluate(ii, env))
                             for res in self.residuals for rr, ii in res])
        if worst > self.cfg.holomorphy_tol:
            raise HolomorphyError(
                f"field complexification violates the Cauchy-Riemann equations "
                f"(residual {worst:.3e} > {self.cfg.holomorphy_tol:g}); "
                "complex-time flow refused")

    def coefficients(self, zreal) -> np.ndarray:
        env = env_at(self.chart, zreal)
        return np.array([[complex(evaluate(re, env), evaluate(im, env))
                          for re, im in Z.parts] for Z in self.complexified])

    def derivatives(self, zreal) -> np.ndarray:
        """dZ_a/dz at a point, shape (k, N, N)."""
        env = env_at(self.chart, zreal)
        return np.array([[[complex(evaluate(re, env), evaluate(im, env))
                           for re, im in row] for row in table]
                         for table in self.jacobians])

    def at(self, X, blocks):
        """The named blocks ("res", "Z", "dZ", in that order) at the chart
        rows X (m, 2N), from one tape: a dict of the complex values of "Z"
        (m, k, N) and "dZ" (m, k, N, N), and a dict row -> the error that
        refuses it.  With "res", a row whose Cauchy-Riemann residual
        exceeds holomorphy_tol is refused.  A refused row's error is the
        one its reference evaluation raises, block by block in order."""
        plan = self._plans.get(blocks)
        if plan is None:
            plan = self._plans[blocks] = self._plan(blocks)
        tape, layout = plan
        try:
            vals, refused = tape(X), {}
        except DomainError:
            vals, faults = tape.rows(X)
            refused = {i: self._reference_error(X[i], blocks) or err
                       for i, err in enumerate(faults) if err is not None}
        out = {}
        for b, lo, hi, shape in layout:
            if b == "res":
                # Python's max in check_holomorphy skips NaN, as fmax does;
                # a row near the tolerance is decided by the reference
                R = vals[:, lo:hi]
                worst = np.fmax.reduce(0.5 * np.hypot(R[:, 0::2], R[:, 1::2]),
                                       axis=1, initial=0.0)
                for i in np.flatnonzero(worst > self.cfg.holomorphy_tol * (1 - 1e-6)):
                    if i not in refused:
                        refused[i] = self._reference_error(X[i], ("res",))
            else:
                out[b] = np.ascontiguousarray(vals[:, lo:hi]).view(complex).reshape(
                    (len(X), *shape))
        return out, {i: err for i, err in refused.items() if err is not None}

    def _plan(self, blocks):
        """The tape of the blocks and each block's (name, output columns,
        complex shape per row)."""
        N, k = self.chart.N, len(self.complexified)
        shapes = {"res": None, "Z": (k, N), "dZ": (k, N, N)}
        layout, exprs = [], []
        for b in blocks:
            pairs = self._blocks[b][0]
            layout.append((b, len(exprs), len(exprs) + 2 * len(pairs), shapes[b]))
            exprs += [e for pair in pairs for e in pair]
        return compile_exprs(exprs, self.chart.names), layout

    def _reference_error(self, x, blocks):
        """The error that the per-point evaluation of the blocks raises at
        the chart point x, or None."""
        try:
            for b in blocks:
                self._blocks[b][1](x)
        except (FlowError, ValueError) as err:
            return err
        return None


def _complex_to_real(z: np.ndarray) -> np.ndarray:
    """The chart vector of z: complex128 memory is its (re, im) pairs."""
    return np.ascontiguousarray(z, dtype=complex).view(float)


class ComplexFlow:
    """Complex-time flows along a fixed list of holomorphic fields.

    The symbolic preparation (complexification, Cauchy-Riemann residuals,
    holomorphic Jacobians) and its compiled tapes are made once here.
    ``rows`` integrates a stack of trajectories of dz/ds = sum_a w_a Z_a(z)
    over s in [0, 1], row i with ceil(|w_i|_1 steps_per_unit) RK4 steps of
    its own size, all stepped together by one RK4 loop; ``__call__`` and
    ``with_tangents`` are its one-row views.  Holomorphy of every field is
    checked at the start point and after every RK4 step.
    """

    def __init__(self, fields, cfg: FlowConfig = DEFAULT_CONFIG):
        fields = list(fields)
        self.k = len(fields)
        self.cfg = cfg
        self.frame = _HolomorphicFrame(fields, cfg)

    def __call__(self, p, w) -> np.ndarray:
        """The end point of the flow from p for complex time vector w."""
        return self._one(p, w, None)[0]

    def with_tangents(self, p, w, dz0) -> tuple[np.ndarray, np.ndarray]:
        """The end point and the exact derivative of the discrete flow map.

        ``dz0`` holds r complex tangent columns at z(p) (shape N x r).
        Returns the chart point and Y = [dz/dz0 dz0 | dz/dw_1 ... dz/dw_k]
        (complex, N x (r + k)), stepped by the same RK4 steps as z."""
        return self._one(p, w, np.asarray(dz0, dtype=complex))

    def _one(self, p, w, dz0):
        points, Y, errors = self.rows(np.asarray(p, dtype=float)[None],
                                      np.asarray(w, dtype=complex)[None],
                                      None if dz0 is None else dz0[None])
        _raise_first(errors)
        return points[0], None if Y is None else Y[0]

    def rows(self, P, W, dZ0=None):
        """The flows from the chart rows P (n, 2N) for the complex times W
        (n, k), stepped together; row i comes out as it would alone.

        Returns (points (n, 2N), Y, errors): with tangent columns dZ0
        (n, N, r) Y is the (n, N, r + k) stack of with_tangents' Y, else
        None, and errors[i] is None or the exception that refuses row i
        (its outputs NaN): a HolomorphyError or DomainError of the fields
        at its start point or after a step, a DivergenceError, or a
        FlowError when |w_i|_1 exceeds max_time.  A row takes
        max(1, ceil(|w_i|_1 steps_per_unit)) steps of size 1/nsteps_i;
        without tangents a row with w_i = 0 takes none.
        """
        cfg, frame, k = self.cfg, self.frame, self.k
        P, W = np.asarray(P, dtype=float), np.asarray(W, dtype=complex)
        dZ0 = None if dZ0 is None else np.asarray(dZ0, dtype=complex)
        n, N = len(P), frame.chart.N
        if P.ndim != 2 or P.shape[1] != 2 * N:
            raise ValueError(f"points must have shape (n, {2 * N}), got {P.shape}")
        if W.shape != (n, k):
            raise ValueError("one complex time entry per field")
        errors = [None] * n
        scale = np.abs(W[:, 0])
        for a in range(1, k):
            scale = scale + np.abs(W[:, a])
        # rows that take no step raise these once their start point passes
        # the holomorphy check
        late = {i: FlowError(f"|w| = {scale[i]:g} exceeds max_time {cfg.max_time:g}")
                for i in np.flatnonzero(scale > cfg.max_time)}
        late.update((i, ValueError("cannot convert float NaN to integer"))
                    for i in np.flatnonzero(np.isnan(scale)))
        stepping = scale <= cfg.max_time
        nsteps = np.zeros(n, dtype=int)
        nsteps[stepping] = np.maximum(1, np.ceil(scale[stepping] * cfg.steps_per_unit))
        # state rows [z; Y^T]: Y' = (sum_a w_a dZ_a/dz) Y, plus Z_a in the
        # column of dz/dw_a
        z = (P[:, 0::2] + 1j * P[:, 1::2])[:, None]
        if dZ0 is None:
            nsteps[scale == 0.0] = 0
            state, blocks = z, ("Z",)
        else:
            r = dZ0.shape[2]
            state = np.concatenate([z, np.swapaxes(dZ0, 1, 2),
                                    np.zeros((n, k, N), dtype=complex)], axis=1)
            blocks = ("Z", "dZ")
        # the state at the start of each step is checked by its k1 call
        checked = ("res", *blocks) if frame.checks_holomorphy else blocks
        times = [None, None]     # the rows of the last call and their W

        def refuse(rows, refused):
            for j, err in refused.items():
                errors[rows[j]] = err
            if not refused:
                return None
            keep = np.ones(len(rows), dtype=bool)
            keep[list(refused)] = False
            return keep

        def velocity(rows, y, stage):
            vals, refused = frame.at(_complex_to_real(y[:, 0]),
                                     checked if stage == 0 else blocks)
            if rows is not times[0]:
                times[:] = rows, W[rows][:, None]
            Z, Wr = vals["Z"], times[1]
            if dZ0 is None:
                return Wr @ Z, refuse(rows, refused)
            A = (Wr @ vals["dZ"].reshape(len(rows), k, N * N)).reshape(-1, N, N)
            out = np.empty_like(y)
            out[:, :1] = Wr @ Z
            out[:, 1:] = y[:, 1:] @ np.swapaxes(A, 1, 2)
            out[:, 1 + r:] += Z
            return out, refuse(rows, refused)

        def after_step(rows, y):
            far = np.abs(y[:, 0]).max(axis=1) > cfg.divergence_bound
            if not far.any():
                return None
            return refuse(rows, {j: DivergenceError(
                f"trajectory exceeded bound {cfg.divergence_bound:g}")
                for j in np.flatnonzero(far)})

        # a state that overflows within a step is refused by the bound after it
        with np.errstate(over="ignore", invalid="ignore"):
            state = _rk4(velocity, state, 1.0 / np.maximum(nsteps, 1), nsteps,
                         after_step)
        # the end points, and the start points of rows that took no step
        if frame.checks_holomorphy:
            rows = np.flatnonzero([err is None for err in errors])
            refuse(rows, frame.at(_complex_to_real(state[rows, 0]), ("res",))[1])
        for i, err in late.items():
            errors[i] = errors[i] or err
        failed = [err is not None for err in errors]
        state[failed] = complex(np.nan, np.nan)
        Y = None if dZ0 is None else np.swapaxes(state[:, 1:], 1, 2)
        return _complex_to_real(state[:, 0]), Y, errors


def flow_complex_multi(fields, p, w, cfg: FlowConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Flow from p for complex time vector w along holomorphic fields:
    integrates dz/ds = sum_a w_a Z_a(z) over s in [0, 1].

    Holomorphy of every field is checked at the start point and after
    every RK4 step; the result is holomorphic in w."""
    return ComplexFlow(fields, cfg)(p, w)


def flow_complex(V: VectorField, p, w: complex,
                 cfg: FlowConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Complex-time flow of a single holomorphically-extendable field."""
    return flow_complex_multi([V], p, [w], cfg)


# ---------------------------------------------------------------------------
# numerical inversion


def numerical_jacobian(F, x, h: float) -> np.ndarray:
    """Central-difference Jacobian of a vector map: the oracle for exact
    derivatives, and the fallback for maps that come without one."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([(np.asarray(F(x + dx)) - np.asarray(F(x - dx))) / (2.0 * h)
                            for dx in h * np.eye(len(x))])


_FD_STEP = 1e-6


def _row_norms(R) -> np.ndarray:
    """The 2-norm of each row, summed column by column so that a row's
    norm does not depend on the rows stacked with it."""
    total = np.zeros(len(R))
    for col in np.asarray(R, dtype=float).T:
        total = total + col * col
    return np.sqrt(total)


def solve_rows(A, B):
    """np.linalg.solve over a stack of systems, and the mask of the rows
    whose matrix is singular (their solutions NaN).  Each row is solved as
    it would be alone."""
    try:
        return np.linalg.solve(A, B), np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.full(np.broadcast_shapes(A.shape[:-1], B.shape[:-1]) + B.shape[-1:], np.nan)
    bad = np.zeros(len(A), dtype=bool)
    for i in range(len(A)):
        try:
            out[i] = np.linalg.solve(A[i:i + 1], B[i:i + 1])[0]
        except np.linalg.LinAlgError:
            bad[i] = True
    return out, bad


@dataclass
class NewtonRows:
    """The outcome of newton_rows, one entry per row."""

    x: np.ndarray          # (n, D) the last iterate
    values: np.ndarray     # (n, d) F at x, as the map returned it
    jac: np.ndarray        # (n, d, D) dF at x, as the map returned it
    errors: list           # None, or the exception that refuses the row
    iters: np.ndarray      # Newton steps taken (Jacobians solved)
    halvings: np.ndarray   # step halvings over all of them


def newton_rows(FJ, targets, x0, cfg: FlowConfig = DEFAULT_CONFIG) -> NewtonRows:
    """Solve F(x_i) = target_i for every row i by damped Newton in lockstep.

    ``FJ(X)`` maps rows X (n, D) to (values (n, d), Jacobians (n, d, D),
    errors), with errors[i] None or the exception that refuses row i.  The
    start rows and every trial are evaluated once: an accepted trial's
    Jacobian is the next step's, and ``values``/``jac`` of the result are
    F and dF at the returned ``x``, exactly as the map returned them.  Each
    row runs the steps newton_inverse describes, with its own halvings and
    convergence test, so it ends as it would alone: a refused start refuses
    the row with its exception, a trial that the map refuses or that does
    not lower the residual halves only that row's step, and a row that
    finds no descent step or does not converge within the budget gets a
    NewtonError.
    """
    X = np.array(x0, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n = len(X)
    iters, halvings = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    values, J, errors = FJ(X)
    values, J, errors = np.array(values, dtype=float), np.array(J, dtype=float), list(errors)
    res = values - targets
    best = _row_norms(res)
    live = np.array([err is None for err in errors], dtype=bool)

    def refuse(rows, make):
        for i in rows:
            errors[i] = make(i)
        live[rows] = False

    for _ in range(cfg.newton_max_iter):
        live &= ~(best < cfg.newton_tol)
        rows = np.flatnonzero(live)
        if not len(rows):
            break
        steps, singular = solve_rows(J[rows], -res[rows][..., None])
        refuse(rows[singular], lambda i: NewtonError("Jacobian is numerically singular"))
        rows, steps = rows[~singular], steps[~singular, :, 0]
        if not len(rows):
            continue
        iters[rows] += 1
        lam = np.ones(len(rows))
        pending = np.ones(len(rows), dtype=bool)
        for _ in range(10):
            idx = rows[pending]
            trial = X[idx] + lam[pending, None] * steps[pending]
            tvalues, tJ, terrors = FJ(trial)
            tres = tvalues - targets[idx]
            tnorm = _row_norms(tres)
            better = np.array([err is None for err in terrors], dtype=bool)
            better &= tnorm < best[idx]
            won = idx[better]
            X[won], values[won], J[won] = trial[better], tvalues[better], tJ[better]
            res[won], best[won] = tres[better], tnorm[better]
            halvings[idx[~better]] += 1
            slot = np.flatnonzero(pending)
            lam[slot[~better]] *= 0.5
            pending[slot[better]] = False
            if not pending.any():
                break
        refuse(rows[pending], lambda i: NewtonError(
            f"no descent step found (residual {best[i]:.3e})"))
    refuse(np.flatnonzero(live & ~(best < cfg.newton_tol)), lambda i: NewtonError(
        f"did not converge in {cfg.newton_max_iter} iterations "
        f"(residual {best[i]:.3e})"))
    return NewtonRows(X, values, J, errors, iters, halvings)


def newton_inverse(F, target, x0, cfg: FlowConfig = DEFAULT_CONFIG,
                   jac=None) -> np.ndarray:
    """Solve F(x) = target by damped Newton: the one-row view of newton_rows.

    ``jac(x)`` gives the Jacobian of F at x; without it the Jacobian is
    taken by central differences with step 1e-6.  Both are evaluated at the
    start and at every trial point.  Steps are halved (up to ten times)
    until the residual decreases; failure to converge within the iteration
    budget or a numerically singular Jacobian raises NewtonError.
    """
    if jac is None:
        def jac(x):
            return numerical_jacobian(F, x, _FD_STEP)

    d = len(np.atleast_1d(target))

    def rows(X):
        try:
            return (np.asarray(F(X[0]), dtype=float)[None],
                    np.asarray(jac(X[0]), dtype=float)[None], [None])
        except (FlowError, ValueError) as err:
            return np.full((1, d), np.nan), np.full((1, d, X.shape[1]), np.nan), [err]

    out = newton_rows(rows, np.asarray(target, dtype=float)[None],
                      np.asarray(x0, dtype=float)[None], cfg)
    _raise_first(out.errors)
    return out.x[0]
