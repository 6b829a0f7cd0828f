"""Flows of vector fields, matrix exponentials, and complexified flows.

Flows use an explicit Runge-Kutta method of order 8: the 12-stage
Dormand-Prince 8(5,3) of DOP853 (Hairer-Norsett-Wanner I, II.5).  Real
flows (``flow_real``, which no CLI op runs: the demos' and the tests'
reference) take a fixed count of max(1, ceil(|t| steps_per_unit)) steps.
Each ambient complex flow row takes the count its own summed DOP853 error
estimate asks for, at most that one.  The count rule belongs to the
``FlowConfig``, not to the fields: ``step_limit`` bounds a row's count,
``recount`` re-chooses it from the estimate of a run, and ``settle`` is
the one count loop, which runs rows again until no count changes.  It
serves the plain flows (``ComplexFlow.chosen``) and the Cauchy Newton,
whose runs freeze the counts so as to invert one smooth discrete map
(internal numerical differentiation, Bock 1981).  Complex time is
supported on two routes:

* matrix-group data, where the flow of a left-invariant field is the exact
  product g exp(w V) and complex w costs nothing extra, and
* ambient fields whose complexification satisfies the Cauchy-Riemann
  equations in the chart, integrated with complex arithmetic on the N
  holomorphic components.  Holomorphy is the computable sufficient condition
  for the flow to extend; fields that fail it are refused.

Every route also gives exact derivatives of the flow map.  On a matrix group
the Frechet derivatives L(X, E) ride on exp(X)'s own Taylor sum and
squarings (Al-Mohy & Higham 2009), so that exp(X) is matrix_exp(X) and
the derivative's points are the flow's to the last bit.  Ambient complex
flows step the tangent columns, and the columns of the derivatives in the
complex times, in the same Runge-Kutta loop as the trajectory (the
variational equations, Hairer-Norsett-Wanner I.14): the exact derivative
of the discrete map.
The normal form's straightening map phi(z, w) is one such flow.

One Runge-Kutta loop (``_rk``) steps every flow, over a stack of rows that
each have their own step size and step count.  ``ComplexFlow.rows`` runs
the ambient complex flows of a whole stack in it: one pass per stage of
the stage tape, the composition of the fields' jets (``jet_blocks``) that
lays out what a stage reads (``_HolomorphicFrame``, a
``geometry.Composition``), gives Z, its holomorphic Jacobian
dZ/dz and the Cauchy-Riemann differences whose hypot is twice |dZ/dzbar|
(``cr_residuals``), so holomorphy is checked at the
start point, at every stage state and at the end point (12 states a step),
and on each step's path where a row takes too few steps for 256 states per
unit of |w|; a row that diverges (at a stage state or a step's end), leaves the
holomorphic region, exceeds MAX_TIME or faults is refused alone, with the
tape's own error: its DomainError, naming the node and the point, or a
HolomorphyError from the tape's residual.  ``flow_complex_multi`` is its
one-row view.  A refusal has one form, in the loop as everywhere in cgsys:
the row's first error goes into the per-row list and its values turn NaN
where it is refused, and the NaN row steps on with the others to its
count; a row whose start is not finite takes no step.  Nor does a row
with w = 0, with or without tangent columns: its flow is the identity,
so it reads the tape once at its start, where dz/dw_a is Z_a.
``newton_rows`` refuses a row in the same form: it keeps the row's first
error, and the row's solution, values, Jacobian and estimate come out NaN.

Most of these flows take one or two steps of a few rows, so a stage's
cost is its count of numpy calls, and the loop keeps it small without
changing a stage's arithmetic.  One buffer holds k0 and the stage
differences; a stage sum is one product of its tableau coefficients with
the buffer's columns and one running sum (``np.add.accumulate``), which
adds left to right as a loop does, where a reduction could sum pairwise
and round otherwise; the shaped coefficients are made once per state
layout.  ``ComplexFlow.rows`` makes what depends only on the row set (the
rows' W and labels, the velocity array and its views, the Hermite path's
positions and weights) once per set, and tests a whole stack against
DIVERGENCE_BOUND and HOLOMORPHY_TOL at once: the per-row tests and the
errors are made only when that test fails.  A call in which no row steps
reads the tape once, at the start points, and builds nothing for steps.

The matrix-group maps take stacks of rows: ``complexified_flow_matrix``
and ``complexified_flow_jacobian`` only those, ``matrix_exp`` (the view of
``_exp_frechet`` with no directions) one matrix or a stack.  Each matrix
gets its own scaling; every row adds every Taylor term until one term is
zero in every row, and a row's terms after its own zero ones are zeros
that change no bit, so a row comes out as it would alone.  A stack at
rest (every Newton start of a group query, at u = 0) takes no term.  The
per-row error lists are made only where a row is refused.
``newton_rows``, the one
Newton of cgsys, runs damped Newton over stacked rows in lockstep, each
row with its own step halvings and convergence test, on one map that
returns the values, the exact Jacobians and an error estimate together:
every start row and trial is evaluated once (an accepted trial's Jacobian
is the next step's), F, dF and the estimate at the solutions come back as
the map gave them, and a wide system (a level set of U) takes minimum-norm
steps.  Stacked maps report the error that refuses a row beside the
values, so one failing row fails alone.

Everything is pure: configs are read-only shared data and independent
trajectories or Newton solves can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, reduce

import numpy as np

from .expr import Const, Expr, Table, Var, add, mul
from .geometry import (
    ComplexChart, Composition, Span, VectorField, jet_blocks, to_chart, to_complex,
)

__all__ = [
    "FlowConfig", "FlowError", "DivergenceError", "HolomorphyError",
    "NewtonError", "EmbeddingError",
    "flow_real", "matrix_exp",
    "MatrixGroupSpec", "complexified_flow_matrix", "complexified_flow_jacobian",
    "left_invariant_fields", "ComplexFlow", "flow_complex_multi",
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
    """The numerical settings of flows and Newton that callers set: the
    CLI and ``[config]`` (steps_per_unit, newton_tol) and the level-set
    search (newton_tol, newton_max_iter)."""

    steps_per_unit: int = 32
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.steps_per_unit < 1:
            raise ValueError("steps_per_unit must be at least 1")

    def with_(self, **kw) -> "FlowConfig":
        return replace(self, **kw)

    @property
    def step_tol(self) -> float:
        """The summed error estimate a complex flow row may reach:
        newton_tol * STEP_TOL_FRACTION."""
        return self.newton_tol * STEP_TOL_FRACTION

    def step_limit(self, W) -> np.ndarray:
        """Each row's upper limit on its step count for the complex times W
        (n, k), max(1, ceil(|w|_1 steps_per_unit)), and 0 for a row that
        takes no step because |w|_1 is not finite or exceeds MAX_TIME.  A
        row with w = 0 has the limit 1 and keeps that count, although
        ``ComplexFlow.rows`` takes no step for it: its flow is the identity."""
        scale = _l1_norms(np.asarray(W, dtype=complex))
        stepping = scale <= MAX_TIME
        limit = np.maximum(1, np.ceil(np.where(stepping, scale, 0.0) * self.steps_per_unit))
        return np.where(stepping, limit, 0).astype(int)

    def recount(self, counts, estimates, limit) -> np.ndarray:
        """The count rule: a row below its ``limit`` whose run at ``counts``
        gave an estimate above ``step_tol``, or NaN (a refused run), takes
        the count the estimate's 7th-order decay predicts, with a margin, at
        least one step more and at most the limit; the others keep theirs.
        Counts only grow, so re-running the rows whose count changed ends."""
        estimates = np.where(np.isnan(estimates), np.inf, estimates)
        with np.errstate(over="ignore", invalid="ignore"):
            grow = np.ceil(counts * STEP_MARGIN * (estimates / self.step_tol) ** (1 / 7))
            wanted = np.minimum(limit, np.maximum(counts + 1, grow))
        return np.where((counts < limit) & (estimates > self.step_tol), wanted, counts).astype(int)

    def settle(self, limit, run) -> np.ndarray:
        """The one count loop.  Every row first runs at PILOT_STEPS steps,
        at most its ``limit`` (n,), then again while ``recount`` changes its
        count: ``run(rows, counts)`` runs the rows ``rows`` (indices, all of
        them in order the first time, also when there are none) at
        ``counts`` and returns their estimates and limits; a row whose limit
        is at most its count keeps it.  Returns the counts, at which each
        row ran last."""
        counts = np.minimum(PILOT_STEPS, limit)
        rows = np.arange(len(counts))
        while True:
            at = counts[rows]
            counts[rows] = self.recount(at, *run(rows, at))
            rows = rows[counts[rows] != at]
            if not len(rows):
                return counts


DEFAULT_CONFIG = FlowConfig()
# the largest |t| of a real flow and |w|_1 of a complex one, the bound on
# |state| past which a trajectory is refused as divergent, and the largest
# Cauchy-Riemann residual of a field a complex flow accepts
MAX_TIME = 16.0
DIVERGENCE_BOUND = 1e6
HOLOMORPHY_TOL = 1e-8
# how far an entry off a group's coordinate pattern may drift from its base
EMBEDDING_TOL = 1e-9
# the most squarings matrix_exp takes after a Taylor sum that did not stop
MAX_SQUARINGS = 26
# complex flows: the fraction of newton_tol that a row's summed error
# estimate may reach, the count a row starts from, the margin on a
# predicted count, and the holomorphy reads a row takes per unit of |w|_1
STEP_TOL_FRACTION = 0.01
PILOT_STEPS = 1
STEP_MARGIN = 1.1
HOLOMORPHY_READS = 256


# Dormand-Prince 8(5,3), the 12-stage 8th-order method of DOP853 (Hairer,
# Norsett & Wanner I, II.5): its nodes c, the rows of its matrix A as
# {column: entry} (the other entries are zero) and its weights b
_DP8_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
          0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
          0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
_DP8_A = (
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
)
_DP8_B = {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
          7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
          10: 0.20136540080403034, 11: 0.04471061572777259}
# DOP853's embedded error estimators E3 and E5, the differences of the
# weights b from those of its 3rd- and 5th-order companions: their nonzero
# entries (E3[12] = E5[12] = 0, so the estimate needs no stage after the end)
_DP8_E3 = {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
           7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
           10: 0.20136540080403034, 11: 0.02265179219836082}
_DP8_E5 = {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
           7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
           10: 0.08192320648511571, 11: -0.022355307863886294}
# the sums of the stages after the first, then of the step's end: the
# columns of their nonzero entries in column order and the coefficients,
# c_i on k0 (the end sums k0 itself), a_ij or b_j on k_j - k0 for j >= 1;
# and DOP853's error estimators [E5; E3] at j = 5..11, their nonzero
# entries with j >= 1
_DP8_SUMS = tuple((np.array([0] + [j for j in row if j]),
                   np.array([c] + [a for j, a in row.items() if j]))
                  for c, row in zip(_DP8_C[1:] + (1.0,), _DP8_A[1:] + (_DP8_B,)))
_DP8_E = np.array([[E[j] for j in range(5, 12)] for E in (_DP8_E5, _DP8_E3)])


@cache
def _stage_sums(ndim: int):
    """``_DP8_SUMS`` with each coefficient vector shaped to multiply the
    columns of K that it reads, for a state of ndim axes, and ``_DP8_E``
    shaped to multiply K's point columns: made once per ndim."""
    return ([(cols, a.reshape((-1,) + (1,) * ndim)) for cols, a in _DP8_SUMS],
            _DP8_E.reshape(_DP8_E.shape + (1,) * (ndim - 1)))


def _rk(velocity, state, h, nsteps, guard, error=None, path=None):
    """The one explicit Runge-Kutta loop, over the DP8 tableau and a stack
    of rows: row i of ``state`` takes nsteps[i] steps of size h[i] (``h``
    and ``nsteps`` are arrays over the rows).
    ``velocity(rows, y)`` returns the velocities at the states y of the
    rows ``rows`` (indices into state), one call per stage, which are read
    before its next call, and ``guard(rows, y)`` sees every later stage
    state before its call and every step's end.  ``rows`` is the same
    object from one step to the next until a count ends, so a callback can
    keep what depends only on the row set.  ``path(rows, y, end, hh, k0,
    k1)``, if given, sees each step, with k1 the velocity of the stage at
    c = 1.  A callback may raise to abort the whole stack, or refuse a row
    by writing NaN into its velocity or into its state y (or end); the NaN
    row steps on with the others, so every row leaves only when it has
    taken its count, and the loop stops early once every row still stepping
    is NaN.

    The stage sums run around the first stage's k0, over the nonzero
    entries of A and b in column order: y + h (c_i k0 + sum_j a_ij (k_j - k0))
    and y + h (k0 + sum_j b_j (k_j - k0)), j >= 1.  A's rows sum to c and
    b sums to 1 (to the rounding of the literals), so this is the tableau,
    and a constant field steps exactly.  One buffer K (12, rows, ...) per
    row set holds k0 and the differences k_j - k0, each written as its
    velocity comes; a stage sum is one product of its coefficients with
    the columns of K it reads and one running sum over them
    (``np.add.accumulate``), which adds left to right as a loop of
    ``total = total + a * k_j`` does.  No reduction forms these sums:
    ``np.add.reduce`` (so ``sum``, ``dot``, ``einsum``) may sum pairwise,
    in another order, and round otherwise.

    Given ``error`` (n,), each step adds to error[i] DOP853's local error
    estimate of row i (Hairer-Norsett-Wanner I, II.5 and II.10) on the
    point column ``state[i, 0]``: with e5 = h sum E5_j k_j and
    e3 = h sum E3_j k_j, |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2) in the
    Euclidean norm (0 where both vanish), the same stage differences
    summed as the step is, from K.  The sum over a row's steps bounds its
    global error to the order the steps' errors add up.
    """
    ends = set(nsteps.tolist())
    column = (slice(None),) + (None,) * (state.ndim - 1)
    sums, E = _stage_sums(state.ndim)
    for s in range(max(ends, default=0)):
        if not s or s in ends:   # the rows that take more than s steps
            rows = np.flatnonzero(nsteps > s)
            hh = h[rows][column]
            K = np.empty((len(_DP8_C), len(rows)) + state.shape[1:], dtype=state.dtype)
        y = state[rows]
        if np.isnan(y).all():    # every row still stepping was refused
            break
        K[0] = velocity(rows, y)     # k0, then k_j - k0 for j >= 1
        for i, (cols, a) in enumerate(sums, 1):
            terms = a * K.take(cols, axis=0)
            if i == len(K):      # the step's end, which sums k0 itself
                terms[0] = K[0]
            arg = y + hh * np.add.accumulate(terms)[-1]
            guard(rows, arg)
            if i < len(K):
                np.subtract(velocity(rows, arg), K[0], out=K[i])
        if path is not None:
            path(rows, y, arg, hh, K[0], K[0] + K[-1])
        if error is not None:
            e = hh[:, 0] * np.add.accumulate(E * K[5:, :, 0], axis=1)[:, -1]
            e5, e3 = (np.abs(e) ** 2).reshape(2, len(rows), -1).sum(axis=2)
            with np.errstate(invalid="ignore"):
                error[rows] += np.where(e5 > 0.0, e5 / np.sqrt(e5 + 0.01 * e3), 0.0)
        state[rows] = arg
    return state


def _divergence(y) -> DivergenceError:
    """The error that refuses a trajectory state y beyond DIVERGENCE_BOUND
    or not finite."""
    return DivergenceError(f"trajectory exceeded bound {DIVERGENCE_BOUND:g}"
                           if np.isfinite(y).all() else "trajectory state is not finite")


def flow_real(V: VectorField, p, t: float, cfg: FlowConfig = DEFAULT_CONFIG):
    """The flow of V for time t from p: the solution of dg/ds = V(g) in
    max(1, ceil(|t| steps_per_unit)) steps of ``_rk``.

    ``p`` is one point (2N,) or a stack of rows (n, 2N), stepped together by
    V's compiled components.  DIVERGENCE_BOUND applies to the start point
    (also at t = 0) and to every stage state and step end; a state beyond
    it or not finite raises DivergenceError.
    """
    p = np.asarray(p, dtype=float)
    if abs(t) > MAX_TIME:
        raise FlowError(f"|t| = {abs(t):g} exceeds max_time {MAX_TIME:g}")
    state = p.reshape(-1, p.shape[-1]).copy()

    def velocity(_, state):
        return V.program(state)

    def guard(_, state):
        if not np.max(np.abs(state), initial=0.0) <= DIVERGENCE_BOUND:
            raise _divergence(state)

    guard(None, state)
    if t != 0.0:
        nsteps = max(1, math.ceil(abs(t) * cfg.steps_per_unit))
        state = _rk(velocity, state, np.full(len(state), t / nsteps),
                    np.full(len(state), nsteps), guard)
    return state.reshape(p.shape)


def matrix_exp(A) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated Taylor sum.

    ``A`` is one square matrix or a stack of them (n, d, d).  Each matrix is
    scaled to norm <= 1/2 by its own power of two 2^-s, s the exact
    ceil(log2(2 ||A||_1)) that ``_scaling`` reads off frexp, and its series
    runs to degree 16 (remainder below double rounding).  The sum stops
    once every row's term is exactly zero; a row whose own terms are zero
    adds only zeros, so each matrix stops where its own term is zero, which
    makes the result exact for nilpotent input, and a stack of zero
    matrices is I with no term at all.  A row of a stack comes out as it
    would alone.  Each of the s squarings can double the relative rounding
    u = 2^-53 of the Taylor value, so a matrix whose series did not
    terminate comes out NaN where 2^s u would exceed 2^-27 (s >
    MAX_SQUARINGS = 26, a 1-norm above 2^25): a value with fewer than 26
    correct bits is not returned.  A matrix whose doubled norm is not
    finite comes out NaN too; the squarings of a nilpotent one may overflow
    to inf.  It is the view of ``_exp_frechet`` with no directions, which
    adds no work to a term.
    """
    A = np.asarray(A)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError("matrix_exp needs a square matrix or a stack of them")
    if A.ndim == 2:
        return matrix_exp(A[None])[0]
    return _exp_frechet(A, A[:0])[0]


def _scaling(A):
    """The squaring count s (n,) of each matrix of the stack A (n, d, d),
    the least s >= 0 with 2^-s ||A_i||_1 <= 1/2, and whether twice the
    norm is finite (where it is not, no power of two scales the matrix).

    s is ceil(log2(2 ||A_i||_1)) exactly: frexp gives twice the norm as
    m 2^e with 1/2 <= m < 1, so s is e, or e - 1 where m = 1/2.  A rounded
    log2 is not exact: it maps 2^e (1 + 2^-52) to e for e >= 4 and leaves
    the scaled norm just above 1/2."""
    with np.errstate(over="ignore", invalid="ignore"):
        # twice each matrix's 1-norm, its largest absolute column sum
        colsum = np.abs(A[:, 0])
        for i in range(1, A.shape[-1]):
            colsum = colsum + np.abs(A[:, i])
        twice = colsum.max(axis=1, initial=0.0) / 0.5
    mantissa, exponent = np.frexp(twice)
    s = np.where((twice > 1.0) & (twice < np.inf), exponent - (mantissa == 0.5), 0)
    return s, np.isfinite(twice)


def _exp_frechet(A, D):
    """exp(A_i) of each matrix of the stack A (n, d, d), by matrix_exp's
    rules, and its Frechet derivatives L(A_i, D_b) in the k directions D
    (k, d, d) that the rows share: (E (n, d, d), L (n, k, d, d)).

    The derivatives ride on the exponential's own Taylor sum and squarings
    (Al-Mohy & Higham 2009; Higham, Functions of Matrices, 10.6): with
    B = A 2^-s scaled by A's own power of two (``_scaling``), the term
    T_j = T_(j-1) B / j has the derivatives L_j = (T_(j-1) D 2^-s +
    L_(j-1) B) / j, and each squaring E <- E E takes L <- E L + L E.  Each
    row holds T and the L_b side by side, [T | L_1 .. L_k]; read as the
    stack of the k + 1 blocks' rows, it multiplies B in one product per
    row, whose T rows are T B as matrix_exp forms it, and T D_b is one
    product for all rows and directions.  A squaring is one product of the
    stacked [E; L_b] with E and one of E with the L_b side by side.  So E
    is matrix_exp(A) to the last bit, and without directions this is
    matrix_exp's own work.

    Every row adds every term, and the sum stops at the first term that is
    exactly zero in every row, one test of the whole stack.  A row whose
    terms (T and every L_b) are all zero has only +-0 terms after them, as
    B and D are finite there (a row with no finite scaling is NaN, and a
    direction that is not finite makes every L term of every row NaN), and
    adding them changes no bit, as sums from I hold no -0.0: each row ends
    as if it had stopped at its own zero term, exact on nilpotent input.
    A stack of zero matrices with finite directions takes no term: its
    first term, I 0 and I D_b, is exact, so E = I and L_b = D_b + 0.0.  A
    row with no finite scaling is set to NaN, E and L, after the sum, so it
    takes the same NaN in a stack as alone.  A row's derivatives are
    NaN where their sum did not stop and s > MAX_SQUARINGS, and so is its
    exponential where its own sum did not stop; whether a sum stopped is
    read off the last term, only when a row is past that bound.
    """
    n, d, k = len(A), A.shape[-1], len(D)
    # each row's Taylor term and its derivatives side by side, (n, d, k + 1, d)
    out = np.zeros((n, d, k + 1, d), dtype=np.result_type(A.dtype, D.dtype, float))
    out[:, :, 0] = np.eye(d)
    beside = np.swapaxes(D, 0, 1).reshape(d, k * d)     # D_1 | .. | D_k
    if not A.any() and np.isfinite(beside).all():
        # the zero stack: its first term is exact and its second is zero
        out[:, :, 1:] = beside.reshape(d, k, d) + 0.0
        return out[:, :, 0], np.swapaxes(out[:, :, 1:], 1, 2)
    s, finite = _scaling(A)
    # 2^-s is exact and cannot overflow; a row with no finite scaling is NaN
    scale = np.where(finite, np.ldexp(1.0, -s), np.nan)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        B = A * scale
    term = out.copy()
    for j in range(1, 17):
        step = (term.reshape(n, d * (k + 1), d) @ B).reshape(term.shape)
        if k:
            # T 2^-s of every row stacked, times the directions side by side
            T = term[:, :, 0] * scale
            step[:, :, 1:] += (T.reshape(n * d, d) @ beside).reshape(n, d, k, d)
        term = step
        term /= j
        # a row past its own zero terms adds +-0 to sums that hold no -0.0
        out += term
        if not term.any():
            break
    if not finite.all():
        # one NaN, stacked or alone: the products' NaN sign depends on the stack
        out[~finite] = np.nan
    # squarings that would amplify rounding past 2^-27 (a sum that did not stop)
    far = s > MAX_SQUARINGS
    if far.any():
        nonzero = term.any(axis=(1, 3))
        if k:
            out[:, :, 1:][far & nonzero[:, 1:].any(axis=1)] = np.nan
        inexact = far & nonzero[:, 0]
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


def _scatter(out, rows, values):
    """``out`` with values[j] put at rows[j]: an array or a per-row list
    (of errors)."""
    if isinstance(out, list):
        for i, value in zip(rows, values):
            out[i] = value
    else:
        out[rows] = values
    return out


def _per_row_set(make):
    """``make(rows, *args)``, made again only for a new row set: ``_rk``
    passes the same ``rows`` object until a count ends."""
    last = [None, None]

    def get(rows, *args):
        if last[0] is not rows:
            last[:] = rows, make(rows, *args)
        return last[1]
    return get


def _l1_norms(W) -> np.ndarray:
    """|w|_1 of each row of W (n, k), summed column by column; inf where
    the sum overflows."""
    with np.errstate(over="ignore"):
        return reduce(np.add, np.abs(W).T)


def _accepted(errors) -> np.ndarray:
    """Per row of a per-row error list whether it holds None, read in one
    call where no row is refused."""
    if errors.count(None) == len(errors):
        return np.ones(len(errors), dtype=bool)
    return np.array([err is None for err in errors], dtype=bool)


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
        if Span(flat.T, basis=False).rank != len(self.basis):
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
        z = to_complex(v)
        M = np.zeros(z.shape[:-1] + self.base.shape, dtype=complex)
        M[(..., *zip(*self.positions))] = z
        return M

    def read_slots(self, M) -> np.ndarray:
        """The chart vector held in the coordinate slots of a complex matrix
        (of each matrix of a stack)."""
        return to_chart(np.asarray(M)[(..., *zip(*self.positions))])

    def unembed_rows(self, M):
        """Complex group matrices (n, m, m) -> their chart points, and per
        row None or the EmbeddingError that refuses an off-pattern or
        non-finite matrix (an exponential past matrix_exp's bounds).  The
        per-row errors are made only when a row is refused."""
        offset = np.asarray(M, dtype=complex) - self.base
        rest = offset.copy()
        rest[(..., *zip(*self.positions))] = 0.0
        finite = np.isfinite(offset).all(axis=(-2, -1))
        drift = np.max(np.abs(rest), axis=(-2, -1), initial=0.0)
        if (finite & (drift <= EMBEDDING_TOL)).all():
            return self.read_slots(offset), [None] * len(drift)
        errors = [None if ok and d <= EMBEDDING_TOL else EmbeddingError(
            f"matrix leaves the embedded coordinate pattern (drift {d:.3e})" if ok else
            "matrix exponential is not finite (overflow, or past matrix_exp's accuracy bound)")
            for ok, d in zip(finite, drift)]
        return self.read_slots(offset), errors

    def algebra_element(self, coeffs) -> np.ndarray:
        """sum_a coeffs_a E_a, over the last axis of coeffs."""
        coeffs = np.asarray(coeffs)
        total = np.zeros(coeffs.shape[:-1] + self.base.shape, dtype=complex)
        for a, E in enumerate(self.basis):
            total = total + coeffs[..., a, None, None] * np.asarray(E, dtype=complex)
        return total


def complexified_flow_matrix(spec: MatrixGroupSpec, g, V):
    """The complexified flow on a matrix group: (g, V) -> g exp(sum V_a E_a)
    over stacks of rows, the chart points g (n, 2N) and the k complex
    coefficients V (n, k), mapped back to chart coordinates.

    Returns (points (n, 2N), errors), errors[i] None or the EmbeddingError
    that refuses row i; a row comes out as it would in a stack of one.
    """
    return spec.unembed_rows(spec.embed(g) @ matrix_exp(spec.algebra_element(V)))


def complexified_flow_jacobian(spec: MatrixGroupSpec, g, V, dg, dV):
    """The flow points g exp(X), X = sum V_a E_a, and their exact real
    Jacobians, over stacks of rows as complexified_flow_matrix takes them.

    ``dg`` (n, 2N, r) holds chart tangent columns at each g and ``dV`` (k, s)
    complex coefficient columns of algebra directions, shared by the rows.
    Returns (points (n, 2N), Jacobians (n, 2N, r + s), errors) with errors
    as complexified_flow_matrix gives them: column j of a Jacobian is
    dg_j exp(X), and column r + b is g L(X, D_b), with L the Frechet
    derivative of exp.  exp(X) and the L(X, D_b) come from one Taylor sum
    and its squarings (``_exp_frechet``), exact where the sum terminates,
    i.e. on nilpotent algebras; that exp(X) is matrix_exp(X) to the last
    bit, so the points and errors are complexified_flow_matrix's own.
    """
    M = spec.embed(g)
    dirs = spec.algebra_element(np.asarray(dV).T)
    E, L = _exp_frechet(spec.algebra_element(V), dirs)
    rows, n, r, s = len(M), spec.matrix_dim, np.shape(dg)[2], len(dirs)
    # column j: dg_j exp(X), the r tangent matrices stacked into one product
    # per row; column r + b: g L(X, D_b), one product with the L_b side by side
    tangent = spec.embed_tangent(np.swapaxes(dg, 1, 2)).reshape(rows, r * n, n) @ E
    beside = np.swapaxes(L, 1, 2).reshape(rows, n, s * n)
    frechet = np.swapaxes((M @ beside).reshape(rows, n, s, n), 1, 2)
    J = spec.read_slots(np.concatenate([tangent.reshape(rows, r, n, n), frechet], axis=1))
    points, errors = spec.unembed_rows(M @ E)
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


def _stage_terms(jets) -> dict[str, np.ndarray]:
    """What a Runge-Kutta stage reads of the complexified fields, from
    their jets with the point axis last: Z as (re, im) pairs, the fields
    themselves; dZ_mu/dz_nu = DX[2 mu, 2 nu] + i DX[2 mu + 1, 2 nu] as
    pairs (``holomorphic_jacobians``); and the Cauchy-Riemann differences
    p and q of DX, sliced as ``cr_residuals`` slices it, whose hypot is
    twice |dZ/dzbar|.  Run once per structure on Terms (``Composition``)."""
    DX = jets["DX"]
    k, N = len(DX), DX.shape[1] // 2
    return {"Z": jets["X"],
            "dZ": np.stack([DX[:, 0::2, 0::2], DX[:, 1::2, 0::2]], axis=3).reshape(
                k, N, 2 * N, 1),
            "p": DX[:, 0::2, 0::2] - DX[:, 1::2, 1::2],
            "q": DX[:, 1::2, 0::2] + DX[:, 0::2, 1::2]}


class _HolomorphicFrame(Composition):
    """The stage tape of the complex flows: the composition of the fields'
    jets (``jet_blocks``) that lays out what a Runge-Kutta stage reads of
    the complexified fields Z_a = (xi_a - i J xi_a)/2 (``_stage_terms``),
    on one tape with the jets, whose instructions come first, so a row
    faults where the jets' own tape does.  ``at`` runs it over a stack of
    chart rows and, where ``checks_holomorphy``, checks holomorphy;
    ``residuals`` reads only the residuals.  It is made once, from the
    fields or from their jets' Table (``jet_blocks((), fields, chart)``),
    whose compiled tape a caller that has one shares.  Constant Jacobians
    have one residual everywhere, so ``checks_holomorphy`` is decided once,
    from the composition's constant entries.
    """

    def __init__(self, fields):
        if not isinstance(fields, Table):
            chart = fields[0].chart
            fields = Table(jet_blocks((), fields, chart), chart.names)
        super().__init__(fields, _stage_terms)
        self.shape = self.columns["p"][1][:2]
        # the entries' columns of Z, dZ/dz, p and q
        self._Z, self._dZ, self._p, self._q = (self.columns[name][0]
                                               for name in ("Z", "dZ", "p", "q"))
        p, q = self.constants[self._p], self.constants[self._q]
        self.checks_holomorphy = None in p + q or bool(
            self._worst(np.array([p]), np.array([q]))[0] > HOLOMORPHY_TOL)

    @staticmethod
    def _worst(p, q) -> np.ndarray:
        """Each row's largest residual 0.5 hypot(p, q) from its Cauchy-Riemann
        differences p and q (m, kNN); NaN residuals are skipped."""
        return np.fmax.reduce(0.5 * np.hypot(p, q), axis=1, initial=0.0)

    def residuals(self, X) -> np.ndarray:
        """Each chart row's largest Cauchy-Riemann residual from the tape
        at the rows X (m, 2N); NaN Jacobians (a row that is not finite or
        that the tape refuses) are skipped."""
        vals = self.rows(X)[0]
        return self._worst(vals[:, self._p], vals[:, self._q])

    def coefficients(self, zreal) -> np.ndarray:
        """Z (k, N) at one chart point: the one-row view of ``at``."""
        Z, _, refused = self.at(np.asarray(zreal, dtype=float)[None])
        _raise_first(refused.values())
        return Z[0]

    def at(self, X, labels=None):
        """The tape at the chart rows X (m, 2N): Z (m, k, N) and dZ/dz
        (m, k, N, N), complex views of its outputs, and a dict j -> the
        error that refuses row j (its outputs NaN): the tape's DomainError,
        naming row j as labels[j] (default j), or, where
        ``checks_holomorphy``, a HolomorphyError when its Cauchy-Riemann
        residual exceeds HOLOMORPHY_TOL.  The errors are made only for the
        rows refused."""
        vals, refused = self.rows(X, labels)
        (k, N), m = self.shape, len(vals)
        p, q = vals[:, self._p], vals[:, self._q]
        # one test for the whole stack, which a NaN residual fails too; the
        # rows are told apart only where it fails.  hypot <= 2 TOL decides as
        # 0.5 hypot <= TOL: the halving is exact above the subnormals
        if self.checks_holomorphy and m and not np.hypot(p, q).max() <= 2 * HOLOMORPHY_TOL:
            worst = self._worst(p, q)
            for j in (worst > HOLOMORPHY_TOL).nonzero()[0]:
                refused.setdefault(j, HolomorphyError(
                    f"field complexification violates the Cauchy-Riemann "
                    f"equations (residual {worst[j]:.3e} > {HOLOMORPHY_TOL:g}); "
                    "complex-time flow refused"))
        return (vals[:, self._Z].view(complex).reshape(m, k, N),
                vals[:, self._dZ].view(complex).reshape(m, k, N, N), refused)


class ComplexFlow:
    """Complex-time flows along a fixed list of holomorphic fields.

    The stage tape (``_HolomorphicFrame``) is made once here, or shared:
    ``fields`` may be the fields' compiled jet Table, whose tape it extends,
    or a stage tape already made.
    ``rows`` integrates a stack of trajectories of dz/ds = sum_a w_a Z_a(z)
    over s in [0, 1], row i with its own count of steps of its own size,
    all stepped together by the one Runge-Kutta loop ``_rk``, and with
    tangent columns also gives the exact derivative of the discrete flow
    map at those counts; every run returns each row's summed error
    estimate.  ``chosen``, and ``rows`` without counts, choose each row's
    count by the config's count loop (``FlowConfig.settle``), tangents and
    all: from PILOT_STEPS, raised while the estimate exceeds ``step_tol``
    = newton_tol * STEP_TOL_FRACTION (1/100), never above ``step_limit``,
    max(1, ceil(|w_i|_1 steps_per_unit)).  Holomorphy of every field is
    checked at the start point, at every stage state, at the end point and,
    where the stage states number fewer than ceil(HOLOMORPHY_READS
    |w_i|_1), at as many more states on each step's path.
    """

    def __init__(self, fields, cfg: FlowConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        self.frame = fields if isinstance(fields, _HolomorphicFrame) else _HolomorphicFrame(fields)

    def chosen(self, P, W, dZ0=None, labels=None):
        """The step counts of the count loop (``FlowConfig.settle``) over
        runs of ``rows``: a refused row runs again at its limit, and a row
        whose estimate wants more takes exactly the limit.  Rows are chosen
        independently, so a row gets the count it gets alone.  The tangent
        columns dZ0, if given, are stepped in the same runs.  Returns the
        counts and the outputs of ``rows`` from each row's last run."""
        P, W = np.asarray(P, dtype=float), np.asarray(W, dtype=complex)
        limit = self.cfg.step_limit(W)
        runs = []    # the outputs of the first run, which takes every row

        def run(rows, counts):
            out = self.rows(P[rows], W[rows], None if dZ0 is None else np.asarray(dZ0)[rows],
                            counts, rows if labels is None else labels[rows])
            if not runs:
                runs.append(out)
            else:
                for whole, part in zip(runs[0], out):
                    if whole is not None:    # Y without tangents
                        _scatter(whole, rows, part)
            return out[3], limit[rows]

        return self.cfg.settle(limit, run), runs[0]

    def rows(self, P, W, dZ0=None, nsteps=None, labels=None):
        """The flows from the chart rows P (n, 2N) for the complex times W
        (n, k), stepped together; row i comes out as it would alone.

        Returns (points (n, 2N), Y, errors, estimates): with complex tangent
        columns dZ0 (n, N, r) at the start points, Y is the (n, N, r + k)
        stack [dz/dz0 dZ0_i | dz/dw_1 ... dz/dw_k], stepped by the same
        steps as the points, else None, estimates[i] is row i's summed error
        estimate (``_rk``), and errors[i] is None or the first exception
        that refuses row i (its outputs NaN): a HolomorphyError or DomainError
        (naming row i as labels[i], default i) of the fields at its start
        point, a state it reads holomorphy at or its end point, a
        DivergenceError of a stage state, a step's end or the start point
        of a row that takes no step (a state beyond DIVERGENCE_BOUND or not
        finite), or a FlowError when |w_i|_1 exceeds MAX_TIME.  Row i takes
        nsteps[i] steps of size 1/nsteps[i], by default the count
        ``chosen`` picks for it, tangents and all.  A row with w_i = 0
        takes no step at any count, with or without tangents: it reads the
        tape once at its start point, where its d/dw_a column is Z_a, its
        dz/dz0 columns stay dZ0 and its estimate is 0, and the tape's error
        there comes before the bound's, as at a first stage.  A row refused
        inside the loop turns NaN where it is refused (its velocity, stage
        state or step end) and steps on; a start row that is not finite
        takes no step and is refused as not finite.

        The rows' W and labels, the velocity array (filled in place by
        ``np.matmul``) with its column views and the Hermite path's
        positions, labels and weights are made once per row set that
        ``_rk`` steps, not per stage or step, and only when a row steps.
        The bound and the Cauchy-Riemann residuals are tested once over
        the stack (a NaN fails both tests); only when a test fails are its
        rows told apart and their errors made.
        """
        if nsteps is None:
            return self.chosen(P, W, dZ0, labels)[1]
        frame, (k, N) = self.frame, self.frame.shape
        P, W = np.asarray(P, dtype=float), np.asarray(W, dtype=complex)
        dZ0 = None if dZ0 is None else np.asarray(dZ0, dtype=complex)
        n = len(P)
        if P.ndim != 2 or P.shape[1] != 2 * N:
            raise ValueError(f"points must have shape (n, {2 * N}), got {P.shape}")
        if W.shape != (n, k):
            raise ValueError("one complex time entry per field")
        errors = [None] * n
        labels = np.arange(n) if labels is None else labels
        scale = _l1_norms(W)
        # a start row that is not finite takes no step: the guard refuses
        # it; nor does a row with w = 0, whose flow is the identity
        finite = np.isfinite(P).all(axis=1)
        still = (scale == 0.0) & finite
        nsteps = np.where((0.0 < scale) & (scale <= MAX_TIME) & finite, nsteps, 0).astype(int)
        # state rows [z; Y^T]: Y' = (sum_a w_a dZ_a/dz) Y, plus Z_a in the
        # column of dz/dw_a
        z = to_complex(P)[:, None]
        r = 0 if dZ0 is None else dZ0.shape[2]
        if dZ0 is None:
            state = z.copy()     # _rk writes the state, and z may view P
        else:
            state = np.concatenate([z, np.swapaxes(dZ0, 1, 2),
                                    np.zeros((n, k, N), dtype=complex)], axis=1)

        def refuse(rows, refused, values=None):
            """Keep the first error of each row refused (j -> error, j
            indexing rows), and write NaN into its row of ``values``."""
            for j, err in refused.items():
                errors[rows[j]] = errors[rows[j]] or err
            if refused and values is not None:
                values[list(refused)] = np.nan

        @_per_row_set
        def row_set(rows):
            """The rows' W and labels, the velocity array and its point,
            tangent and d/dw columns."""
            out = np.empty((len(rows),) + state.shape[1:], dtype=complex)
            return W[rows][:, None], labels[rows], out, out[:, :1], out[:, 1:], out[:, 1 + r:]

        def velocity(rows, y):
            Wr, named, out, point, tangents, dw = row_set(rows)
            Z, dZ, refused = frame.at(to_chart(y[:, 0]), named)
            np.matmul(Wr, Z, out=point)
            if dZ0 is not None:
                A = (Wr @ dZ.reshape(len(rows), k, N * N)).reshape(-1, N, N)
                np.matmul(y[:, 1:], A.swapaxes(1, 2), out=tangents)
                dw += Z
            if refused:
                refuse(rows, refused, out)
            return out

        def guard(rows, y):
            # not |y| <= bound, which a NaN state fails too; the rows are
            # told apart only where the whole stack, never empty, fails
            if not np.abs(y[:, 0]).max() <= DIVERGENCE_BOUND:
                inside = np.maximum.reduce(np.abs(y[:, 0]), axis=1) <= DIVERGENCE_BOUND
                refuse(rows, {j: _divergence(y[j, 0]) for j in np.flatnonzero(~inside)}, y)

        @_per_row_set
        def path_set(rows, hh):
            """Each path state's row (j indexing rows), its label and the
            weights of the cubic at it: (1 - t)^2, 1 + 2t, t h, t^2, 3 - 2t
            and (1 - t) h."""
            m = extra[rows]
            at = np.repeat(np.arange(len(rows)), m)
            t = ((np.arange(len(at)) - np.repeat(np.cumsum(m) - m, m) + 1.0)
                 / np.repeat(m + 1.0, m))[:, None]
            h = hh[at, 0]
            return at, labels[rows[at]], ((1 - t) ** 2, 1 + 2 * t, t * h, t * t, 3 - 2 * t,
                                          (1 - t) * h)

        def path(rows, y, end, hh, k0, k1):
            at, named, (a, b, c, d, e, f) = path_set(rows, hh)
            if not len(at):
                return
            # (1 - t)^2 ((1 + 2t) y + t h k0) + t^2 ((3 - 2t) end - (1 - t) h k1)
            y0, k0, y1, k1 = (v[:, 0].take(at, axis=0) for v in (y, k0, end, k1))
            states = a * (b * y0 + c * k0) + d * (e * y1 - f * k1)
            refused = {}
            for j, err in frame.at(to_chart(states), named)[2].items():
                refused.setdefault(at[j], err)
            refuse(rows, refused, end)

        # a row reads holomorphy at its start point, its 12 stage states a
        # step and its end point; where that is fewer than
        # ceil(HOLOMORPHY_READS * |w|_1), each step adds ``extra`` states on
        # its path, the Hermite cubic from (y, k0) to (end, k1)
        extra = np.zeros(n, dtype=int)
        if frame.checks_holomorphy and nsteps.any():
            reads = np.ceil(HOLOMORPHY_READS * np.where(nsteps > 0, scale, 0.0))
            short = reads - 1 - 12 * nsteps
            more = short > 0
            extra[more] = np.ceil(short[more] / nsteps[more])

        # a stage sum that overflows is refused by the bound on its state, and
        # a tape read whose values overflow by the tests that follow it
        estimates = np.zeros(n)
        with np.errstate(over="ignore", invalid="ignore"):
            _rk(velocity, state, 1.0 / np.maximum(nsteps, 1), nsteps, guard, estimates,
                path if extra.any() else None)
            # the bound at the start points of the other rows that took no
            # step (the rows that stepped met it at every stage state and
            # step end); holomorphy at the end points, and at the start
            # points of those rows.  A row with w = 0 reads the tape here,
            # once, at its start: dz/dw_a is Z_a there, dz/dz0 stays dZ0 and
            # its estimate 0.  As at a first stage, the tape's errors come
            # first, then a Z that is not finite (the state z0 + h c_1 (0 Z)),
            # then the bound
            idle = (nsteps == 0) & ~still
            if idle.any():
                idle = np.flatnonzero(idle)
                guard(idle, state[idle])
            rows = np.flatnonzero(_accepted(errors))
            if not frame.checks_holomorphy:
                rows = rows[still[rows]]
            if len(rows):
                Z, _, refused = frame.at(to_chart(state[rows, 0]), labels[rows])
                refuse(rows, refused)
                at = still[rows]
                if at.any():
                    rest, Z = rows[at], Z[at]
                    refuse(rest, {j: _divergence(Z[j])
                                  for j in np.flatnonzero(~np.isfinite(Z).all(axis=(1, 2)))})
                    guard(rest, state[rest])
                    if dZ0 is not None:
                        state[rest, 1 + r:] = Z
        # a row past MAX_TIME keeps the error its start point met first
        for i in np.flatnonzero(~(scale <= MAX_TIME)):
            errors[i] = errors[i] or FlowError(
                f"|w| = {scale[i]:g} exceeds max_time {MAX_TIME:g}" if np.isfinite(scale[i])
                else f"|w| = {scale[i]:g} is not finite")
        if errors.count(None) < n:
            failed = ~_accepted(errors)
            state[failed], estimates[failed] = complex(np.nan, np.nan), np.nan
        Y = None if dZ0 is None else np.swapaxes(state[:, 1:], 1, 2)
        return to_chart(state[:, 0]), Y, errors, estimates


def flow_complex_multi(fields, p, w, cfg: FlowConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Flow from p for complex time vector w along holomorphic fields: the
    one-row view of ``ComplexFlow.rows``, raising what refuses the row.
    The result is holomorphic in w."""
    points, _, errors, _ = ComplexFlow(fields, cfg).rows(
        np.asarray(p, dtype=float)[None], np.asarray(w, dtype=complex)[None])
    _raise_first(errors)
    return points[0]


# ---------------------------------------------------------------------------
# numerical inversion


def numerical_jacobian(F, x, h: float) -> np.ndarray:
    """Central-difference Jacobian of a vector map: the tests' oracle for
    the exact derivatives; no solve in the package takes it."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([(np.asarray(F(x + dx)) - np.asarray(F(x - dx))) / (2.0 * h)
                            for dx in h * np.eye(len(x))])


def _row_norms(R) -> np.ndarray:
    """The 2-norm of each row, summed column by column so that a row's
    norm does not depend on the rows stacked with it.  A row of finite
    entries whose sum overflows is summed again scaled by the power of two
    of its largest entry."""
    R = np.asarray(R, dtype=float)
    with np.errstate(over="ignore"):
        norms = np.sqrt(reduce(np.add, (R * R).T, np.zeros(len(R))))
        over = np.isinf(norms) & np.isfinite(R).all(axis=1)
        if over.any():
            _, e = np.frexp(np.max(np.abs(R[over]), axis=1))
            norms[over] = np.ldexp(_row_norms(np.ldexp(R[over], -e[:, None])), e)
    return norms


def solve_rows(A, B):
    """np.linalg.solve over a stack of systems, and the mask of the rows
    whose matrix is singular (their solutions NaN).  Each row is solved as
    it would be alone.  Non-square systems get the minimum-norm
    least-squares solution pinv(A) B; none is singular (non-finite A: NaN)."""
    if A.shape[-1] != A.shape[-2]:
        finite = np.isfinite(A).all(axis=(-2, -1))[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            X = np.linalg.pinv(np.where(finite, A, 0.0)) @ B
        return np.where(finite, X, np.nan), np.zeros(len(A), dtype=bool)
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
    """The outcome of newton_rows, one entry per row; a refused row is NaN
    in ``x``, ``values``, ``jac`` and ``estimates``."""

    x: np.ndarray          # (n, D) the solution
    values: np.ndarray     # (n, d) F at x, as the map returned it
    jac: np.ndarray        # (n, d, D) dF at x, as the map returned it
    estimates: np.ndarray  # (n,) the error estimate at x, as the map returned it
    errors: list           # None, or the exception that refuses the row
    iters: np.ndarray      # Newton steps taken (Jacobians solved)
    halvings: np.ndarray   # step halvings over all of them


def newton_rows(FJ, targets, x0, cfg: FlowConfig = DEFAULT_CONFIG,
                polish: bool = False) -> NewtonRows:
    """Solve F(x_i) = target_i for every row i by damped Newton in lockstep.

    ``FJ(X, rows)`` maps rows X (n, D) to (values (n, d), Jacobians (n, d, D),
    errors, estimates (n,)), errors[i] None or the exception that refuses
    row i and estimates[i] the error estimate of its values (0 for an exact
    map); ``rows`` holds the indices of the evaluated rows among x0, so a
    map may keep per-row data (such as a frozen step count) fixed over
    trials.  The start rows and every trial are evaluated once: an accepted
    trial's Jacobian is the next step's, and ``values``/``jac``/``estimates``
    of the result are the map's outputs at the returned ``x``, exactly as it
    returned them.  Each row takes the steps newton_inverse describes
    (minimum-norm ones where d != D) with its own halvings and convergence
    test, so it ends as it would alone: a refused start refuses the row
    with its exception, a trial that the map refuses or that does not lower
    the residual halves only that row's step, and a row that finds no
    descent step or does not converge within the budget gets a NewtonError.
    A refused row keeps its first error and comes out NaN, as a row that
    ``ComplexFlow.rows`` refuses does.
    With ``polish`` each row takes one step more once its residual is below
    newton_tol, so that the residual of a start that solves a nearby map
    (the same equations flowed in fewer steps) is squared away, not just
    brought under the tolerance; a row keeps its point where that last step
    fails.
    """
    X = np.array(x0, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n = len(X)
    iters, halvings = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    values, J, errors, est = FJ(X, np.arange(n))
    values, J, est = (np.array(a, dtype=float) for a in (values, J, est))
    errors = list(errors)
    res = values - targets
    best = _row_norms(res)
    live = _accepted(errors)

    def refuse(rows, make):
        _scatter(errors, rows, [make(i) for i in rows])
        live[rows] = False

    owed = np.full(n, polish)    # rows that owe one step past newton_tol
    for _ in range(cfg.newton_max_iter):
        near = best < cfg.newton_tol
        last = near & owed & live
        owed &= ~last
        live &= ~near | last
        rows = np.flatnonzero(live)
        if not len(rows):
            break
        steps, singular = solve_rows(J[rows], -res[rows][..., None])
        # a row's step past newton_tol is its last, and it cannot refuse it
        live[rows[last[rows]]] = False
        refuse(rows[singular & live[rows]],
               lambda i: NewtonError("Jacobian is numerically singular"))
        rows, steps = rows[~singular], steps[~singular, :, 0]
        if not len(rows):
            continue
        iters[rows] += 1
        lam = np.ones(len(rows))
        pending = np.ones(len(rows), dtype=bool)
        for _ in range(10):
            idx = rows[pending]
            trial = X[idx] + lam[pending, None] * steps[pending]
            tvalues, tJ, terrors, test = FJ(trial, idx)
            tres = tvalues - targets[idx]
            tnorm = _row_norms(tres)
            better = _accepted(list(terrors)) & (tnorm < best[idx])
            won = idx[better]
            X[won], values[won], J[won] = trial[better], tvalues[better], tJ[better]
            est[won] = np.asarray(test)[better]
            res[won], best[won] = tres[better], tnorm[better]
            halvings[idx[~better]] += 1
            slot = np.flatnonzero(pending)
            lam[slot[~better]] *= 0.5
            pending[slot[better]] = False
            if not pending.any():
                break
        refuse(rows[pending & live[rows]], lambda i: NewtonError(
            f"no descent step found (residual {best[i]:.3e})"))
    refuse(np.flatnonzero(live & ~(best < cfg.newton_tol)), lambda i: NewtonError(
        f"did not converge in {cfg.newton_max_iter} iterations "
        f"(residual {best[i]:.3e})"))
    failed = [err is not None for err in errors]
    X[failed] = values[failed] = J[failed] = est[failed] = np.nan
    return NewtonRows(X, values, J, est, errors, iters, halvings)


def newton_inverse(F, target, x0, cfg: FlowConfig = DEFAULT_CONFIG, *,
                   jac) -> np.ndarray:
    """Solve F(x) = target by damped Newton: the one-row view of newton_rows.

    ``jac(x)`` gives the exact Jacobian of F at x; both are evaluated at
    the start and at every trial point.  Steps are halved (up to ten times)
    until the residual decreases; failure to converge within the iteration
    budget or a numerically singular Jacobian raises NewtonError.
    """
    d = len(np.atleast_1d(target))

    def rows(X, _):
        try:
            return (np.asarray(F(X[0]), dtype=float)[None],
                    np.asarray(jac(X[0]), dtype=float)[None], [None], [0.0])
        except (FlowError, ValueError) as err:
            return np.full((1, d), np.nan), np.full((1, d, X.shape[1]), np.nan), [err], [0.0]

    out = newton_rows(rows, np.asarray(target, dtype=float)[None],
                      np.asarray(x0, dtype=float)[None], cfg)
    _raise_first(out.errors)
    return out.x[0]
