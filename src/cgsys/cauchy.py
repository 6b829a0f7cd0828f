"""Construction of a gradient system from initial data on a CR submanifold.

Input: a parametrized submanifold M of a complex chart (2n + k parameters),
k initial vector fields tangent to M, and a way to flow them in complex
time, either as a matrix group (exact products g exp(V)) or as ambient
fields whose complexification is holomorphic in the chart.

The pipeline:

1. Transversality: at sample parameters the columns of dsigma together with
   the J-rotations of the initial fields must span 2n + 2k directions.
   ``solve`` draws one set of parameter samples (``param_samples``),
   evaluates the data's compiled table (``CRInitialData.table``) there once
   and checks transversality, tangency of the initial fields and their
   involutivity defect as reductions over its blocks.
2. F(p, u) flows sigma(p) for complex time i(u_1, ..., u_k); near M this is
   a diffeomorphism onto a neighbourhood, giving adapted coordinates (p, u).
3. For an ambient query q, damped Newton inverts F; the gradient map value
   is U(q) = -u.  (With this sign the line case on the complex plane with
   initial field d/dx yields U = -y, and for matrix groups U(g exp(-iV)) = V.)
   A query that Newton refuses keeps its error and goes on at (p, u) = NaN.
4. At every query, a refused one at NaN, the lifted frame h_a (initial
   fields transported invariantly in u) and the u-coordinate fields,
   rotated by the pulled-back complex structure, produce the matrices P and
   Q, A = P^-1 Q, and the extending fields

       xi_a = -J(d/du_a) + sum_b A[b, a] J(h_b),

   which satisfy dU_a(xi_b) = 0 and d^c U_a(xi_b) = delta_ab by
   construction and restrict to the initial fields on M.  J is pulled
   back once per query, Jt = dF^-1 J dF, and J h_b, J d/du_a and the J xi_a
   of the d^c identity are products with it.

dF is exact: on a matrix group the Frechet derivatives of exp(X) ride on
the exponential's own Taylor sum and squarings, which give F's points; for
ambient fields the tangent columns are stepped by the same 8th-order
Runge-Kutta loop as the trajectory, which is the exact derivative of the
discrete flow map at its step count, with holomorphy read at every stage
state.  ``solve`` freezes each query's count for every Newton trial, so
Newton inverts one smooth map, and re-chooses the counts through the
flows' one count loop (``FlowConfig.settle``), each of whose runs is a
Newton run: where the error estimate that the map returned at the
solution asks for more steps, the query is solved again from there at the
new count.  Matrix-group data takes the same loop, which ends after one
run, since its map takes no steps.  No flow runs outside Newton's map.  A
Newton solution counts only when its parameters lie in param_domain (where
param_domain faults, the query is refused).  The range of F is not
certified globally: |det P| <= 1e-10 or Newton failure at a query simply
marks it outside the working neighbourhood.  Every step runs on compiled
tapes, the comparison with an ``[oracle]`` included: its closed forms are
compiled once per ``ClosedForms`` object and run over the resolved queries.

Query points are independent, so ``solve`` handles all of them in
lockstep: one damped Newton over the stacked rows (p, u), each started
from the linearized guess with its own step halvings and convergence test.
Newton runs on the map of build_dF, whose points equal F's to the last
bit, so each Newton point is evaluated once for its value, its Jacobian
and its flow's error estimate together, and the stacked P/Q/A and field
products are built on the F and dF that Newton returns at the solutions;
F itself only places the grid queries (``grid_queries``).  F, dF, the
frames and the fields take stacks of rows only, a point being a stack of
one, and return, beside their values, the error that refuses each row, so
a failing query refuses only its own record; ``compute_PQA`` and
``construct_fields`` run the same code on a stack of one row and raise its
error.  A refusal has one form through the construction, as in the flows:
every query runs every stage of ``solve`` (Newton, the param_domain test,
the frames, the fields and the oracle), a refused one at the NaN that the
stage refusing it wrote, and keeps the first error of any stage.  On matrix
groups a stack costs one batched matrix exponential; on ambient fields one
stacked Runge-Kutta run (``ComplexFlow.rows``), each row with its own step
count.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .expr import (
    Const, Expr, Predicate, Program, Table, Var, compile_exprs, diff, require_vars,
)
from .flow import (
    DEFAULT_CONFIG, ComplexFlow, FlowConfig, MatrixGroupSpec, _HolomorphicFrame,
    _raise_first, _scatter, complexified_flow_jacobian, complexified_flow_matrix,
    left_invariant_fields, newton_rows, solve_rows,
)
from .geometry import (
    ComplexChart, Composition, Span, VectorField, bracket_values, j_rotate,
    jet_blocks, to_chart, to_complex,
)

__all__ = [
    "CRInitialData", "ClosedForms", "CauchyError", "TransversalityError", "OutsideDomainError",
    "ConstructionError", "AdaptedFrame", "ConstructedFields",
    "TransversalityResult", "QueryRecord", "CauchySolution",
    "param_samples", "check_cr_transverse", "validate_tangency",
    "frobenius_defect_on_M",
    "build_F", "build_dF", "compute_PQA", "construct_fields", "solve",
    "grid_queries",
]


class CauchyError(RuntimeError):
    """Base class for construction failures."""


class TransversalityError(CauchyError):
    """Initial data is not CR-transverse; carries a witness sample."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class OutsideDomainError(CauchyError):
    """The query left the neighbourhood where det P is invertible."""


class ConstructionError(CauchyError):
    """Internal consistency residual above tolerance (ill-conditioned dF)."""


@dataclass(frozen=True, eq=False)
class CRInitialData:
    """Parametrized CR submanifold with initial fields along it.

    ``sigma`` gives the ambient coordinates as expressions in the parameter
    names (2n + k of them).  Initial fields are the restriction to M of
    ``ambient_fields``, which every data object needs; matrix-group data
    (``from_group``) adds the parametrization by real points of the group
    and exact complex-time flows.
    """

    chart: ComplexChart
    k: int
    param_names: tuple[str, ...]
    sigma: tuple[Expr, ...]
    ambient_fields: tuple[VectorField, ...] | None = None
    group: MatrixGroupSpec | None = None
    param_domain: tuple[Expr, ...] = ()
    base_params: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if len(self.sigma) != self.chart.dim:
            raise ValueError(
                f"sigma needs {self.chart.dim} components, got {len(self.sigma)}")
        if self.k < 1:
            raise ValueError("need at least one initial field")
        if (len(self.param_names) - self.k) % 2 != 0 or len(self.param_names) < self.k:
            raise ValueError("parameter count must be 2n + k")
        if len(set(self.param_names)) != len(self.param_names):
            raise ValueError("parameter names must be distinct")
        require_vars(self.sigma, self.param_names, "sigma")
        require_vars(self.param_domain, self.param_names, "param_domain")
        if self.base_params is not None and (
                np.shape(self.base_params) != (len(self.param_names),)
                or not np.all(np.isfinite(self.base_params))):
            raise ValueError("base_params needs one finite value per parameter "
                             f"({len(self.param_names)})")
        if self.ambient_fields is None:
            raise ValueError("need ambient_fields (CRInitialData.from_group builds them)")
        if len(self.ambient_fields) != self.k:
            raise ValueError("need one ambient field per initial direction")
        if self.group is not None and self.group.k != self.k:
            raise ValueError("group basis size must equal k")

    @classmethod
    def from_group(cls, spec: MatrixGroupSpec, param_domain=(),
                   base_params=None, name: str = "") -> "CRInitialData":
        """Initial data for the real form of an embedded matrix group, with
        the left-invariant fields of the algebra basis as initial fields."""
        names = tuple(f"p{mu + 1}" for mu in range(spec.chart.N))
        sigma = []
        for mu in range(spec.chart.N):
            sigma.extend((Var(names[mu]), Const(0.0)))
        return cls(chart=spec.chart, k=spec.k, param_names=names,
                   sigma=tuple(sigma), ambient_fields=left_invariant_fields(spec),
                   group=spec, param_domain=tuple(param_domain),
                   base_params=base_params, name=name)

    @property
    def n(self) -> int:
        return (len(self.param_names) - self.k) // 2

    @property
    def base(self) -> np.ndarray:
        if self.base_params is not None:
            return np.asarray(self.base_params, dtype=float)
        return np.zeros(len(self.param_names))

    @cached_property
    def table(self) -> "CRTable":
        """The compiled table of the data checks, built on first use."""
        return CRTable(self)

    @cached_property
    def domain_predicate(self) -> Predicate:
        """The compiled param_domain predicate, built on first use."""
        return Predicate(self.param_domain, self.param_names)

    def sigma_rows(self, P):
        """sigma (n, 2N) and dsigma (n, 2N, m) at the parameter rows P, and
        per row None or the DomainError that refuses it."""
        vals, errors = self.table.program.rows(P)
        t = self.table.blocks(vals)
        return t["sigma"], t["dsigma"], errors



class ClosedForms(tuple):
    """An oracle's closed forms: the pair (grad_exprs, field_list) on one
    chart, whose tape is built on first use."""

    @cached_property
    def program(self) -> Program:
        """The gradient expressions, then each field's components, one tape
        over the chart."""
        grads, fields = self
        return compile_exprs([*grads, *(c for f in fields for c in f.components)],
                             fields[0].chart.names)


class CRTable(Table):
    """The compiled table of the data checks over the parameters.

    ``at(P)`` returns the blocks ``p`` (m,) the parameter rows P themselves,
    ``sigma`` (2N,), ``dsigma`` (2N, m), and ``rho0`` (2N, k) and
    ``bracket`` (2N, B) the initial fields and their brackets [rho0_i,
    rho0_j], i < j, at sigma as columns.  The Table compiles sigma and its
    partials over the parameters; the fields and their Jacobians
    (``jet_blocks``), compiled over the chart, are evaluated at sigma, and
    the brackets composed from them (``geometry.Composition``): three
    Program passes in all."""

    def __init__(self, data: CRInitialData):
        names, dim = data.param_names, data.chart.dim
        super().__init__([
            ("sigma", (dim,), list(data.sigma)),
            ("dsigma", (dim, len(names)),
             [diff(s, name) for s in data.sigma for name in names]),
        ], names)
        self.fields = Table(jet_blocks((), data.ambient_fields, data.chart), data.chart.names)
        self.composition = Composition(self.fields, _bracket_terms)

    @cached_property
    def frame(self) -> _HolomorphicFrame:
        """The stage tape of the ambient flows, compiled from the fields'
        jets on first use: once per data object, for every F and dF."""
        return _HolomorphicFrame(self.fields)

    def at(self, P) -> dict[str, np.ndarray]:
        t = super().at(P)
        t["p"] = np.asarray(P, dtype=float)
        c = self.composition(t["sigma"])
        t["rho0"], t["bracket"] = np.swapaxes(c["X"], 1, 2), c["bracket"]
        return t


def _bracket_terms(jets) -> dict[str, np.ndarray]:
    """The brackets [rho0_i, rho0_j], i < j, as columns from the fields'
    jets, with the point axis last: run once per structure on Terms, whose
    expressions the composition compiles (``geometry.Composition``)."""
    k = len(jets["X"])
    return {"bracket": np.swapaxes(bracket_values(
        jets["X"], jets["DX"], [(i, j) for i in range(k) for j in range(i + 1, k)]), 0, 1)}


def _first_error(*errors):
    """Per row the first of several per-row error lists that is not None;
    the rows are visited only where two lists refuse rows."""
    refusing = [errs for errs in errors if errs.count(None) != len(errs)]
    if len(refusing) > 1:
        return [next((e for e in row if e is not None), None) for row in zip(*refusing)]
    return list(refusing[0]) if refusing else [None] * len(errors[0])


# half-width of the box of parameter offsets param_samples draws around
# the base point, and the largest residual of the initial fields off TM
PARAM_SPREAD = 1.0
TANGENCY_TOL = 1e-9
# the largest internal residual of the defining identities at which a
# constructed row is accepted
CONSTRUCTION_TOL = 1e-8


def param_samples(data: CRInitialData, n_samples: int, seed: int) -> np.ndarray:
    """Base point plus seeded draws around it, filtered by the parameter
    domain.  The base point always participates, so degeneracies placed
    there (e.g. an initial field vanishing at the origin) are caught."""
    rng = np.random.default_rng(seed)
    m = len(data.param_names)
    found = data.domain_predicate.sample(
        lambda size: data.base + rng.uniform(-PARAM_SPREAD, PARAM_SPREAD, (size, m)),
        n_samples, 100 * (n_samples + 1))
    return np.vstack([data.base, found])


@dataclass
class TransversalityResult:
    transverse: bool
    witnesses: list[np.ndarray]
    min_rank: int
    required_rank: int


def check_cr_transverse(data: CRInitialData, t) -> TransversalityResult:
    """At each row of ``t = data.table.at(params)`` inside param_domain the
    matrix [dsigma | J rho0(e_1) ... J rho0(e_k)] must have rank 2n + 2k,
    i.e. no J-rotated initial direction falls into TM."""
    inside, fault = data.domain_predicate.holds(t["p"])
    if fault is not None:
        raise fault
    required = 2 * data.n + 2 * data.k
    M = np.concatenate([t["dsigma"], j_rotate(t["rho0"], axis=1)], axis=2)[inside]
    ranks = Span(M, basis=False).rank
    witnesses = list(t["p"][inside][ranks < required])
    return TransversalityResult(not witnesses, witnesses,
                                int(min(ranks, default=required)), required)


def validate_tangency(data: CRInitialData, t) -> float:
    """Max residual of the initial fields against the tangent of M at the
    rows of ``t``; the data is invalid when any initial value fails to
    project onto range dsigma (residual above TANGENCY_TOL)."""
    worst = float(np.max(Span(t["dsigma"]).residuals(t["rho0"]), initial=0.0))
    if worst > TANGENCY_TOL:
        raise CauchyError(
            f"initial fields are not tangent to M (residual {worst:.3e})")
    return worst


def frobenius_defect_on_M(data: CRInitialData, t) -> float:
    """Involutivity defect of the initial distribution along M at the rows
    of ``t``.  The construction proceeds pointwise regardless, so callers
    warn rather than fail when this is positive."""
    if data.k < 2:
        return 0.0
    return float(np.max(Span(t["rho0"]).residuals(t["bracket"])))


# ---------------------------------------------------------------------------
# the flow coordinates F and their inversion


def _flow_rows(data: CRInitialData, cfg: FlowConfig, jac: bool):
    """F over stacks of rows P (n, m), U (n, k): (points (n, 2N), errors),
    and with ``jac`` (points, Jacobians (n, 2N, m + k), errors, estimates),
    errors[i] None or the exception that refuses row i.  The points and
    errors do not depend on ``jac``.  On ambient fields, row i takes
    nsteps[i] Runge-Kutta steps, by default the count ``ComplexFlow.chosen``
    chooses for it, and estimates[i] is their summed error estimate;
    matrix-group data takes no steps, ignores nsteps and estimates 0."""
    k, m, spec = data.k, len(data.param_names), data.group
    flow = ComplexFlow(data.table.frame, cfg) if spec is None else None

    def rows(P, U, nsteps=None):
        S, D, errors = data.sigma_rows(P)
        W = 1j * np.asarray(U, dtype=complex)
        if spec is not None:
            if not jac:
                points, flow_errors = complexified_flow_matrix(spec, S, W)
                return points, _first_error(errors, flow_errors)
            *out, flow_errors = complexified_flow_jacobian(spec, S, W, D, 1j * np.eye(k))
            return *out, _first_error(errors, flow_errors), np.zeros(len(S))
        # a row that sigma refuses starts at NaN, and keeps sigma's error
        points, Y, flow_errors, estimates = flow.rows(
            S, W, to_complex(D, axis=1) if jac else None, nsteps)
        errors = _first_error(errors, flow_errors)
        if not jac:
            return points, errors
        Y[:, :, m:] *= 1j
        return points, to_chart(Y, axis=1), errors, estimates

    return rows


def build_F(data: CRInitialData, cfg: FlowConfig = DEFAULT_CONFIG):
    """The map F(p, u) = flow of sigma(p) for complex time i u.

    The map takes stacks of rows P (n, m), U (n, k) and optional per-row
    step counts nsteps (n,) and returns (points (n, 2N), errors), errors[i]
    None or the exception that refuses row i.  Matrix-group data uses the
    exact products g exp(i sum u_a E_a) of all rows at once; otherwise the
    ambient fields must complexify holomorphically and the rows' flows are
    integrated in the chart by one stacked Runge-Kutta run, row i in
    nsteps[i] steps, by default the count its error estimate asks for.
    """
    return _flow_rows(data, cfg, jac=False)


def build_dF(data: CRInitialData, cfg: FlowConfig = DEFAULT_CONFIG):
    """The exact derivative of F: the map takes stacks of rows P, U and
    step counts as build_F's does and returns (points, Jacobians
    (n, 2N, 2n + 2k), errors, estimates), each Jacobian the real one in the
    variables (p, u) at the rows' step counts, each estimate the row's
    summed Runge-Kutta error estimate (0 on matrix groups).  The points and
    errors are build_F's to the last bit, so Newton takes its residuals,
    and its step counts their estimates, from this map alone.

    Matrix-group data differentiates g exp(X) through the Frechet
    derivatives that ride on exp(X)'s own Taylor sum, all rows at once;
    ambient fields step the tangent columns [dz/dz0 dsigma | dz/dw] along
    each row's Runge-Kutta trajectory, all rows in one stacked run, with
    d/du_a = i d/dw_a.
    """
    return _flow_rows(data, cfg, jac=True)


def _initial_guesses(data: CRInitialData, Q) -> np.ndarray:
    """Newton's start rows for the query rows Q: sigma linearized around
    the base parameters, inverted by least squares, and u = 0."""
    base = data.base
    S, D, errors = data.sigma_rows(base[None])
    _raise_first(errors)
    coef, _ = solve_rows(D, (Q - S[0])[..., None])
    return np.concatenate([base + coef[..., 0], np.zeros((len(Q), data.k))], axis=1)


# ---------------------------------------------------------------------------
# adapted frame and field construction


def _row(obj, i):
    """Row i of a dataclass whose fields are stacked over rows."""
    return type(obj)(*(getattr(obj, f.name)[i] for f in fields(obj)))


def _stacked(obj):
    """A dataclass of one point as a stack of one row."""
    return type(obj)(*(np.asarray(getattr(obj, f.name))[None] for f in fields(obj)))


@dataclass
class AdaptedFrame:
    """Numerical frame of the construction at one adapted point (p, u), or
    at a stack of them (every field then has a leading row axis).

    On M itself P is the identity and Q is zero; the construction lives on
    the neighbourhood where det P stays away from zero.
    """

    params: np.ndarray
    u: np.ndarray
    ambient: np.ndarray
    dF: np.ndarray
    Jt: np.ndarray           # J pulled back through F, dF^-1 J dF
    lifts: np.ndarray        # adapted components of h_a, rows of length 2n+2k
    jh_adapted: np.ndarray   # adapted components of J h_a
    je_adapted: np.ndarray   # adapted components of J d/du_a
    P: np.ndarray
    Q: np.ndarray
    A: np.ndarray


def _tangent_coeffs(data: CRInitialData, P):
    """Parameter-space components of the initial fields at sigma(p), (n, k, m)
    over the parameter rows P, and per row None or the error refusing it."""
    S, D, errors = data.sigma_rows(P)
    vals, field_errors = data.table.fields.program.rows(S)
    rho0 = data.table.fields.blocks(vals)["X"]
    coeffs = np.swapaxes(solve_rows(D, np.swapaxes(rho0, 1, 2))[0], 1, 2)
    return coeffs, _first_error(errors, field_errors)


def _solve_columns(M, B):
    """solve_rows(M, B) with each column of B its own system, all in one
    stacked call: a solve of several columns at once may scale by
    reciprocals, which rounds differently from a column alone."""
    cols, singular = solve_rows(M[:, None], np.swapaxes(B, 1, 2)[..., None])
    return np.swapaxes(cols[..., 0], 1, 2), singular


def _frames(data: CRInitialData, params, u, ambient, dF):
    """The adapted frames at the rows (params, u), given F and dF there: one
    stacked AdaptedFrame and per row None or the error that refuses it.
    Jt = dF^-1 J dF comes from one stacked solve (NaN at a singular dF)."""
    m, k = len(data.param_names), data.k
    coeffs, errors = _tangent_coeffs(data, params)
    lifts = np.concatenate([coeffs, np.zeros((len(params), k, k))], axis=2)
    Jt, singular = _solve_columns(dF, j_rotate(dF, axis=1))
    jh_adapted = lifts @ np.swapaxes(Jt, 1, 2)
    je_adapted = np.swapaxes(Jt[:, :, m:], 1, 2)
    P = np.swapaxes(jh_adapted[:, :, m:], 1, 2)   # P[a, b] = u_a-component of J h_b
    Q = Jt[:, m:, m:]                              # Q[a, b] = u_a-component of J d/du_b
    with np.errstate(invalid="ignore"):      # NaN at a singular dF
        det = np.linalg.det(P)
    A, _ = _solve_columns(P, Q)
    # one test over the stack; the errors are built for the refused rows only
    refused = singular | ~np.isfinite(det) | (np.abs(det) <= 1e-10)
    for i in np.flatnonzero(refused):
        if errors[i] is not None:
            continue
        if singular[i]:
            errors[i] = OutsideDomainError("dF is numerically singular at this point")
        elif not np.isfinite(det[i]):
            errors[i] = OutsideDomainError(f"det P = {det[i]:.3e} is not finite")
        elif abs(det[i]) <= 1e-10:
            errors[i] = OutsideDomainError(
                f"det P = {det[i]:.3e}: point lies outside the construction domain")
    frame = AdaptedFrame(params, u, ambient, dF, Jt, lifts, jh_adapted, je_adapted, P, Q, A)
    return frame, errors


def compute_PQA(data: CRInitialData, dF_map, p, u,
                cfg: FlowConfig = DEFAULT_CONFIG) -> AdaptedFrame:
    """Evaluate dF, the lifted frame, and the matrices P, Q, A at (p, u).

    ``dF_map`` is the stacked map of build_dF(data, cfg), or None to build
    it here.  P[a, b] = du_a(J h_b) and Q[a, b] = du_a(J d/du_b), with J
    pulled back through F, Jt = dF^-1 J dF.  The map and the stacked
    frames that ``solve`` computes for all its queries at once run on
    (p, u) as a stack of one row, and the error that refuses it is raised.
    """
    P, U = np.asarray(p, dtype=float)[None], np.asarray(u, dtype=float)[None]
    dF_map = build_dF(data, cfg) if dF_map is None else dF_map
    ambient, dF, errors, _ = dF_map(P, U)
    _raise_first(errors)
    frame, errors = _frames(data, P, U, ambient, dF)
    _raise_first(errors)
    return _row(frame, 0)


@dataclass
class ConstructedFields:
    """Values of the extending fields at one point (or stacked over rows),
    with the internal residuals of the defining identities (rounding-level
    when dF is sound)."""

    xi_adapted: np.ndarray    # (k, 2n+2k)
    xi_ambient: np.ndarray    # (k, 2N)
    jxi_ambient: np.ndarray
    residual_d: float
    residual_dc: float


def _construct_rows(frame: AdaptedFrame):
    """construct_fields over a stacked frame: the stacked fields and per
    row None or the ConstructionError that refuses it.  The d^c residual
    reads J xi_a as the product of the frame's Jt with xi_a."""
    k = frame.P.shape[-1]
    m = frame.lifts.shape[-1] - k
    xi_adapted = np.swapaxes(frame.A, 1, 2) @ frame.jh_adapted - frame.je_adapted
    xi_ambient = np.swapaxes(frame.dF @ np.swapaxes(xi_adapted, 1, 2), 1, 2)
    jxi_ambient = j_rotate(xi_ambient)

    residual_d = np.max(np.abs(xi_adapted[:, :, m:]), axis=(1, 2))
    jxi_adapted = xi_adapted @ np.swapaxes(frame.Jt, 1, 2)
    residual_dc = np.max(np.abs(jxi_adapted[:, :, m:] - np.eye(k)), axis=(1, 2))
    # a NaN residual fails both tests, so its row is refused by name; one
    # test over the stack, and errors built for the refused rows only
    worst = np.maximum(residual_d, residual_dc)
    errors = [None] * len(worst)
    for i in np.flatnonzero(~(worst <= CONSTRUCTION_TOL)):
        errors[i] = ConstructionError(
            f"internal identity residual {worst[i]:.3e} "
            + (f"exceeds {CONSTRUCTION_TOL:g}; dF is ill-conditioned here"
               if worst[i] > CONSTRUCTION_TOL else "is not finite"))
    return ConstructedFields(xi_adapted, xi_ambient, jxi_ambient,
                             residual_d, residual_dc), errors


def construct_fields(frame: AdaptedFrame) -> ConstructedFields:
    """xi_a = -J(d/du_a) + sum_b A[b, a] J(h_b) in adapted coordinates,
    pushed to the chart through dF.  The contract du_a(xi_b) = 0 and
    d^c u_a(xi_b) = delta_ab (with the gradient components U = -u) is checked
    internally; a residual above tolerance signals an ill-conditioned dF."""
    built, errors = _construct_rows(_stacked(frame))
    _raise_first(errors)
    return _row(built, 0)


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass
class QueryRecord:
    """One query of a CauchySolution: views of row i of its columns.  A
    refused query has no reconstruction (None and NaN) and names its error."""

    query: np.ndarray
    ok: bool
    error: str = ""
    params: np.ndarray | None = None
    u: np.ndarray | None = None
    U: np.ndarray | None = None
    xi: np.ndarray | None = None
    jxi: np.ndarray | None = None
    residual_d: float = np.nan
    residual_dc: float = np.nan
    newton_residual: float = np.nan
    oracle_dU: float = np.nan
    oracle_dxi: float = np.nan
    newton_iters: int = 0     # Newton steps the query took
    halvings: int = 0         # step halvings over all of them
    rk_steps: int | None = None     # ambient fields: the frozen step count
    rk_error: float | None = None   # and its flow's error estimate at the solution


def _max_ok(values, ok) -> float:
    """The largest of ``values`` over the ok rows, NaN entries left out;
    NaN when none is left."""
    values = values[ok]
    values = values[~np.isnan(values)]
    return float(values.max()) if values.size else float("nan")


@dataclass
class CauchySolution:
    """Numerically evaluable gradient system near M plus its queries by
    column: row i of every column belongs to query i.

    ``ok_rows`` marks the queries that resolved; ``errors`` holds each
    refused query's error text ("" where ok).  The counts cover every row:
    ``newton_iters``, ``halvings`` and, on ambient fields (else None),
    ``rk_steps`` and ``rk_error``.  The reconstruction columns ``params``,
    ``u``, ``U`` (n, k), ``xi``, ``jxi`` (n, k, 2N), ``residual_d``,
    ``residual_dc``, ``newton_residual`` and, with an oracle (else None),
    ``oracle_dU`` and ``oracle_dxi`` are NaN on refused rows.  ``records``
    views the rows as QueryRecords."""

    data: CRInitialData
    query: np.ndarray
    ok_rows: np.ndarray
    errors: list[str]
    newton_iters: np.ndarray
    halvings: np.ndarray
    rk_steps: np.ndarray | None
    rk_error: np.ndarray | None
    params: np.ndarray
    u: np.ndarray
    U: np.ndarray
    xi: np.ndarray
    jxi: np.ndarray
    residual_d: np.ndarray
    residual_dc: np.ndarray
    newton_residual: np.ndarray
    oracle_dU: np.ndarray | None = None
    oracle_dxi: np.ndarray | None = None
    integrability_defect: float = 0.0
    integrability_note: str = ""

    @cached_property
    def records(self) -> list[QueryRecord]:
        """One QueryRecord per query, built on first read."""
        nan = np.full(len(self.query), np.nan)
        dU = nan if self.oracle_dU is None else self.oracle_dU
        dxi = nan if self.oracle_dxi is None else self.oracle_dxi
        out = []
        for i, ok in enumerate(self.ok_rows.tolist()):
            rec = QueryRecord(self.query[i], ok, self.errors[i],
                              newton_iters=int(self.newton_iters[i]),
                              halvings=int(self.halvings[i]))
            if self.rk_steps is not None:
                rec.rk_steps, rec.rk_error = int(self.rk_steps[i]), float(self.rk_error[i])
            if ok:
                rec.params, rec.u, rec.U = self.params[i], self.u[i], self.U[i]
                rec.xi, rec.jxi = self.xi[i], self.jxi[i]
                rec.residual_d, rec.residual_dc = float(self.residual_d[i]), float(self.residual_dc[i])
                rec.newton_residual = float(self.newton_residual[i])
                rec.oracle_dU, rec.oracle_dxi = float(dU[i]), float(dxi[i])
            out.append(rec)
        return out

    @property
    def ok(self) -> bool:
        return bool(self.ok_rows.all())

    @property
    def max_oracle_dU(self) -> float:
        return float("nan") if self.oracle_dU is None else _max_ok(self.oracle_dU, self.ok_rows)

    @property
    def max_oracle_dxi(self) -> float:
        return float("nan") if self.oracle_dxi is None else _max_ok(self.oracle_dxi, self.ok_rows)

    @property
    def max_axiom_residual(self) -> float:
        worst = np.maximum(self.residual_d, self.residual_dc)[self.ok_rows]
        return float(worst.max()) if worst.size else float("nan")


def solve(data: CRInitialData, queries, cfg: FlowConfig = DEFAULT_CONFIG,
          oracle=None) -> CauchySolution:
    """Run the construction at each ambient query point.

    The queries are independent, so they are solved in lockstep: one
    damped Newton (newton_rows) inverts F at all of them, each from the
    linearized guess, on the stacked map of build_dF, which evaluates each
    Newton point once for F, dF and the flow's error estimate together; on
    ambient fields each query's step count is frozen, and re-chosen from
    that estimate, as ``_newton`` describes.  The param_domain test, the
    frames, the fields and the oracle then each run once over every query
    row: the frames and fields are stacked P/Q/A and field products on the
    F and dF that Newton returns at the solutions, NaN on the rows Newton
    refuses.  A query that fails refuses only its own row, which names the
    first error of any stage; each column is its stage's output with NaN on
    the refused rows.  Each row also counts its Newton steps and step
    halvings, and on ambient fields its step count and its flow's error
    estimate at the solution.

    ``oracle`` is an optional (grad_exprs, field_list) pair of closed forms;
    when given, each row carries the deviation of the reconstructed U and
    xi_a from the oracle values at the query (NaN where a closed form is
    undefined at it).
    """
    t = data.table.at(param_samples(data, 25, 0))
    tres = check_cr_transverse(data, t)
    if not tres.transverse:
        raise TransversalityError(
            f"initial data is not CR-transverse "
            f"(rank {tres.min_rank} < {tres.required_rank} at a sample)",
            witness=tres.witnesses[0])
    validate_tangency(data, t)
    defect = frobenius_defect_on_M(data, t)
    note = ""
    if defect > 1e-8:
        note = (f"initial distribution is not involutive on M (defect {defect:.3e}); "
                "proceeding pointwise")

    queries = np.asarray(queries, dtype=float).reshape(-1, data.chart.dim)
    m = len(data.param_names)
    newton, counts = _newton(data, cfg, queries)
    params, u = newton.x[:, :m], newton.x[:, m:]
    frame, frame_errors = _frames(data, params, u, newton.values, newton.jac)
    built, built_errors = _construct_rows(frame)
    errors = _first_error(newton.errors, _domain_errors(data, params),
                          frame_errors, built_errors)
    ok_rows = np.array([err is None for err in errors], dtype=bool)

    def column(values):
        """A stage's output, NaN but at the resolved rows."""
        return np.where(ok_rows.reshape((-1,) + (1,) * (np.ndim(values) - 1)), values, np.nan)

    u, xi = column(u), column(built.xi_ambient)
    oracle_dU = oracle_dxi = None
    if oracle is not None:
        oracle_dU, oracle_dxi = map(column, _oracle_residuals(data, oracle, queries, -u, xi))
    ambient = data.group is None
    return CauchySolution(
        data, queries, ok_rows, ["" if err is None else str(err) for err in errors],
        newton_iters=newton.iters, halvings=newton.halvings,
        rk_steps=counts if ambient else None, rk_error=newton.estimates if ambient else None,
        params=column(params), u=u, U=-u, xi=xi, jxi=column(built.jxi_ambient),
        residual_d=column(built.residual_d), residual_dc=column(built.residual_dc),
        newton_residual=column(np.max(np.abs(newton.values - queries), axis=1)),
        oracle_dU=oracle_dU, oracle_dxi=oracle_dxi,
        integrability_defect=defect, integrability_note=note)


def _newton(data: CRInitialData, cfg: FlowConfig, queries):
    """newton_rows on the map of build_dF from the linearized guesses, and
    each row's step count, through the one count loop (``FlowConfig.settle``).

    Each run of the loop is one Newton run whose rows keep their counts for
    every trial, so Newton inverts one smooth discrete map whose exact
    derivative dF is.  The first run starts every row from its guess at
    PILOT_STEPS; where ``recount`` raises a count from the estimate the map
    returned at a solution (its limit read off that solution's u), the row
    is solved again from there at the new count, its Newton steps and
    halvings adding up, until no count changes.  Such a solve takes one
    step past newton_tol (``polish``): its start misses the new map by
    about the old map's error, which may already be below the tolerance.  A
    refused row comes back NaN, so its limit is 0 and it keeps its count.  A
    matrix-group map takes no steps and estimates 0, so its loop ends after
    one run."""
    m = len(data.param_names)
    dF = build_dF(data, cfg)
    x0 = _initial_guesses(data, queries)
    runs = []

    def run(rows, counts):
        out = newton_rows(lambda X, idx: dF(X[:, :m], X[:, m:], counts[idx]),
                          queries[rows], runs[0].x[rows] if runs else x0, cfg, bool(runs))
        if not runs:
            runs.append(out)
        else:
            for name in ("x", "values", "jac", "estimates", "errors"):
                _scatter(getattr(runs[0], name), rows, getattr(out, name))
            runs[0].iters[rows] += out.iters
            runs[0].halvings[rows] += out.halvings
        return out.estimates, cfg.step_limit(1j * out.x[:, m:])

    # the guesses start at u = 0, whose limit is one step; a flow for time
    # 0 takes none, so that first evaluation costs one tape pass
    counts = cfg.settle(np.ones(len(queries), dtype=int), run)
    return runs[0], counts


def _oracle_residuals(data: CRInitialData, oracle, Q, U, xi):
    """The largest deviations of U (n, k) and xi (n, k, 2N) at the query
    rows Q from the closed forms ``oracle = (grad_exprs, field_list)``, each
    (n,): their tape (``ClosedForms.program``), run once over Q.  A
    row where the tape faults (a closed form undefined at the query, e.g.
    exactly on a removable singularity) gets NaN outputs, so NaN residuals."""
    closed = oracle if isinstance(oracle, ClosedForms) else ClosedForms(oracle)
    ref, _ = closed.program.rows(Q)
    k = len(closed[0])
    U_ref, xi_ref = ref[:, :k], ref[:, k:].reshape(xi.shape)
    return np.abs(U_ref - U).max(axis=1), np.abs(xi_ref - xi).max(axis=(1, 2))


def _domain_errors(data: CRInitialData, P) -> list:
    """Per row of Newton-solved parameters P: None inside param_domain, else
    the OutsideDomainError that refuses the solution.  One compiled test
    over the rows; a row where it faults names the fault, its node and
    the point.  The errors are built for the refused rows only."""
    inside, faults = data.domain_predicate.rows(P)
    errors = [None] * len(P)
    for i in np.flatnonzero(~inside):
        errors[i] = OutsideDomainError(
            f"Newton solution has parameters {np.round(P[i], 6).tolist()} "
            + ("outside param_domain" if faults[i] is None
               else f"where param_domain faults: {faults[i]}"))
    return errors


def grid_queries(data: CRInitialData, u_axes,
                 cfg: FlowConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Ambient query points F(base, u) over a cartesian grid of u values
    at the base parameters, as one stacked F; the first row refused raises
    its error."""
    base = data.base
    us = np.stack(np.meshgrid(*u_axes, indexing="ij"), axis=-1).reshape(-1, len(u_axes))
    points, errors = build_F(data, cfg)(np.broadcast_to(base, (len(us), len(base))), us)
    _raise_first(errors)
    return points
