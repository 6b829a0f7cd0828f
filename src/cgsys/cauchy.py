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
4. The lifted frame h_a (initial fields transported invariantly in u) and
   the u-coordinate fields, rotated by the pulled-back complex structure,
   produce the matrices P and Q, A = P^-1 Q, and the extending fields

       xi_a = -J(d/du_a) + sum_b A[b, a] J(h_b),

   which satisfy dU_a(xi_b) = 0 and d^c U_a(xi_b) = delta_ab by
   construction and restrict to the initial fields on M.

dF is exact: on a matrix group it comes from one block-triangular matrix
exponential that yields exp(X) and its Frechet derivatives together; for
ambient fields the tangent columns are stepped by the same RK4 loop as the
trajectory, which is the exact derivative of the discrete flow map.  It is
built from the initial data by build_dF, alongside build_F.  A Newton
solution counts only when its parameters lie in param_domain (where
param_domain faults, the query is refused).  The range of
F is not certified globally: |det P| <= 1e-10 or Newton failure at a query
simply marks it outside the working neighbourhood.

Query points are independent, so ``solve`` handles all of them in
lockstep: one damped Newton over the stacked rows (p, u), each started
from the linearized guess with its own step halvings and convergence test.
Newton runs on the map of build_dF, whose points equal F's to the last
bit, so each Newton point is evaluated once for its value and Jacobian
together, and the stacked P/Q/A and field products are built on the F and
dF that Newton returns at the solutions; F itself only places the grid
queries (``grid_queries``).  F, dF, the frames and the fields all take
stacks of rows and return, beside their values, the error that refuses
each row, so a failing query refuses only its own record; the one-point
functions (``compute_PQA``, ``construct_fields``, ``equation_map``,
F(p, u)) are one-row views of the same code.  On matrix groups a stack
costs one batched matrix exponential; on ambient fields one stacked RK4
run (``ComplexFlow.rows``), each row with its own step count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .expr import (
    Const, DomainError, Expr, ExprError, Predicate, Program, Table, Var,
    compile_exprs, diff, evaluate, require_vars, subst,
)
from .flow import (
    DEFAULT_CONFIG, ComplexFlow, FlowConfig, MatrixGroupSpec,
    _raise_first, complexified_flow_jacobian, complexified_flow_matrix,
    left_invariant_fields, newton_rows, solve_rows,
)
from .geometry import (
    ComplexChart, VectorField, env_at, j_matrix, j_rotate, pair_brackets,
    span_residuals,
)

__all__ = [
    "CRInitialData", "CauchyError", "TransversalityError", "OutsideDomainError",
    "ConstructionError", "AdaptedFrame", "ConstructedFields",
    "TransversalityResult", "QueryRecord", "CauchySolution",
    "param_samples", "check_cr_transverse", "validate_tangency",
    "frobenius_defect_on_M",
    "build_F", "build_dF", "invariant_lift", "compute_PQA", "construct_fields",
    "equation_map", "solve", "grid_queries",
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

    def params_in_domain(self, p) -> bool:
        env = dict(zip(self.param_names, np.asarray(p, dtype=float)))
        return all(evaluate(g, env) > 0.0 for g in self.param_domain)

    def sigma_at(self, p) -> np.ndarray:
        env = dict(zip(self.param_names, np.asarray(p, dtype=float)))
        return np.array([evaluate(s, env) for s in self.sigma])

    def dsigma_at(self, p) -> np.ndarray:
        env = dict(zip(self.param_names, np.asarray(p, dtype=float)))
        return np.array([[evaluate(diff(s, name), env) for name in self.param_names]
                         for s in self.sigma])

    def initial_field_values(self, p) -> np.ndarray:
        """Values of the initial fields at sigma(p), one row per direction."""
        q = self.sigma_at(p)
        return np.array([f.values(q) for f in self.ambient_fields])

    def rho0_param_exprs(self) -> tuple[tuple[Expr, ...], ...]:
        """Initial fields as ambient-valued expressions over the parameters."""
        mapping = dict(zip(self.chart.names, self.sigma))
        return tuple(tuple(subst(c, mapping) for c in f.components)
                     for f in self.ambient_fields)

    @cached_property
    def table(self) -> Table:
        """The compiled table of the data checks over the parameters, with
        blocks ``p`` (m,) the parameters, ``dsigma`` (2N, m), and ``rho0``
        (2N, k) and ``bracket`` (2N, B) the initial fields and their
        brackets [rho0_i, rho0_j], i < j, at sigma as columns."""
        names, dim = self.param_names, self.chart.dim
        mapping = dict(zip(self.chart.names, self.sigma))
        rho0, brackets = self.rho0_param_exprs(), pair_brackets(self.ambient_fields)
        return Table([
            ("p", (len(names),), [Var(name) for name in names]),
            ("dsigma", (dim, len(names)),
             [diff(s, name) for s in self.sigma for name in names]),
            ("rho0", (dim, self.k), [f[i] for i in range(dim) for f in rho0]),
            ("bracket", (dim, len(brackets)),
             [subst(b.components[i], mapping) for i in range(dim) for b in brackets]),
        ], names)

    @cached_property
    def domain_predicate(self) -> Predicate:
        """The compiled param_domain predicate, built on first use."""
        return Predicate(self.param_domain, self.param_names)

    @cached_property
    def _programs(self) -> tuple[Program, Program]:
        """Compiled over the parameters: sigma then dsigma (row-major), and
        the initial fields at sigma, one field after the other."""
        names = self.param_names
        return (compile_exprs([*self.sigma, *(diff(s, name) for s in self.sigma
                                              for name in names)], names),
                compile_exprs([c for f in self.rho0_param_exprs() for c in f], names))

    def sigma_rows(self, P):
        """sigma (n, 2N) and dsigma (n, 2N, m) at the parameter rows P, and
        per row None or the DomainError that refuses it."""
        vals, errors = self._programs[0].rows(P)
        dim = self.chart.dim
        return (vals[:, :dim], vals[:, dim:].reshape(len(vals), dim, len(self.param_names)),
                errors)

    def initial_field_rows(self, P):
        """The initial fields at sigma of the parameter rows P, (n, k, 2N),
        and per row None or the DomainError that refuses it."""
        vals, errors = self._programs[1].rows(P)
        return vals.reshape(len(vals), self.k, self.chart.dim), errors


def _scatter_errors(errors, rows, row_errors):
    """``errors`` with row_errors[j] put at rows[j]."""
    for i, err in zip(rows, row_errors):
        errors[i] = err
    return errors


def _first_error(*errors):
    """Per row the first of several per-row error lists that is not None."""
    return [next((e for e in row if e is not None), None) for row in zip(*errors)]


# half-width of the box of parameter offsets param_samples draws around
# the base point
PARAM_SPREAD = 1.0


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
    M = np.concatenate([t["dsigma"], j_matrix(data.chart) @ t["rho0"]], axis=2)[inside]
    ranks = np.linalg.matrix_rank(M)
    witnesses = list(t["p"][inside][ranks < required])
    return TransversalityResult(not witnesses, witnesses,
                                int(min(ranks, default=required)), required)


def validate_tangency(data: CRInitialData, t, tol: float = 1e-9) -> float:
    """Max residual of the initial fields against the tangent of M at the
    rows of ``t``; the data is invalid when any initial value fails to
    project onto range dsigma."""
    worst = float(np.max(span_residuals(t["dsigma"], t["rho0"]), initial=0.0))
    if worst > tol:
        raise CauchyError(
            f"initial fields are not tangent to M (residual {worst:.3e})")
    return worst


def frobenius_defect_on_M(data: CRInitialData, t) -> float:
    """Involutivity defect of the initial distribution along M at the rows
    of ``t``.  The construction proceeds pointwise regardless, so callers
    warn rather than fail when this is positive."""
    if data.k < 2:
        return 0.0
    return float(np.max(span_residuals(t["rho0"], t["bracket"])))


# ---------------------------------------------------------------------------
# the flow coordinates F and their inversion


def _point_view(rows):
    """A map over stacks of rows (P (n, m), U (n, k)) returning (..., errors),
    callable on one point (p, u) as well: then it returns that row's values
    and raises the exception that refuses it."""
    def view(p, u):
        if np.ndim(p) == 2:
            return rows(np.asarray(p, dtype=float), np.asarray(u, dtype=float))
        *out, errors = rows(np.asarray(p, dtype=float)[None],
                            np.asarray(u, dtype=float)[None])
        _raise_first(errors)
        return out[0][0] if len(out) == 1 else tuple(o[0] for o in out)

    return view


def build_F(data: CRInitialData, cfg: FlowConfig = DEFAULT_CONFIG):
    """The map F(p, u) = flow of sigma(p) for complex time i u.

    Matrix-group data uses the exact products g exp(i sum u_a E_a) of all
    rows at once; otherwise the ambient fields must complexify
    holomorphically and the rows' flows are integrated in the chart by one
    stacked RK4 run.  One point (p (m,), u (k,)) gives the chart point and
    raises what refuses it; stacks p (n, m), u (n, k) give (points (n, 2N),
    errors), errors[i] None or the exception that refuses row i.
    """
    if data.group is not None:
        spec = data.group

        def rows(P, U):
            S, _, errors = data.sigma_rows(P)
            points, flow_errors = complexified_flow_matrix(spec, S, 1j * U.astype(complex))
            return points, _first_error(errors, flow_errors)

        return _point_view(rows)

    flow = ComplexFlow(data.ambient_fields, cfg)

    def rows(P, U):
        S, _, errors = data.sigma_rows(P)
        points = np.full(S.shape, np.nan)
        ok = np.flatnonzero([e is None for e in errors])
        points[ok], _, flow_errors = flow.rows(S[ok], 1j * U[ok].astype(complex))
        return points, _scatter_errors(errors, ok, flow_errors)

    return _point_view(rows)


def build_dF(data: CRInitialData, cfg: FlowConfig = DEFAULT_CONFIG):
    """The exact derivative of F: dF(p, u) returns (F(p, u), J) with J the
    real 2N x (2n + 2k) Jacobian in the variables (p, u); stacks of rows
    give (points, Jacobians (n, 2N, 2n + 2k), errors) as build_F does.  The
    points and errors are build_F's to the last bit, so Newton can take
    its residuals from this map alone.

    Matrix-group data differentiates g exp(X) through the block Frechet
    exponential, all rows at once; ambient fields step the tangent columns
    [dz/dz0 dsigma | dz/dw] along each row's RK4 trajectory, all rows in
    one stacked run, with d/du_a = i d/dw_a.
    """
    k = data.k
    m = len(data.param_names)
    if data.group is not None:
        spec = data.group
        directions = 1j * np.eye(k)

        def rows(P, U):
            S, D, errors = data.sigma_rows(P)
            points, J, flow_errors = complexified_flow_jacobian(
                spec, S, 1j * U.astype(complex), D, directions)
            return points, J, _first_error(errors, flow_errors)

        return _point_view(rows)

    flow = ComplexFlow(data.ambient_fields, cfg)

    def rows(P, U):
        S, D, errors = data.sigma_rows(P)
        points = np.full(S.shape, np.nan)
        J = np.full((len(S), S.shape[1], m + k), np.nan)
        ok = np.flatnonzero([e is None for e in errors])
        points[ok], Y, flow_errors = flow.rows(
            S[ok], 1j * U[ok].astype(complex), D[ok, 0::2] + 1j * D[ok, 1::2])
        Y[:, :, m:] *= 1j
        J[ok, 0::2], J[ok, 1::2] = Y.real, Y.imag
        return points, J, _scatter_errors(errors, ok, flow_errors)

    return _point_view(rows)


def equation_map(data: CRInitialData, q, cfg: FlowConfig = DEFAULT_CONFIG,
                 F=None, x0=None, dF=None):
    """Solve F(p, iu) = q for (p, u) and return (U(q), p, u) with U = -u.

    The one-row view of the Newton that ``solve`` runs: newton_rows over
    the stacked map of build_dF, which gives F and its exact Jacobian from
    one evaluation; the default start point linearizes sigma around the
    base parameters.  ``F`` is accepted for existing callers and not used.
    """
    dF = build_dF(data, cfg) if dF is None else dF
    m = len(data.param_names)
    q = np.asarray(q, dtype=float)
    if x0 is None:
        x0 = _initial_guesses(data, q[None])[0]
    newton = newton_rows(lambda X: dF(X[:, :m], X[:, m:]), q[None],
                         np.asarray(x0, dtype=float)[None], cfg)
    _raise_first(newton.errors)
    p, u = newton.x[0, :m], newton.x[0, m:]
    return -u, p, u


def _initial_guesses(data: CRInitialData, Q) -> np.ndarray:
    """Newton's start rows for the query rows Q: sigma linearized around
    the base parameters, inverted by least squares, and u = 0."""
    base = data.base
    coef = np.linalg.pinv(data.dsigma_at(base)) @ (Q - data.sigma_at(base))[..., None]
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
    lifts: np.ndarray        # adapted components of h_a, rows of length 2n+2k
    jh_adapted: np.ndarray   # adapted components of J h_a
    je_adapted: np.ndarray   # adapted components of J d/du_a
    P: np.ndarray
    Q: np.ndarray
    A: np.ndarray


def invariant_lift(data: CRInitialData, dF_map, p, u,
                   cfg: FlowConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Ambient values at F(p, u) of the invariantly lifted initial frame:
    the adapted components of h_a at (p, u) equal those of rho0(e_a) at
    (p, 0), pushed to the chart through dF (``dF_map`` as in compute_PQA)."""
    frame = compute_PQA(data, dF_map, p, u, cfg, check_det=False)
    return (frame.dF @ frame.lifts.T).T


def _tangent_coeffs(data: CRInitialData, P):
    """Parameter-space components of the initial fields at sigma(p), (n, k, m)
    over the parameter rows P, and per row None or the error refusing it."""
    _, D, errors = data.sigma_rows(P)
    rho0, field_errors = data.initial_field_rows(P)
    coeffs = np.swapaxes(np.linalg.pinv(D) @ np.swapaxes(rho0, 1, 2), 1, 2)
    return coeffs, _first_error(errors, field_errors)


def _adapted_J(dF, V) -> np.ndarray:
    """J pulled back through F: dF^-1 J dF v for each row v of V, (r, d) or
    (n, r, d), at each frame of the stack dF (n, d, d); one stacked product
    and solve whose rows round as they would on their own (NaN at a
    singular dF)."""
    W = j_rotate((dF[:, None] @ V[..., None])[..., 0])
    A = np.broadcast_to(dF[:, None], (*W.shape[:2], *dF.shape[1:]))
    return solve_rows(A, W[..., None])[0][..., 0]


def _frames(data: CRInitialData, params, u, ambient, dF, check_det: bool = True):
    """The adapted frames at the rows (params, u), given F and dF there: one
    stacked AdaptedFrame and per row None or the error that refuses it."""
    m, k = len(data.param_names), data.k
    coeffs, errors = _tangent_coeffs(data, params)
    lifts = np.concatenate([coeffs, np.zeros((len(params), k, k))], axis=2)
    # one solve per row for all its lifts; _adapted_J would round differently
    jh, singular = solve_rows(
        dF, np.swapaxes(j_rotate((dF[:, None] @ lifts[..., None])[..., 0]), 1, 2))
    jh_adapted = np.swapaxes(jh, 1, 2)
    je_adapted = _adapted_J(dF, np.eye(m + k)[m:])
    P = np.swapaxes(jh_adapted[:, :, m:], 1, 2)   # P[a, b] = u_a-component of J h_b
    Q = np.swapaxes(je_adapted[:, :, m:], 1, 2)   # Q[a, b] = u_a-component of J d/du_b
    det = np.linalg.det(P)
    A, singular_P = solve_rows(P, Q)
    for i, err in enumerate(errors):
        if err is not None:
            continue
        if singular[i]:
            errors[i] = OutsideDomainError("dF is numerically singular at this point")
        elif check_det and abs(det[i]) <= 1e-10:
            errors[i] = OutsideDomainError(
                f"det P = {det[i]:.3e}: point lies outside the construction domain")
        elif singular_P[i]:
            errors[i] = np.linalg.LinAlgError("Singular matrix")
    frame = AdaptedFrame(params, u, ambient, dF, lifts, jh_adapted, je_adapted, P, Q, A)
    return frame, errors


def compute_PQA(data: CRInitialData, dF_map, p, u, cfg: FlowConfig = DEFAULT_CONFIG,
                check_det: bool = True) -> AdaptedFrame:
    """Evaluate dF, the lifted frame, and the matrices P, Q, A at (p, u).

    ``dF_map`` is the (point, Jacobian) map of build_dF(data, cfg), or None
    to build it here.  P[a, b] = du_a(J h_b) and Q[a, b] = du_a(J d/du_b),
    with J pulled back through F, i.e. applied in chart coordinates between
    dF and its inverse.  This is the one-row view of the stacked frames
    that ``solve`` computes for all its queries at once.
    """
    p, u = np.asarray(p, dtype=float), np.asarray(u, dtype=float)
    dF_map = build_dF(data, cfg) if dF_map is None else dF_map
    ambient, dF = dF_map(p, u)
    if np.ndim(dF) != 2:
        raise TypeError("compute_PQA needs the (point, Jacobian) map of build_dF")
    frame, errors = _frames(data, p[None], u[None], np.asarray(ambient)[None],
                            np.asarray(dF)[None], check_det)
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


def _construct_rows(frame: AdaptedFrame, cfg: FlowConfig):
    """construct_fields over a stacked frame: the stacked fields and per
    row None or the ConstructionError that refuses it."""
    k = frame.P.shape[-1]
    m = frame.lifts.shape[-1] - k
    xi_adapted = -frame.je_adapted
    for b in range(k):
        xi_adapted += frame.A[:, b, :, None] * frame.jh_adapted[:, b, None]
    xi_ambient = np.swapaxes(frame.dF @ np.swapaxes(xi_adapted, 1, 2), 1, 2)
    jxi_ambient = j_rotate(xi_ambient)

    residual_d = np.max(np.abs(xi_adapted[:, :, m:]), axis=(1, 2))
    jxi_adapted = _adapted_J(frame.dF, xi_adapted)
    residual_dc = np.max(np.abs(jxi_adapted[:, :, m:] - np.eye(k)), axis=(1, 2))
    # Python's max(residual_d, residual_dc), NaN handling included
    worst = np.where(residual_dc > residual_d, residual_dc, residual_d)
    errors = [ConstructionError(
        f"internal identity residual {w:.3e} exceeds {cfg.construction_tol:g}; "
        "dF is ill-conditioned here") if w > cfg.construction_tol else None
        for w in worst]
    return ConstructedFields(xi_adapted, xi_ambient, jxi_ambient,
                             residual_d, residual_dc), errors


def construct_fields(frame: AdaptedFrame,
                     cfg: FlowConfig = DEFAULT_CONFIG) -> ConstructedFields:
    """xi_a = -J(d/du_a) + sum_b A[b, a] J(h_b) in adapted coordinates,
    pushed to the chart through dF.  The contract du_a(xi_b) = 0 and
    d^c u_a(xi_b) = delta_ab (with the gradient components U = -u) is checked
    internally; a residual above tolerance signals an ill-conditioned dF."""
    built, errors = _construct_rows(_stacked(frame), cfg)
    _raise_first(errors)
    return _row(built, 0)


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass
class QueryRecord:
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


@dataclass
class CauchySolution:
    """Numerically evaluable gradient system near M plus per-query records."""

    data: CRInitialData
    records: list[QueryRecord] = field(default_factory=list)
    integrability_defect: float = 0.0
    integrability_note: str = ""

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def max_oracle_dU(self) -> float:
        vals = [r.oracle_dU for r in self.records if r.ok]
        return float(np.nanmax(vals)) if vals else float("nan")

    @property
    def max_oracle_dxi(self) -> float:
        vals = [r.oracle_dxi for r in self.records if r.ok]
        return float(np.nanmax(vals)) if vals else float("nan")

    @property
    def max_axiom_residual(self) -> float:
        vals = [max(r.residual_d, r.residual_dc) for r in self.records if r.ok]
        return float(np.max(vals)) if vals else float("nan")


def solve(data: CRInitialData, queries, cfg: FlowConfig = DEFAULT_CONFIG,
          oracle=None) -> CauchySolution:
    """Run the construction at each ambient query point.

    The queries are independent, so they are solved in lockstep: one
    damped Newton (newton_rows) inverts F at all of them, each from the
    linearized guess, on the stacked map of build_dF, which evaluates each
    Newton point once for F and dF together.  The frames and fields come
    from stacked P/Q/A and field products on the F and dF that Newton
    returns at the solutions; nothing is flowed after Newton.  A query that
    fails refuses only its own record, which then names the error; each
    record also counts its Newton steps and step halvings.

    ``oracle`` is an optional (grad_exprs, field_list) pair of closed forms;
    when given, each record carries the deviation of the reconstructed U and
    xi_a from the oracle values at the query.
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
    sol = CauchySolution(data, integrability_defect=defect)
    if defect > 1e-8:
        sol.integrability_note = (
            f"initial distribution is not involutive on M (defect {defect:.3e}); "
            "proceeding pointwise")

    queries = np.asarray(queries, dtype=float).reshape(-1, data.chart.dim)
    sol.records = [QueryRecord(query=q, ok=False) for q in queries]
    m = len(data.param_names)
    dF = build_dF(data, cfg)
    newton = newton_rows(lambda X: dF(X[:, :m], X[:, m:]),
                         queries, _initial_guesses(data, queries), cfg)
    errors = newton.errors
    for rec, iters, halvings in zip(sol.records, newton.iters, newton.halvings):
        rec.newton_iters, rec.halvings = int(iters), int(halvings)

    def passing(rows, stage_errors) -> np.ndarray:
        """Record the errors of a stage at its rows; the mask of those that
        pass it."""
        for i, err in zip(rows, stage_errors):
            errors[i] = err
        return np.array([err is None for err in stage_errors], dtype=bool)

    rows = np.flatnonzero([err is None for err in errors])
    rows = rows[passing(rows, _domain_errors(data, newton.x[rows, :m]))]
    for i in rows:
        rec = sol.records[i]
        rec.params, rec.u = newton.x[i, :m], newton.x[i, m:]
        rec.U = -rec.u
    frame, stage_errors = _frames(data, newton.x[rows, :m], newton.x[rows, m:],
                                  newton.values[rows], newton.jac[rows])
    keep = passing(rows, stage_errors)
    rows, frame = rows[keep], _row(frame, keep)
    built, stage_errors = _construct_rows(frame, cfg)
    keep = passing(rows, stage_errors)
    rows, frame, built = rows[keep], _row(frame, keep), _row(built, keep)

    for j, i in enumerate(rows):
        rec = sol.records[i]
        q = rec.query
        rec.newton_residual = float(np.max(np.abs(frame.ambient[j] - q)))
        rec.xi, rec.jxi = built.xi_ambient[j], built.jxi_ambient[j]
        rec.residual_d, rec.residual_dc = float(built.residual_d[j]), float(built.residual_dc[j])
        if oracle is not None:
            try:
                grads, oracle_fields = oracle
                env = env_at(data.chart, q)
                U_ref = np.array([evaluate(g, env) for g in grads])
                xi_ref = np.array([f.values(q) for f in oracle_fields])
                rec.oracle_dU = float(np.max(np.abs(U_ref - rec.U)))
                rec.oracle_dxi = float(np.max(np.abs(xi_ref - rec.xi)))
            except ExprError:
                # oracle formula undefined at this query, e.g. a
                # removable singularity evaluated exactly on it
                pass
        rec.ok = True
    for rec, err in zip(sol.records, errors):
        if err is not None:
            rec.error = str(err)
    return sol


def _domain_errors(data: CRInitialData, P) -> list:
    """Per row of Newton-solved parameters P: None inside param_domain, else
    the OutsideDomainError that refuses the solution.  One compiled test
    over the rows; a row where it faults is named as the per-point view
    names it."""
    errors, lo = [None] * len(P), 0
    while lo < len(P):
        inside, fault = data.domain_predicate.holds(P[lo:], lo)
        outside = [(i, "outside param_domain") for i in np.flatnonzero(~inside) + lo]
        lo += len(inside)
        if fault is not None:
            try:
                if not data.params_in_domain(P[lo]):
                    outside.append((lo, "outside param_domain"))
            except DomainError as err:
                outside.append((lo, f"where param_domain faults: {err}"))
            lo += 1
        for i, why in outside:
            errors[i] = OutsideDomainError(
                f"Newton solution has parameters {np.round(P[i], 6).tolist()} {why}")
    return errors


def grid_queries(data: CRInitialData, u_axes, base_params=None,
                 cfg: FlowConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Ambient query points F(base, u) over a cartesian grid of u values,
    as one stacked F; the first row refused raises its error."""
    base = data.base if base_params is None else np.asarray(base_params, float)
    us = np.stack(np.meshgrid(*u_axes, indexing="ij"), axis=-1).reshape(-1, len(u_axes))
    points, errors = build_F(data, cfg)(np.broadcast_to(base, (len(us), len(base))), us)
    _raise_first(errors)
    return points
