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
simply marks it outside the working neighbourhood.  Query points are
independent, so batches may be processed concurrently; the sequential path
warm-starts Newton from the previous solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import (
    Const, DomainError, Expr, ExprError, Predicate, Table, Var, diff, evaluate,
    require_vars, subst,
)
from .flow import (
    DEFAULT_CONFIG, ComplexFlow, FlowConfig, FlowError, MatrixGroupSpec,
    NewtonError, complexified_flow_jacobian, complexified_flow_matrix,
    left_invariant_fields, newton_inverse,
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


def build_F(data: CRInitialData, cfg: FlowConfig = DEFAULT_CONFIG):
    """The map F(p, u) = flow of sigma(p) for complex time i u.

    Matrix-group data uses the exact product g exp(i sum u_a E_a); otherwise
    the ambient fields must complexify holomorphically and the flow is
    integrated in the chart.
    """
    if data.group is not None:
        spec = data.group

        def F(p, u) -> np.ndarray:
            g = data.sigma_at(p)
            return complexified_flow_matrix(spec, g, 1j * np.asarray(u, dtype=complex))

        return F

    flow = ComplexFlow(data.ambient_fields, cfg)

    def F(p, u) -> np.ndarray:
        return flow(data.sigma_at(p), 1j * np.asarray(u, dtype=complex))

    return F


def build_dF(data: CRInitialData, cfg: FlowConfig = DEFAULT_CONFIG):
    """The exact derivative of F: dF(p, u) returns (F(p, u), J) with J the
    real 2N x (2n + 2k) Jacobian in the variables (p, u).

    Matrix-group data differentiates g exp(X) through the block Frechet
    exponential; ambient fields step the tangent columns
    [dz/dz0 dsigma | dz/dw] along the RK4 trajectory, with d/du_a = i d/dw_a.
    """
    k = data.k
    m = len(data.param_names)
    if data.group is not None:
        spec = data.group
        directions = 1j * np.eye(k)

        def dF(p, u):
            V = 1j * np.asarray(u, dtype=complex)
            return complexified_flow_jacobian(
                spec, data.sigma_at(p), V, data.dsigma_at(p), directions)

        return dF

    flow = ComplexFlow(data.ambient_fields, cfg)

    def dF(p, u):
        D = data.dsigma_at(p)
        point, Y = flow.with_tangents(
            data.sigma_at(p), 1j * np.asarray(u, dtype=complex),
            D[0::2] + 1j * D[1::2])
        Y[:, m:] *= 1j
        J = np.empty((2 * len(Y), m + k))
        J[0::2], J[1::2] = Y.real, Y.imag
        return point, J

    return dF


def _as_maps(data: CRInitialData, F, dF):
    """F and its Jacobian as maps of the stacked variable x = (p, u)."""
    m = len(data.param_names)

    def G(x) -> np.ndarray:
        return F(x[:m], x[m:])

    def dG(x) -> np.ndarray:
        return dF(x[:m], x[m:])[1]

    return G, dG, m


def equation_map(data: CRInitialData, q, cfg: FlowConfig = DEFAULT_CONFIG,
                 F=None, x0=None, dF=None):
    """Solve F(p, iu) = q for (p, u) and return (U(q), p, u) with U = -u.

    Newton runs on the composite map with the exact Jacobian of build_dF;
    the default start point linearizes sigma around the base parameters,
    and grid drivers warm-start from the previous solution.
    """
    F = build_F(data, cfg) if F is None else F
    dF = build_dF(data, cfg) if dF is None else dF
    G, dG, m = _as_maps(data, F, dF)
    q = np.asarray(q, dtype=float)
    if x0 is None:
        x0 = _initial_guess(data, q)
    x = newton_inverse(G, q, x0, cfg, jac=dG)
    p, u = x[:m], x[m:]
    return -u, p, u


def _initial_guess(data: CRInitialData, q) -> np.ndarray:
    base = data.base
    D = data.dsigma_at(base)
    rhs = np.asarray(q, dtype=float) - data.sigma_at(base)
    coef, *_ = np.linalg.lstsq(D, rhs, rcond=None)
    return np.concatenate([base + coef, np.zeros(data.k)])


# ---------------------------------------------------------------------------
# adapted frame and field construction


@dataclass
class AdaptedFrame:
    """Numerical frame of the construction at one adapted point (p, u).

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


def _tangent_coeffs(data: CRInitialData, p) -> np.ndarray:
    """Parameter-space components of the initial fields at sigma(p)."""
    D = data.dsigma_at(p)
    return np.array([np.linalg.lstsq(D, v, rcond=None)[0]
                     for v in data.initial_field_values(p)])


def _adapted_J(dF, V) -> np.ndarray:
    """J pulled back through F: dF^-1 J dF v for each row v of V, as one
    stacked product and solve whose rows round as they would on their own."""
    W = j_rotate((dF @ V[..., None])[..., 0])
    return np.linalg.solve(np.broadcast_to(dF, (len(V), *dF.shape)),
                           W[..., None])[..., 0]


def compute_PQA(data: CRInitialData, dF_map, p, u, cfg: FlowConfig = DEFAULT_CONFIG,
                check_det: bool = True) -> AdaptedFrame:
    """Evaluate dF, the lifted frame, and the matrices P, Q, A at (p, u).

    ``dF_map`` is the (point, Jacobian) map of build_dF(data, cfg), or None
    to build it here.  P[a, b] = du_a(J h_b) and Q[a, b] = du_a(J d/du_b),
    with J pulled back through F, i.e. applied in chart coordinates between
    dF and its inverse.
    """
    p, u = np.asarray(p, dtype=float), np.asarray(u, dtype=float)
    m, k = len(data.param_names), data.k
    dF_map = build_dF(data, cfg) if dF_map is None else dF_map
    ambient, dF = dF_map(p, u)
    if np.ndim(dF) != 2:
        raise TypeError("compute_PQA needs the (point, Jacobian) map of build_dF")

    lifts = np.hstack([_tangent_coeffs(data, p), np.zeros((k, k))])

    try:
        # one solve for all lifts; _adapted_J would round differently
        jh_adapted = np.linalg.solve(
            dF, j_rotate((dF @ lifts[..., None])[..., 0]).T).T
    except np.linalg.LinAlgError:
        raise OutsideDomainError("dF is numerically singular at this point") from None
    je_adapted = _adapted_J(dF, np.eye(m + k)[m:])

    P = jh_adapted[:, m:].T       # P[a, b] = u_a-component of J h_b
    Q = je_adapted[:, m:].T       # Q[a, b] = u_a-component of J d/du_b
    det = float(np.linalg.det(P))
    if check_det and abs(det) <= 1e-10:
        raise OutsideDomainError(
            f"det P = {det:.3e}: point lies outside the construction domain")
    A = np.linalg.solve(P, Q)
    return AdaptedFrame(p, u, ambient, dF, lifts, jh_adapted, je_adapted, P, Q, A)


@dataclass
class ConstructedFields:
    """Values of the extending fields at one point, with the internal
    residuals of the defining identities (rounding-level when dF is sound)."""

    xi_adapted: np.ndarray    # (k, 2n+2k)
    xi_ambient: np.ndarray    # (k, 2N)
    jxi_ambient: np.ndarray
    residual_d: float
    residual_dc: float


def construct_fields(frame: AdaptedFrame,
                     cfg: FlowConfig = DEFAULT_CONFIG) -> ConstructedFields:
    """xi_a = -J(d/du_a) + sum_b A[b, a] J(h_b) in adapted coordinates,
    pushed to the chart through dF.  The contract du_a(xi_b) = 0 and
    d^c u_a(xi_b) = delta_ab (with the gradient components U = -u) is checked
    internally; a residual above tolerance signals an ill-conditioned dF."""
    k = frame.P.shape[0]
    m = frame.lifts.shape[1] - k
    xi_adapted = -frame.je_adapted
    for b in range(k):
        xi_adapted += frame.A[b, :, None] * frame.jh_adapted[b]
    xi_ambient = (frame.dF @ xi_adapted.T).T
    jxi_ambient = j_rotate(xi_ambient)

    residual_d = float(np.max(np.abs(xi_adapted[:, m:])))
    jxi_adapted = _adapted_J(frame.dF, xi_adapted)
    residual_dc = float(np.max(np.abs(jxi_adapted[:, m:] - np.eye(k))))
    if max(residual_d, residual_dc) > cfg.construction_tol:
        raise ConstructionError(
            f"internal identity residual {max(residual_d, residual_dc):.3e} "
            f"exceeds {cfg.construction_tol:g}; dF is ill-conditioned here")
    return ConstructedFields(xi_adapted, xi_ambient, jxi_ambient,
                             residual_d, residual_dc)


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

    F, dF = build_F(data, cfg), build_dF(data, cfg)
    G, dG, m = _as_maps(data, F, dF)
    warm = None
    for q in queries:
        q = np.asarray(q, dtype=float)
        rec = QueryRecord(query=q, ok=False)
        sol.records.append(rec)
        try:
            x = _invert_in_domain(data, G, dG, q, warm, cfg)
            warm = x
            rec.params, rec.u = x[:m], x[m:]
            rec.U = -rec.u
            frame = compute_PQA(data, dF, rec.params, rec.u, cfg)
            rec.newton_residual = float(np.max(np.abs(frame.ambient - q)))
            built = construct_fields(frame, cfg)
            rec.xi, rec.jxi = built.xi_ambient, built.jxi_ambient
            rec.residual_d, rec.residual_dc = built.residual_d, built.residual_dc
            if oracle is not None:
                try:
                    grads, fields = oracle
                    env = env_at(data.chart, q)
                    U_ref = np.array([evaluate(g, env) for g in grads])
                    xi_ref = np.array([f.values(q) for f in fields])
                    rec.oracle_dU = float(np.max(np.abs(U_ref - rec.U)))
                    rec.oracle_dxi = float(np.max(np.abs(xi_ref - rec.xi)))
                except ExprError:
                    # oracle formula undefined at this query, e.g. a
                    # removable singularity evaluated exactly on it
                    pass
            rec.ok = True
        except (CauchyError, FlowError, np.linalg.LinAlgError) as exc:
            rec.error = str(exc)
    return sol


def _invert_in_domain(data: CRInitialData, G, dG, q, warm, cfg: FlowConfig):
    """Newton from the warm start, then from the linearized guess; a solution
    counts only when its parameters lie in param_domain."""
    if warm is not None:
        try:
            return _in_domain(data, newton_inverse(G, q, warm, cfg, jac=dG))
        except (NewtonError, OutsideDomainError):
            pass
    return _in_domain(data, newton_inverse(G, q, _initial_guess(data, q), cfg, jac=dG))


def _in_domain(data: CRInitialData, x):
    """x, unless param_domain excludes its parameters or faults there."""
    p = x[:len(data.param_names)]
    try:
        if data.params_in_domain(p):
            return x
        why = "outside param_domain"
    except DomainError as err:
        why = f"where param_domain faults: {err}"
    raise OutsideDomainError(
        f"Newton solution has parameters {np.round(p, 6).tolist()} {why}")


def grid_queries(data: CRInitialData, u_axes, base_params=None,
                 cfg: FlowConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Ambient query points F(base, u) over a cartesian grid of u values."""
    F = build_F(data, cfg)
    base = data.base if base_params is None else np.asarray(base_params, float)
    us = np.stack(np.meshgrid(*u_axes, indexing="ij"), axis=-1).reshape(-1, len(u_axes))
    return np.array([F(base, u) for u in us])
