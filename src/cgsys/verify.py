"""Residual verification, classification and normal form of gradient systems.

A gradient system of dimension k on a chart is the data of vector fields
xi_1..xi_k and functions u_1..u_k subject to

    du_a(xi_b) = 0,   d^c u_a(xi_b) = delta_ab,

with {xi_a, J xi_a} pointwise independent and spanning an involutive
distribution.  Every identity that follows from these axioms (bracket
closure, the dd^c bracket identities, commutation of the complexified
fields, dimension splittings of the tangent space, the CR type of level
sets) is checked here as a numerical residual at sample points with an
explicit tolerance; verdicts are residual-based, never symbolic proofs.

Sampling is separate from checking.  ``sample_points`` draws seeded points
from the box [-2, 2]^(2N) filtered by the system's compiled domain
predicate.  Every value a check needs comes from one table per system
(``GradientSystem.table``), which compiles only the jets of the fields and
gradients and composes brackets, d^c and the dd^c terms from their values;
every check is a numpy reduction over the blocks ``t = sys.table.at(pts)``
it is handed.  The composition knows the jets' structure: it compiles onto
the jets' tape only the products whose jets are not ``Const(0.0)``, in
the order and association of geometry's helpers, folds the entries of
constant jets once, and gives NaN where a dropped product meets a
non-finite value, as 0 * inf would (``geometry.Composition``), so the
table is one Program pass per chunk of rows.  The table holds one
bracket per frame pair i < j, and a check that reads a span factors it once
(``geometry.Span``): its rank and every projection on it come from one
stacked SVD, and a span read only for its rank is factored without
singular vectors.  Every dimension count is such a rank, the
decompositions' and the level set's too; the tangent splitting counts its
total rank by rank-nullity, without a kernel basis.  ``verify_system``
draws one point set, evaluates the table there once and hands every check
those blocks or their first rows, so identical seed and configuration
reproduce identical residual tables bit for bit; the decomposition check
reads its rows of the frame off the axioms' factorization.  A domain fault
at a sample point raises DomainError naming the node and the point.  No value
comes from anything but a compiled tape: ``GradientSystem.in_domain`` is
the one-row view of the domain predicate, and the level-set search runs
flow's one Newton on a compiled tape like every check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import (
    DomainError, Expr, Predicate, Program, Table, compile_exprs, diff, require_vars,
)
from .flow import DEFAULT_CONFIG, ComplexFlow, FlowConfig, _HolomorphicFrame, newton_rows
from .geometry import (
    ComplexChart, Composition, Span, VectorField, bracket_values, cr_residuals,
    d_values, dc_values, ddc_terms, j_rotate, jet_blocks, rank_cutoff, to_chart,
)

__all__ = [
    "GradientSystem", "CheckTable", "CheckResult", "VerificationReport",
    "Classification",
    "DecompositionRecord", "LevelSetRecord", "NormalForm", "GridSpec",
    "SamplingError", "NormalFormRefusal",
    "sample_points", "verify_system", "check_axioms", "check_decompositions",
    "decomposition_check_result", "check_bracket_relations",
    "check_commutation", "classify", "check_level_set", "normal_form",
]


class SamplingError(RuntimeError):
    """No sample points satisfy the domain predicate."""


class NormalFormRefusal(RuntimeError):
    """The system is not holomorphic abelian, so no normal form exists here."""


@dataclass(frozen=True, eq=False)
class GradientSystem:
    """Symbolic gradient system: k fields and k gradient components on one
    chart, with an optional domain predicate (each expression must be > 0)."""

    chart: ComplexChart
    fields: tuple[VectorField, ...]
    grads: tuple[Expr, ...]
    domain: tuple[Expr, ...] = ()
    name: str = ""

    def __post_init__(self):
        if len(self.fields) != len(self.grads) or not self.fields:
            raise ValueError("need equally many fields and gradient components")
        if self.k > self.chart.N:
            raise ValueError("system dimension k cannot exceed the complex dimension")
        for f in self.fields:
            if f.chart != self.chart:
                raise ValueError("all fields must live on the system chart")
        require_vars(self.grads, self.chart.names, "gradient")
        require_vars(self.domain, self.chart.names, "domain")

    @property
    def k(self) -> int:
        return len(self.fields)

    def in_domain(self, p) -> bool:
        """Whether the point p (2N,) satisfies the domain predicate: the
        one-row view of ``domain_predicate``, raising its DomainError."""
        inside, fault = self.domain_predicate.holds(self.chart.row(p))
        if fault is not None:
            raise fault
        return bool(inside[0])

    @cached_property
    def table(self) -> "CheckTable":
        """The compiled check table, built on first use."""
        return CheckTable(self)

    @cached_property
    def domain_predicate(self) -> Predicate:
        """The compiled domain predicate, built on first use."""
        return Predicate(self.domain, self.chart.names)

    @cached_property
    def gradient_map(self) -> Program:
        """The tape of U = (u_1, ..., u_k) over the chart, built on first
        use: normal_form's profile and its shift test."""
        return compile_exprs(self.grads, self.chart.names)

    @cached_property
    def gradient_jets(self) -> Program:
        """The tape of U and its partials dU[a, i] = du_a/dx_i over the
        chart, built on first use: the level-set Newton's.  A row faults
        where dU does, so it does not stand in for ``gradient_map``."""
        names = self.chart.names
        return compile_exprs([*self.grads, *(diff(g, x) for g in self.grads for x in names)],
                             names)

    @cached_property
    def frame(self) -> _HolomorphicFrame:
        """The stage tape of the fields' complex flows, built on first use."""
        return _HolomorphicFrame(self.fields)


# the rows CheckTable composes at a time: the tapes' registers grow with the
# rows run together (heisenberg at 20,000 points peaks at 183 MB RSS
# unchunked against 102 MB in chunks of 256, from 39 MB before the call),
# and chunks of 128 to 1,024 rows take about the same time
TABLE_CHUNK = 256


class CheckTable(Composition):
    """Every block the checks read, composed from one compiled Table of jets.

    The Table (``jets``) compiles only ``jet_blocks``: the fields xi_a, their
    Jacobians, the differentials of the u_a and their Hessians.  The table
    is their composition (``geometry.Composition``) by ``_check_terms``,
    which lays out the blocks with geometry's helpers: brackets from the
    Jacobians, d^c u(V) = -du(JV), the dd^c terms by the product rule,
    D(J xi) = J D(xi), the Laplacian as the Hessian's trace, and the jets
    the checks read as they are.  The composition reads at construction
    which jets are ``Const(0.0)``, J xi's zeros being those of xi rotated,
    and compiles onto the jets' tape only the products that are not
    structurally zero, in the helpers' order and association; an entry of
    constant jets alone is folded once, and an entry with no product left
    is an exact zero, or NaN at a row where a dropped product meets a
    non-finite value, as 0 * inf makes it.  Frame index i < k stands for
    xi_(i+1), k + a for J xi_(a+1).
    The blocks, each with a leading point axis: ``d``, ``dc`` (k, k)
    du_a(xi_b) and d^c u_a(xi_b); ``grad`` (k, 2N) the rows of dU; ``frame``
    (2N, 2k) and ``bracket`` (2N, P), fields as columns, the latter
    [frame_i, frame_j] for (i, j) in ``pairs``; ``t1``, ``t2``, ``t3`` (P, k)
    the dd^c terms X(d^c u_c(Y)), Y(d^c u_c(X)) and d^c u_c([X, Y]) over
    the same pairs; ``DX`` (k, 2N, 2N) the Jacobians of the xi_a, as
    ``jet_blocks`` lays them out; ``lap`` (k,).  Every block is computed
    row by row, so a row does not depend on the other points, and ``at``
    runs TABLE_CHUNK rows at a time, one Program pass each, into one array
    of which every block is a view.

    ``pairs`` lists the P = k(2k - 1) frame pairs i < j in row-major order,
    and ``row`` maps each to its index.  A bracket with i > j is not
    stored: [J xi_a, xi_b] is -[xi_b, J xi_a], which the table holds bit
    for bit (each term of ``bracket_values`` is a difference, and IEEE
    p - q is -(q - p) up to the sign of a zero).  ``ddc_ref[p]`` is the
    bracket row the dd^c identity of pair p recovers: [xi_a, xi_b] for
    (J xi_a, J xi_b), else pair p itself.
    """

    def __init__(self, sys: GradientSystem):
        k = sys.k
        self.pairs = _frame_pairs(k)
        self.row = {pq: r for r, pq in enumerate(self.pairs)}
        self.ddc_ref = [self.row[(i - k, j - k) if i >= k else (i, j)]
                        for i, j in self.pairs]
        super().__init__(Table(jet_blocks(sys.grads, sys.fields, sys.chart), sys.chart.names),
                         _check_terms)

    def at(self, pts) -> dict[str, np.ndarray]:
        pts = np.asarray(pts, dtype=float)
        if len(pts) <= TABLE_CHUNK:      # one chunk: its pass's own array
            return super().at(pts)
        out = np.empty((len(pts), self.entries))
        for lo in range(0, len(pts), TABLE_CHUNK):
            hi = min(lo + TABLE_CHUNK, len(pts))
            # a DomainError names the row by its index in pts
            out[lo:hi] = self(pts[lo:hi], np.arange(lo, hi))
        return self.blocks(out)


def _frame_pairs(k: int) -> list[tuple[int, int]]:
    """The pairs i < j of the 2k frame indices, in row-major order."""
    return [(i, j) for i in range(2 * k) for j in range(i + 1, 2 * k)]


def _check_terms(jets) -> dict[str, np.ndarray]:
    """Every block of the check table from its jets, with the point axis
    last: run once per structure on Terms, whose expressions the
    composition compiles (``geometry.Composition``)."""
    xi, Dxi, dU, D2U = jets["X"], jets["DX"], jets["dU"], jets["D2U"]
    pairs = _frame_pairs(len(xi))
    X = np.concatenate([xi, j_rotate(xi, axis=1)])
    DX = np.concatenate([Dxi, j_rotate(Dxi, axis=1)])      # D(J xi) = J D(xi)
    brackets = bracket_values(X, DX, pairs)
    t1, t2, t3 = ddc_terms(dU, D2U, X, DX, pairs, brackets)
    return {"d": d_values(dU, xi), "dc": dc_values(dU, xi), "grad": dU,
            "frame": np.swapaxes(X, 0, 1), "bracket": np.swapaxes(brackets, 0, 1),
            "t1": t1, "t2": t2, "t3": t3, "DX": Dxi, "lap": np.trace(D2U, axis1=1, axis2=2)}


@dataclass
class CheckResult:
    """One named residual check over a set of sample points."""

    name: str
    anchor: str
    residuals: np.ndarray
    tolerance: float
    points: int
    note: str = ""

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if np.size(self.residuals) else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


@dataclass
class Classification:
    holomorphic: bool
    abelian: bool
    harmonic: bool
    residuals: dict[str, float]

    def as_dict(self) -> dict[str, bool]:
        return {"holomorphic": self.holomorphic, "abelian": self.abelian,
                "harmonic": self.harmonic}


@dataclass
class VerificationReport:
    """Named residual checks with tolerances and verdicts; reproducible from
    the recorded seed and point count."""

    system: str
    seed: int
    n_points: int
    checks: list[CheckResult] = field(default_factory=list)
    classification: Classification | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# half-width of the sampling box [-SAMPLE_BOX, SAMPLE_BOX]^(2N)
SAMPLE_BOX = 2.0


def sample_points(sys: GradientSystem, n: int, seed: int) -> np.ndarray:
    """Seeded uniform samples from the sampling box filtered by the domain
    predicate; resamples until n are accepted or 100 n draws are spent."""
    rng = np.random.default_rng(seed)
    found = sys.domain_predicate.sample(
        lambda size: rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, (size, sys.chart.dim)),
        n, 100 * n)
    if len(found) < n:
        raise SamplingError(f"found {len(found)}/{n} domain points in {100 * n} draws")
    return found


# ---------------------------------------------------------------------------
# one op: one draw, every check


def verify_system(sys: GradientSystem, points: int, seed: int,
                  tol: float) -> VerificationReport:
    """Every identity check and the classification of ``sys`` from one draw
    of ``points`` sample points and one evaluation of the check table there.
    The decomposition check reads the first 25 rows of the blocks and the
    classification the first 50: sampling draws one stream and the table
    evaluates rows independently, so each is what a draw of that size gives.
    The frame is factored once, and the decomposition check reads its first
    25 rows off that factorization (``Span`` factors each frame alone)."""
    t = sys.table.at(sample_points(sys, points, seed))
    frame = Span(t["frame"])
    checks = check_axioms(sys, t, tol, frame)
    checks.append(decomposition_check_result(sys, _head(t, 25), frame[:25]))
    del frame       # its singular vectors are as large as the frame stack
    checks += check_bracket_relations(sys, t, tol)
    checks.append(check_commutation(sys, t, tol))
    return VerificationReport(sys.name, seed, points, checks,
                              classify(sys, _head(t, 50), tol))


def _head(t, n: int) -> dict[str, np.ndarray]:
    """The first n rows of every block of ``t``."""
    return {name: block[:n] for name, block in t.items()}


# ---------------------------------------------------------------------------
# axiom checks


def check_axioms(sys: GradientSystem, t, tol: float = 1e-9,
                 frame: Span | None = None) -> list[CheckResult]:
    """Residuals of the two defining identities plus pointwise independence
    and involutivity of the 2k-frame at the rows of ``t``: the frame's rank
    and the brackets' projection come from one factorization (``Span``),
    ``frame`` if given, that of ``t["frame"]``."""
    k, n = sys.k, len(t["frame"])
    r_d = np.abs(t["d"]).max(axis=(1, 2))
    r_dc = np.abs(t["dc"] - np.eye(k)).max(axis=(1, 2))
    frame = Span(t["frame"]) if frame is None else frame
    r_rank = (2 * k - frame.rank).astype(float)
    r_inv = frame.residuals(t["bracket"]).max(axis=1)
    return [
        CheckResult("axioms.gradient-annihilation", "gradient-annihilation",
                    r_d, tol, n),
        CheckResult("axioms.normalization", "twisted-gradient-normalization",
                    r_dc, tol, n),
        CheckResult("axioms.independence", "frame-pointwise-independence",
                    r_rank, 0.5, n),
        CheckResult("axioms.integrability", "span-involutivity",
                    r_inv, max(tol, 1e-9), n),
    ]


# ---------------------------------------------------------------------------
# tangent-space decompositions


@dataclass
class DecompositionRecord:
    """Rank arithmetic of the tangent splittings at one point.  Every count
    is a ``Span`` rank; ``rank_total``, the rank of the frame beside the
    horizontal space ker dU cap ker d^c U, is counted by rank-nullity as
    ``dim_horizontal`` + rank (M frame) for M = [dU; d^c U]."""

    rank_representation: int     # expect k
    rank_span: int               # expect 2k
    rank_gradient: int           # expect k  (kernel has dimension 2n + k)
    dim_horizontal: int          # expect 2n
    rank_total: int              # expect 2N from representation + J + horizontal
    residual_gradient_on_rep: float
    expected: dict[str, int]
    warning: str = ""

    @property
    def ok(self) -> bool:
        return (all(getattr(self, key) == n for key, n in self.expected.items())
                and self.residual_gradient_on_rep < 1e-8)


def _horizontal_system(G) -> np.ndarray:
    """The columns du_a and d^c u_a (n, 2N, 2k) of a stack of differential
    rows G (n, k, 2N), with d^c U = -dU o J, J applied to each row
    (J^T = -J): the horizontal space ker dU cap ker d^c U is the orthogonal
    complement of their span."""
    return np.swapaxes(np.concatenate([G, j_rotate(G)], axis=1), 1, 2)


def check_decompositions(sys: GradientSystem, t,
                         frame: Span | None = None) -> list[DecompositionRecord]:
    """Verify the splittings of the tangent space at every row of ``t`` by
    rank arithmetic: the representation span sits inside ker dU, the span
    plus its J-rotation is 2k-dimensional, and the horizontal space
    ker dU cap ker d^c U supplies the remaining 2n directions.  One record
    per row; every rank is read off a ``Span`` of the whole stack, the
    frame's off ``frame`` if given (the factorization of ``t["frame"]``,
    whose singular values the cutoff warning reads), the others rank-only,
    with no singular vectors.  No
    kernel basis is built: by rank-nullity, ``rank_total`` = rank
    [frame | ker M] = (2N - rank M) + rank (M frame) for M = [dU; d^c U],
    and M frame is the 2k x 2k block [[d, -d^c], [d^c, d]] of the table's
    own ``d`` and ``dc`` blocks, since du(J xi) = -d^c u(xi) and
    d^c u(J xi) = du(xi).  The block carries the rounding of |M| |frame|,
    so its singular values are cut off on that scale, not on its own: a
    frame inside ker M gives a block of rounding errors alone, of rank 0."""
    k, N = sys.k, sys.chart.N
    G, d, dc = t["grad"], t["d"], t["dc"]
    frame = Span(t["frame"]) if frame is None else frame
    M = Span(_horizontal_system(G), basis=False)
    block = Span(np.block([[d, -dc], [dc, d]]), basis=False)
    cutoff = rank_cutoff(t["frame"], M.s[:, :1] * frame.s[:, :1])
    rank_total = 2 * N - M.rank + np.sum(block.s > cutoff, axis=-1)
    ranks = zip(Span(t["frame"][..., :k], basis=False).rank, frame.rank,
                Span(G, basis=False).rank, 2 * N - M.rank, rank_total)
    residual = np.abs(d).max(axis=(1, 2))
    # flag rank decisions sitting close to the SVD cutoff
    s = frame.s
    close = np.divide(s[:, 0], s[:, -1], out=np.zeros(len(s)),
                      where=s[:, -1] > 0) > 1e10
    expected = {"rank_representation": k, "rank_span": 2 * k, "rank_gradient": k,
                "dim_horizontal": 2 * (N - k), "rank_total": 2 * N}
    return [DecompositionRecord(
        rank_representation=int(r_rep), rank_span=int(r_span), rank_gradient=int(r_G),
        dim_horizontal=int(dim_H), rank_total=int(r_total),
        residual_gradient_on_rep=float(residual[i]), expected=dict(expected),
        warning="rank decision is close to the singular-value cutoff" if close[i] else "")
        for i, (r_rep, r_span, r_G, dim_H, r_total) in enumerate(ranks)]


def decomposition_check_result(sys: GradientSystem, t,
                               frame: Span | None = None) -> CheckResult:
    """Aggregate the decomposition records at the rows of ``t`` into a check
    (``frame`` as check_decompositions takes it)."""
    recs = check_decompositions(sys, t, frame)
    note = next((r.warning for r in reversed(recs) if r.warning), "")
    return CheckResult("decompositions", "tangent-splitting",
                       np.array([0.0 if r.ok else 1.0 for r in recs]), 0.5,
                       len(recs), note)


# ---------------------------------------------------------------------------
# bracket relations


def check_bracket_relations(sys: GradientSystem, t,
                            tol: float = 1e-9) -> list[CheckResult]:
    """All bracket consequences of the axioms at the rows of ``t``:

    * brackets of frame fields stay in the representation span,
    * the dd^c three-term identity collapses onto bracket evaluation,
    * applying the representation to dd^c U(X, Y) recovers -[X, Y],
    * the representation span itself is involutive,
    * J-rotated brackets satisfy [JX, JY] = [X, Y] and [JX, Y] = -[X, JY].

    Closure and representation-involutivity project on one factorization
    of the representation span (``Span``), each onto its own columns.  The
    table holds [xi_b, J xi_a], so [J xi_a, xi_b] is read as its negation.
    """
    k, tab, br = sys.k, sys.table, t["bracket"]
    n = len(br)
    S = t["frame"][..., :k]
    span = Span(S)
    rep = [tab.row[(a, b)] for a in range(k) for b in range(a + 1, k)]

    closure = span.residuals(br).max(axis=1)

    # dd^c u_c(X, Y) through the three-term identity, one coefficient per c
    coeffs = t["t1"] - t["t2"] - t["t3"]
    identity = np.abs(coeffs + t["t3"][:, tab.ddc_ref]).max(axis=(1, 2))
    recovered = 0
    for c in range(k):
        recovered = recovered + coeffs[:, None, :, c] * S[..., c, None]
    recovery = np.abs(recovered + br[..., tab.ddc_ref]).max(axis=(1, 2))

    rep_involutive = span.residuals(br[..., rep]).max(axis=1, initial=0.0)

    jj = [br[..., tab.row[(k + a, k + b)]] - br[..., tab.row[(a, b)]]
          for a in range(k) for b in range(a + 1, k)]
    mixed = [br[..., tab.row[(a, k + b)]] - br[..., tab.row[(b, k + a)]]
             for a in range(k) for b in range(k)]
    j_symmetry = np.abs(np.stack(jj + mixed, axis=1)).max(axis=(1, 2))

    return [
        CheckResult("brackets.closure", "bracket-closure-in-representation",
                    closure, tol, n),
        CheckResult("brackets.exterior-identity",
                    "exterior-derivative-bracket-identity", identity, tol, n),
        CheckResult("brackets.recovery", "bracket-recovery-through-representation",
                    recovery, tol, n),
        CheckResult("brackets.representation-involutivity",
                    "representation-involutivity", rep_involutive, tol, n),
        CheckResult("brackets.J-symmetry", "structure-rotation-bracket-symmetry",
                    j_symmetry, tol, n),
    ]


def check_commutation(sys: GradientSystem, t, tol: float = 1e-9) -> CheckResult:
    """Commutation of the complexified fields at the rows of ``t``: with
    Z_a = (xi_a - i J xi_a)/2, [Z_a, Z_b] = 0.  Expanded over real brackets
    the real part is ([X_a, X_b] - [JX_a, JX_b])/4 and the imaginary part
    -([X_a, JX_b] + [JX_a, X_b])/4, with [JX_a, X_b] = -[X_b, JX_a]."""
    k, row, br = sys.k, sys.table.row, t["bracket"]
    residuals = np.zeros(len(br))
    for a in range(k):
        for b in range(a + 1, k):
            re = (br[..., row[(a, b)]] - br[..., row[(k + a, k + b)]]) / 4.0
            im = (br[..., row[(a, k + b)]] - br[..., row[(b, k + a)]]) / 4.0
            residuals = np.maximum(residuals, np.hypot(re, im).max(axis=1))
    note = "single-field system commutes identically" if k == 1 else ""
    return CheckResult("commutation", "complexified-fields-commute",
                       residuals, tol, len(br), note)


# ---------------------------------------------------------------------------
# classification


def classify(sys: GradientSystem, t, tol: float = 1e-9) -> Classification:
    """Flags at the rows of ``t``: holomorphic (every complexified field
    satisfies Cauchy-Riemann), abelian (all real brackets among
    {xi_a, J xi_a} vanish, the real form of [Z_a, conj Z_b] = 0), harmonic
    (flat Laplacian of every gradient component vanishes)."""
    holo = float(np.max(cr_residuals(t["DX"]), initial=0.0))
    abel = float(np.max(np.abs(t["bracket"]), initial=0.0))
    harm = float(np.max(np.abs(t["lap"]), initial=0.0))
    return Classification(
        holomorphic=holo < tol, abelian=abel < tol, harmonic=harm < tol,
        residuals={"holomorphic": holo, "abelian": abel, "harmonic": harm})


# ---------------------------------------------------------------------------
# level sets


@dataclass
class LevelSetRecord:
    """Sampled CR-type verification of one level set of the gradient map."""

    target: np.ndarray
    points: np.ndarray          # on-level samples found (possibly none)
    rank_gradient: list[int]    # expect k at each sample
    holomorphic_dim: list[int]  # complex dimension of T cap JT, expect n
    note: str = ""

    @property
    def ok(self) -> bool:
        k = len(self.target)
        if len(self.points) == 0:
            return True  # empty level set: pass with note
        return (all(r == k for r in self.rank_gradient)
                and len(set(self.holomorphic_dim)) == 1)


def check_level_set(sys: GradientSystem, V, n_points: int = 8,
                    seed: int = 0) -> LevelSetRecord:
    """Find up to ``n_points`` points with U = V, then check that dU has
    rank k there and the level set's tangent meets its J-rotation in a
    space of complex dimension n.  A seeded draw of its own starts one
    lockstep Newton (minimum-norm steps) on a compiled tape of U and dU;
    in seed order, until ``n_points`` are found, a root counts inside the
    box |x| <= 50 and the domain, 1e-6 from every earlier one, and a fault
    of the domain test or of the tape at a seed raises."""
    V = np.asarray(V, dtype=float)
    k, names = sys.k, sys.chart.names
    if V.shape != (k,):
        raise ValueError(f"level-set target needs {k} values, got shape {V.shape}")
    try:
        seeds = sample_points(sys, max(4 * n_points, 16), seed)
    except SamplingError:
        return LevelSetRecord(V, np.empty((0, sys.chart.dim)), [], [],
                              note="no domain samples")

    def U_dU(X, _):
        vals, errors = sys.gradient_jets.rows(X)
        return vals[:, :k], vals[:, k:].reshape(len(X), k, len(names)), errors, np.zeros(len(X))

    newton = newton_rows(U_dU, np.broadcast_to(V, (len(seeds), k)), seeds,
                         DEFAULT_CONFIG.with_(newton_tol=1e-11, newton_max_iter=60))
    root = np.array([err is None for err in newton.errors]) & (
        np.max(np.abs(newton.x), axis=1) <= 50.0)
    inside, fault = sys.domain_predicate.holds(newton.x[root])
    found = []
    for i, j in enumerate(np.cumsum(root) - 1):      # j: the index among roots
        if len(found) >= n_points:
            break
        if isinstance(newton.errors[i], DomainError):
            raise newton.errors[i]
        if root[i] and j == len(inside):
            raise fault
        if root[i] and inside[j] and not any(
                np.linalg.norm(newton.x[i] - newton.x[f]) < 1e-6 for f in found):
            found.append(i)
    # T cap JT = ker dU cap ker d^c U
    G, n = newton.jac[found], sys.chart.N - k
    hdims = (sys.chart.dim - Span(_horizontal_system(G), basis=False).rank) // 2
    note = ("level set appears empty for this target" if not found else
            "" if all(hdims == n) else
            f"holomorphic tangent dimension {hdims.tolist()} differs from {n}")
    return LevelSetRecord(V, newton.x[found], Span(G, basis=False).rank.tolist(),
                          hdims.tolist(), note=note)


# ---------------------------------------------------------------------------
# normal form


@dataclass(frozen=True)
class GridSpec:
    nx: int = 11
    ny: int = 11
    extent: float = 0.5


def symmetric_axis(extent: float, n: int) -> np.ndarray:
    """np.linspace(-extent, extent, n), finite for every finite extent:
    above a quarter of the largest double, where linspace's span or steps
    can overflow, the axis is taken for extent / 4 and scaled back by 4,
    both exact there."""
    if extent <= np.finfo(float).max / 4:
        return np.linspace(-extent, extent, n)
    return 4.0 * np.linspace(-extent / 4, extent / 4, n)


# the scale of the flow times normal_form checks at, and their largest count
W_EXTENT = 0.25
N_W_SAMPLES = 4


@dataclass
class NormalForm:
    """Numerically straightened coordinates for a holomorphic abelian system.

    ``F`` tabulates the recovered profile F_a(x, y) = U_a(phi(z, w)) + u_a on
    the slice grid; by construction it must not depend on w, and the
    straightened fields must push to coordinate translations.
    """

    system: str
    base_point: np.ndarray
    slice_pair: int | None      # complex coordinate index spanning the grid
    xs: np.ndarray
    ys: np.ndarray
    F: np.ndarray               # shape (k, nx, ny)
    pushforward_residual: float
    independence_residual: float
    time_cr_residual: float
    phi: object                 # callable ((x, y), w complex k-vector) -> point
    points: int                 # (slice point, flow time) pairs the residuals saw


def _pick_slice_pair(sys: GradientSystem, p) -> int:
    """The complex coordinate line most orthogonal to the span of
    {xi_a(p), J xi_a(p)}: the pair of unit vectors most outside that span."""
    xi = np.stack([f.program(p[None])[0] for f in sys.fields], axis=1)
    r = Span(np.hstack([xi, j_rotate(xi.T).T])).residuals(np.eye(sys.chart.dim))
    return int(np.argmax((r * r).reshape(-1, 2).sum(axis=1)))


def normal_form(sys: GradientSystem, p, grid: GridSpec = GridSpec(),
                cfg: FlowConfig = DEFAULT_CONFIG,
                class_tol: float = 1e-8) -> NormalForm:
    """Straighten a holomorphic abelian system near p.

    The commuting flows of xi_a and J xi_a build the coordinate map
    phi(z, w) = G^1_{w_1} ... G^k_{w_k}(slice(z)); for holomorphic fields
    it is one trajectory of dz/ds = sum_a w_a Z_a (Ilyashenko-Yakovenko,
    Lectures on Analytic Differential Equations, Ch. 1).  In the new
    coordinates the fields become d/dt_a and U_a + u_a collapses to a
    function F_a of the slice variables alone.  Systems that are not
    holomorphic abelian are refused.  F is U on the slice grid (w = 0).
    The residuals come from one ``ComplexFlow.rows`` over the slice corners
    times the w samples, its d/dw_a columns dphi/dRe w_a; that flow is
    complex-linear in w, so the time residual is the fields' largest
    |dZ/dzbar| at its start and end rows (NaN at a non-finite start).
    """
    cls = classify(sys, sys.table.at(sample_points(sys, 25, 1)), class_tol)
    if not (cls.holomorphic and cls.abelian):
        raise NormalFormRefusal(
            f"system {sys.name or '<anonymous>'} is not holomorphic abelian "
            f"(holomorphic={cls.holomorphic}, abelian={cls.abelian}); "
            "no straightening exists")
    p, k = np.asarray(p, dtype=float), sys.k
    flow = ComplexFlow(sys.frame, cfg)
    slice_pair = _pick_slice_pair(sys, p) if sys.chart.N > k else None
    U = sys.gradient_map

    def on_slice(X, Y) -> np.ndarray:
        """The slice points p + (x, y) at the slice pair, one row per (x, y)."""
        Q = np.tile(p, (len(X), 1))
        if slice_pair is not None:
            Q[:, 2 * slice_pair:2 * slice_pair + 2] += np.column_stack([X, Y])
        return Q

    def phi(zxy, w) -> np.ndarray:
        """phi at one slice point: the one-row view of the flow."""
        Q, _, errors, _ = flow.rows(on_slice(*np.transpose([zxy])),
                                    np.asarray(w, dtype=complex)[None])
        if errors[0] is not None:
            raise errors[0]
        return Q[0]

    xs, ys = (symmetric_axis(grid.extent, n) for n in (grid.nx, grid.ny))
    if slice_pair is None:
        xs = ys = np.zeros(1)
    # w = 0 moves no point, so the profile is U on the slice grid itself
    w0 = np.zeros(k, dtype=complex)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    F = np.moveaxis((U(on_slice(X.ravel(), Y.ravel())) + w0.imag)
                    .reshape(len(xs), len(ys), k), -1, 0)

    # deterministic w samples exercising each flow direction and a mix
    w_samples = [complex(W_EXTENT, 0.6 * W_EXTENT) * np.eye(k)[a] for a in range(k)]
    w_samples.append(np.full(k, complex(0.5 * W_EXTENT, -0.4 * W_EXTENT)))
    w_samples = w_samples[:N_W_SAMPLES]

    corners = list(dict.fromkeys([(xs[0], ys[0]), (xs[-1], ys[0]), (xs[0], ys[-1]),
                                  (xs[-1], ys[-1]), (xs[len(xs) // 2], ys[len(ys) // 2])]))
    C = on_slice(*np.transpose(corners))

    # one row per (w sample, corner); dphi/dRe w_a is the chart vector of Y's
    # column a.  np.max, not max(): a NaN residual must fail its check
    P = np.tile(C, (len(w_samples), 1))
    W = np.repeat(w_samples, len(C), axis=0)
    Q, Y, _, _ = flow.rows(P, W, np.zeros((len(P), sys.chart.N, 0)))
    D = to_chart(Y, axis=1)
    indep = np.max(np.abs(U(Q) + W.imag - U(P)))
    push = _worst(Q, D - np.stack([f.program(Q) for f in sys.fields], axis=-1))
    timecr = _worst(P, flow.frame.residuals(np.vstack([P, Q])))

    return NormalForm(sys.name, p, slice_pair, xs, ys, F,
                      pushforward_residual=float(push),
                      independence_residual=float(indep),
                      time_cr_residual=float(timecr),
                      phi=phi, points=len(corners) * len(w_samples))


def _worst(Q, R) -> float:
    """max |R|; NaN at a non-finite point of Q even if R is finite (constant fields)."""
    return np.nan if not np.isfinite(Q).all() else np.max(np.abs(R))
