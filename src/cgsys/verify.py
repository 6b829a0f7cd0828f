"""Residual verification, classification and normal form of gradient systems.

A gradient system of dimension k on a chart is the data of vector fields
xi_1..xi_k and functions u_1..u_k subject to

    du_a(xi_b) = 0,   d^c u_a(xi_b) = delta_ab,

with {xi_a, J xi_a} pointwise independent and spanning an involutive
distribution.  Every identity that follows from these axioms (bracket
closure, the dd^c bracket identities, commutation of the complexified
fields, dimension splittings of the tangent space, the CR type of level
sets) is checked here as a numerical residual at seeded sample points with
an explicit tolerance; verdicts are residual-based, never symbolic proofs.

Sampling draws from the box [-2, 2]^(2N) filtered by the system's domain
predicate, so identical seed and configuration reproduce identical residual
tables bit for bit.  The checks share one compiled table of expressions per
system (``GradientSystem.table``), evaluate it over their whole point set in
one call and reduce the result with numpy, span residuals by one stacked
projection.  A domain fault at a sample point raises DomainError naming the
node and the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import DomainError, Expr, compile_exprs, diff, evaluate
from .flow import DEFAULT_CONFIG, FlowConfig, flow_real
from .geometry import (
    ComplexChart, VectorField, _wirtinger_bar_residuals, apply_J, complexify,
    d_of, dc_of, env_at, field_matrix, j_matrix, laplacian, lie_bracket,
    pair_brackets, span_residuals,
)

__all__ = [
    "GradientSystem", "CheckTable", "CheckResult", "VerificationReport",
    "Classification",
    "DecompositionRecord", "LevelSetRecord", "NormalForm", "GridSpec",
    "SamplingError", "NormalFormRefusal",
    "sample_points", "check_axioms", "check_decompositions",
    "check_bracket_relations", "check_commutation", "classify",
    "check_level_set", "normal_form",
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

    @property
    def k(self) -> int:
        return len(self.fields)

    def in_domain(self, p) -> bool:
        env = env_at(self.chart, p)
        return all(evaluate(g, env) > 0.0 for g in self.domain)

    @cached_property
    def table(self) -> "CheckTable":
        """The compiled check table, built on first use."""
        return CheckTable(self)


class CheckTable:
    """Every expression the checks evaluate, compiled once into one Program.

    Frame index i < k stands for xi_(i+1), k + a for J xi_(a+1).  ``at(pts)``
    returns these blocks, each with a leading point axis: ``d``, ``dc`` (k, k)
    du_a(xi_b) and d^c u_a(xi_b); ``grad`` (k, 2N) the rows of dU; ``frame``
    (2N, 2k) and ``bracket`` (2N, B), fields as columns, the latter
    [frame_i, frame_j] for (i, j) in ``pairs``; ``t1``, ``t2``, ``t3`` (P, k)
    the dd^c terms X(d^c u_c(Y)), Y(d^c u_c(X)) and d^c u_c([X, Y]) over
    the P frame pairs; ``cr`` (k, N^2, 2) the Cauchy-Riemann residual parts
    of each complexified xi_a; ``lap`` (k,).

    ``pairs`` lists the frame pairs i < j first, then the [J xi_a, xi_b].
    ``ddc_ref[p]`` is the bracket row the dd^c identity of frame pair p
    recovers: [xi_a, xi_b] for (J xi_a, J xi_b), else pair p itself.  The
    domain predicate is compiled too, one program per expression.
    """

    def __init__(self, sys: GradientSystem):
        k, names = sys.k, sys.chart.names
        frame = list(sys.fields) + [apply_J(f) for f in sys.fields]
        frame_pairs = [(i, j) for i in range(2 * k) for j in range(i + 1, 2 * k)]
        self.n_frame_pairs = P = len(frame_pairs)
        self.pairs = frame_pairs + [(k + a, b) for a in range(k) for b in range(k)]
        self.row = {pq: r for r, pq in enumerate(self.pairs)}
        self.ddc_ref = [self.row[(i - k, j - k) if i >= k else (i, j)]
                        for i, j in frame_pairs]
        brackets = pair_brackets(frame)
        brackets += [lie_bracket(frame[k + a], frame[b])
                     for a in range(k) for b in range(k)]

        gs, dim = sys.grads, sys.chart.dim
        dc = [[dc_of(g, f) for f in frame] for g in gs]     # d^c u_c(frame_i)
        blocks = [
            ("d", (k, k), [d_of(g, f) for g in gs for f in sys.fields]),
            ("dc", (k, k), [e for row in dc for e in row[:k]]),
            ("grad", (k, dim), [diff(g, name) for g in gs for name in names]),
            ("frame", (dim, 2 * k),
             [f.components[i] for i in range(dim) for f in frame]),
            ("bracket", (dim, len(brackets)),
             [b.components[i] for i in range(dim) for b in brackets]),
            ("t1", (P, k), [d_of(dc[c][y], frame[x])
                            for x, y in frame_pairs for c in range(k)]),
            ("t2", (P, k), [d_of(dc[c][x], frame[y])
                            for x, y in frame_pairs for c in range(k)]),
            ("t3", (P, k), [dc_of(g, b) for b in brackets[:P] for g in gs]),
            ("cr", (k, sys.chart.N ** 2, 2),
             [e for f in sys.fields
              for pair in _wirtinger_bar_residuals(complexify(f)) for e in pair]),
            ("lap", (k,), [laplacian(g, sys.chart) for g in gs]),
        ]
        self.exprs, self._blocks = [], []
        for name, shape, exprs in blocks:
            self._blocks.append((name, len(self.exprs), shape))
            self.exprs += exprs
        self.program = compile_exprs(self.exprs, names)
        self.domain = [compile_exprs([g], names) for g in sys.domain]

    def at(self, pts) -> dict[str, np.ndarray]:
        """The named blocks of the table evaluated at every row of ``pts``."""
        vals = self.program(pts)
        n = len(vals)
        return {name: vals[:, lo:lo + int(np.prod(shape))].reshape((n, *shape))
                for name, lo, shape in self._blocks}

    def inside(self, C, first: int = 0):
        """The domain predicate (every expression > 0) at the rows of C up
        to the first row where it faults, and that DomainError (or None),
        which names the row as ``first`` + its index.  Like ``all`` over the
        expressions, each is evaluated only where the earlier ones hold."""
        fault = None
        while True:
            rows = np.arange(len(C))
            try:
                for prog in self.domain:
                    rows = rows[prog(C[rows], labels=rows + first)[:, 0] > 0.0]
            except DomainError as err:
                fault, C = err, C[:err.index - first]
                continue
            mask = np.zeros(len(C), dtype=bool)
            mask[rows] = True
            return mask, fault


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

    def extend(self, more) -> "VerificationReport":
        self.checks.extend(more)
        return self


def sample_points(sys: GradientSystem, n: int, seed: int,
                  box: float = 2.0) -> np.ndarray:
    """Seeded uniform samples from [-box, box]^(2N) filtered by the domain
    predicate; resamples until n are accepted or 100 n draws are spent.

    Candidates are drawn in growing blocks from one stream, so the points
    are those of drawing and testing one candidate at a time.  A domain
    fault counts only at a candidate that one-at-a-time drawing would
    reach, and names it by its draw index."""
    rng = np.random.default_rng(seed)
    budget, drawn, size = 100 * n, 0, max(n, 1)
    found = np.empty((0, sys.chart.dim))
    while len(found) < n and drawn < budget:
        C = rng.uniform(-box, box, size=(min(size, budget - drawn), sys.chart.dim))
        inside, fault = sys.table.inside(C, drawn)
        drawn += len(C)
        found = np.concatenate([found, C[:len(inside)][inside]])[:n]
        if fault is not None and len(found) < n:
            raise fault
        size *= 2
    if len(found) < n:
        raise SamplingError(f"found {len(found)}/{n} domain points in {drawn} draws")
    return found


# ---------------------------------------------------------------------------
# axiom checks


def check_axioms(sys: GradientSystem, n_points: int = 100, seed: int = 0,
                 tol: float = 1e-9) -> VerificationReport:
    """Residuals of the two defining identities plus pointwise independence
    and involutivity of the 2k-frame."""
    k = sys.k
    t = sys.table.at(sample_points(sys, n_points, seed))
    S = t["frame"]
    r_d = np.abs(t["d"]).max(axis=(1, 2))
    r_dc = np.abs(t["dc"] - np.eye(k)).max(axis=(1, 2))
    r_rank = (2 * k - np.linalg.matrix_rank(S)).astype(float)
    r_inv = span_residuals(S, t["bracket"][..., :sys.table.n_frame_pairs]).max(axis=1)

    report = VerificationReport(sys.name, seed, n_points)
    report.checks = [
        CheckResult("axioms.gradient-annihilation", "gradient-annihilation",
                    r_d, tol, n_points),
        CheckResult("axioms.normalization", "twisted-gradient-normalization",
                    r_dc, tol, n_points),
        CheckResult("axioms.independence", "frame-pointwise-independence",
                    r_rank, 0.5, n_points),
        CheckResult("axioms.integrability", "span-involutivity",
                    r_inv, max(tol, 1e-9), n_points),
    ]
    return report


# ---------------------------------------------------------------------------
# tangent-space decompositions


@dataclass
class DecompositionRecord:
    """Rank arithmetic of the tangent splittings at one point."""

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
        return (self.rank_representation == self.expected["rank_representation"]
                and self.rank_span == self.expected["rank_span"]
                and self.rank_gradient == self.expected["rank_gradient"]
                and self.dim_horizontal == self.expected["dim_horizontal"]
                and self.rank_total == self.expected["rank_total"]
                and self.residual_gradient_on_rep < 1e-8)


def _gradient_rows(sys: GradientSystem, p) -> np.ndarray:
    """Rows of dU in chart coordinates at one point."""
    env = env_at(sys.chart, p)
    return np.array([[evaluate(diff(g, name), env) for name in sys.chart.names]
                     for g in sys.grads])


def _kernel(M):
    """Right-singular vectors of M, or of each matrix of a stack, and the
    numerical rank r: singular values at or below max(shape) * eps * sigma_max
    count as zero, and the vectors from row r on span the kernel."""
    _, s, vt = np.linalg.svd(M)
    return vt, np.sum(s > max(M.shape[-2:]) * np.finfo(float).eps * s[..., :1],
                      axis=-1)


def check_decompositions(sys: GradientSystem, p) -> DecompositionRecord:
    """Verify the splittings of the tangent space at one point by rank
    arithmetic: the representation span sits inside ker dU, the span plus its
    J-rotation is 2k-dimensional, and the horizontal space ker dU cap
    ker d^c U supplies the remaining 2n directions."""
    return _decompositions(sys, np.asarray(p, dtype=float)[None])[0]


def _decompositions(sys: GradientSystem, pts) -> list[DecompositionRecord]:
    """The records of check_decompositions at every row of ``pts``; every
    rank with the same shape at all points is taken over the whole stack."""
    k, N = sys.k, sys.chart.N
    t = sys.table.at(pts)
    G, span = t["grad"], t["frame"]
    Xi = span[..., :k]
    # the horizontal space ker dU cap ker d^c U, with d^c U = -dU o J
    vt, rank_M = _kernel(np.concatenate([G, G @ j_matrix(sys.chart).T], axis=1))
    ranks = zip(np.linalg.matrix_rank(Xi), np.linalg.matrix_rank(span),
                np.linalg.matrix_rank(G), rank_M)
    residual = np.abs(G @ Xi).max(axis=(1, 2))
    # flag rank decisions sitting close to the SVD cutoff
    s = np.linalg.svd(span, compute_uv=False)
    close = np.divide(s[:, 0], s[:, -1], out=np.zeros(len(s)),
                      where=s[:, -1] > 0) > 1e10
    expected = {"rank_representation": k, "rank_span": 2 * k, "rank_gradient": k,
                "dim_horizontal": 2 * (N - k), "rank_total": 2 * N}
    recs = []
    for i, (r_rep, r_span, r_G, r_M) in enumerate(ranks):
        H = vt[i, r_M:].T
        recs.append(DecompositionRecord(
            rank_representation=int(r_rep), rank_span=int(r_span),
            rank_gradient=int(r_G), dim_horizontal=H.shape[1],
            rank_total=int(np.linalg.matrix_rank(np.hstack([span[i], H]))),
            residual_gradient_on_rep=float(residual[i]), expected=dict(expected),
            warning=("rank decision is close to the singular-value cutoff"
                     if close[i] else "")))
    return recs


def decomposition_check_result(sys: GradientSystem, pts) -> CheckResult:
    """Aggregate decomposition records over points into a residual check."""
    recs = _decompositions(sys, pts)
    note = next((r.warning for r in reversed(recs) if r.warning), "")
    return CheckResult("decompositions", "tangent-splitting",
                       np.array([0.0 if r.ok else 1.0 for r in recs]), 0.5,
                       len(pts), note)


# ---------------------------------------------------------------------------
# bracket relations


def check_bracket_relations(sys: GradientSystem, n_points: int = 100,
                            seed: int = 0, tol: float = 1e-9) -> list[CheckResult]:
    """All bracket consequences of the axioms:

    * brackets of frame fields stay in the representation span,
    * the dd^c three-term identity collapses onto bracket evaluation,
    * applying the representation to dd^c U(X, Y) recovers -[X, Y],
    * the representation span itself is involutive,
    * J-rotated brackets satisfy [JX, JY] = [X, Y] and [JX, Y] = -[X, JY].
    """
    pts = sample_points(sys, n_points, seed)
    n, k, tab = len(pts), sys.k, sys.table
    t = tab.at(pts)
    br = t["bracket"]
    S = t["frame"][..., :k]
    rep = [tab.row[(a, b)] for a in range(k) for b in range(a + 1, k)]

    closure = span_residuals(S, br[..., :tab.n_frame_pairs]).max(axis=1)

    # dd^c u_c(X, Y) through the three-term identity, one coefficient per c
    coeffs = t["t1"] - t["t2"] - t["t3"]
    identity = np.abs(coeffs + t["t3"][:, tab.ddc_ref]).max(axis=(1, 2))
    recovered = 0
    for c in range(k):
        recovered = recovered + coeffs[:, None, :, c] * S[..., c, None]
    recovery = np.abs(recovered + br[..., tab.ddc_ref]).max(axis=(1, 2))

    rep_involutive = span_residuals(S, br[..., rep]).max(axis=1, initial=0.0)

    jj = [br[..., tab.row[(k + a, k + b)]] - br[..., tab.row[(a, b)]]
          for a in range(k) for b in range(a + 1, k)]
    mixed = [br[..., tab.row[(k + a, b)]] + br[..., tab.row[(a, k + b)]]
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


def check_commutation(sys: GradientSystem, n_points: int = 100, seed: int = 0,
                      tol: float = 1e-9) -> CheckResult:
    """Commutation of the complexified fields: with Z_a = (xi_a - i J xi_a)/2,
    [Z_a, Z_b] = 0.  Expanded over real brackets the real part is
    ([X_a, X_b] - [JX_a, JX_b])/4 and the imaginary part
    -([X_a, JX_b] + [JX_a, X_b])/4."""
    pts = sample_points(sys, n_points, seed)
    k, row = sys.k, sys.table.row
    residuals = np.zeros(len(pts))
    br = sys.table.at(pts)["bracket"]
    for a in range(k):
        for b in range(a + 1, k):
            re = (br[..., row[(a, b)]] - br[..., row[(k + a, k + b)]]) / 4.0
            im = (br[..., row[(a, k + b)]] + br[..., row[(k + a, b)]]) / 4.0
            residuals = np.maximum(residuals, np.hypot(re, im).max(axis=1))
    note = "single-field system commutes identically" if k == 1 else ""
    return CheckResult("commutation", "complexified-fields-commute",
                       residuals, tol, len(pts), note)


# ---------------------------------------------------------------------------
# classification


def classify(sys: GradientSystem, n_points: int = 50, seed: int = 0,
             tol: float = 1e-9) -> Classification:
    """Flags: holomorphic (every complexified field satisfies Cauchy-Riemann),
    abelian (all real brackets among {xi_a, J xi_a} vanish, the real form of
    [Z_a, conj Z_b] = 0), harmonic (flat Laplacian of every gradient
    component vanishes)."""
    t = sys.table.at(sample_points(sys, n_points, seed))
    cr = t["cr"]
    holo = float(np.max(0.5 * np.hypot(cr[..., 0], cr[..., 1]), initial=0.0))
    abel = float(np.max(np.abs(t["bracket"][..., :sys.table.n_frame_pairs]),
                        initial=0.0))
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


def check_level_set(sys: GradientSystem, V, n_points: int = 8, seed: int = 0,
                    tol: float = 1e-9) -> LevelSetRecord:
    """Find points with U = V by Gauss-Newton from nearby seeds, then check
    that dU has rank k there and the level set's tangent meets its J-rotation
    in a space of complex dimension n."""
    V = np.asarray(V, dtype=float)
    k, N = sys.k, sys.chart.N
    if V.shape != (k,):
        raise ValueError(f"level-set target needs {k} values, got shape {V.shape}")
    n = N - k
    try:
        seeds = sample_points(sys, max(4 * n_points, 16), seed)
    except SamplingError:
        return LevelSetRecord(V, np.empty((0, sys.chart.dim)), [], [],
                              note="no domain samples")
    found = []
    for p0 in seeds:
        p = np.array(p0)
        ok = False
        for _ in range(60):
            env = env_at(sys.chart, p)
            r = np.array([evaluate(g, env) for g in sys.grads]) - V
            if np.max(np.abs(r)) < 1e-11:
                ok = True
                break
            G = _gradient_rows(sys, p)
            step, *_ = np.linalg.lstsq(G, -r, rcond=None)
            if not np.all(np.isfinite(step)):
                break
            p = p + step
            if np.max(np.abs(p)) > 50.0:
                break
        if ok and sys.in_domain(p):
            if not any(np.linalg.norm(p - q) < 1e-6 for q in found):
                found.append(p)
        if len(found) >= n_points:
            break
    if not found:
        return LevelSetRecord(V, np.empty((0, sys.chart.dim)), [], [],
                              note="level set appears empty for this target")
    ranks = []
    hdims = []
    for p in found:
        G = _gradient_rows(sys, p)
        ranks.append(int(np.linalg.matrix_rank(G)))
        vt, rank = _kernel(G)
        T = vt[rank:].T
        span = np.hstack([T, j_matrix(sys.chart) @ T])
        inter = 2 * T.shape[1] - int(np.linalg.matrix_rank(span))
        hdims.append(inter // 2)
    note = "" if all(h == n for h in hdims) else \
        f"holomorphic tangent dimension {hdims} differs from {n}"
    return LevelSetRecord(V, np.array(found), ranks, hdims, note=note)


# ---------------------------------------------------------------------------
# normal form


@dataclass(frozen=True)
class GridSpec:
    nx: int = 11
    ny: int = 11
    extent: float = 0.5
    w_extent: float = 0.25
    n_w_samples: int = 4


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


def _pick_slice_pairs(sys: GradientSystem, p, n: int) -> list[int]:
    """Greedy pivoted choice of n complex coordinate lines most orthogonal to
    the span of {xi_a(p), J xi_a(p)}."""
    frame = field_matrix(list(sys.fields) + [apply_J(f) for f in sys.fields], p)
    basis = np.linalg.qr(frame)[0]
    dim = sys.chart.dim
    chosen: list[int] = []
    for _ in range(n):
        best, best_score = None, -1.0
        for mu in range(sys.chart.N):
            if mu in chosen:
                continue
            score = 0.0
            for idx in (2 * mu, 2 * mu + 1):
                e = np.zeros(dim)
                e[idx] = 1.0
                r = e - basis @ (basis.T @ e)
                score += float(r @ r)
            if score > best_score:
                best, best_score = mu, score
        chosen.append(best)
        for idx in (2 * best, 2 * best + 1):
            e = np.zeros(dim)
            e[idx] = 1.0
            r = e - basis @ (basis.T @ e)
            nrm = np.linalg.norm(r)
            if nrm > 1e-12:
                basis = np.column_stack([basis, r / nrm])
    return chosen


def normal_form(sys: GradientSystem, p, grid: GridSpec = GridSpec(),
                cfg: FlowConfig = DEFAULT_CONFIG,
                class_tol: float = 1e-8) -> NormalForm:
    """Straighten a holomorphic abelian system near p.

    The commuting flows of xi_a and J xi_a build the coordinate map
    phi(z, w) = G^1_{w_1} ... G^k_{w_k}(slice(z)); in the new coordinates the
    fields become d/dt_a and U_a + u_a collapses to a function F_a of the
    slice variables alone.  Systems that are not holomorphic abelian are
    refused.
    """
    cls = classify(sys, n_points=25, seed=1, tol=class_tol)
    if not (cls.holomorphic and cls.abelian):
        raise NormalFormRefusal(
            f"system {sys.name or '<anonymous>'} is not holomorphic abelian "
            f"(holomorphic={cls.holomorphic}, abelian={cls.abelian}); "
            "no straightening exists")
    p = np.asarray(p, dtype=float)
    k, N = sys.k, sys.chart.N
    n = N - k
    jfields = [apply_J(f) for f in sys.fields]

    pairs = _pick_slice_pairs(sys, p, n) if n > 0 else []
    slice_pair = pairs[0] if pairs else None

    def slice_point(x: float, y: float) -> np.ndarray:
        q = p.copy()
        if slice_pair is not None:
            q[2 * slice_pair] += x
            q[2 * slice_pair + 1] += y
        return q

    def phi(zxy, w) -> np.ndarray:
        q = slice_point(*zxy)
        w = np.asarray(w, dtype=complex)
        for a in reversed(range(k)):
            if w[a].real != 0.0:
                q = flow_real(sys.fields[a], q, float(w[a].real), cfg)
            if w[a].imag != 0.0:
                q = flow_real(jfields[a], q, float(w[a].imag), cfg)
        return q

    def profile(zxy, w) -> np.ndarray:
        q = phi(zxy, w)
        env = env_at(sys.chart, q)
        u = np.array([w[a].imag for a in range(k)])
        return np.array([evaluate(g, env) for g in sys.grads]) + u

    xs = np.linspace(-grid.extent, grid.extent, grid.nx)
    ys = np.linspace(-grid.extent, grid.extent, grid.ny)
    if slice_pair is None:
        xs = np.zeros(1)
        ys = np.zeros(1)
    F = np.empty((k, len(xs), len(ys)))
    w0 = np.zeros(k, dtype=complex)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            F[:, i, j] = profile((x, y), w0)

    # deterministic w samples exercising each flow direction and a mix
    w_samples = []
    for a in range(k):
        w = np.zeros(k, dtype=complex)
        w[a] = complex(grid.w_extent, 0.6 * grid.w_extent)
        w_samples.append(w)
    w_samples.append(np.full(k, complex(0.5 * grid.w_extent, -0.4 * grid.w_extent)))
    w_samples = w_samples[:max(1, grid.n_w_samples)]

    corners = [(xs[0], ys[0]), (xs[-1], ys[0]), (xs[0], ys[-1]),
               (xs[-1], ys[-1]), (xs[len(xs) // 2], ys[len(ys) // 2])]
    corners = list(dict.fromkeys(corners))

    indep = 0.0
    push = 0.0
    timecr = 0.0
    J = j_matrix(sys.chart)
    h = 1e-3
    for zxy in corners:
        base_val = profile(zxy, w0)
        for w in w_samples:
            indep = max(indep, float(np.max(np.abs(profile(zxy, w) - base_val))))
            q = phi(zxy, w)
            for a in range(k):
                e = np.zeros(k, dtype=complex)
                e[a] = h
                dphidt = (phi(zxy, w + e) - phi(zxy, w - e)) / (2 * h)
                push = max(push, float(np.max(np.abs(
                    dphidt - sys.fields[a].values(q)))))
                dphidu = (phi(zxy, w + 1j * e) - phi(zxy, w - 1j * e)) / (2 * h)
                timecr = max(timecr, float(np.max(np.abs(
                    0.5 * (dphidt + J @ dphidu)))))

    return NormalForm(sys.name, p, slice_pair, xs, ys, F,
                      pushforward_residual=push,
                      independence_residual=indep,
                      time_cr_residual=timecr,
                      phi=phi)
