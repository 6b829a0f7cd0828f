"""Complex charts, vector fields, and the first-order complex calculus.

A chart of complex dimension N carries real coordinates ordered
x1, y1, ..., xN, yN with z_mu = x_mu + i y_mu.  The complex structure J acts
on coordinate fields by J d/dx_mu = d/dy_mu and J d/dy_mu = -d/dx_mu, and the
twisted differential is d^c f(V) = -df(J V).

Vector fields are symbolic end to end: components are expression trees and
points enter only at the final evaluation, so second-derivative quantities
(dd^c, Laplacians) are exact up to rounding.  All values are immutable and
every operation is pure; evaluation over point batches can run concurrently
without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import (
    Const, Expr, add, as_expr, compile_exprs, diff, evaluate, free_vars, mul,
    neg, sub,
)

__all__ = [
    "ComplexChart", "VectorField", "ComplexField",
    "env_at", "apply_J", "j_matrix", "d_of", "dc_of", "d_apply", "dc_apply",
    "lie_bracket", "pair_brackets", "ddc_apply", "complexify", "is_holomorphic",
    "distribution_rank", "span_residuals", "frobenius_defect", "laplacian",
    "field_matrix",
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


def env_at(chart: ComplexChart, p) -> dict[str, float]:
    p = np.asarray(p, dtype=float)
    if p.shape != (chart.dim,):
        raise ValueError(f"point must have {chart.dim} coordinates, got {p.shape}")
    return dict(zip(chart.names, p))


@dataclass(frozen=True)
class VectorField:
    """Real vector field on a chart; 2N symbolic components in chart order."""

    chart: ComplexChart
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ValueError(
                f"field needs {self.chart.dim} components, got {len(self.components)}")
        allowed = set(self.chart.names)
        for c in self.components:
            extra = free_vars(c) - allowed
            if extra:
                raise ValueError(f"component uses non-chart variables {sorted(extra)}")

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
        env = env_at(self.chart, p)
        return np.array([evaluate(c, env) for c in self.components])

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_chart(self, other)
        return VectorField(self.chart, tuple(
            add(a, b) for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        _same_chart(self, other)
        return VectorField(self.chart, tuple(
            sub(a, b) for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, tuple(neg(c) for c in self.components))

    def scale(self, factor) -> "VectorField":
        f = as_expr(factor)
        return VectorField(self.chart, tuple(mul(f, c) for c in self.components))


def _same_chart(*objs):
    charts = {o.chart for o in objs}
    if len(charts) != 1:
        raise ValueError("operands live on different charts")


def j_matrix(chart: ComplexChart) -> np.ndarray:
    """The 2N x 2N matrix of J in chart coordinates."""
    J = np.zeros((chart.dim, chart.dim))
    for mu in range(chart.N):
        J[2 * mu + 1, 2 * mu] = 1.0
        J[2 * mu, 2 * mu + 1] = -1.0
    return J


def apply_J(V: VectorField) -> VectorField:
    """Rotate a field by the complex structure: J dx_mu = dy_mu, J dy_mu = -dx_mu."""
    comps = list(V.components)
    out = [None] * len(comps)
    for mu in range(V.chart.N):
        out[2 * mu] = neg(comps[2 * mu + 1])
        out[2 * mu + 1] = comps[2 * mu]
    return VectorField(V.chart, tuple(out))


def d_of(f: Expr, V: VectorField) -> Expr:
    """The directional derivative df(V) as a symbolic expression."""
    total: Expr = Const(0.0)
    for comp, name in zip(V.components, V.chart.names):
        total = add(total, mul(comp, diff(f, name)))
    return total


def dc_of(f: Expr, V: VectorField) -> Expr:
    """The twisted differential d^c f(V) = -df(JV), written directly in
    coordinates: sum_mu (df/dx_mu V^{y_mu} - df/dy_mu V^{x_mu})."""
    total: Expr = Const(0.0)
    names = V.chart.names
    for mu in range(V.chart.N):
        xn, yn = names[2 * mu], names[2 * mu + 1]
        total = add(total, sub(mul(diff(f, xn), V.components[2 * mu + 1]),
                               mul(diff(f, yn), V.components[2 * mu])))
    return total


def d_apply(f: Expr, V: VectorField, p) -> float:
    """df(V) at a point."""
    return evaluate(d_of(f, V), env_at(V.chart, p))


def dc_apply(f: Expr, V: VectorField, p) -> float:
    """d^c f(V) at a point."""
    return evaluate(dc_of(f, V), env_at(V.chart, p))


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


def pair_brackets(fields) -> list[VectorField]:
    """The brackets [V_i, V_j], i < j, in row-major order of the pairs."""
    return [lie_bracket(fields[i], fields[j])
            for i in range(len(fields)) for j in range(i + 1, len(fields))]


def ddc_apply(f: Expr, V: VectorField, W: VectorField, p) -> float:
    """dd^c f(V, W) at a point, evaluated through the three-term identity
    V(d^c f(W)) - W(d^c f(V)) - d^c f([V, W]), all symbolic until the end."""
    _same_chart(V, W)
    term1 = d_of(dc_of(f, W), V)
    term2 = d_of(dc_of(f, V), W)
    term3 = dc_of(f, lie_bracket(V, W))
    env = env_at(V.chart, p)
    return evaluate(term1, env) - evaluate(term2, env) - evaluate(term3, env)


@dataclass(frozen=True)
class ComplexField:
    """Type-(1,0) field sum_mu a_mu d/dz_mu with a_mu = re_mu + i im_mu.

    This is the complexified representation (V - iJV)/2 of a real field V;
    the 1/2 lives in d/dz_mu = (d/dx_mu - i d/dy_mu)/2, so the coefficient
    pair is exactly (V^{x_mu}, V^{y_mu}).
    """

    chart: ComplexChart
    parts: tuple[tuple[Expr, Expr], ...]

    def __post_init__(self):
        if len(self.parts) != self.chart.N:
            raise ValueError(f"need {self.chart.N} complex components")

    def values(self, p) -> np.ndarray:
        env = env_at(self.chart, p)
        return np.array([complex(evaluate(re, env), evaluate(im, env))
                         for re, im in self.parts])

    def to_real(self) -> VectorField:
        comps = []
        for re, im in self.parts:
            comps.extend((re, im))
        return VectorField(self.chart, tuple(comps))


def complexify(V: VectorField) -> ComplexField:
    """The complexified field (V - iJV)/2 in the d/dz basis."""
    parts = tuple((V.components[2 * mu], V.components[2 * mu + 1])
                  for mu in range(V.chart.N))
    return ComplexField(V.chart, parts)


def _wirtinger_bar_residuals(Z: ComplexField) -> list[tuple[Expr, Expr]]:
    # d a_mu / d zbar_nu = ((d re/dx_nu - d im/dy_nu) + i (d im/dx_nu + d re/dy_nu))/2
    names = Z.chart.names
    out = []
    for re, im in Z.parts:
        for nu in range(Z.chart.N):
            xn, yn = names[2 * nu], names[2 * nu + 1]
            rr = sub(diff(re, xn), diff(im, yn))
            ii = add(diff(im, xn), diff(re, yn))
            out.append((rr, ii))
    return out


def is_holomorphic(Z: ComplexField, pts, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether every coefficient satisfies the Cauchy-Riemann equations at the
    sample points; returns the verdict and the max residual modulus."""
    parts = [e for pair in _wirtinger_bar_residuals(Z) for e in pair]
    R = compile_exprs(parts, Z.chart.names)(
        np.reshape(np.asarray(pts, dtype=float), (-1, Z.chart.dim)))
    worst = float(np.max(0.5 * np.hypot(R[:, 0::2], R[:, 1::2]), initial=0.0))
    return worst < tol, worst


def field_matrix(fields, p) -> np.ndarray:
    """Column matrix of field values at a point (2N x m)."""
    cols = [f.values(p) for f in fields]
    return np.column_stack(cols)


def distribution_rank(fields, p) -> int:
    """Numerical rank of the span of the fields at a point.

    Cutoff is max(dim) * eps * sigma_max relative to the largest singular
    value, so chart rescaling cannot flip the decision.
    """
    if not fields:
        raise ValueError("need at least one field")
    return int(np.linalg.matrix_rank(field_matrix(fields, p)))


def span_residuals(S, V) -> np.ndarray:
    """Norm of each column of V outside the column span of S, over a stack
    of frames: S is (..., d, r), V is (..., d, m) and the result (..., m).

    One stacked SVD stands for a least-squares solve per column, with the
    cutoff of ``np.linalg.lstsq(rcond=None)``: singular values at or below
    max(d, r) * eps * sigma_max count as zero, so rank-deficient frames
    project as that solve does."""
    S, V = np.asarray(S, dtype=float), np.asarray(V, dtype=float)
    U, s, _ = np.linalg.svd(S, full_matrices=False)
    cutoff = max(S.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    U = U * (s > cutoff)[..., None, :]
    return np.linalg.norm(V - U @ (np.swapaxes(U, -1, -2) @ V), axis=-2)


def frobenius_defect(fields, p) -> float:
    """Max norm of a pairwise bracket's component outside span{fields(p)}.

    Zero (up to rounding) at every point of a region means the distribution
    is involutive there.  Raises if the fields are dependent at p.
    """
    fields = list(fields)
    S = field_matrix(fields, p)
    if np.linalg.matrix_rank(S) < len(fields):
        raise ValueError("fields are rank-deficient at the given point")
    if len(fields) < 2:
        return 0.0
    return float(np.max(span_residuals(S, field_matrix(pair_brackets(fields), p))))


def laplacian(f: Expr, chart: ComplexChart) -> Expr:
    """The flat Laplacian sum_i d^2 f / dcoord_i^2 on the chart."""
    total: Expr = Const(0.0)
    for name in chart.names:
        total = add(total, diff(diff(f, name), name))
    return total
