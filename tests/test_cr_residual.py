"""The one Cauchy-Riemann residual against sympy: the compiled Jacobians DX
of ``jet_blocks`` reduced by ``cr_residuals`` give |dZ/dzbar| of random
real polynomial fields in (x, y), and rounding-size residuals for fields
that are polynomials in z."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgsys.dsl import load_builtin, loads
from cgsys.expr import Table, parse_expr
from cgsys.flow import _HolomorphicFrame
from cgsys.geometry import (
    ComplexChart, VectorField, cr_residuals, is_holomorphic, jet_blocks,
)
from cgsys.verify import GradientSystem, classify, sample_points
from cli_contract import ambient_cgs

sympy = pytest.importorskip("sympy")

REL = 1e-12


def _monomials(nvars: int, degree: int):
    """Exponent tuples of total degree <= degree."""
    if nvars == 0:
        return [()]
    return [(a, *rest) for a in range(degree + 1)
            for rest in _monomials(nvars - 1, degree - a)]


def _to_text(poly: dict, names) -> str:
    """cgsys source of sum c * prod name^e over the terms of ``poly``."""
    terms = [" * ".join([f"({c})"] + [f"{n}^{e}" for n, e in zip(names, exps) if e])
             for exps, c in poly.items() if c != 0]
    return " + ".join(terms) or "0"


def _check(polys, N, points, holomorphic):
    chart = ComplexChart.standard(N)
    syms = sympy.symbols(chart.names, real=True)
    V = VectorField.from_exprs(chart, [parse_expr(_to_text(p, chart.names)) for p in polys])
    DX = Table(jet_blocks((), [V], chart), chart.names).at(points)["DX"]
    got = cr_residuals(DX[:, 0])                         # (n, N, N)
    exact = [[Fraction(float(v)) for v in p] for p in points]
    for mu in range(N):
        re, im = polys[2 * mu:2 * mu + 2]
        Z = sympy.Poly.from_dict({m: re.get(m, 0) + sympy.I * im.get(m, 0)
                                  for m in re.keys() | im.keys()} or {(0,) * 2 * N: 0},
                                 *syms, domain="QQ_I")
        for nu in range(N):
            x, y = syms[2 * nu], syms[2 * nu + 1]
            dzbar = _terms((Z.diff(x) + sympy.I * Z.diff(y)) * sympy.Rational(1, 2))
            # the terms the compiled Jacobians sum, whose size bounds their rounding
            terms = [(m, (abs(c), 0)) for part in (re, im) for v in (x, y)
                     for m, (c, _) in _terms(_poly(part, syms).diff(v))]
            for i, q in enumerate(exact):
                want = abs(_at(dzbar, q))
                scale = 1 + _at(terms, [abs(v) for v in q]).real
                assert abs(got[i, mu, nu] - want) <= REL * scale
                if holomorphic:
                    assert got[i, mu, nu] <= REL * scale


def _poly(terms: dict, syms):
    """The sympy polynomial of {exponents: integer coefficient}."""
    return sympy.Poly.from_dict(terms or {(0,) * len(syms): 0}, *syms, domain="ZZ")


def _terms(poly):
    """(exponents, exact complex coefficient as a (re, im) pair of
    Fractions) of each term of a sympy polynomial."""
    return [(m, tuple(Fraction(int(v.p), int(v.q)) for v in c.as_real_imag()))
            for m, c in poly.terms()]


def _at(terms, q) -> complex:
    """A polynomial's value at the exact point q, summed exactly."""
    re = im = Fraction(0)
    for m, (cr, ci) in terms:
        mono = math.prod(v ** e for v, e in zip(q, m))
        re, im = re + cr * mono, im + ci * mono
    return complex(float(re), float(im))


coefficient = st.integers(-3, 3)
chart_points = st.integers(1, 2).flatmap(lambda N: st.tuples(
    st.just(N),
    st.lists(st.lists(st.floats(-2, 2, allow_nan=False), min_size=2 * N,
                      max_size=2 * N), min_size=1, max_size=3)))


@settings(max_examples=25, deadline=None)
@given(chart_points, st.data())
def test_cr_residual_of_real_polynomial_fields_matches_sympy(drawn, data):
    N, pts = drawn
    monos = _monomials(2 * N, 2 if N == 2 else 3)
    polys = [dict(zip(monos, data.draw(st.lists(coefficient, min_size=len(monos),
                                                max_size=len(monos)))))
             for _ in range(2 * N)]
    _check(polys, N, np.array(pts, dtype=float), holomorphic=False)


@settings(max_examples=25, deadline=None)
@given(chart_points, st.data())
def test_cr_residual_of_polynomials_in_z_is_rounding_size(drawn, data):
    N, pts = drawn
    chart = ComplexChart.standard(N)
    syms = sympy.symbols(chart.names, real=True)
    unit = [tuple(int(i == j) for i in range(2 * N)) for j in range(2 * N)]
    zs = [sympy.Poly.from_dict({unit[2 * mu]: 1, unit[2 * mu + 1]: sympy.I}, *syms,
                               domain="ZZ_I") for mu in range(N)]
    monos = _monomials(N, 3 if N == 1 else 2)
    polys = []
    for _ in range(N):
        cs = data.draw(st.lists(st.tuples(coefficient, coefficient),
                                min_size=len(monos), max_size=len(monos)))
        Z = sympy.Poly.from_dict({(0,) * 2 * N: 0}, *syms, domain="ZZ_I")
        for m, (a, b) in zip(monos, cs):
            term = sympy.Poly.from_dict({(0,) * 2 * N: a + b * sympy.I}, *syms,
                                        domain="ZZ_I")
            for z, e in zip(zs, m):
                term = term * z ** e
            Z = Z + term
        terms = _terms(Z)
        polys += [{m: int(c[j]) for m, c in terms} for j in (0, 1)]
    pts = np.array(pts, dtype=float)
    _check(polys, N, pts, holomorphic=True)
    V = VectorField.from_exprs(chart, [parse_expr(_to_text(p, chart.names)) for p in polys])
    assert is_holomorphic(V, pts, tol=1e-9)[0]


def _ambient_system():
    """The generated field (1 + 1.1 z^2) d/dz of the benchmark with its
    closed-form gradient, as a gradient system."""
    sf = loads(ambient_cgs(1.1), name="ambient")
    return GradientSystem(sf.chart, sf.cr.ambient_fields, sf.oracle[0], name="ambient")


@pytest.mark.parametrize("name", ["line-alt", "heisenberg", "model-k1",
                                  "model-k1-rotated", "ambient"])
def test_classify_the_flow_frame_and_is_holomorphic_read_one_residual(name):
    # all three complexify the same Jacobians DX through cr_residuals, so
    # their worst residuals at the same points are the same number
    sys_ = _ambient_system() if name == "ambient" else load_builtin(name).system
    pts = sample_points(sys_, 40, 3)
    from_classify = classify(sys_, sys_.table.at(pts)).residuals["holomorphic"]
    from_frame = np.max(_HolomorphicFrame(list(sys_.fields)).residuals(pts))
    from_fields = max(is_holomorphic(V, pts)[1] for V in sys_.fields)
    assert from_classify == from_frame == from_fields
    assert (from_classify > 1e-9) == (name in ("line-alt", "heisenberg"))


def test_is_holomorphic_compiles_only_the_jacobian():
    # log(x1) faults at x1 = -1, its partial 1/x1 does not: the verdict is
    # read off DX alone, |dZ/dzbar| = |1/x1|/2
    V = VectorField.from_exprs(ComplexChart.standard(1), [parse_expr("log(x1)"), 0.0])
    assert is_holomorphic(V, [[-1.0, 0.0]]) == (False, 0.5)
