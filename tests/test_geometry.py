"""Chart calculus checks: J, d, d^c, dd^c, brackets, complexification,
rank and involutivity, exercised on the nilpotent-group and affine-group
closed forms."""

import numpy as np
import pytest

from cgsys.expr import parse_expr
from cgsys.geometry import (
    ComplexChart, VectorField, apply_J, complexify, d_apply, dc_apply,
    ddc_apply, distribution_rank, env_at, field_matrix, frobenius_defect,
    is_holomorphic, laplacian, lie_bracket, pair_brackets, span_residuals,
)


def make_field(chart, comps):
    return VectorField.from_exprs(chart, comps)


@pytest.fixture(scope="module")
def heis():
    """Nilpotent 3x3 upper-triangular group system: chart C^3, k = 3."""
    chart = ComplexChart.standard(3)
    fields = (
        make_field(chart, ["1", "0", "0", "0", "0", "y2"]),
        make_field(chart, ["0", "0", "1", "0", "x1", "0"]),
        make_field(chart, ["0", "0", "0", "0", "1", "0"]),
    )
    grads = tuple(parse_expr(s) for s in ["-y1", "-y2", "x1*y2 - y3"])
    return chart, fields, grads


@pytest.fixture(scope="module")
def affine():
    """Invertible upper-triangular 2x2 group system: chart C^2, k = 2."""
    chart = ComplexChart.standard(2)
    th = "atan2(y1, x1)"
    fields = (
        make_field(chart, ["x1", "y1", f"y2*(x1/y1 - 1/{th})", "y2"]),
        make_field(chart, ["0", "0", f"y1/{th}", "0"]),
    )
    grads = tuple(parse_expr(s) for s in [f"-{th}", f"-y2*{th}/y1"])
    return chart, fields, grads


def sample_points(chart, n, seed, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n, chart.dim))


def affine_points(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, size=(n, 4))
    pts[:, 0] = rng.uniform(0.5, 2.0, size=n)  # x1
    pts[:, 1] = rng.uniform(0.5, 2.0, size=n)  # y1
    return pts


# --- J ----------------------------------------------------------------------


def test_J_of_coordinate_field():
    chart = ComplexChart.standard(2)
    dx1 = VectorField.coordinate(chart, "x1")
    assert apply_J(dx1) == VectorField.coordinate(chart, "y1")


def test_J_of_group_field_matches_closed_form(heis):
    chart, _, _ = heis
    L2 = make_field(chart, ["0", "0", "1", "0", "x1", "y1"])
    JL2 = make_field(chart, ["0", "0", "0", "1", "-y1", "x1"])
    got = apply_J(L2)
    for p in sample_points(chart, 10, 1):
        assert np.allclose(got.values(p), JL2.values(p), atol=0)


def test_J_squared_is_minus_identity(heis):
    chart, fields, _ = heis
    for V in fields:
        W = apply_J(apply_J(V))
        for p in sample_points(chart, 100, 2):
            assert np.max(np.abs(W.values(p) + V.values(p))) < 1e-12


# --- d and d^c ---------------------------------------------------------------


def test_d_of_coordinate():
    chart = ComplexChart.standard(1)
    f = parse_expr("x1")
    V = VectorField.coordinate(chart, "x1")
    assert d_apply(f, V, [0.3, -1.2]) == 1.0


def test_d_of_constant_vanishes():
    chart = ComplexChart.standard(1)
    V = VectorField.coordinate(chart, "x1")
    assert d_apply(parse_expr("7"), V, [0.3, -1.2]) == 0.0


def test_d_group_gradient_annihilates_representation(heis):
    chart, fields, grads = heis
    rng = np.random.default_rng(5)
    for p in rng.uniform(-2, 2, size=(10, 6)):
        # independent oracle: directional central difference
        h = 1e-6
        v = fields[0].values(p)
        up = env_at(chart, p + h * v)
        dn = env_at(chart, p - h * v)
        from cgsys.expr import evaluate
        oracle = (evaluate(grads[2], up) - evaluate(grads[2], dn)) / (2 * h)
        assert abs(oracle) < 1e-8
        assert abs(d_apply(grads[2], fields[0], p)) < 1e-13


def test_dc_unit_normalization():
    chart = ComplexChart.standard(1)
    f = parse_expr("-y1")
    V = VectorField.coordinate(chart, "x1")
    assert dc_apply(f, V, [0.0, 0.0]) == 1.0


def test_dc_misses_x_coordinate():
    chart = ComplexChart.standard(1)
    assert dc_apply(parse_expr("x1"), VectorField.coordinate(chart, "x1"), [0.4, 0.2]) == 0.0


def test_dc_cross_terms_vanish(heis):
    chart, fields, grads = heis
    for p in sample_points(chart, 10, 7):
        assert abs(dc_apply(grads[0], fields[1], p)) < 1e-13


def test_dc_equals_minus_d_of_J_two_paths(heis):
    # d^c is computed from its own coordinate formula; compare against the
    # independent route -d(f)(JV)
    chart, fields, grads = heis
    for p in sample_points(chart, 25, 8):
        for f in grads:
            for V in fields:
                a = dc_apply(f, V, p)
                b = -d_apply(f, apply_J(V), p)
                assert a == pytest.approx(b, abs=1e-14)


# --- brackets ----------------------------------------------------------------


def test_bracket_of_coordinate_fields_vanishes():
    chart = ComplexChart.standard(1)
    b = lie_bracket(VectorField.coordinate(chart, "x1"),
                    VectorField.coordinate(chart, "y1"))
    assert b == VectorField.zero(chart)


def test_group_bracket_closes_on_third_field(heis):
    chart, fields, _ = heis
    b = lie_bracket(fields[0], fields[1])
    for p in sample_points(chart, 20, 9):
        assert np.max(np.abs(b.values(p) - fields[2].values(p))) < 1e-14


def test_affine_bracket_scales_second_field(affine):
    chart, fields, _ = affine
    L1 = make_field(chart, ["x1", "y1", "0", "0"])
    L2 = make_field(chart, ["0", "0", "x1", "y1"])
    b = lie_bracket(L1, L2)
    for p in affine_points(20, 10):
        assert np.max(np.abs(b.values(p) - L2.values(p))) < 1e-13


def test_bracket_antisymmetry(heis):
    chart, fields, _ = heis
    b1 = lie_bracket(fields[0], fields[1]) + lie_bracket(fields[1], fields[0])
    for p in sample_points(chart, 100, 11):
        assert np.max(np.abs(b1.values(p))) < 1e-12


def test_bracket_jacobi_identity(heis, affine):
    for chart, fields, _ in (heis, affine):
        tripled = list(fields) + [apply_J(fields[0])]
        X, Y, Z = tripled[0], tripled[1], tripled[-1]
        J1 = lie_bracket(X, lie_bracket(Y, Z))
        J2 = lie_bracket(Y, lie_bracket(Z, X))
        J3 = lie_bracket(Z, lie_bracket(X, Y))
        total = J1 + J2 + J3
        pts = (sample_points(chart, 50, 12) if chart.N == 3
               else affine_points(50, 12))
        for p in pts:
            assert np.max(np.abs(total.values(p))) < 1e-9


# --- dd^c --------------------------------------------------------------------


def test_ddc_linear_function_vanishes():
    chart = ComplexChart.standard(1)
    f = parse_expr("-y1")
    V = VectorField.coordinate(chart, "x1")
    W = VectorField.coordinate(chart, "y1")
    # brute-force oracle from the defining three-term expression: every term
    # is constant for a linear f, so the value is exactly 0
    assert ddc_apply(f, V, W, [0.2, 0.4]) == 0.0


def test_ddc_group_value_frozen(heis):
    chart, fields, grads = heis
    for p in sample_points(chart, 10, 13):
        got = ddc_apply(grads[2], fields[0], fields[1], p)
        # oracle: with du_a(xi_b) = 0 the identity collapses to
        # -d^c u_3([xi_1, xi_2]) = -d^c u_3(xi_3) = -1
        oracle = -dc_apply(grads[2], lie_bracket(fields[0], fields[1]), p)
        assert oracle == pytest.approx(-1.0, abs=1e-14)
        assert got == pytest.approx(-1.0, abs=1e-13)


def test_ddc_constant_vanishes(heis):
    chart, fields, _ = heis
    f = parse_expr("3.5")
    for p in sample_points(chart, 5, 14):
        assert ddc_apply(f, fields[0], fields[1], p) == 0.0


def test_ddc_bracket_recovery_identities(heis):
    # the three dd^c identities: applying the representation to
    # dd^c U(X, Y) recovers -[X, Y] for X, Y drawn from {xi, J xi}
    chart, fields, grads = heis
    pairs = [
        (fields[0], fields[1], lie_bracket(fields[0], fields[1])),
        (apply_J(fields[0]), apply_J(fields[1]), lie_bracket(fields[0], fields[1])),
        (fields[0], apply_J(fields[1]), lie_bracket(fields[0], apply_J(fields[1]))),
    ]
    for p in sample_points(chart, 100, 15):
        for X, Y, B in pairs:
            coeffs = [ddc_apply(g, X, Y, p) for g in grads]
            recovered = sum(c * f.values(p) for c, f in zip(coeffs, fields))
            assert np.max(np.abs(recovered + B.values(p))) < 1e-9


# --- complexification --------------------------------------------------------


def test_complexify_coordinate_fields():
    chart = ComplexChart.standard(2)
    Zx = complexify(VectorField.coordinate(chart, "x1"))
    assert np.allclose(Zx.values([0.1, 0.2, 0.3, 0.4]), [1, 0])
    Zy = complexify(VectorField.coordinate(chart, "y1"))
    assert np.allclose(Zy.values([0.1, 0.2, 0.3, 0.4]), [1j, 0])


def test_complexify_group_field(heis):
    chart, fields, _ = heis
    Z = complexify(fields[0])
    p = [0.3, -0.7, 1.1, 0.5, 0.0, 2.0]
    assert np.allclose(Z.values(p), [1.0, 0.0, 0.5j])  # (1, 0, i y2)


def test_complexify_roundtrip(heis):
    chart, fields, _ = heis
    for V in fields:
        assert complexify(V).to_real() == V


def test_holomorphy_of_constant_field():
    chart = ComplexChart.standard(1)
    Z = complexify(VectorField.coordinate(chart, "x1"))
    ok, worst = is_holomorphic(Z, [[0.0, 0.0], [1.0, -1.0]], tol=1e-12)
    assert ok and worst == 0.0


def test_group_field_is_not_holomorphic(heis):
    chart, fields, _ = heis
    Z = complexify(fields[0])
    ok, worst = is_holomorphic(Z, sample_points(chart, 10, 16), tol=1e-8)
    assert not ok
    # d(i y2)/dzbar_2 has modulus exactly 1/2 everywhere
    assert worst == pytest.approx(0.5, abs=1e-15)


def test_left_invariant_affine_field_is_holomorphic(affine):
    chart, _, _ = affine
    L1 = make_field(chart, ["x1", "y1", "0", "0"])  # coefficient z1
    ok, worst = is_holomorphic(complexify(L1), affine_points(10, 17), tol=1e-12)
    assert ok and worst == 0.0


# --- rank and involutivity ---------------------------------------------------


def test_rank_of_coordinate_pair():
    chart = ComplexChart.standard(2)
    fs = [VectorField.coordinate(chart, "x1"), VectorField.coordinate(chart, "y1")]
    assert distribution_rank(fs, [0.0, 0.0, 0.0, 0.0]) == 2


def test_rank_full_for_group_frame(heis):
    chart, fields, _ = heis
    frame = list(fields) + [apply_J(V) for V in fields]
    for p in sample_points(chart, 10, 18):
        assert distribution_rank(frame, p) == 6


def test_rank_of_repeated_field(heis):
    chart, fields, _ = heis
    p = sample_points(chart, 1, 19)[0]
    assert distribution_rank([fields[0], fields[0]], p) == 1


def test_frobenius_defect_coordinate_fields():
    chart = ComplexChart.standard(2)
    fs = [VectorField.coordinate(chart, "x1"), VectorField.coordinate(chart, "x2")]
    assert frobenius_defect(fs, [0.1, 0.2, 0.3, 0.4]) == 0.0


def test_frobenius_defect_group_frame_integrable(heis):
    chart, fields, _ = heis
    frame = list(fields) + [apply_J(V) for V in fields]
    for p in sample_points(chart, 10, 20):
        assert frobenius_defect(frame, p) < 1e-12


def test_frobenius_defect_positive_when_bracket_escapes():
    chart = ComplexChart.standard(2)
    V = VectorField.coordinate(chart, "x1")
    W = make_field(chart, ["0", "1", "x1", "0"])  # x1 d/dx2 + d/dy1
    # oracle at the origin: [V, W] = d/dx2 while span{V(0), W(0)} is the
    # (x1, y1) plane, so the whole bracket escapes: defect = |d/dx2| = 1
    p = [0.0, 0.0, 0.0, 0.0]
    b = lie_bracket(V, W).values(p)
    assert np.allclose(b, [0, 0, 1, 0])
    assert frobenius_defect([V, W], p) == pytest.approx(1.0, abs=1e-14)


def test_frobenius_rank_deficient_raises(heis):
    chart, fields, _ = heis
    p = sample_points(chart, 1, 21)[0]
    with pytest.raises(ValueError):
        frobenius_defect([fields[0], fields[0]], p)


# --- symmetry relations under J ----------------------------------------------


def test_bracket_J_symmetries(heis, affine):
    for chart, fields, _ in (heis, affine):
        pts = (sample_points(chart, 30, 22) if chart.N == 3
               else affine_points(30, 22))
        for a in range(len(fields)):
            for b in range(len(fields)):
                lhs = lie_bracket(apply_J(fields[a]), apply_J(fields[b]))
                rhs = lie_bracket(fields[a], fields[b])
                mixed = (lie_bracket(apply_J(fields[a]), fields[b])
                         + lie_bracket(fields[a], apply_J(fields[b])))
                for p in pts:
                    assert np.max(np.abs(lhs.values(p) - rhs.values(p))) < 1e-10
                    assert np.max(np.abs(mixed.values(p))) < 1e-10


# --- harmonicity helpers -----------------------------------------------------


def test_laplacian_of_group_gradients(heis, affine):
    chart, _, grads = heis
    for g in grads:
        lap = laplacian(g, chart)
        for p in sample_points(chart, 20, 23):
            from cgsys.expr import evaluate
            assert abs(evaluate(lap, env_at(chart, p))) < 1e-13

    chart2, _, grads2 = affine
    lap2 = laplacian(grads2[1], chart2)
    from cgsys.expr import evaluate
    vals = [abs(evaluate(lap2, env_at(chart2, p))) for p in affine_points(20, 24)]
    assert max(vals) > 1e-3


# --- batched span projection ----------------------------------------------------


def lstsq_residuals(S, V):
    """The reference: one least-squares solve per frame and column."""
    out = np.empty(S.shape[:-2] + V.shape[-1:])
    for idx in np.ndindex(*S.shape[:-2]):
        for j in range(V.shape[-1]):
            v = V[idx][:, j]
            coef, *_ = np.linalg.lstsq(S[idx], v, rcond=None)
            out[idx + (j,)] = np.linalg.norm(v - S[idx] @ coef)
    return out


def stacked(fields, others, pts):
    S = np.array([field_matrix(fields, p) for p in pts])
    V = np.array([field_matrix(others, p) for p in pts])
    return S, V


def test_span_residuals_match_lstsq_on_full_rank_frames(heis, affine):
    for (chart, fields, _), pts in ((heis, sample_points(heis[0], 20, 30)),
                                    (affine, affine_points(20, 31))):
        frame = list(fields) + [apply_J(V) for V in fields]
        # a random right-hand side escapes the span, the brackets do not
        S, V = stacked(fields, pair_brackets(frame), pts)
        V = np.concatenate([V, np.random.default_rng(32).normal(size=V.shape)], axis=2)
        assert np.max(np.abs(span_residuals(S, V) - lstsq_residuals(S, V))) < 1e-14


def test_span_residuals_match_lstsq_on_rank_deficient_frames(heis):
    chart, fields, _ = heis
    pts = sample_points(chart, 15, 33)
    rng = np.random.default_rng(34)
    repeated = [fields[0], fields[1], fields[0]]
    S, V = stacked(repeated, pair_brackets(list(fields) + [apply_J(fields[0])]), pts)
    V = np.concatenate([V, rng.normal(size=(len(pts), chart.dim, 3))], axis=2)
    assert np.max(np.abs(span_residuals(S, V) - lstsq_residuals(S, V))) < 1e-14
    # the broken demo's frame {2 d/dx, 2 d/dy} at a point, plus a zero frame
    c1 = ComplexChart.standard(1)
    broken = make_field(c1, ["2", "0"])
    S = np.array([field_matrix([broken, apply_J(broken), broken], [0.3, -0.4]),
                  np.zeros((2, 3))])
    V = rng.normal(size=(2, 2, 4))
    assert np.max(np.abs(span_residuals(S, V) - lstsq_residuals(S, V))) < 1e-14
