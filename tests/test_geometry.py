"""Chart calculus checks: J, d, d^c, dd^c, brackets, complexification,
rank and involutivity, exercised on the nilpotent-group and affine-group
closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cgsys.expr import DomainError, Table, diff, parse_expr
from cgsys.flow import ComplexFlow, HolomorphyError
from cgsys.geometry import (
    ComplexChart, VectorField, apply_J, field_matrix, holomorphic_jacobians,
    is_holomorphic, j_matrix, j_rotate, jet_blocks, laplacian, lie_bracket,
    pair_brackets, span_residuals, to_chart, to_complex,
)
from cgsys.verify import GradientSystem
from reference import env_at, evaluate, values


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


def test_values_is_the_programs_one_row_view(heis):
    chart, fields, _ = heis
    for V in fields:
        for p in sample_points(chart, 5, 4):
            assert values(V, p).tobytes() == V.values(p).tobytes()
    V = make_field(ComplexChart.standard(1), ["1/x1", "0"])
    with pytest.raises(DomainError) as err:
        V.values([0.0, 2.0])
    assert str(err.value) == "division by zero in '1/x1' at point 0 (x1=0.0, y1=2.0)"
    with pytest.raises(ValueError, match="point must have 2 coordinates"):
        V.values([0.0, 2.0, 1.0])


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


def test_numeric_J_matches_symbolic_J(heis):
    chart, fields, _ = heis
    pts = sample_points(chart, 5, 3)
    # rows are field values: (points, fields, 2N)
    V = np.array([field_matrix(fields, p).T for p in pts])
    JV = np.array([field_matrix([apply_J(f) for f in fields], p).T for p in pts])
    assert np.array_equal(j_rotate(V), JV)
    assert np.array_equal(j_rotate(V[0, 0]), JV[0, 0])
    assert np.array_equal(j_rotate(j_rotate(V)), -V)


def test_j_matrix_is_j_rotate_without_negative_zeros():
    for n in (1, 2, 3):
        J = j_matrix(ComplexChart.standard(n))
        assert np.array_equal(J, j_rotate(np.eye(2 * n)).T)
        assert np.array_equal(J @ J, -np.eye(2 * n))
        assert not np.any(np.signbit(J) & (J == 0.0))


# every float, with -0.0, the infinities and NaN drawn often
_floats = st.floats() | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_to_chart_inverts_to_complex_bit_for_bit_along_any_axis(data):
    shape = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    shape[axis] *= 2
    v = data.draw(arrays(float, shape, elements=_floats))
    # C-ordered memory is viewed; Fortran-ordered and reversed memory is copied
    layout = data.draw(st.sampled_from(["C", "F", "reversed"]))
    if layout == "F":
        v = np.asfortranarray(v)
    elif layout == "reversed":
        v = v[::-1]
    z = to_complex(v, axis)
    pairs = np.moveaxis(v, axis, -1)
    zm = np.moveaxis(z, axis, -1)
    assert zm.real.tobytes() == pairs[..., 0::2].tobytes()
    assert zm.imag.tobytes() == pairs[..., 1::2].tobytes()
    back = to_chart(z, axis)
    assert back.shape == v.shape and back.tobytes() == v.tobytes()
    assert to_complex(back, axis).tobytes() == z.tobytes()


def test_to_complex_views_adjacent_pairs_and_copies_the_others():
    v = np.arange(12.0).reshape(3, 4)
    assert np.shares_memory(to_complex(v), v) and np.shares_memory(to_complex(v[::2]), v)
    assert np.shares_memory(to_chart(to_complex(v)), v)
    z = to_complex(v.T, axis=0)
    assert not np.shares_memory(z, v)
    assert np.array_equal(z, [[0 + 1j, 4 + 5j, 8 + 9j], [2 + 3j, 6 + 7j, 10 + 11j]])


def test_holomorphic_jacobians_read_the_x_columns_of_DX():
    rng = np.random.default_rng(4)
    # a strided stack, as a Table's outputs give it
    DX = rng.standard_normal((5, 40))[:, 4:40].reshape(5, 1, 6, 6)
    dZ = holomorphic_jacobians(DX)
    assert dZ.shape == (5, 1, 3, 3) and dZ.flags.c_contiguous
    assert np.array_equal(dZ, DX[..., 0::2, 0::2] + 1j * DX[..., 1::2, 0::2])
    # Z = z1^2 z2 d/dz1: dZ/dz1 = 2 z1 z2 and dZ/dz2 = z1^2
    chart = ComplexChart.standard(2)
    V = make_field(chart, ["(x1^2 - y1^2)*x2 - 2*x1*y1*y2", "(x1^2 - y1^2)*y2 + 2*x1*y1*x2",
                           "0", "0"])
    pts = sample_points(chart, 6, 1)
    z1, z2 = to_complex(pts).T
    dZ = holomorphic_jacobians(Table(jet_blocks((), [V], chart), chart.names).at(pts)["DX"])
    assert np.allclose(dZ[:, 0, 0], np.column_stack([2 * z1 * z2, z1 ** 2]), rtol=1e-14)
    assert not dZ[:, 0, 1].any()


# --- d and d^c ---------------------------------------------------------------


def table_at(chart, fields, grads, pts):
    """The check table blocks of the system (fields, grads) at the rows of pts."""
    return GradientSystem(chart, tuple(fields), tuple(grads)).table.at(pts)


def test_d_of_coordinate():
    chart = ComplexChart.standard(1)
    t = table_at(chart, [VectorField.coordinate(chart, "x1")], [parse_expr("x1")], [[0.3, -1.2]])
    assert t["d"][0, 0, 0] == 1.0


def test_d_of_constant_vanishes():
    chart = ComplexChart.standard(1)
    t = table_at(chart, [VectorField.coordinate(chart, "x1")], [parse_expr("7")], [[0.3, -1.2]])
    assert t["d"][0, 0, 0] == 0.0


def test_d_group_gradient_annihilates_representation(heis):
    chart, fields, grads = heis
    pts = np.random.default_rng(5).uniform(-2, 2, size=(10, 6))
    for p in pts:
        # independent oracle: directional central difference
        h = 1e-6
        v = values(fields[0], p)
        up = env_at(chart, p + h * v)
        dn = env_at(chart, p - h * v)
        oracle = (evaluate(grads[2], up) - evaluate(grads[2], dn)) / (2 * h)
        assert abs(oracle) < 1e-8
    # d[:, a, b] = du_(a+1)(xi_(b+1))
    assert np.max(np.abs(table_at(chart, fields, grads, pts)["d"][:, 2, 0])) < 1e-13


def test_dc_unit_normalization():
    chart = ComplexChart.standard(1)
    t = table_at(chart, [VectorField.coordinate(chart, "x1")], [parse_expr("-y1")], [[0.0, 0.0]])
    assert t["dc"][0, 0, 0] == 1.0


def test_dc_misses_x_coordinate():
    chart = ComplexChart.standard(1)
    t = table_at(chart, [VectorField.coordinate(chart, "x1")], [parse_expr("x1")], [[0.4, 0.2]])
    assert t["dc"][0, 0, 0] == 0.0


def test_dc_cross_terms_vanish(heis):
    chart, fields, grads = heis
    t = table_at(chart, fields, grads, sample_points(chart, 10, 7))
    assert np.max(np.abs(t["dc"][:, 0, 1])) < 1e-13


def test_dc_equals_minus_d_of_J_two_paths(heis):
    # d^c is computed from its own coordinate formula; compare against the
    # independent route -d(f)(JV)
    chart, fields, grads = heis
    pts = sample_points(chart, 25, 8)
    dc = table_at(chart, fields, grads, pts)["dc"]
    d_of_J = table_at(chart, [apply_J(V) for V in fields], grads, pts)["d"]
    assert np.allclose(dc, -d_of_J, rtol=0, atol=1e-14)


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


def ddc(sys_, pts):
    """dd^c u_c(X, Y) through the three-term identity at the rows of pts,
    from the check table: (points, frame pair, c)."""
    t = sys_.table.at(pts)
    return t["t1"] - t["t2"] - t["t3"]


def test_ddc_linear_function_vanishes():
    chart = ComplexChart.standard(1)
    line = GradientSystem(chart, (VectorField.coordinate(chart, "x1"),), (parse_expr("-y1"),))
    # brute-force oracle from the defining three-term expression: every term
    # is constant for a linear f, so the value is exactly 0 on (d/dx1, d/dy1)
    assert line.table.pairs[0] == (0, 1)
    assert ddc(line, [[0.2, 0.4]])[0, 0, 0] == 0.0


def test_ddc_group_value_frozen(heis):
    chart, fields, grads = heis
    pts = sample_points(chart, 10, 13)
    sys_ = GradientSystem(chart, fields, grads)
    got = ddc(sys_, pts)[:, sys_.table.row[(0, 1)], 2]
    # oracle: with du_a(xi_b) = 0 the identity collapses to
    # -d^c u_3([xi_1, xi_2]) = -d^c u_3(xi_3) = -1, with d^c u(V) = -du(JV)
    JB = apply_J(lie_bracket(fields[0], fields[1]))
    for p in pts:
        du = [evaluate(diff(grads[2], x), env_at(chart, p)) for x in chart.names]
        assert np.dot(du, values(JB, p)) == pytest.approx(-1.0, abs=1e-14)
    assert np.allclose(got, -1.0, rtol=0, atol=1e-13)


def test_ddc_constant_vanishes(heis):
    chart, fields, _ = heis
    sys_ = GradientSystem(chart, fields, (parse_expr("3.5"),) * 3)
    assert not ddc(sys_, sample_points(chart, 5, 14))[:, sys_.table.row[(0, 1)]].any()


def test_ddc_bracket_recovery_identities(heis):
    # the three dd^c identities: applying the representation to
    # dd^c U(X, Y) recovers -[X, Y] for X, Y drawn from {xi, J xi}, against
    # the symbolic brackets
    chart, fields, grads = heis
    sys_ = GradientSystem(chart, fields, grads)
    k = sys_.k
    pairs = [
        ((0, 1), lie_bracket(fields[0], fields[1])),
        ((k, k + 1), lie_bracket(fields[0], fields[1])),
        ((0, k + 1), lie_bracket(fields[0], apply_J(fields[1]))),
    ]
    pts = sample_points(chart, 100, 15)
    coeffs = ddc(sys_, pts)
    for i, p in enumerate(pts):
        for pair, B in pairs:
            c = coeffs[i, sys_.table.row[pair]]
            recovered = sum(c[a] * f.values(p) for a, f in enumerate(fields))
            assert np.max(np.abs(recovered + B.values(p))) < 1e-9


# --- complexification --------------------------------------------------------


def complexified(fields, pts, holomorphic=True):
    """The coefficients Z (n, k, N) of the complexified fields (V - iJV)/2 at
    the rows of pts, as complex-time flows read them from their one tape,
    which refuses every row of a non-holomorphic field."""
    Z, _, refused = ComplexFlow(fields).frame.at(np.asarray(pts, dtype=float))
    if holomorphic:
        assert not refused
    else:
        assert sorted(refused) == list(range(len(pts)))
        assert all(isinstance(err, HolomorphyError) for err in refused.values())
    return Z


def test_complexify_coordinate_fields():
    chart = ComplexChart.standard(2)
    fields = [VectorField.coordinate(chart, "x1"), VectorField.coordinate(chart, "y1")]
    Z = complexified(fields, [[0.1, 0.2, 0.3, 0.4]])
    assert np.allclose(Z[0], [[1, 0], [1j, 0]])


def test_complexify_group_field(heis):
    chart, fields, _ = heis
    p = [0.3, -0.7, 1.1, 0.5, 0.0, 2.0]
    assert np.allclose(complexified(fields[:1], [p], holomorphic=False)[0, 0],
                       [1.0, 0.0, 0.5j])  # (1, 0, i y2)


def test_complexify_roundtrip(heis):
    # the coefficients of Z, read as (re, im) pairs, are V's components
    chart, fields, _ = heis
    pts = sample_points(chart, 5, 3)
    Z = complexified(fields, pts, holomorphic=False)
    for a, V in enumerate(fields):
        assert np.array_equal(to_chart(Z[:, a]), V.program(pts))


def test_holomorphy_of_constant_field():
    chart = ComplexChart.standard(1)
    V = VectorField.coordinate(chart, "x1")
    ok, worst = is_holomorphic(V, [[0.0, 0.0], [1.0, -1.0]], tol=1e-12)
    assert ok and worst == 0.0


def test_group_field_is_not_holomorphic(heis):
    chart, fields, _ = heis
    ok, worst = is_holomorphic(fields[0], sample_points(chart, 10, 16), tol=1e-8)
    assert not ok
    # d(i y2)/dzbar_2 has modulus exactly 1/2 everywhere
    assert worst == pytest.approx(0.5, abs=1e-15)


def test_left_invariant_affine_field_is_holomorphic(affine):
    chart, _, _ = affine
    L1 = make_field(chart, ["x1", "y1", "0", "0"])  # coefficient z1
    ok, worst = is_holomorphic(L1, affine_points(10, 17), tol=1e-12)
    assert ok and worst == 0.0


# --- rank and involutivity ---------------------------------------------------


def test_rank_of_coordinate_pair():
    chart = ComplexChart.standard(2)
    fs = [VectorField.coordinate(chart, "x1"), VectorField.coordinate(chart, "y1")]
    assert np.linalg.matrix_rank(field_matrix(fs, [0.0, 0.0, 0.0, 0.0])) == 2


def test_rank_full_for_group_frame(heis):
    chart, fields, grads = heis
    t = GradientSystem(chart, fields, grads).table.at(sample_points(chart, 10, 18))
    assert np.array_equal(np.linalg.matrix_rank(t["frame"]), [6] * 10)


def test_rank_of_repeated_field(heis):
    chart, fields, _ = heis
    p = sample_points(chart, 1, 19)[0]
    assert np.linalg.matrix_rank(field_matrix([fields[0], fields[0]], p)) == 1


def test_frobenius_defect_coordinate_fields():
    chart = ComplexChart.standard(2)
    fs = [VectorField.coordinate(chart, "x1"), VectorField.coordinate(chart, "x2")]
    S, B = stacked(fs, pair_brackets(fs), [[0.1, 0.2, 0.3, 0.4]])
    assert np.max(span_residuals(S, B)) == 0.0


def test_frobenius_defect_group_frame_integrable(heis):
    chart, fields, grads = heis
    table = GradientSystem(chart, fields, grads).table
    t = table.at(sample_points(chart, 10, 20))
    assert t["bracket"].shape == (10, 6, len(table.pairs)) == (10, 6, 15)
    assert np.max(span_residuals(t["frame"], t["bracket"])) < 1e-12


def test_frobenius_defect_positive_when_bracket_escapes():
    chart = ComplexChart.standard(2)
    V = VectorField.coordinate(chart, "x1")
    W = make_field(chart, ["0", "1", "x1", "0"])  # x1 d/dx2 + d/dy1
    # oracle at the origin: [V, W] = d/dx2 while span{V(0), W(0)} is the
    # (x1, y1) plane, so the whole bracket escapes: defect = |d/dx2| = 1
    p = [0.0, 0.0, 0.0, 0.0]
    b = lie_bracket(V, W).values(p)
    assert np.allclose(b, [0, 0, 1, 0])
    S, B = stacked([V, W], [lie_bracket(V, W)], [p])
    assert span_residuals(S, B)[0, 0] == pytest.approx(1.0, abs=1e-14)


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
            assert abs(evaluate(lap, env_at(chart, p))) < 1e-13

    chart2, _, grads2 = affine
    lap2 = laplacian(grads2[1], chart2)
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
