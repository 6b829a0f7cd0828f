"""Flow, matrix exponential and complex-time flow checks, with the exact
matrix product g exp(tV) as the oracle for group flows."""

import math

import numpy as np
import pytest
import scipy.linalg

from cgsys.expr import parse_expr
from cgsys.flow import (
    ComplexFlow, DivergenceError, EmbeddingError, FlowConfig, FlowError,
    HolomorphyError, MatrixGroupSpec, NewtonError, complexified_flow_jacobian,
    complexified_flow_matrix, exp_map, flow_complex, flow_complex_multi,
    flow_real, left_invariant_fields, matrix_exp, newton_inverse, newton_rows,
    numerical_jacobian,
)
from cgsys.geometry import ComplexChart, VectorField, apply_J, j_matrix

CFG = FlowConfig()


@pytest.fixture(scope="module")
def heis_spec():
    chart = ComplexChart.standard(3)
    E1 = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=float)
    E2 = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
    E3 = np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=float)
    return MatrixGroupSpec(chart, np.eye(3), ((0, 1), (1, 2), (0, 2)), (E1, E2, E3))


@pytest.fixture(scope="module")
def affine_spec():
    chart = ComplexChart.standard(2)
    E1 = np.array([[1, 0], [0, 0]], dtype=float)
    E2 = np.array([[0, 1], [0, 0]], dtype=float)
    base = np.array([[0, 0], [0, 1]], dtype=float)
    return MatrixGroupSpec(chart, base, ((0, 0), (0, 1)), (E1, E2))


def field(chart, comps):
    return VectorField.from_exprs(chart, comps)


# --- real flows --------------------------------------------------------------


def test_flow_constant_field():
    chart = ComplexChart.standard(1)
    V = VectorField.coordinate(chart, "x1")
    out = flow_real(V, [0.0, 0.0], 1.0, CFG)
    assert np.allclose(out, [1.0, 0.0], atol=1e-14)


def test_flow_group_field_matches_matrix_product(heis_spec):
    # flow of L2 from the group point with x1 = 1: oracle g exp(t E2)
    chart = heis_spec.chart
    L2 = field(chart, ["0", "0", "1", "0", "x1", "y1"])
    p = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    got = flow_real(L2, p, 1.0, CFG)
    oracle = heis_spec.unembed(heis_spec.embed(p) @ matrix_exp(heis_spec.basis[1]))
    assert np.allclose(got, oracle, atol=1e-12)
    assert got[2] == pytest.approx(1.0, abs=1e-12)  # x2
    assert got[4] == pytest.approx(1.0, abs=1e-12)  # x3


def test_flow_linear_field_exponential_growth():
    chart = ComplexChart.standard(1)
    V = field(chart, ["x1", "0"])
    out = flow_real(V, [1.0, 0.3], 1.0, CFG)
    assert abs(out[0] - math.e) / math.e < 1e-8


def test_flow_group_law():
    chart = ComplexChart.standard(1)
    V = field(chart, ["x1", "0"])
    rng = np.random.default_rng(0)
    for _ in range(5):
        s, t = rng.uniform(-1, 1, size=2)
        p = np.array([rng.uniform(0.5, 1.5), 0.0])
        once = flow_real(V, p, s + t, CFG)
        twice = flow_real(V, flow_real(V, p, s, CFG), t, CFG)
        assert np.max(np.abs(once - twice)) < 1e-9


def test_flow_divergence_guard():
    chart = ComplexChart.standard(1)
    V = field(chart, ["x1^2", "0"])
    with pytest.raises(DivergenceError):
        flow_real(V, [1.0, 0.0], 2.0, FlowConfig(divergence_bound=1e3))


def _one_plus_z_squared(chart, rotate):
    # the real form of (1 + z^2) d/dz, or its J-rotation
    V = field(chart, ["1 + x1^2 - y1^2", "2*x1*y1"])
    return apply_J(V) if rotate else V


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("t", [0.3, -0.2])
def test_flow_real_columns_match_central_differences(rotate, t):
    chart = ComplexChart.standard(1)
    V = _one_plus_z_squared(chart, rotate)
    rng = np.random.default_rng(12)
    P = rng.uniform(-0.5, 0.5, size=(3, 2))
    T = rng.uniform(-1, 1, size=(3, 2, 2))
    _, cols = flow_real(V, P, t, CFG, T)
    assert cols.shape == (3, 2, 3)
    for p, tangents, c in zip(P, T, cols):
        def real_map(x):
            # start point moved along the tangents, and the time moved
            return flow_real(V, p + tangents @ x[:2], t + x[2], CFG)

        fd = numerical_jacobian(real_map, np.zeros(3), 1e-6)
        assert np.max(np.abs(c - fd)) < 1e-8


def test_flow_real_stack_equals_row_by_row(monkeypatch):
    # polynomial components: + - * agree bit for bit however rows are batched
    def refuse(self, p):
        raise AssertionError("flow_real evaluates the compiled field")

    monkeypatch.setattr(VectorField, "values", refuse)
    chart = ComplexChart.standard(1)
    V = _one_plus_z_squared(chart, True)
    rng = np.random.default_rng(13)
    P = rng.uniform(-0.5, 0.5, size=(4, 2))
    T = rng.uniform(-1, 1, size=(4, 2, 1))
    for t in (0.35, 0.0):
        end, cols = flow_real(V, P, t, CFG, T)
        assert np.array_equal(flow_real(V, P, t, CFG), end)
        for i in range(len(P)):
            row_end, row_cols = flow_real(V, P[i], t, CFG, T[i])
            assert np.array_equal(row_end, end[i])
            assert np.array_equal(row_cols, cols[i])
            assert np.array_equal(flow_real(V, P[i], t, CFG), end[i])
    # at t = 0 the map is the identity and d(end)/dt is V itself
    assert np.array_equal(cols[..., 0], T[..., 0])
    assert np.array_equal(cols[..., 1], V.program(P))


def test_exp_map_of_zero_field():
    chart = ComplexChart.standard(2)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(exp_map(p, VectorField.zero(chart), CFG), p, atol=0)


def test_exp_map_group_identity_row(heis_spec):
    chart = heis_spec.chart
    L1 = field(chart, ["1", "0", "0", "0", "0", "0"])
    out = exp_map(np.zeros(6), L1, CFG)
    oracle = heis_spec.unembed(matrix_exp(heis_spec.basis[0]))
    assert np.allclose(out, oracle, atol=1e-12)
    assert out[0] == pytest.approx(1.0, abs=1e-12)


def test_exp_map_halving_composition():
    chart = ComplexChart.standard(1)
    V = field(chart, ["sin(x1) + 1", "0"])
    p = np.array([0.2, 0.0])
    half = VectorField.from_exprs(chart, ["(sin(x1) + 1)/2", "0"])
    twice = exp_map(exp_map(p, half, CFG), half, CFG)
    assert np.max(np.abs(twice - exp_map(p, V, CFG))) < 1e-9


# --- matrix exponential -------------------------------------------------------


def test_matrix_exp_zero():
    assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_nilpotent_exact(heis_spec):
    u1, u2, u3 = 0.5, 0.25, 0.125
    A = u1 * heis_spec.basis[0] + u2 * heis_spec.basis[1] + u3 * heis_spec.basis[2]
    E = matrix_exp(A)
    # Taylor terminates: exp = I + A + A^2/2, entry (1,3) = u3 + u1 u2 / 2
    assert E[0, 2] == u3 + u1 * u2 / 2.0
    assert np.array_equal(E, np.eye(3) + A + A @ A / 2.0)


def test_matrix_exp_diagonal():
    E = matrix_exp(np.diag([0.3, -1.7]))
    assert np.allclose(np.diag(E), [math.exp(0.3), math.exp(-1.7)], rtol=1e-15)


def test_matrix_exp_inverse_property():
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = rng.uniform(-1, 1, size=(4, 4)) + 1j * rng.uniform(-1, 1, size=(4, 4))
        A *= 2.0 / max(np.linalg.norm(A, 1), 1e-9)
        P = matrix_exp(A) @ matrix_exp(-A)
        assert np.max(np.abs(P - np.eye(4))) < 1e-12


def test_matrix_exp_against_scipy():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A = rng.uniform(-2, 2, size=(5, 5)) + 1j * rng.uniform(-2, 2, size=(5, 5))
        assert np.max(np.abs(matrix_exp(A) - scipy.linalg.expm(A))) < 1e-11


def test_stacked_matrix_exp_equals_one_row_calls(heis_spec):
    # rows with different scaling exponents, a nilpotent row whose Taylor
    # sum stops after two terms, a zero row and a real row in one stack
    rng = np.random.default_rng(12)
    A = rng.uniform(-1, 1, size=(7, 3, 3)) + 1j * rng.uniform(-1, 1, size=(7, 3, 3))
    A *= np.array([0.1, 0.4, 1.0, 3.0, 9.0, 40.0, 0.7])[:, None, None]
    nilpotent = 0.5 * heis_spec.basis[0] + 0.25 * heis_spec.basis[1]
    A = np.concatenate([A, [nilpotent, np.zeros((3, 3)), A[2].real]])
    E = matrix_exp(A)
    for row, alone in zip(E, map(matrix_exp, A)):
        assert np.array_equal(row, alone)
    assert np.array_equal(E[7], np.eye(3) + nilpotent + nilpotent @ nilpotent / 2.0)
    for row, ref in zip(E[:5], map(scipy.linalg.expm, A[:5])):
        assert np.max(np.abs(row - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))


# --- matrix-group complexified flow -------------------------------------------


def test_matrix_flow_zero_time(heis_spec):
    g = np.array([0.4, 0.0, -0.7, 0.0, 0.2, 0.0])
    assert np.allclose(complexified_flow_matrix(heis_spec, g, [0, 0, 0]), g, atol=0)


def test_matrix_flow_imaginary_time_frozen(heis_spec):
    a, b, c = 0.3, -0.5, 0.2
    out = complexified_flow_matrix(heis_spec, np.zeros(6), [1j * a, 1j * b, 1j * c])
    # exp(i(aE1+bE2+cE3)) = I + i(aE1+bE2+cE3) - (ab/2) E3
    expect = np.array([0.0, a, 0.0, b, -a * b / 2.0, c])
    assert np.allclose(out, expect, atol=1e-15)


def test_matrix_flow_affine_rotation(affine_spec):
    th = 0.77
    out = complexified_flow_matrix(affine_spec, np.array([1.0, 0.0, 0.0, 0.0]),
                                   [1j * th, 0.0])
    assert out[0] == pytest.approx(math.cos(th), abs=1e-15)
    assert out[1] == pytest.approx(math.sin(th), abs=1e-15)
    assert np.allclose(out[2:], 0.0, atol=1e-15)


def test_group_spec_rejects_dependent_basis():
    chart = ComplexChart.standard(2)
    E1 = np.array([[1, 0], [0, 0]], dtype=float)
    with pytest.raises(ValueError):
        MatrixGroupSpec(chart, np.zeros((2, 2)), ((0, 0), (0, 1)),
                        (E1, 2.0 * E1))


def test_unembed_rejects_off_pattern(heis_spec):
    M = np.eye(3, dtype=complex)
    M[2, 0] = 0.5
    from cgsys.flow import EmbeddingError
    with pytest.raises(EmbeddingError):
        heis_spec.unembed(M)


def test_left_invariant_fields_closed_forms(heis_spec, affine_spec):
    L = left_invariant_fields(heis_spec)
    chart = heis_spec.chart
    expect = [
        field(chart, ["1", "0", "0", "0", "0", "0"]),
        field(chart, ["0", "0", "1", "0", "x1", "y1"]),
        field(chart, ["0", "0", "0", "0", "1", "0"]),
    ]
    rng = np.random.default_rng(3)
    for got, ref in zip(L, expect):
        for p in rng.uniform(-2, 2, size=(5, 6)):
            assert np.allclose(got.values(p), ref.values(p), atol=0)

    La = left_invariant_fields(affine_spec)
    chart2 = affine_spec.chart
    expect2 = [
        field(chart2, ["x1", "y1", "0", "0"]),
        field(chart2, ["0", "0", "x1", "y1"]),
    ]
    for got, ref in zip(La, expect2):
        for p in rng.uniform(-2, 2, size=(5, 4)):
            assert np.allclose(got.values(p), ref.values(p), atol=0)


# --- complex-time flows --------------------------------------------------------


def test_flow_complex_constant_field_imaginary_time():
    chart = ComplexChart.standard(1)
    V = VectorField.coordinate(chart, "x1")
    out = flow_complex(V, [0.0, 0.0], 1j, CFG)
    assert np.allclose(out, [0.0, 1.0], atol=1e-14)


def test_flow_complex_linear_field_rotates():
    chart = ComplexChart.standard(1)
    V = field(chart, ["x1", "y1"])  # coefficient z1, holomorphic
    th = 0.6
    out = flow_complex(V, [1.0, 0.0], 1j * th, CFG)
    assert out[0] == pytest.approx(math.cos(th), abs=1e-10)
    assert out[1] == pytest.approx(math.sin(th), abs=1e-10)


def test_flow_complex_real_time_matches_flow_real(heis_spec):
    L = left_invariant_fields(heis_spec)
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = rng.uniform(-1, 1, size=6)
        t = rng.uniform(-1, 1)
        a = flow_complex(L[1], p, complex(t), CFG)
        b = flow_real(L[1], p, t, CFG) if t != 0 else p
        assert np.max(np.abs(a - b)) < 1e-10


def test_flow_complex_agrees_with_matrix_oracle(heis_spec):
    L = left_invariant_fields(heis_spec)
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = np.zeros(6)
        g[0::2] = rng.uniform(-1, 1, size=3)  # random real group point
        V = rng.uniform(-0.7, 0.7, size=3) + 1j * rng.uniform(-0.7, 0.7, size=3)
        ode = flow_complex_multi(L, g, V, CFG)
        mat = complexified_flow_matrix(heis_spec, g, V)
        assert np.max(np.abs(ode - mat)) < 1e-8


def test_flow_complex_holomorphic_in_time():
    chart = ComplexChart.standard(1)
    V = field(chart, ["x1", "y1"])
    p = np.array([1.0, 0.0])
    J = j_matrix(chart)
    h = 1e-4
    rng = np.random.default_rng(6)
    for _ in range(20):
        w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        dt = (flow_complex(V, p, w + h, CFG) - flow_complex(V, p, w - h, CFG)) / (2 * h)
        du = (flow_complex(V, p, w + 1j * h, CFG) - flow_complex(V, p, w - 1j * h, CFG)) / (2 * h)
        cr = 0.5 * (dt + J @ du)
        assert np.max(np.abs(cr)) < 1e-6


def test_flow_complex_refuses_non_holomorphic(heis_spec):
    chart = heis_spec.chart
    # the gradient-system representation field has coefficient i y2, which
    # depends on zbar_2: must be refused
    V = field(chart, ["1", "0", "0", "0", "0", "y2"])
    with pytest.raises(HolomorphyError):
        flow_complex(V, np.zeros(6), 1j, CFG)


# --- exact derivatives of the flows -------------------------------------------


def test_block_frechet_matches_central_differences(affine_spec):
    # the affine algebra is not nilpotent, so the Taylor sum runs in full
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(5):
        g = rng.uniform(-1, 1, size=4)
        V = rng.uniform(-0.8, 0.8, size=2) + 1j * rng.uniform(-0.8, 0.8, size=2)
        dg = rng.uniform(-1, 1, size=(4, 3))
        dV = rng.uniform(-1, 1, size=(2, 2)) + 1j * rng.uniform(-1, 1, size=(2, 2))
        point, J = complexified_flow_jacobian(affine_spec, g, V, dg, dV)
        assert J.shape == (4, 5)
        assert np.max(np.abs(point - complexified_flow_matrix(affine_spec, g, V))) < 1e-14
        for j in range(3):
            fd = (complexified_flow_matrix(affine_spec, g + h * dg[:, j], V)
                  - complexified_flow_matrix(affine_spec, g - h * dg[:, j], V)) / (2 * h)
            assert np.max(np.abs(J[:, j] - fd)) < 1e-8
        for b in range(2):
            fd = (complexified_flow_matrix(affine_spec, g, V + h * dV[:, b])
                  - complexified_flow_matrix(affine_spec, g, V - h * dV[:, b])) / (2 * h)
            assert np.max(np.abs(J[:, 3 + b] - fd)) < 1e-8


@pytest.mark.parametrize("which", ["affine", "heisenberg"])
def test_stacked_flow_jacobian_equals_one_row_calls(which, affine_spec, heis_spec):
    spec = {"affine": affine_spec, "heisenberg": heis_spec}[which]
    dim, k = spec.chart.dim, spec.k
    rng = np.random.default_rng(13)
    g = rng.uniform(-1, 1, size=(6, dim))
    V = rng.uniform(-0.8, 0.8, size=(6, k)) + 1j * rng.uniform(-0.8, 0.8, size=(6, k))
    dg = rng.uniform(-1, 1, size=(6, dim, 2))
    dV = 1j * np.eye(k)
    points, J, errors = complexified_flow_jacobian(spec, g, V, dg, dV)
    flowed, flow_errors = complexified_flow_matrix(spec, g, V)
    assert errors == flow_errors == [None] * 6
    assert np.max(np.abs(points - flowed)) < 1e-14
    h = 1e-6
    for i in range(6):
        point, Ji = complexified_flow_jacobian(spec, g[i], V[i], dg[i], dV)
        assert np.array_equal(points[i], point)
        assert np.array_equal(J[i], Ji)
        assert np.array_equal(flowed[i], complexified_flow_matrix(spec, g[i], V[i]))

        def real_map(x, i=i):
            # the start point moved along dg, then the real coefficients of u
            return complexified_flow_matrix(spec, g[i] + dg[i] @ x[:2],
                                            V[i] + 1j * x[2:])

        fd = numerical_jacobian(real_map, np.zeros(2 + k), h)
        assert np.max(np.abs(J[i] - fd)) < 1e-8


def test_stacked_unembed_refuses_only_the_drifting_row(heis_spec):
    M = np.stack([heis_spec.embed(np.full(6, 0.1 * i)) for i in range(3)])
    M[1, 2, 0] = 0.5
    points, errors = heis_spec.unembed_rows(M)
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], EmbeddingError) and "drift 5.000e-01" in str(errors[1])
    assert np.array_equal(points[2], heis_spec.unembed(M[2]))


def test_block_frechet_matches_scipy(affine_spec):
    # from the identity the direction columns are the Frechet derivative
    # itself; the affine algebra lives in the first row, which the slots hold
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    V = np.array([0.3 + 0.7j, -0.4 + 0.2j])
    dV = np.array([[1.0, 0.5j], [-0.25, 1.0 + 1.0j]])
    _, J = complexified_flow_jacobian(affine_spec, identity, V, np.zeros((4, 0)), dV)
    X = affine_spec.algebra_element(V)
    for b in range(2):
        L = scipy.linalg.expm_frechet(X, affine_spec.algebra_element(dV[:, b]),
                                      compute_expm=False)
        assert np.max(np.abs(J[:, b] - affine_spec.read_slots(L))) < 1e-14


def test_block_frechet_is_exact_on_the_nilpotent_group(heis_spec):
    # exp(i u E1) with g = identity: d/du_1 of the slot (0, 1) is i exactly,
    # and the (0, 2) slot of g exp(X) is the polynomial z1 z2 / 2 + z3
    identity = np.zeros(6)
    u = np.array([0.3, -0.2, 0.1])
    _, J = complexified_flow_jacobian(heis_spec, identity, 1j * u,
                                      np.zeros((6, 0)), 1j * np.eye(3))
    expected = np.zeros((6, 3))
    expected[1, 0] = expected[3, 1] = expected[5, 2] = 1.0
    expected[4, 0] = -u[1] / 2    # d/du1 of (i u1)(i u2)/2 = -u1 u2 / 2
    expected[4, 1] = -u[0] / 2
    assert np.array_equal(J, expected)


def test_variational_flow_matches_central_differences():
    # N = 2 with a non-constant holomorphic Jacobian: Z = (z1 z2, exp(z1))
    chart = ComplexChart.standard(2)
    V = field(chart, ["x1*x2 - y1*y2", "x1*y2 + y1*x2",
                      "exp(x1)*cos(y1)", "exp(x1)*sin(y1)"])
    flow = ComplexFlow([V], CFG)
    rng = np.random.default_rng(10)
    for _ in range(4):
        p = rng.uniform(-0.5, 0.5, size=4)
        w = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        tangents = rng.uniform(-1, 1, size=(4, 2))
        dz0 = tangents[0::2] + 1j * tangents[1::2]
        point, Y = flow.with_tangents(p, [w], dz0)
        assert np.array_equal(point, flow(p, [w]))

        def real_map(x):
            # chart start point moved along the tangents, real and imaginary time
            return flow(p + tangents @ x[:2], [w + complex(x[2], x[3])])

        fd = numerical_jacobian(real_map, np.zeros(4), 1e-6)
        exact = np.column_stack([Y[:, 0], Y[:, 1], Y[:, 2], 1j * Y[:, 2]])
        exact_real = np.empty((4, 4))
        exact_real[0::2], exact_real[1::2] = exact.real, exact.imag
        assert np.max(np.abs(exact_real - fd)) < 1e-8


def test_variational_flow_refuses_non_holomorphic(heis_spec):
    V = field(heis_spec.chart, ["1", "0", "0", "0", "0", "y2"])
    with pytest.raises(HolomorphyError):
        ComplexFlow([V], CFG).with_tangents(np.zeros(6), [1j], np.eye(3))


def _flow_one_row(frame, cfg, p, w, dz0):
    """The reference for ComplexFlow.rows: one trajectory integrated on its
    own, every RK4 stage a tree walk of the fields (frame.coefficients and
    frame.derivatives), holomorphy checked at the start point and after
    every step.  Returns the chart point and Y, or raises what refuses it."""
    w = np.asarray(w, dtype=complex)
    frame.check_holomorphy(p)
    scale = float(np.sum(np.abs(w)))
    if scale > cfg.max_time:
        raise FlowError(f"|w| = {scale:g} exceeds max_time {cfg.max_time:g}")
    z = p[0::2] + 1j * p[1::2]
    if dz0 is None and scale == 0.0:
        return np.ascontiguousarray(z).view(float), None
    nsteps = max(1, math.ceil(scale * cfg.steps_per_unit))
    h = 1.0 / nsteps
    N, k = len(z), len(w)

    def real(v):
        return np.ascontiguousarray(v).view(float)

    def velocity(y):
        if dz0 is None:
            return w @ frame.coefficients(real(y))
        Z = frame.coefficients(real(y[0]))
        A = (w @ frame.derivatives(real(y[0])).reshape(k, N * N)).reshape(N, N)
        out = np.empty_like(y)
        out[0] = w @ Z
        out[1:] = y[1:] @ A.T
        out[1 + dz0.shape[1]:] += Z
        return out

    y = z if dz0 is None else np.vstack([z, dz0.T, np.zeros((k, N), dtype=complex)])
    for _ in range(nsteps):
        k1 = velocity(y)
        k2 = velocity(y + 0.5 * h * k1)
        k3 = velocity(y + 0.5 * h * k2)
        k4 = velocity(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        zz = y if dz0 is None else y[0]
        if np.max(np.abs(zz)) > cfg.divergence_bound:
            raise DivergenceError(f"trajectory exceeded bound {cfg.divergence_bound:g}")
        frame.check_holomorphy(real(zz))
    return (real(y), None) if dz0 is None else (real(y[0]), y[1:].T)


@pytest.mark.parametrize("tangents", [False, True])
def test_stacked_complex_flow_equals_each_row_alone(tangents):
    # Z(z) = 1 + 1.1 z^2 + 1/(z + 3), plus a term that is 0 for y1 <= 0.5
    # and not holomorphic above it
    chart = ComplexChart.standard(1)
    bump = "(y1 - 0.5 + sqrt((y1 - 0.5)^2))^3"
    V = field(chart, [f"1 + 1.1*(x1^2 - y1^2) + (x1 + 3)/((x1 + 3)^2 + y1^2) + {bump}",
                      "2*1.1*x1*y1 - y1/((x1 + 3)^2 + y1^2)"])
    flow = ComplexFlow([V], CFG)
    # |w| = 0, 0.1, 0.25 and just above it (64 and 65 steps), then a row
    # that diverges, one that crosses y1 = 0.5, one over max_time and one
    # that starts on the pole
    P = np.array([[0.2, 0.0], [0.1, 0.0], [0.3, 0.0], [-0.1, 0.0],
                  [0.0, 0.0], [0.0, 0.0], [0.1, 0.0], [-3.0, 0.0]])
    W = np.array([[0.0], [0.1j], [0.25j], [np.nextafter(0.25, 1.0) * 1j],
                  [2.0], [1.0j], [20.0j], [0.1j]])
    dZ0 = (np.random.default_rng(4).uniform(-1, 1, (8, 1, 2)) + 1j) if tangents else None
    points, Y, errors = flow.rows(P, W, dZ0)
    assert [type(err).__name__ if err else None for err in errors] == [
        None, None, None, None,
        "DivergenceError", "HolomorphyError", "FlowError", "DomainError"]
    for i in range(len(P)):
        dz0 = None if dZ0 is None else dZ0[i]
        try:
            want = _flow_one_row(flow.frame, CFG, P[i], W[i], dz0)
        except (FlowError, ValueError) as err:
            assert type(errors[i]) is type(err) and str(errors[i]) == str(err)
            assert np.isnan(points[i]).all()
            continue
        one = flow(P[i], W[i]) if dz0 is None else flow.with_tangents(P[i], W[i], dz0)
        for got in (points[i], one if dz0 is None else one[0]):
            assert np.array_equal(got, want[0])
        if tangents:
            assert np.array_equal(Y[i], want[1]) and np.array_equal(one[1], want[1])
    # the refused rows change nothing in the others
    rest = flow.rows(P[:4], W[:4], None if dZ0 is None else dZ0[:4])
    assert np.array_equal(rest[0], points[:4])


# --- Newton inversion ----------------------------------------------------------


def test_newton_inverse_quadratic():
    def F(x):
        return np.array([x[0] ** 2 + x[1], x[1] ** 3 - x[0]])

    x = newton_inverse(F, [1.2, -0.3], [1.0, 0.5], CFG)
    assert np.max(np.abs(F(x) - [1.2, -0.3])) < 1e-10


def test_newton_inverse_uses_a_given_jacobian():
    def F(x):
        return np.array([x[0] ** 2 + x[1], x[1] ** 3 - x[0]])

    def jac(x):
        return np.array([[2 * x[0], 1.0], [-1.0, 3 * x[1] ** 2]])

    x = newton_inverse(F, [1.2, -0.3], [1.0, 0.5], CFG, jac=jac)
    assert np.max(np.abs(F(x) - [1.2, -0.3])) < 1e-10


def _atan_rows(fail):
    """arctan and its derivative over rows, with the trials where
    ``fail(x)`` holds refused."""
    def FJ(X):
        errors = [fail(x) for x in X]
        return np.arctan(X), 1.0 / (1.0 + X[:, :, None] ** 2), errors
    return FJ


@pytest.mark.parametrize("error", [EmbeddingError, FlowError, ValueError])
def test_a_failed_trial_halves_only_its_own_row(error):
    # from 2 a full Newton step on arctan lands at -3.5, which is refused;
    # the rows started at 0.5 and -0.3 never see a refusal
    def fail(x):
        return error("refused trial") if abs(x[0]) > 2.5 else None

    x0 = np.array([[0.5], [2.0], [-0.3]])
    out = newton_rows(_atan_rows(fail), np.zeros((3, 1)), x0, CFG)
    assert out.errors == [None] * 3
    assert out.halvings[0] == out.halvings[2] == 0 and out.halvings[1] >= 1
    assert np.max(np.abs(out.x)) < 1e-10
    # F and dF at the returned rows are the map's own values there
    values, jac, _ = _atan_rows(fail)(out.x)
    assert np.array_equal(out.values, values) and np.array_equal(out.jac, jac)
    for i in range(3):
        alone = newton_rows(_atan_rows(fail), np.zeros((1, 1)), x0[i:i + 1], CFG)
        assert np.array_equal(alone.x[0], out.x[i])
        assert (alone.iters[0], alone.halvings[0]) == (out.iters[i], out.halvings[i])
        # the one-row view follows the same steps
        x = newton_inverse(np.arctan, [0.0], x0[i], CFG,
                           jac=lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]))
        if i != 1:
            assert np.array_equal(x, out.x[i])


def test_lockstep_rows_fail_on_their_own():
    # row 0 converges; row 1 has a singular Jacobian; row 2 has no root
    def FJ(X):
        return np.column_stack([X[:, 0] ** 2]), (2.0 * X)[:, :, None], [None] * len(X)

    targets, x0 = np.array([[4.0], [1.0], [-1.0]]), np.array([[3.0], [0.0], [1.0]])
    cfg = FlowConfig(newton_max_iter=8)
    out = newton_rows(FJ, targets, x0, cfg)
    assert out.errors[0] is None and abs(out.x[0, 0] - 2.0) < 1e-10
    assert str(out.errors[1]) == "Jacobian is numerically singular"
    assert isinstance(out.errors[2], NewtonError)
    # stacked still equals alone
    for i in range(3):
        alone = newton_rows(FJ, targets[i:i + 1], x0[i:i + 1], cfg)
        assert np.array_equal(alone.x[0], out.x[i])
        assert (alone.iters[0], alone.halvings[0]) == (out.iters[i], out.halvings[i])
        assert str(alone.errors[0]) == str(out.errors[i])
    with pytest.raises(NewtonError, match="singular"):
        newton_inverse(lambda x: x ** 2, [1.0], [0.0], jac=lambda x: np.array([[2.0 * x[0]]]))


def test_newton_inverse_reports_failure():
    def F(x):
        return np.array([x[0] ** 2])

    with pytest.raises(NewtonError):
        newton_inverse(F, [-1.0], [1.0], FlowConfig(newton_max_iter=8))
