"""Flow, matrix exponential and complex-time flow checks, with the exact
matrix product g exp(tV) as the oracle for group flows."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate._ivp.dop853_coefficients as dop853
import scipy.linalg
from hypothesis import given, settings, strategies as st

import cgsys.flow
import cgsys.geometry
from cgsys.expr import DomainError, Program, add, diff, sub
from cgsys.flow import (
    DIVERGENCE_BOUND, HOLOMORPHY_TOL, MAX_SQUARINGS, MAX_TIME,
    ComplexFlow, DivergenceError, EmbeddingError, FlowConfig, FlowError,
    HolomorphyError, MatrixGroupSpec, NewtonError, complexified_flow_jacobian,
    complexified_flow_matrix, flow_complex_multi, flow_real, left_invariant_fields, matrix_exp, newton_inverse, newton_rows,
    numerical_jacobian, solve_rows, _exp_frechet, _scaling,
)
from cgsys.geometry import (
    ComplexChart, VectorField, apply_J, to_chart, to_complex,
)
import reference
from reference import evaluate, rk as rk_reference

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
    oracle, errors = complexified_flow_matrix(heis_spec, p[None], np.array([[0.0, 1.0, 0.0]]))
    assert errors == [None]
    assert np.allclose(got, oracle[0], atol=1e-12)
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
    # NaN fails |y| > bound too, so the bound is tested as not |y| <= bound;
    # a state that is not finite is named so, and the start point is checked
    # also where the flow takes no step
    bound = f"trajectory exceeded bound {DIVERGENCE_BOUND:g}"
    for p, t, text in (([1.0, 0.0], 2.0, bound),
                       ([np.nan, 0.0], 0.1, "trajectory state is not finite"),
                       ([0.0, np.inf], 0.1, "trajectory state is not finite"),
                       ([np.nan, 0.0], 0.0, "trajectory state is not finite"),
                       ([2e6, 0.0], 0.0, bound)):
        with pytest.raises(DivergenceError) as err:
            flow_real(V, p, t, CFG)
        assert str(err.value) == text


def _one_plus_z_squared(chart, rotate):
    # the real form of (1 + z^2) d/dz, or its J-rotation
    V = field(chart, ["1 + x1^2 - y1^2", "2*x1*y1"])
    return apply_J(V) if rotate else V


def test_flow_real_stack_equals_row_by_row(monkeypatch):
    # polynomial components: + - * agree bit for bit however rows are batched
    def refuse(self, p):
        raise AssertionError("flow_real evaluates the compiled field")

    monkeypatch.setattr(VectorField, "values", refuse)
    chart = ComplexChart.standard(1)
    V = _one_plus_z_squared(chart, True)
    rng = np.random.default_rng(13)
    P = rng.uniform(-0.5, 0.5, size=(4, 2))
    for t in (0.35, 0.0):
        end = flow_real(V, P, t, CFG)
        for i in range(len(P)):
            assert np.array_equal(flow_real(V, P[i], t, CFG), end[i])
    # at t = 0 the map is the identity
    assert np.array_equal(end, P)


def test_exp_map_of_zero_field():
    chart = ComplexChart.standard(2)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(flow_real(VectorField.zero(chart), p, 1.0, CFG), p, atol=0)


def test_exp_map_group_identity_row(heis_spec):
    chart = heis_spec.chart
    L1 = field(chart, ["1", "0", "0", "0", "0", "0"])
    out = flow_real(L1, np.zeros(6), 1.0, CFG)
    oracle, errors = heis_spec.unembed_rows(matrix_exp(heis_spec.basis[0])[None])
    assert errors == [None]
    assert np.allclose(out, oracle[0], atol=1e-12)
    assert out[0] == pytest.approx(1.0, abs=1e-12)


def test_exp_map_halving_composition():
    chart = ComplexChart.standard(1)
    V = field(chart, ["sin(x1) + 1", "0"])
    p = np.array([0.2, 0.0])
    half = VectorField.from_exprs(chart, ["(sin(x1) + 1)/2", "0"])
    twice = flow_real(half, flow_real(half, p, 1.0, CFG), 1.0, CFG)
    assert np.max(np.abs(twice - flow_real(V, p, 1.0, CFG))) < 1e-9


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


@pytest.mark.parametrize("shape", [(2, 3), (4, 2, 3), (3,), (2, 2, 2, 2)])
def test_matrix_exp_refuses_what_is_not_a_square_matrix_or_a_stack_of_them(shape):
    with pytest.raises(ValueError, match="square matrix or a stack of them"):
        matrix_exp(np.ones(shape))


def test_matrix_exp_scaling_does_not_overflow():
    # a 1-norm near the largest double needs 2^1024 to scale it down: its
    # 1024 squarings would leave no correct bit, so the value is NaN
    with np.errstate(all="raise"):
        assert np.isnan(matrix_exp([[5e307]])).all()
        assert np.isnan(matrix_exp([[-5e307]])).all()
    # a nilpotent matrix of that norm squares back exactly
    assert np.array_equal(matrix_exp([[0.0, 5e307], [0.0, 0.0]]), [[1.0, 5e307], [0.0, 1.0]])


@pytest.mark.parametrize("x", [5e307, 1e17, 1e15, 2.0 ** 25 * 1.01,
                               np.nextafter(2.0 ** 25, np.inf)])
def test_matrix_exp_refuses_squarings_past_its_accuracy_bound(x):
    # exp(i x) has modulus 1; past MAX_SQUARINGS = 26 squarings (1-norm
    # above 2^25, if only by one ulp) rounding amplified by 2^s would
    # decide it, and it is NaN
    assert np.isnan(matrix_exp([[1j * x]])).all()
    assert np.isnan(matrix_exp(np.array([[[0.5]], [[1j * x]]]))[1]).all()


@pytest.mark.parametrize("k", range(4, 31))
def test_the_scaled_norm_is_at_most_one_half_one_ulp_past_a_power_of_two(k):
    # twice the 1-norm is 2^k (1 + 2^-52): a rounded log2 gives s = k and a
    # scaled norm of (1 + 2^-52)/2; the exact count is k + 1, and the least
    x = math.ldexp(1.0 + 2.0 ** -52, k - 1)
    for A in ([[[x]]], [[[0.0, -x], [0.0, 0.0]]], [[[1j * x]]]):
        s, finite = _scaling(np.array(A))
        assert finite.all() and s.tolist() == [k + 1]
        assert math.ldexp(x, -(k + 1)) <= 0.5 < math.ldexp(x, -k)
    # and a power of two takes no more than it needs
    assert _scaling(np.array([[[math.ldexp(1.0, k - 1)]]]))[0].tolist() == [k]


@pytest.mark.parametrize("x", [1e3, 1e7, 2.0 ** 25])
def test_matrix_exp_within_its_accuracy_bound_keeps_26_bits(x):
    # at most 26 squarings: the relative error stays below 2^-27
    [[z]] = matrix_exp([[1j * x]])
    assert abs(z - complex(math.cos(x), math.sin(x))) <= 2.0 ** -27


@pytest.mark.parametrize("huge", [9e307, np.inf, 1j * np.inf, np.nan])
def test_matrix_exp_without_a_finite_scaling_is_nan(huge):
    # twice the norm is not finite: no power of two scales it, and the
    # row comes out NaN instead of raising
    with np.errstate(all="raise"):
        E = matrix_exp([[huge, 1.0], [0.0, 0.0]])
    assert np.isnan(E).all()


def test_matrix_exp_huge_row_leaves_its_stack_alone():
    A = np.array([[[0.3, 1.0], [-0.2, 0.1]], [[9e307, 0.0], [0.0, 1.0]],
                  [[5e307, 0.0], [0.0, 0.0]], [[2.5, -1.0], [0.5, 0.0]]])
    E = matrix_exp(A)
    assert np.array_equal(E[0], matrix_exp(A[0])) and np.array_equal(E[3], matrix_exp(A[3]))
    # 5e307 needs more squarings than the accuracy bound allows
    assert np.isnan(E[1]).all() and np.isnan(E[2]).all()


# --- the exponential and its Frechet derivatives from one Taylor sum ----------


def _reference_block_frechet(A, D):
    """L(A_i, D_b) (n, k, d, d) read off the first block row of the
    reference exponential of the block upper-triangular matrix with A on
    the diagonal and D_1, ..., D_k beside the first block."""
    n, d, k = len(A), A.shape[-1], len(D)
    block = np.zeros((n, k + 1, d, k + 1, d), dtype=complex)
    for b in range(k + 1):
        block[:, b, :, b] = A
    block[:, 0, :, 1:] = np.transpose(D, (1, 0, 2))
    top = reference.matrix_exp(block.reshape(n, (k + 1) * d, (k + 1) * d))[:, :d, d:]
    return top.reshape(n, d, k, d).transpose(0, 2, 1, 3)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# row kinds of a stack: a nilpotent row (strictly upper triangular from a
# drawn diagonal on, so that rows stop at different terms), a zero row
# (+-0 entries only), a diagonal and a full row, a row past MAX_SQUARINGS
# and a row whose doubled 1-norm is not finite (both NaN)
_KINDS = ("nilpotent", "zero", "diagonal", "full", "past-bound", "no-scaling")
# and the stacks: rows of those kinds, all zero rows, or all zero rows
# with a direction entry that is not finite
_STACKS = ("rows", "zero", "zero-non-finite")


@st.composite
def _exp_stacks(draw, kinds=_KINDS, stacks=_STACKS):
    """A stack A (n, d, d), real or complex, with -0.0 entries, and k
    directions D (k, d, d) shared by its rows."""
    n, d, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    complex_ = draw(st.booleans())
    stack = draw(st.sampled_from(stacks))

    def entries(shape):
        M = rng.standard_normal(shape)
        return M + 1j * rng.standard_normal(shape) if complex_ else M

    def zeros(shape):
        M = np.zeros(shape, dtype=complex if complex_ else float)
        M.real = np.copysign(0.0, rng.standard_normal(shape))
        if complex_:
            M.imag = np.copysign(0.0, rng.standard_normal(shape))
        return M

    if stack != "rows":
        k = max(k, int(stack == "zero-non-finite"))
        D = entries((k, d, d))
        if stack == "zero-non-finite":
            D[tuple(rng.integers(0, (k, d, d)))] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        return zeros((n, d, d)), D
    A = entries((n, d, d))
    for i in range(n):
        kind = draw(st.sampled_from(kinds))
        A[i] *= 2.0 ** draw(st.integers(-8, 6))
        if kind == "nilpotent":
            A[i] = np.triu(A[i], draw(st.integers(1, d)))
        elif kind == "zero":
            A[i] = zeros((d, d))
        elif kind == "diagonal":
            A[i] = np.diag(np.diag(A[i]))
        elif kind == "past-bound":
            A[i, 0, 0] = 1e9j if complex_ else 1e9
        elif kind == "no-scaling":
            A[i, 0, -1] = draw(st.sampled_from([9e307, np.inf, np.nan]))
        A[i][rng.random((d, d)) < 0.25] = -0.0
    return A, entries((k, d, d))


def _warned(f, *args):
    """f(*args) and the set of warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(*args)
    return out, {f"{w.category.__name__}: {w.message}" for w in caught}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_exp_stacks())
def test_the_frechet_routine_is_the_per_row_reference_bit_for_bit(stack):
    # every row adds every term and the stack stops at once, where the
    # reference masks each row's adds and stops it at its own zero terms;
    # a zero stack takes no term unless a direction is not finite
    A, D = stack
    (E, L), warned = _warned(_exp_frechet, A, D)
    (rE, rL), ref_warned = _warned(reference.exp_frechet, A, D)
    assert _same_bits(E, rE) and _same_bits(L, rL) and warned == ref_warned


def test_a_zero_stack_takes_no_term(monkeypatch):
    # exp(0) = I and L(0, D) = D + 0.0, without reading a norm; a stack with
    # a direction that is not finite takes the loop, where 0 inf is NaN
    D = np.array([[[1.5, -0.0], [0.0, -2.0]]], dtype=complex)
    A = np.array([[[-0.0, 0.0], [0.0, -0.0]]] * 3)

    def no_norm(A):
        raise AssertionError("read a norm")

    with monkeypatch.context() as patch:
        patch.setattr(cgsys.flow, "_scaling", no_norm)
        E, L = _exp_frechet(A, D)
    assert _same_bits(E, np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy())
    assert _same_bits(L, np.broadcast_to(D + 0.0, (3, 1, 2, 2)).copy())
    assert _same_bits(matrix_exp(A), np.broadcast_to(np.eye(2), (3, 2, 2)).copy())
    D[0, 0, 1] = np.inf
    with pytest.warns(RuntimeWarning, match="invalid value"):
        E, L = _exp_frechet(A, D)
    assert _same_bits(E, np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy())
    assert np.isnan(L).all()


def test_a_row_with_no_finite_scaling_is_one_nan_stacked_or_alone():
    # the NaN sign that the products leave in such a row depends on its stack
    A = np.array([[[0j]], [[np.inf + 0j]]])
    D = np.ones((1, 1, 1), dtype=complex)
    E, L = _exp_frechet(A, D)
    Ei, Li = _exp_frechet(A[1:], D)
    assert np.isnan(E[1]).all() and np.isnan(L[1]).all()
    assert _same_bits(E[1], Ei[0]) and _same_bits(L[1], Li[0])
    assert _same_bits(matrix_exp(A)[1], matrix_exp(A[1]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_exp_stacks(stacks=("rows", "zero")))
def test_the_exponential_of_the_frechet_routine_is_matrix_exp_bit_for_bit(stack):
    A, D = stack
    E, L = _exp_frechet(A, D)
    ref = reference.matrix_exp(A)
    assert _same_bits(E, ref)
    assert _same_bits(matrix_exp(A), ref)
    assert L.shape == (len(A), len(D)) + A.shape[1:]
    for i in range(len(A)):
        # a row in a stack of one, and matrix_exp's one-matrix view
        Ei, Li = _exp_frechet(A[i:i + 1], D)
        assert _same_bits(E[i], Ei[0]) and _same_bits(L[i], Li[0])
        assert _same_bits(matrix_exp(A[i]), ref[i])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_exp_stacks(kinds=("nilpotent", "diagonal", "full"), stacks=("rows",)),
       st.floats(4.0, 64.0))
def test_frechet_derivatives_match_scipy_and_the_block_exponential(stack, norm):
    # each row scaled to a 1-norm of 4 to 64: three to seven squarings
    A, D = stack
    A = A * (norm / np.maximum(np.abs(A).sum(axis=1).max(axis=1), 1e-300))[:, None, None]
    E, L = _exp_frechet(A, D)
    block = _reference_block_frechet(A, D)
    for i in range(len(A)):
        for b in range(len(D)):
            ref = scipy.linalg.expm_frechet(A[i], D[b], compute_expm=False)
            size = np.max(np.abs(ref))
            assert np.max(np.abs(L[i, b] - ref)) <= 1e-12 * size
            assert np.max(np.abs(L[i, b] - block[i, b])) <= 1e-13 * size


def test_frechet_sum_that_does_not_stop_is_nan_past_the_squaring_bound():
    # the shift matrix of size 9: its exponential's sum stops after 9 terms,
    # its derivatives' after 17, past the 16 the sum takes; at a 1-norm
    # of 2^30 (31 squarings) they are NaN and the exponential is not
    N = np.eye(9, k=1)
    D = np.random.default_rng(4).standard_normal((2, 9, 9))
    A = np.stack([2.0 ** 30 * N, 2.0 ** 10 * N])
    E, L = _exp_frechet(A, D)
    assert np.isfinite(E).all() and _same_bits(E, reference.matrix_exp(A))
    assert np.isnan(L[0]).all() and np.isfinite(L[1]).all()


# --- matrix-group complexified flow -------------------------------------------


def test_matrix_flow_zero_time(heis_spec):
    g = np.array([[0.4, 0.0, -0.7, 0.0, 0.2, 0.0]])
    out, errors = complexified_flow_matrix(heis_spec, g, np.zeros((1, 3)))
    assert errors == [None] and np.allclose(out, g, atol=0)


def test_matrix_flow_imaginary_time_frozen(heis_spec):
    a, b, c = 0.3, -0.5, 0.2
    out, errors = complexified_flow_matrix(heis_spec, np.zeros((1, 6)),
                                           np.array([[1j * a, 1j * b, 1j * c]]))
    # exp(i(aE1+bE2+cE3)) = I + i(aE1+bE2+cE3) - (ab/2) E3
    expect = np.array([0.0, a, 0.0, b, -a * b / 2.0, c])
    assert errors == [None] and np.allclose(out[0], expect, atol=1e-15)


def test_matrix_flow_affine_rotation(affine_spec):
    th = 0.77
    (out,), errors = complexified_flow_matrix(
        affine_spec, np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([[1j * th, 0.0]]))
    assert errors == [None]
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
    M = np.stack([np.eye(3, dtype=complex)] * 3)
    M[0, 2, 0] = 0.5
    # a matrix that is not finite is refused too, whatever its slots hold
    M[1, 2, 0] = np.nan
    M[2, 0, 1] = np.inf
    _, errors = heis_spec.unembed_rows(M)
    assert all(isinstance(err, EmbeddingError) for err in errors)


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
    out = flow_complex_multi([V], [0.0, 0.0], [1j], CFG)
    assert np.allclose(out, [0.0, 1.0], atol=1e-14)


def test_flow_complex_linear_field_rotates():
    chart = ComplexChart.standard(1)
    V = field(chart, ["x1", "y1"])  # coefficient z1, holomorphic
    th = 0.6
    out = flow_complex_multi([V], [1.0, 0.0], [1j * th], CFG)
    assert out[0] == pytest.approx(math.cos(th), abs=1e-10)
    assert out[1] == pytest.approx(math.sin(th), abs=1e-10)


def test_flow_complex_real_time_matches_flow_real(heis_spec):
    L = left_invariant_fields(heis_spec)
    rng = np.random.default_rng(4)
    P, t = rng.uniform(-1, 1, size=(5, 6)), rng.uniform(-1, 1, size=5)
    a, _, errors, _ = ComplexFlow([L[1]], CFG).rows(P, t[:, None].astype(complex))
    assert errors == [None] * 5
    for i in range(5):
        assert np.max(np.abs(a[i] - flow_real(L[1], P[i], t[i], CFG))) < 1e-10


def test_flow_complex_agrees_with_matrix_oracle(heis_spec):
    L = left_invariant_fields(heis_spec)
    rng = np.random.default_rng(5)
    g, V = np.zeros((20, 6)), np.zeros((20, 3), dtype=complex)
    for i in range(20):
        g[i, 0::2] = rng.uniform(-1, 1, size=3)  # random real group point
        V[i] = rng.uniform(-0.7, 0.7, size=3) + 1j * rng.uniform(-0.7, 0.7, size=3)
    ode, _, ode_errors, _ = ComplexFlow(L, CFG).rows(g, V)
    mat, errors = complexified_flow_matrix(heis_spec, g, V)
    assert ode_errors == errors == [None] * 20
    assert np.max(np.abs(ode - mat)) < 1e-8


def test_flow_complex_holomorphic_in_time():
    chart = ComplexChart.standard(1)
    V = field(chart, ["x1", "y1"])
    J = np.array([[0.0, -1.0], [1.0, 0.0]])    # J d/dx1 = d/dy1, J d/dy1 = -d/dx1
    h = 1e-4
    rng = np.random.default_rng(6)
    w = rng.uniform(-0.5, 0.5, 20) + 1j * rng.uniform(-0.5, 0.5, 20)
    # the flows from (1, 0) at w +- h and w +- ih, one row each
    W = np.concatenate([w + h, w - h, w + 1j * h, w - 1j * h])[:, None]
    ends, _, errors, _ = ComplexFlow([V], CFG).rows(np.tile([1.0, 0.0], (80, 1)), W)
    assert errors == [None] * 80
    up, dn, iup, idn = ends.reshape(4, 20, 2)
    cr = 0.5 * ((up - dn) + (iup - idn) @ J.T) / (2 * h)
    assert np.max(np.abs(cr)) < 1e-6


def test_flow_complex_refuses_non_holomorphic(heis_spec):
    chart = heis_spec.chart
    # the gradient-system representation field has coefficient i y2, which
    # depends on zbar_2: must be refused
    V = field(chart, ["1", "0", "0", "0", "0", "y2"])
    with pytest.raises(HolomorphyError):
        flow_complex_multi([V], np.zeros(6), [1j], CFG)


# --- exact derivatives of the flows -------------------------------------------


def test_block_frechet_matches_central_differences(affine_spec):
    # the affine algebra is not nilpotent, so the Taylor sum runs in full
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(5):
        g = rng.uniform(-1, 1, size=(1, 4))
        V = (rng.uniform(-0.8, 0.8, size=2) + 1j * rng.uniform(-0.8, 0.8, size=2))[None]
        dg = rng.uniform(-1, 1, size=(1, 4, 3))
        dV = rng.uniform(-1, 1, size=(2, 2)) + 1j * rng.uniform(-1, 1, size=(2, 2))
        point, J, errors = complexified_flow_jacobian(affine_spec, g, V, dg, dV)
        assert errors == [None] and J.shape == (1, 4, 5)
        flowed, _ = complexified_flow_matrix(affine_spec, g, V)
        assert np.max(np.abs(point - flowed)) < 1e-14
        # the steps +h and -h along each column of dg, then of dV, as rows
        g_steps = h * np.concatenate([dg[0].T, -dg[0].T])
        ends, _ = complexified_flow_matrix(affine_spec, g + g_steps, np.repeat(V, 6, axis=0))
        assert np.max(np.abs(J[0, :, :3] - (ends[:3] - ends[3:]).T / (2 * h))) < 1e-8
        V_steps = h * np.concatenate([dV.T, -dV.T])
        ends, _ = complexified_flow_matrix(affine_spec, np.repeat(g, 4, axis=0), V + V_steps)
        assert np.max(np.abs(J[0, :, 3:] - (ends[:2] - ends[2:]).T / (2 * h))) < 1e-8


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
        # row i in a stack of one
        one = slice(i, i + 1)
        point, Ji, _ = complexified_flow_jacobian(spec, g[one], V[one], dg[one], dV)
        assert np.array_equal(points[one], point)
        assert np.array_equal(J[one], Ji)
        assert np.array_equal(flowed[one], complexified_flow_matrix(spec, g[one], V[one])[0])

        def real_map(x, i=i):
            # the start point moved along dg, then the real coefficients of u
            return complexified_flow_matrix(spec, (g[i] + dg[i] @ x[:2])[None],
                                            (V[i] + 1j * x[2:])[None])[0][0]

        fd = numerical_jacobian(real_map, np.zeros(2 + k), h)
        assert np.max(np.abs(J[i] - fd)) < 1e-8


def test_stacked_unembed_refuses_only_the_drifting_row(heis_spec):
    M = np.stack([heis_spec.embed(np.full(6, 0.1 * i)) for i in range(3)])
    M[1, 2, 0] = 0.5
    points, errors = heis_spec.unembed_rows(M)
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], EmbeddingError) and "drift 5.000e-01" in str(errors[1])
    assert np.array_equal(points[2:], heis_spec.unembed_rows(M[2:])[0])


def test_unembed_names_a_non_finite_exponential(heis_spec, affine_spec):
    # a product whose exponential overflowed, or passed matrix_exp's
    # accuracy bound (NaN), is refused as not finite, not as drift; a finite
    # off-pattern matrix still names its drift
    M = np.stack([heis_spec.embed(np.full(6, 0.1))] * 4)
    M[1, 0, 1], M[2, 2, 1], M[3, 2, 0] = np.inf, np.nan, 0.5
    _, errors = heis_spec.unembed_rows(M)
    assert errors[0] is None
    for err in errors[1:3]:
        assert isinstance(err, EmbeddingError) and str(err) == (
            "matrix exponential is not finite (overflow, or past matrix_exp's accuracy bound)")
    assert "drift 5.000e-01" in str(errors[3])
    # an inf in a coordinate slot drifts nothing, and is refused in a stack
    # where no row drifts
    assert [str(err) if err else None for err in heis_spec.unembed_rows(M[:2])[1]] == [
        None, "matrix exponential is not finite (overflow, or past matrix_exp's accuracy bound)"]
    # exp(1e9 i E1) needs more squarings than MAX_SQUARINGS, so it is NaN,
    # and its row is refused as not finite
    points, errors = complexified_flow_matrix(
        affine_spec, np.zeros((2, 4)), np.array([[1e9j, 0.0], [0.5j, 0.0]]))
    assert str(errors[0]) == str(err) and errors[1] is None
    assert np.isfinite(points[1]).all()


def test_block_frechet_matches_scipy(affine_spec):
    # from the identity the direction columns are the Frechet derivative
    # itself; the affine algebra lives in the first row, which the slots hold
    identity = np.array([[1.0, 0.0, 0.0, 0.0]])
    V = np.array([0.3 + 0.7j, -0.4 + 0.2j])
    dV = np.array([[1.0, 0.5j], [-0.25, 1.0 + 1.0j]])
    _, (J,), _ = complexified_flow_jacobian(affine_spec, identity, V[None],
                                            np.zeros((1, 4, 0)), dV)
    X = affine_spec.algebra_element(V)
    for b in range(2):
        L = scipy.linalg.expm_frechet(X, affine_spec.algebra_element(dV[:, b]),
                                      compute_expm=False)
        assert np.max(np.abs(J[:, b] - affine_spec.read_slots(L))) < 1e-14


def test_block_frechet_is_exact_on_the_nilpotent_group(heis_spec):
    # exp(i u E1) with g = identity: d/du_1 of the slot (0, 1) is i exactly,
    # and the (0, 2) slot of g exp(X) is the polynomial z1 z2 / 2 + z3
    identity = np.zeros((1, 6))
    u = np.array([0.3, -0.2, 0.1])
    _, (J,), _ = complexified_flow_jacobian(heis_spec, identity, 1j * u[None],
                                            np.zeros((1, 6, 0)), 1j * np.eye(3))
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
        [point], [Y], _, _ = flow.rows(p[None], np.array([[w]]), dz0[None])
        assert np.array_equal(point, flow.rows(p[None], np.array([[w]]))[0][0])

        def real_map(x):
            # chart start point moved along the tangents, real and imaginary time
            return flow_complex_multi([V], p + tangents @ x[:2], [w + complex(x[2], x[3])], CFG)

        fd = numerical_jacobian(real_map, np.zeros(4), 1e-6)
        exact = np.column_stack([Y[:, 0], Y[:, 1], Y[:, 2], 1j * Y[:, 2]])
        exact_real = np.empty((4, 4))
        exact_real[0::2], exact_real[1::2] = exact.real, exact.imag
        assert np.max(np.abs(exact_real - fd)) < 1e-8


def test_variational_flow_refuses_non_holomorphic(heis_spec):
    V = field(heis_spec.chart, ["1", "0", "0", "0", "0", "y2"])
    points, Y, [err], _ = ComplexFlow([V], CFG).rows(np.zeros((1, 6)), np.array([[1j]]),
                                                     np.eye(3, dtype=complex)[None])
    assert isinstance(err, HolomorphyError)
    assert np.isnan(points).all() and np.isnan(Y).all()


def _flow_one_row(fields, cfg, p, w, dz0):
    """The reference for ComplexFlow.rows: one trajectory integrated on its
    own by scipy's DOP853 tableau, with the stage sums formed around k0 in
    the order flow._rk documents, every stage a tree walk (``evaluate``) of
    the fields Z and their Jacobians dZ/dz, the divergence bound applied to
    every later stage state and step end, and holomorphy checked at the start
    point, every stage state and the end point by a residual of its own,
    2 dZ/dzbar = (re_x - im_y) + i (im_x + re_y) built as expressions.
    Returns the chart point and Y, or raises what refuses it; a DomainError
    carries the point it was raised at."""
    chart = fields[0].chart
    N, k = chart.N, len(fields)
    xs, ys = chart.names[0::2], chart.names[1::2]
    Zs = [[V.components[2 * mu:2 * mu + 2] for mu in range(N)] for V in fields]
    jacobians = [[(diff(re, x), diff(im, x)) for re, im in Z for x in xs] for Z in Zs]
    residuals = [(sub(diff(re, x), diff(im, y)), add(diff(im, x), diff(re, y)))
                 for Z in Zs for re, im in Z for x, y in zip(xs, ys)]

    def walk(pairs, zreal):
        env = dict(zip(chart.names, zreal))
        try:
            return np.array([[complex(evaluate(re, env), evaluate(im, env))
                              for re, im in row] for row in pairs])
        except DomainError as err:
            err.point = zreal
            raise

    def check_holomorphy(zreal):
        worst = max([0.0] + [0.5 * math.hypot(r.real, r.imag)
                             for r in walk([residuals], zreal)[0]])
        if worst > HOLOMORPHY_TOL:
            raise HolomorphyError(
                f"field complexification violates the Cauchy-Riemann equations "
                f"(residual {worst:.3e} > {HOLOMORPHY_TOL:g}); "
                "complex-time flow refused")

    w = np.asarray(w, dtype=complex)
    walk(Zs, p)
    check_holomorphy(p)
    scale = float(np.sum(np.abs(w)))
    if scale > MAX_TIME:
        raise FlowError(f"|w| = {scale:g} exceeds max_time {MAX_TIME:g}")
    z = p[0::2] + 1j * p[1::2]
    if dz0 is None and scale == 0.0:
        return np.ascontiguousarray(z).view(float), None
    nsteps = max(1, math.ceil(scale * cfg.steps_per_unit))
    h = 1.0 / nsteps

    def real(v):
        return np.ascontiguousarray(v).view(float)

    def velocity(y):
        zreal = real(y if dz0 is None else y[0])
        Z = walk(Zs, zreal)
        DZ = None if dz0 is None else walk(jacobians, zreal)
        check_holomorphy(zreal)
        if dz0 is None:
            return w @ Z
        DZ = (w @ DZ).reshape(N, N)
        out = np.empty_like(y)
        out[0] = w @ Z
        out[1:] = y[1:] @ DZ.T
        out[1 + dz0.shape[1]:] += Z
        return out

    def bounded(y):
        if np.max(np.abs(y if dz0 is None else y[0])) > DIVERGENCE_BOUND:
            raise DivergenceError(f"trajectory exceeded bound {DIVERGENCE_BOUND:g}")
        return y

    A, b, c = (x.tolist() for x in (dop853.A[:12, :12], dop853.B, dop853.C[:12]))
    y = z if dz0 is None else np.vstack([z, dz0.T, np.zeros((k, N), dtype=complex)])
    for _ in range(nsteps):
        ks = [velocity(y)]
        for i in range(1, 12):
            total = c[i] * ks[0]
            for j in range(1, i):
                if A[i][j] != 0.0:
                    total = total + A[i][j] * ks[j]
            ks.append(velocity(bounded(y + h * total)) - ks[0])
        total = ks[0]
        for j in range(1, 12):
            if b[j] != 0.0:
                total = total + b[j] * ks[j]
        y = bounded(y + h * total)
    check_holomorphy(real(y if dz0 is None else y[0]))
    return (real(y), None) if dz0 is None else (real(y[0]), y[1:].T)


def _bump(y0):
    """A term that is 0 for y1 <= y0 and not holomorphic above it."""
    return f"(y1 - {y0} + sqrt((y1 - {y0})^2))^3"


def _refusal_stacks(tangents):
    """Stacks whose rows are refused at the start and inside the
    Runge-Kutta loop, by each of its callbacks, beside rows that are not:
    (fields, cfg, P, W, dZ0, the names of the rows' errors)."""
    chart = ComplexChart.standard(1)
    stacks = []

    def stack(comps, P, W, names, cfg=CFG):
        dZ0 = ((np.random.default_rng(4).uniform(-1, 1, (len(P), 1, 2)) + 1j)
               if tangents else None)
        stacks.append(([field(chart, comps)], cfg, np.array(P, dtype=float),
                       np.array(W, dtype=complex), dZ0, names))

    # Z(z) = 1 + 1.1 z^2 + 1/(z + 3) plus the bump above y1 = 0.5: |w| = 0,
    # 0.1, 0.25 and just above it (8 and 9 steps), then a row that diverges
    # at a stage state, one whose velocity crosses y1 = 0.5, one over
    # max_time and one whose velocity faults at its start, on the pole
    stack([f"1 + 1.1*(x1^2 - y1^2) + (x1 + 3)/((x1 + 3)^2 + y1^2) + {_bump(0.5)}",
           "2*1.1*x1*y1 - y1/((x1 + 3)^2 + y1^2)"],
          [[0.2, 0.0], [0.1, 0.0], [0.3, 0.0], [-0.1, 0.0],
           [0.0, 0.0], [0.0, 0.0], [0.1, 0.0], [-3.0, 0.0]],
          [[0.0], [0.1j], [0.25j], [np.nextafter(0.25, 1.0) * 1j],
           [2.0], [1.0j], [20.0j], [0.1j]],
          [None, None, None, None,
           "DivergenceError", "HolomorphyError", "FlowError", "DomainError"])
    # (1 + 1.1 z^2) d/dz run into its pole in real time: the guard refuses
    # two rows at stage states, steps before their counts end
    stack(["1 + 1.1*(x1^2 - y1^2)", "2*1.1*x1*y1"],
          [[0.3, 0.0], [0.0, 0.0], [-0.2, 0.4], [0.1, 0.0]],
          [[0.5j], [3.0], [0.3 - 0.2j], [2.0]],
          [None, "DivergenceError", None, "DivergenceError"])
    # the field 1, written so that it faults at x1 = 1/128: a constant field
    # steps exactly, and row 1's stage at c = 1/4 of its one step lands
    # there, so its velocity faults in the middle of the step
    stack(["(x1 - 0.0078125)/(x1 - 0.0078125)", "0"],
          [[0.5, 0.0], [0.0, 0.0], [0.1, 0.2]], [[0.25j], [1 / 32], [1 / 32]],
          [None, "DomainError", None])
    return stacks


def _path_stack(tangents):
    """A stack whose row 0 only a step's Hermite path refuses: the
    rotation i z plus the bump above y1 = 0.5997, at steps_per_unit = 2,
    where a row reads fewer stage states than 256 a unit of |w| and so
    reads its paths too.  Row 0 turns through the top of the circle
    |z| = 0.6 in one step, whose stage states stay below 0.5997 while its
    path reaches 0.59996; row 2's velocity crosses far into the bump."""
    chart = ComplexChart.standard(1)
    z0 = 0.6j * np.exp(-0.2j)
    P = np.array([[z0.real, z0.imag], [0.0, 0.3], [0.65, 0.0], [0.2, -0.1]])
    dZ0 = (np.random.default_rng(4).uniform(-1, 1, (4, 1, 2)) + 1j) if tangents else None
    return ([field(chart, [f"-y1 + {_bump(0.5997)}", "x1"])], FlowConfig(steps_per_unit=2), P,
            np.array([[0.4], [0.4], [2.0], [0.3 - 0.1j]]), dZ0,
            ["HolomorphyError", None, "HolomorphyError", None])


@pytest.mark.parametrize("tangents", [False, True])
def test_stacked_complex_flow_equals_each_row_alone(tangents):
    # each stack at the upper limit of its rows' counts, the counts the
    # reference takes; a refused row carries the error the reference
    # raises, its first, and no later one of its NaN state
    for fields, cfg, P, W, dZ0, names in _refusal_stacks(tangents):
        chart, flow = fields[0].chart, ComplexFlow(fields, cfg)
        nsteps = flow.cfg.step_limit(W)
        points, Y, errors, _ = flow.rows(P, W, dZ0, nsteps)
        assert [type(err).__name__ if err else None for err in errors] == names
        for i in range(len(P)):
            dz0 = None if dZ0 is None else dZ0[i]
            try:
                want = _flow_one_row(fields, cfg, P[i], W[i], dz0)
            except DomainError as err:
                # the tape names the node the tree walk names, the row and the point
                coords = ", ".join(f"{n}={float(v)!r}" for n, v in zip(chart.names, err.point))
                assert type(errors[i]) is DomainError
                assert str(errors[i]) == f"{err} at point {i} ({coords})"
                assert np.isnan(points[i]).all()
                continue
            except (FlowError, ValueError) as err:
                assert type(errors[i]) is type(err) and str(errors[i]) == str(err)
                assert np.isnan(points[i]).all()
                continue
            one, one_Y, _, _ = flow.rows(P[i:i + 1], W[i:i + 1],
                                         None if dz0 is None else dz0[None], nsteps[i:i + 1])
            for got in (points[i], one[0]):
                assert np.array_equal(got, want[0])
            if tangents:
                assert np.array_equal(Y[i], want[1]) and np.array_equal(one_Y[0], want[1])
        # the refused rows change nothing in the others
        kept = [i for i, name in enumerate(names) if name is None]
        rest = flow.rows(P[kept], W[kept], None if dZ0 is None else dZ0[kept], nsteps[kept])
        assert np.array_equal(rest[0], points[kept])


@pytest.mark.parametrize("tangents", [False, True])
def test_non_finite_complex_time_refuses_only_its_row(tangents):
    chart = ComplexChart.standard(1)
    flow = ComplexFlow([VectorField.coordinate(chart, "x1")], CFG)
    W = np.array([[np.nan], [1.0], [complex(np.inf, 0.5)], [20.0]])
    dZ0 = np.ones((4, 1, 1), dtype=complex) if tangents else None
    points, Y, errors, _ = flow.rows(np.zeros((4, 2)), W, dZ0)
    assert [type(err) for err in errors] == [FlowError, type(None), FlowError, FlowError]
    assert [str(err) for err in errors[::2]] == [
        "|w| = nan is not finite", "|w| = inf is not finite"]
    assert str(errors[3]) == "|w| = 20 exceeds max_time 16"
    assert np.isnan(points[::2]).all() and np.isnan(points[3]).all()
    alone = flow.rows(np.zeros((1, 2)), W[1:2], None if dZ0 is None else dZ0[1:2])
    assert np.array_equal(points[1], alone[0][0]) and np.array_equal(points[1], [1.0, 0.0])
    if tangents:
        assert np.array_equal(Y[1], alone[1][0])


def _dp8_dense():
    """flow's DOP853 literals as dense arrays: A (12, 12), b (12,), c (12,)."""
    A, b = np.zeros((12, 12)), np.zeros(12)
    for i, row in enumerate(cgsys.flow._DP8_A):
        for j, a in row.items():
            A[i, j] = a
    for j, x in cgsys.flow._DP8_B.items():
        b[j] = x
    return A, b, np.array(cgsys.flow._DP8_C)


def test_tableau_literals_are_dop853s():
    A, b, c = _dp8_dense()
    assert np.array_equal(A, dop853.A[:12, :12])
    assert np.array_equal(b, dop853.B)
    assert np.array_equal(c, dop853.C[:12])


def test_error_estimators_are_dop853s():
    # E3[12] = E5[12] = 0: the estimate needs no stage after the step's end
    for ours, theirs in ((cgsys.flow._DP8_E3, dop853.E3), (cgsys.flow._DP8_E5, dop853.E5)):
        E = np.zeros(13)
        for j, e in ours.items():
            E[j] = e
        assert np.array_equal(E, theirs) and theirs[12] == 0.0
        # the exact coefficients sum to 0; each literal is rounded once
        assert abs(math.fsum(E)) <= 2e-16


def test_tableau_is_explicit_with_rows_summing_to_the_nodes():
    # each literal is its 30-digit coefficient rounded once, so the sums are
    # off by a few ulps; the loop steps around k0 and so uses c and 1 exactly
    A, b, c = _dp8_dense()
    assert not np.triu(A).any()
    for row, node in zip(A, c):
        assert abs(math.fsum(row) - node) <= 1e-14
    assert math.fsum(b) == 1.0


# the state shapes _rk steps: real rows (flow_real's (n, 2N)), complex rows
# [z; tangent columns] (n, 1 + r + k, N) and one-element rows of each kind
_RK_SHAPES = [(1,), (2,), (4,), (1, 1), (3, 1), (2, 2), (4, 2)]
_RK_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan]


def _rk_callbacks(log, complex_state, coefs):
    """Row-local callbacks for _rk that log every call with the bytes it
    saw: a velocity a y + b y^2 + c that refuses a row beyond |y| = 1e3 by
    NaN, a guard that writes NaN into a row beyond 1e2, and a path that
    writes NaN into a step end beyond 50."""
    a, b, c = (complex(*x) if complex_state else x[0] for x in coefs)

    def beyond(y, bound):
        return ~(np.abs(y).reshape(len(y), -1).max(axis=1) <= bound)

    def velocity(rows, y):
        log.append(("velocity", rows.tobytes(), y.tobytes()))
        out = a * y + b * (y * y) + c
        out[beyond(y, 1e3)] = np.nan
        return out

    def guard(rows, y):
        log.append(("guard", rows.tobytes(), y.tobytes()))
        y[beyond(y, 1e2)] = np.nan

    def path(rows, y, end, hh, k0, k1):
        log.append(("path", *(x.tobytes() for x in (rows, y, end, hh, k0, k1))))
        end[beyond(end, 50.0)] = np.nan

    return velocity, guard, path


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_rk_equals_the_plain_stage_loop_bit_for_bit(data):
    # _rk's stage buffer and running sums against tests/reference.py's loop
    # of total = total + a * k_j: the same callbacks see the same bytes in
    # the same order, and the states and error estimates come out equal,
    # over stacks of 1-5 rows holding -0.0, infinities and NaN, with
    # counts that end at different steps
    n = data.draw(st.integers(1, 5))
    shape = data.draw(st.sampled_from(_RK_SHAPES))
    complex_state = len(shape) == 2
    finite = st.floats(-2.0, 2.0)
    parts = 2 if complex_state else 1
    values = np.array(data.draw(st.lists(finite, min_size=n * math.prod(shape) * parts,
                                         max_size=n * math.prod(shape) * parts)))
    for pos in data.draw(st.lists(st.integers(0, len(values) - 1), max_size=3)):
        values[pos] = data.draw(st.sampled_from(_RK_SPECIALS))
    state = values.view(complex) if complex_state else values
    state = state.reshape((n,) + shape)
    h = np.array(data.draw(st.lists(st.floats(-0.6, 0.6), min_size=n, max_size=n)))
    nsteps = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    coefs = data.draw(st.lists(st.tuples(finite, finite), min_size=3, max_size=3))
    with_error, with_path = data.draw(st.booleans()), data.draw(st.booleans())
    runs = []
    for loop in (cgsys.flow._rk, rk_reference):
        log = []
        velocity, guard, path = _rk_callbacks(log, complex_state, coefs)
        error = np.zeros(n) if with_error else None
        with np.errstate(all="ignore"):
            out = loop(velocity, state.copy(), h, nsteps, guard, error,
                       path if with_path else None)
        runs.append((out.tobytes(), None if error is None else error.tobytes(), log))
    assert runs[0] == runs[1]


def _quadratic_flow(c, cfg=CFG):
    """The flow of (1 + c z^2) d/dz, and its closed form from z0 for time w,
    tan(atan(sqrt(c) z0) + sqrt(c) w) / sqrt(c)."""
    chart = ComplexChart.standard(1)
    flow = ComplexFlow([field(chart, [f"1 + {c}*(x1^2 - y1^2)", f"2*{c}*x1*y1"])], cfg)
    r = math.sqrt(c)
    return flow, lambda z0, w: np.tan(np.arctan(r * z0) + r * w) / r


def test_observed_order_is_eight():
    # dz/ds = w (1 + 1.1 z^2): doubling the steps cuts the error by 2^8
    # in the limit; require 2^7
    errors = []
    flow, exact = _quadratic_flow(1.1)
    for per_unit in (4, 8):
        end = flow.rows(np.array([[0.3, 0.0]]), np.array([[1j]]), nsteps=[per_unit])[0][0]
        errors.append(abs(complex(*end) - exact(0.3, 1j)))
    assert 1e-13 < errors[1] and errors[0] >= 2 ** 7 * errors[1]


def test_flow_is_continuous_across_a_step_count_boundary():
    # |w| = 0.25 takes 8 steps and the next float up 9: the end points
    # agree to rounding and both meet the closed form
    flow, exact = _quadratic_flow(1.25)
    ws = [0.25j, np.nextafter(0.25, 1.0) * 1j]
    nsteps = [math.ceil(abs(w) * CFG.steps_per_unit) for w in ws]
    assert nsteps == [8, 9]
    ends = [complex(*end) for end in flow.rows(np.tile([0.3, 0.0], (2, 1)),
                                               np.array(ws)[:, None], nsteps=nsteps)[0]]
    assert abs(ends[0] - ends[1]) <= 1e-15
    for z, w in zip(ends, ws):
        assert abs(z - exact(0.3, w)) <= 1e-14


def test_error_estimate_bounds_the_error_and_decays_at_order_seven():
    # the summed DOP853 estimate of (1 + 1.1 z^2) d/dz against its closed form
    flow, exact = _quadratic_flow(1.1)
    P, W = np.array([[0.3, 0.0]]), np.array([[1j]])
    estimates = []
    for n in (4, 8, 16):
        [end], _, _, [est] = flow.rows(P, W, nsteps=[n])
        assert abs(complex(*end) - exact(0.3, 1j)) <= est
        estimates.append(est)
    assert estimates[0] >= 2 ** 6 * estimates[1] >= 2 ** 12 * estimates[2] > 0.0
    # a constant field steps exactly, and its estimate is 0
    line = ComplexFlow([VectorField.coordinate(ComplexChart.standard(1), "x1")], CFG)
    counts, (_, _, _, estimates) = line.chosen(P, W)
    assert (counts, estimates) == ([1], [0.0])


def test_each_row_takes_the_steps_its_own_estimate_asks_for():
    flow, exact = _quadratic_flow(1.1)
    P = np.array([[0.3, 0.0], [0.3, 0.0], [0.0, 0.0], [-0.5, 0.0]])
    W = np.array([[0.0], [0.1j], [1.0j], [0.5 - 0.4j]])
    counts, (points, _, errors, estimates) = flow.chosen(P, W)
    assert errors == [None] * 4
    # no row over its limit; the rows that move stop below it, within tol
    assert (counts <= flow.cfg.step_limit(W)).all() and (
        counts[1:] < flow.cfg.step_limit(W)[1:]).all()
    assert (estimates <= flow.cfg.step_tol).all()
    assert counts[2] > counts[1]
    # the points are the flows at those counts, each row as it is alone
    assert np.array_equal(points, flow.rows(P, W, nsteps=counts)[0])
    assert np.array_equal(points, flow.rows(P, W)[0])
    for i in range(4):
        alone_counts, (alone_points, _, _, alone_estimates) = flow.chosen(P[i:i + 1], W[i:i + 1])
        assert (alone_counts[0], alone_estimates[0]) == (counts[i], estimates[i])
        assert np.array_equal(alone_points[0], points[i])
    z = exact(P[:, 0], W[:, 0])
    assert np.max(np.abs(points[:, 0] + 1j * points[:, 1] - z)) < 1e-13


def test_a_row_whose_estimate_wants_more_takes_the_upper_limit():
    # no count meets newton_tol 1e-20, so every row takes its limit, the
    # count it took before the estimate picked counts
    flow, _ = _quadratic_flow(1.1, FlowConfig(newton_tol=1e-20))
    P = np.array([[0.3, 0.0], [-0.1, 0.0]])
    W = np.array([[0.25j], [1.3 - 0.2j]])
    counts, (points, _, _, estimates) = flow.chosen(P, W)
    assert counts.tolist() == [8, 43] == flow.cfg.step_limit(W).tolist()
    assert (estimates > flow.cfg.step_tol).all()
    dZ0 = np.ones((2, 1, 1), dtype=complex)
    at_limit = flow.rows(P, W, dZ0, [8, 43])
    chosen = flow.rows(P, W, dZ0)
    assert np.array_equal(points, at_limit[0])
    for got, want in zip(chosen[:2], at_limit[:2]):
        assert np.array_equal(got, want)


def test_rows_without_counts_enter_the_count_loop_once(monkeypatch):
    # each call of rows without counts is one pass of FlowConfig.settle; a
    # call with counts runs no loop
    flow, _ = _quadratic_flow(1.1)
    calls, settle = [], FlowConfig.settle

    def spy(cfg, limit, run):
        calls.append(np.array(limit))
        return settle(cfg, limit, run)

    monkeypatch.setattr(FlowConfig, "settle", spy)
    P, W = np.array([[0.3, 0.0], [0.0, 0.0]]), np.array([[0.5j], [1.0j]])
    flow.rows(P, W)
    flow.rows(P, W, np.ones((2, 1, 1), dtype=complex))
    flow.rows(P, W, nsteps=[4, 4])
    assert [c.tolist() for c in calls] == [[16, 32], [16, 32]]


@pytest.mark.parametrize("tangents", [False, True])
def test_an_empty_stack_takes_one_run_of_no_rows(tangents, monkeypatch):
    # the count loop runs once also when there is no row, so rows without
    # counts returns the empty outputs of that run
    flow, _ = _quadratic_flow(1.1)
    runs, rows = [], flow.rows

    def spy(P, W, dZ0=None, nsteps=None, labels=None):
        runs.append(nsteps)
        return rows(P, W, dZ0, nsteps, labels)

    monkeypatch.setattr(flow, "rows", spy)
    dZ0 = np.zeros((0, 1, 1), dtype=complex) if tangents else None
    points, Y, errors, estimates = flow.rows(np.zeros((0, 2)), np.zeros((0, 1)), dZ0)
    assert len(runs) == 2 and runs[0] is None and len(runs[1]) == 0
    assert points.shape == (0, 2) and errors == [] and estimates.shape == (0,)
    assert (Y is None) if not tangents else len(Y) == 0


def test_rows_whose_limit_is_zero_take_no_step():
    # |w|_1 over MAX_TIME or not finite: limit 0, so count 0, and the run
    # refuses the row
    flow, _ = _quadratic_flow(1.1)
    P = np.zeros((4, 2))
    W = np.array([[0.5j], [2 * MAX_TIME], [complex(np.nan, 0.0)], [complex(0.0, np.inf)]])
    assert flow.cfg.step_limit(W).tolist() == [16, 0, 0, 0]
    counts, (points, _, errors, estimates) = flow.chosen(P, W)
    assert counts[1:].tolist() == [0, 0, 0] and counts[0] > 0
    assert errors[0] is None and all(isinstance(err, FlowError) for err in errors[1:])
    assert np.isnan(points[1:]).all() and np.isnan(estimates[1:]).all()
    # so is a sum of |w_a| that overflows a double, without the overflow's
    # RuntimeWarning (which the suite turns into an error)
    assert CFG.step_limit(np.array([[1e308j, 1e308j], [0.25j, 0.0]])).tolist() == [0, 8]


@pytest.mark.parametrize("tangents", [False, True])
def test_chosen_counts_give_each_row_what_it_gets_alone(tangents):
    # the stacks of test_stacked_complex_flow_equals_each_row_alone, and one
    # whose row a step's path refuses, at the counts the rows choose: the
    # same refusals, each row's first error, and each row as alone
    for fields, cfg, P, W, dZ0, names in [*_refusal_stacks(tangents), _path_stack(tangents)]:
        flow = ComplexFlow(fields, cfg)
        points, Y, errors, _ = flow.rows(P, W, dZ0)
        assert [type(err).__name__ if err else None for err in errors] == names
        for i in range(len(P)):
            one, one_Y, one_errors, _ = flow.rows(P[i:i + 1], W[i:i + 1],
                                                  None if dZ0 is None else dZ0[i:i + 1])
            assert str(one_errors[0]) == str(errors[i]).replace(f"at point {i} ", "at point 0 ")
            assert np.array_equal(one[0], points[i], equal_nan=True)
            if tangents:
                assert np.array_equal(one_Y[0], Y[i], equal_nan=True)


@pytest.mark.parametrize("tangents", [False, True])
def test_every_stage_state_is_checked_for_holomorphy(monkeypatch, tangents):
    # a row reads the Cauchy-Riemann residual at its start point, at all 12
    # stage states of each step and at its end point, and where that is
    # fewer than ceil(256 |w|) states, at m more states on each step's path:
    # never fewer states per unit of |w| than 256 steps of 4 stages checked
    # at their starts; test_stacked_complex_flow_equals_each_row_alone
    # pins that a row crossing into the non-holomorphic region is refused
    flow, _ = _quadratic_flow(1.1)
    assert flow.frame.checks_holomorphy
    reads, at = [], flow.frame.at

    def counted(X, labels=None):
        reads.extend(np.arange(len(X)) if labels is None else labels)
        return at(X, labels)

    dZ0 = np.ones((2, 1, 1), dtype=complex) if tangents else None
    P = np.array([[0.1, 0.0], [-0.2, 0.0]])
    added = 0
    for scale in (1e-3, 0.01, 1 / 7, 0.25, np.nextafter(0.25, 1.0), 1 / 3, 0.5, 1.0, 2.3):
        # two rows, |w|_1 = scale each, at the counts their errors ask for
        W = np.array([[1j * scale], [-1j * scale]])
        nsteps = flow.chosen(P, W)[0]
        reads.clear()
        with monkeypatch.context() as mp:
            mp.setattr(flow.frame, "at", counted)
            _, _, errors, _ = flow.rows(P, W, dZ0, nsteps)
        assert errors == [None, None]
        for row, n in enumerate(nsteps):
            m = max(0, math.ceil((math.ceil(256 * scale) - 1 - 12 * n) / n))
            assert reads.count(row) == 12 * n + 1 + n * m >= math.ceil(256 * scale)
            added += m
    assert added
    # at the upper limit the stage states alone are enough
    reads.clear()
    W = np.array([[2.3j], [-2.3j]])
    with monkeypatch.context() as mp:
        mp.setattr(flow.frame, "at", counted)
        flow.rows(P, W, dZ0, flow.cfg.step_limit(W))
    assert len(reads) == 2 * (12 * math.ceil(2.3 * CFG.steps_per_unit) + 1)


def test_a_stack_whose_rows_are_all_refused_stops_stepping():
    # w = 3 in real time runs into the pole of tan near s = 1.5: the row is
    # refused within its 96 steps, and no stage is evaluated after it
    flow, _ = _quadratic_flow(1.1)
    sizes, at = [], flow.frame.at

    def counted(X, labels=None):
        sizes.append(len(X))
        return at(X, labels)

    flow.frame.at = counted
    _, _, errors, _ = flow.rows(np.zeros((1, 2)), np.array([[3.0]]))
    assert isinstance(errors[0], DivergenceError)
    assert 0 not in sizes and len(sizes) < 12 * 96


@pytest.mark.parametrize("tangents", [False, True])
def test_non_finite_start_rows_are_refused_and_the_others_come_out_as_alone(tangents):
    # a start row with a NaN or an infinite coordinate is refused, also where
    # it takes no step (w = 0 without tangents), and without a RuntimeWarning
    # (which the suite's filter turns into an error)
    flow, _ = _quadratic_flow(1.1)
    P = np.array([[0.3, 0.1], [np.nan, 0.0], [0.0, np.inf], [-0.2, 0.4], [-np.inf, 0.0]])
    W = np.array([[0.5j], [0.1], [0.1j], [0.3 - 0.2j], [0.0]])
    dZ0 = np.ones((5, 1, 1), dtype=complex) if tangents else None
    start = P.tobytes()
    points, Y, errors, estimates = flow.rows(P, W, dZ0)
    assert P.tobytes() == start      # the state is the flow's own
    for i in (1, 2, 4):
        assert isinstance(errors[i], DivergenceError)
        assert str(errors[i]) == "trajectory state is not finite"
        assert np.isnan(points[i]).all() and np.isnan(estimates[i])
    for i in (0, 3):
        alone = flow.rows(P[i:i + 1], W[i:i + 1], None if dZ0 is None else dZ0[i:i + 1])
        assert errors[i] is None and alone[2] == [None]
        assert points[i].tobytes() == alone[0][0].tobytes()
        assert estimates[i] == alone[3][0]
        assert not tangents or Y[i].tobytes() == alone[1][0].tobytes()


@pytest.mark.parametrize("tangents", [False, True])
def test_the_stack_wide_checks_refuse_what_each_row_alone_refuses(tangents):
    # 1 + 1e-8 y1^2 has the Cauchy-Riemann residual 1e-8 |y1|, and real
    # times keep y1: row 0 is just above HOLOMORPHY_TOL, row 1 just below;
    # row 2 crosses DIVERGENCE_BOUND at the stage state c = 0.65 of its one
    # step, and row 3 starts at NaN.  The checks test a whole stack at once
    # and tell its rows apart only when that test fails
    chart = ComplexChart.standard(1)
    flow = ComplexFlow([field(chart, ["1 + 1e-8*y1^2", "0"])], CFG)
    P = np.array([[0.1, 1 + 2.0**-30], [0.2, 1 - 2.0**-30], [DIVERGENCE_BOUND - 0.5, 0.0],
                  [np.nan, 0.0], [0.3, 0.2]])
    W = np.array([[0.5], [0.5], [1.0], [0.5], [0.25 + 0.1j]])
    assert flow.frame.residuals(P[:2])[0] > HOLOMORPHY_TOL > flow.frame.residuals(P[:2])[1]
    dZ0 = np.random.default_rng(2).uniform(-1, 1, (5, 1, 2)) + 0.5j if tangents else None
    nsteps = np.ones(5, dtype=int)
    points, Y, errors, estimates = flow.rows(P, W, dZ0, nsteps)
    assert [type(err).__name__ if err else None for err in errors] == [
        "HolomorphyError", None, "DivergenceError", "DivergenceError", None]
    for i in range(5):
        alone = flow.rows(P[i:i + 1], W[i:i + 1], None if dZ0 is None else dZ0[i:i + 1],
                          nsteps[i:i + 1])
        assert str(errors[i]) == str(alone[2][0])
        assert points[i].tobytes() == alone[0][0].tobytes()
        assert estimates[i].tobytes() == alone[3][0].tobytes()
        assert not tangents or Y[i].tobytes() == alone[1][0].tobytes()
        if errors[i]:
            assert np.isnan(points[i]).all() and np.isnan(estimates[i])
    assert str(errors[2]) == "trajectory exceeded bound 1e+06"
    assert str(errors[3]) == "trajectory state is not finite"


@pytest.mark.parametrize("tangents", [False, True])
def test_a_run_reads_holomorphy_once_per_stage_path_and_end(monkeypatch, tangents):
    # the tape passes of one run of (1 + 1.1 z^2) d/dz: 12 per step of the
    # longest row (its stages), one per step for the Hermite paths where a
    # row reads fewer than 256 |w| states, and one for the end points
    flow, _ = _quadratic_flow(1.1)
    calls, at = [], cgsys.flow._HolomorphicFrame.at

    def counted(self, X, labels=None):
        calls.append(len(X))
        return at(self, X, labels)

    monkeypatch.setattr(cgsys.flow._HolomorphicFrame, "at", counted)
    P, W = np.array([[0.1, 0.0], [-0.2, 0.1]]), np.array([[0.25j], [-0.25]])
    dZ0 = np.ones((2, 1, 1), dtype=complex) if tangents else None
    # |w| = 0.25 reads 64 states: 13 at one step, 37 at three, 97 at eight
    for counts, paths in (([1, 1], 1), ([3, 3], 3), ([1, 3], 3), ([8, 8], 0)):
        calls.clear()
        _, _, errors, _ = flow.rows(P, W, dZ0, np.array(counts))
        assert errors == [None, None]
        assert len(calls) == 12 * max(counts) + paths + 1


@pytest.mark.parametrize("tangents", [False, True])
def test_a_run_is_one_tape_pass_per_stage_path_and_end(monkeypatch, tangents):
    # 2 rows at 3 steps: exactly one Program._pass of the stage tape per
    # stage (36), per step's Hermite path (3) and for the end points (1);
    # dZ/dz and the residuals are the tape's outputs, so no stage reads
    # holomorphic_jacobians or cr_residuals
    flow, _ = _quadratic_flow(1.1)
    passes, tape = [], Program._pass

    def counted(self, X):
        passes.append(self)
        return tape(self, X)

    def not_on_the_stage_path(*args):
        raise AssertionError("a stage read DX outside the stage tape")

    monkeypatch.setattr(Program, "_pass", counted)
    for module in (cgsys.geometry, cgsys.flow):
        for name in ("holomorphic_jacobians", "cr_residuals"):
            monkeypatch.setattr(module, name, not_on_the_stage_path, raising=False)
    P, W = np.array([[0.1, 0.0], [-0.2, 0.1]]), np.array([[0.25j], [-0.25]])
    dZ0 = np.ones((2, 1, 1), dtype=complex) if tangents else None
    _, _, errors, _ = flow.rows(P, W, dZ0, np.array([3, 3]))
    assert errors == [None, None]
    assert passes == [flow.frame.program] * (12 * 3 + 3 + 1)


def _rest_fields():
    """(1 + 1.1 z^2) d/dz and i z d/dz on C."""
    chart = ComplexChart.standard(1)
    return [field(chart, ["1 + 1.1*(x1^2 - y1^2)", "2*1.1*x1*y1"]), field(chart, ["-y1", "x1"])]


def _rest_and_motion_flow():
    """The two fields of ``_rest_fields`` and a stack of rows at w = 0 (0, 2
    and 4) between rows that move, with tangent columns."""
    flow = ComplexFlow(_rest_fields(), CFG)
    P = np.array([[0.3, -0.1], [0.1, 0.2], [-0.0, 0.4], [-0.2, 0.0], [0.25, -0.0]])
    W = np.array([[0, 0], [0.3j, 0.1], [0, -0.0], [-0.2, 0.4j], [0, 0]], dtype=complex)
    dZ0 = np.random.default_rng(5).uniform(-1, 1, (5, 1, 2)) + 0.5j
    return flow, P, W, dZ0


def _walked(fields, X):
    """Z (m, k, N) and dZ/dz (m, k, N, N) at the chart rows X, walked off
    the fields' trees by tests/reference.py: Z_mu = V^{x_mu} + i V^{y_mu}
    and dZ_mu/dz_nu = dV^{x_mu}/dx_nu + i dV^{y_mu}/dx_nu."""
    chart = fields[0].chart
    Z, dZ = [], []
    for x in X:
        env = reference.env_at(chart, x)
        Z.append([to_complex(reference.values(V, x)) for V in fields])
        dZ.append([[[complex(*(evaluate(diff(V.components[2 * mu + s], chart.names[2 * nu]),
                                        env) for s in (0, 1)))
                     for nu in range(chart.N)] for mu in range(chart.N)] for V in fields])
    return np.array(Z), np.array(dZ)


def _stepped_at_rest(fields, P, dZ0):
    """Rows at w = 0 stepped once by tests/reference.py's loop over the
    variational velocity [w Z; (w dZ/dz) Y + Z in the d/dw columns], Z and
    dZ/dz walked off the fields' trees (not read off the flow's tape)."""
    k, N, r = len(fields), fields[0].chart.N, dZ0.shape[2]
    w = np.zeros(k, dtype=complex)

    def velocity(rows, y):
        Z, dZ = _walked(fields, to_chart(y[:, 0]))
        A = np.einsum("a,maij->mij", w, dZ)
        out = np.concatenate([np.einsum("a,man->mn", w, Z)[:, None],
                              y[:, 1:] @ np.swapaxes(A, 1, 2)], axis=1)
        out[:, 1 + r:] += Z
        return out

    state = np.concatenate([to_complex(P)[:, None], np.swapaxes(dZ0, 1, 2),
                            np.zeros((len(P), k, N), dtype=complex)], axis=1)
    state = rk_reference(velocity, state, 1.0, 1, lambda rows, y: None)
    return to_chart(state[:, 0]), np.swapaxes(state[:, 1:], 1, 2)


@pytest.mark.parametrize("count", [1, 3])
def test_a_row_at_w_zero_takes_no_step_and_reads_its_start_once(count):
    # a row with w = 0 comes out [z0; dZ0 | Z(z0)] at any frozen count, with
    # estimate 0; at one step that is what the Runge-Kutta loop gave, up to
    # the sign of a zero; the rows that move come out as alone
    flow, P, W, dZ0 = _rest_and_motion_flow()
    nsteps = np.full(len(P), count)
    points, Y, errors, estimates = flow.rows(P, W, dZ0, nsteps)
    assert errors == [None] * len(P)
    rest = [0, 2, 4]
    Z = flow.frame.at(P[rest])[0]
    for j, i in enumerate(rest):
        assert points[i].tobytes() == P[i].tobytes() and estimates[i] == 0.0
        assert Y[i, :, :2].tobytes() == dZ0[i].tobytes()
        assert Y[i, :, 2:].tobytes() == Z[j].T.tobytes()
    if count == 1:
        want_points, want_Y = _stepped_at_rest(_rest_fields(), P[rest], dZ0[rest])
        assert np.array_equal(points[rest], want_points) and np.array_equal(Y[rest], want_Y)
    for i in (1, 3):
        one = flow.rows(P[i:i + 1], W[i:i + 1], dZ0[i:i + 1], nsteps[i:i + 1])
        assert points[i].tobytes() == one[0][0].tobytes()
        assert Y[i].tobytes() == one[1][0].tobytes() and estimates[i] == one[3][0] > 0.0


@pytest.mark.parametrize("tangents", [False, True])
def test_a_stack_at_rest_makes_no_stage_call_and_one_tape_pass(monkeypatch, tangents):
    # the count loop keeps its count, 1, and the run evaluates the tape once
    flow, P, W, dZ0 = _rest_and_motion_flow()
    rest = [0, 2, 4]
    stages, passes = [], []
    rk, tape = cgsys.flow._rk, Program._pass

    def counted_rk(velocity, *args):
        def counted(rows, y):
            stages.append(len(rows))
            return velocity(rows, y)
        return rk(counted, *args)

    def counted_pass(self, X):
        passes.append(len(X))
        return tape(self, X)

    monkeypatch.setattr(cgsys.flow, "_rk", counted_rk)
    monkeypatch.setattr(Program, "_pass", counted_pass)
    counts, (points, Y, errors, estimates) = flow.chosen(
        P[rest], W[rest], dZ0[rest] if tangents else None)
    assert counts.tolist() == [1, 1, 1] and errors == [None] * 3
    assert stages == [] and passes == [3]
    assert points.tobytes() == P[rest].tobytes() and not estimates.any()


def _faulting_at_rest(tangents):
    """The field 1, written so that it faults at x1 = 0.5 and x1 = 2e6, plus
    a bump that is not holomorphic above y1 = 0.5, and rows at w = 0 and
    over MAX_TIME from a clean start and from starts that fault the tape
    (also past DIVERGENCE_BOUND), are not holomorphic, lie past the bound
    or are not finite: (flow, P, W, dZ0)."""
    chart = ComplexChart.standard(1)
    one = "((x1 - 0.5)*(x1 - 2e6))/((x1 - 0.5)*(x1 - 2e6))"
    flow = ComplexFlow([field(chart, [f"{one} + {_bump(0.5)}", "0"])], CFG)
    starts = [[0.1, 0.0], [0.5, 0.0], [2e6, 0.0], [0.1, 0.8], [3e6, 0.0], [np.nan, 0.0],
              [1.0, -np.inf]]
    P = np.array(starts * 2)
    W = np.repeat([[0.0], [20.0j]], len(starts), axis=0).astype(complex)
    dZ0 = np.ones((len(P), 1, 1), dtype=complex) if tangents else None
    return flow, P, W, dZ0


@pytest.mark.parametrize("tangents", [False, True])
def test_a_row_at_rest_keeps_the_first_error_of_a_first_stage(tangents):
    # at w = 0 the tape's error at the start comes first, then the bound,
    # as at the first stage of a step; a start that is not finite reads no
    # tape.  Rows over MAX_TIME keep their order: the bound, the tape, then
    # the time itself
    flow, P, W, dZ0 = _faulting_at_rest(tangents)
    points, Y, errors, estimates = flow.rows(P, W, dZ0, flow.cfg.step_limit(W))
    fault = (DomainError, "division by zero in '")
    holo = (HolomorphyError, "field complexification violates the Cauchy-Riemann equations")
    bound = (DivergenceError, "trajectory exceeded bound 1e+06")
    infinite = (DivergenceError, "trajectory state is not finite")
    late = (FlowError, "|w| = 20 exceeds max_time 16")
    want = [None, fault, fault, holo, bound, infinite, infinite,
            late, fault, bound, holo, bound, infinite, infinite]
    for i, (err, kind) in enumerate(zip(errors, want)):
        if kind is None:
            assert err is None
            continue
        assert type(err) is kind[0] and str(err).startswith(kind[1])
        assert kind is not fault or str(err).endswith(f"at point {i} (x1={float(P[i, 0])!r}, y1=0.0)")
    assert np.isnan(points[1:]).all() and np.isnan(estimates[1:]).all()
    assert points[0].tobytes() == P[0].tobytes() and estimates[0] == 0.0
    for i in range(len(P)):
        alone = flow.rows(P[i:i + 1], W[i:i + 1], None if dZ0 is None else dZ0[i:i + 1],
                          flow.cfg.step_limit(W[i:i + 1]))
        assert str(alone[2][0]) == str(errors[i]).replace(f"at point {i} ", "at point 0 ")


@pytest.mark.parametrize("tangents", [False, True])
def test_a_row_whose_fields_overflow_at_its_start_is_refused_there(tangents):
    # exp(z)^2 d/dz at x1 = 400, a double's overflow: the tape refuses the
    # start of the row at rest and of the row that moves, at the product
    # that overflows, and neither read warns (the suite's filter turns a
    # RuntimeWarning into an error)
    chart = ComplexChart.standard(1)
    flow = ComplexFlow([field(chart, ["exp(x1)*exp(x1)*cos(2*y1)",
                                      "exp(x1)*exp(x1)*sin(2*y1)"])], CFG)
    P, W = np.array([[400.0, 0.0], [400.0, 0.0], [0.1, 0.2]]), np.array([[0.0], [1e-3], [0.0]])
    dZ0 = np.ones((3, 1, 1), dtype=complex) if tangents else None
    points, _, errors, _ = flow.rows(P, W, dZ0, [1, 1, 1])
    assert [(type(err), str(err)) for err in errors[:2]] == [
        (DomainError, f"overflow in 'exp(x1)*exp(x1)' at point {i} (x1=400.0, y1=0.0)")
        for i in range(2)]
    assert np.isnan(points[:2]).all()
    assert errors[2] is None and points[2].tobytes() == P[2].tobytes()


def test_a_path_state_off_the_hermite_cubic_would_refuse_a_row_the_cubic_keeps(monkeypatch):
    # i z d/dz plus a bump below y1 = -0.1, at steps_per_unit = 2: the row
    # turns from 0.6 by 0.4 in one step, reading 90 path states besides its
    # 13 stage and end states.  Its stage states and the cubic from (z0, k0)
    # to (end, k1) stay above y1 = 0, but a path that put weight (1 + t) h
    # on k1 would dip 0.44 t^3 below the cubic, into the bump
    chart = ComplexChart.standard(1)
    below = "(-0.1 - y1 + sqrt((-0.1 - y1)^2))^3"
    flow = ComplexFlow([field(chart, ["-y1", f"x1 + {below}"])], FlowConfig(steps_per_unit=2))
    P, W = np.array([[0.6, 0.0]]), np.array([[0.4]], dtype=complex)
    reads, at = [], flow.frame.at

    def counted(X, labels=None):
        reads.append(np.array(X))
        return at(X, labels)

    monkeypatch.setattr(flow.frame, "at", counted)
    points, _, errors, _ = flow.rows(P, W, nsteps=[1])
    assert errors == [None]
    assert np.allclose(to_complex(points)[0], 0.6 * np.exp(0.4j), atol=1e-12)
    path = [X for X in reads if len(X) > 1]
    assert len(path) == 1 and len(path[0]) == 90 and path[0][:, 1].min() >= 0.0


# --- Newton inversion ----------------------------------------------------------


def test_row_norms_keep_the_column_sum_and_do_not_overflow():
    # ordinary rows: the column-by-column sum, bit for bit
    rng = np.random.default_rng(21)
    R = rng.standard_normal((6, 5)) * np.array([[1e-200], [1e-3], [1.0], [1e3], [1e150], [0]])
    old = np.zeros(len(R))
    for col in R.T:
        old = old + col * col
    row_norms = cgsys.flow._row_norms
    assert row_norms(R).tobytes() == np.sqrt(old).tobytes()
    # rows whose squares overflow: finite norms, each row as it is alone
    # (the suite turns the overflow's RuntimeWarning into an error)
    huge = np.array([[1e308, 1e308, 1e308], [1e308, 0.0, -1e308], [1e200, -1e200, 3.0],
                     [np.inf, 1.0, 0.0], [np.nan, 1e308, 1e308], [0.5, 1.0, 0.0]])
    norms = row_norms(huge)
    for i, row in enumerate(huge):
        assert norms[i].tobytes() == row_norms(row[None])[0].tobytes()
        if np.isfinite(row).all():
            assert np.isfinite(norms[i])
            assert abs(norms[i] - math.hypot(*row)) <= 4 * np.spacing(math.hypot(*row))
    assert norms[3] == np.inf and np.isnan(norms[4])


def test_newton_inverse_quadratic():
    def F(x):
        return np.array([x[0] ** 2 + x[1], x[1] ** 3 - x[0]])

    x = newton_inverse(F, [1.2, -0.3], [1.0, 0.5], CFG,
                       jac=lambda x: numerical_jacobian(F, x, 1e-6))
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
    def FJ(X, _rows):
        errors = [fail(x) for x in X]
        return np.arctan(X), 1.0 / (1.0 + X[:, :, None] ** 2), errors, np.zeros(len(X))
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
    values, jac, _, _ = _atan_rows(fail)(out.x, np.arange(3))
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


def test_non_square_rows_take_the_minimum_norm_least_squares_step():
    # a wide, a zero, a non-finite and a tall system: none is singular
    A = np.array([[[1.0, 2.0, -1.0]], [[0.0, 0.0, 0.0]], [[np.nan, 1.0, 0.0]]])
    B = np.array([[[3.0]], [[1.0]], [[1.0]]])
    X, singular = solve_rows(A, B)
    assert not singular.any()
    assert np.allclose(X[0], np.linalg.lstsq(A[0], B[0], rcond=None)[0], rtol=0, atol=1e-15)
    assert np.array_equal(X[1], np.zeros((3, 1))) and np.isnan(X[2]).all()
    for i in range(2):
        assert np.array_equal(solve_rows(A[i:i + 1], B[i:i + 1])[0][0], X[i])
    tall = np.array([[[1.0], [1.0]]])
    assert np.allclose(solve_rows(tall, np.array([[[1.0], [3.0]]]))[0], 2.0)


def test_lockstep_rows_fail_on_their_own():
    # row 0 converges; row 1 has a singular Jacobian; row 2 has no root
    def FJ(X, _rows):
        return (np.column_stack([X[:, 0] ** 2]), (2.0 * X)[:, :, None], [None] * len(X),
                np.zeros(len(X)))

    targets, x0 = np.array([[4.0], [1.0], [-1.0]]), np.array([[3.0], [0.0], [1.0]])
    cfg = FlowConfig(newton_max_iter=8)
    out = newton_rows(FJ, targets, x0, cfg)
    assert out.errors[0] is None and abs(out.x[0, 0] - 2.0) < 1e-10
    assert str(out.errors[1]) == "Jacobian is numerically singular"
    assert isinstance(out.errors[2], NewtonError)
    # a refused row comes out NaN
    for name in ("x", "values", "jac", "estimates"):
        assert np.isnan(getattr(out, name)[1:]).all() and not np.isnan(getattr(out, name)[0]).any()
    # stacked still equals alone
    for i in range(3):
        alone = newton_rows(FJ, targets[i:i + 1], x0[i:i + 1], cfg)
        assert np.array_equal(alone.x[0], out.x[i], equal_nan=True)
        assert (alone.iters[0], alone.halvings[0]) == (out.iters[i], out.halvings[i])
        assert str(alone.errors[0]) == str(out.errors[i])
    with pytest.raises(NewtonError, match="singular"):
        newton_inverse(lambda x: x ** 2, [1.0], [0.0], jac=lambda x: np.array([[2.0 * x[0]]]))


def test_newton_inverse_reports_failure():
    def F(x):
        return np.array([x[0] ** 2])

    with pytest.raises(NewtonError):
        newton_inverse(F, [-1.0], [1.0], FlowConfig(newton_max_iter=8),
                       jac=lambda x: numerical_jacobian(F, x, 1e-6))
