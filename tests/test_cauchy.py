"""End-to-end checks of the initial-value construction: the flat line case,
the nilpotent group against its closed forms, and the affine group."""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import cgsys.cauchy
from cgsys.cli import main
from cgsys.dsl import load_builtin, loads
from cgsys.expr import Const, DomainError, ExprError, Program, Table, diff, mul, parse_expr
from cgsys.flow import (
    ComplexFlow, EmbeddingError, FlowConfig, MatrixGroupSpec, NewtonError,
    complexified_flow_matrix, left_invariant_fields, newton_inverse, newton_rows,
    numerical_jacobian,
)
from cgsys.cauchy import (
    CONSTRUCTION_TOL, PARAM_SPREAD, ConstructionError, CRInitialData, TransversalityError,
    build_dF, build_F, check_cr_transverse, compute_PQA, construct_fields,
    frobenius_defect_on_M, grid_queries, param_samples, solve, validate_tangency,
)
from cgsys.geometry import ComplexChart, VectorField, jet_blocks
from cgsys.verify import symmetric_axis
from cli_contract import ambient_cgs
from reference import evaluate, field_matrix, to_sympy, values

CFG = FlowConfig()


def field(chart, comps):
    return VectorField.from_exprs(chart, comps)


def fd_dF(data, h):
    """The stacked map of build_dF, its Jacobians by central differences of
    F: (F(x + h e_j) - F(x - h e_j)) / 2h, as numerical_jacobian takes them;
    its estimates are 0."""
    F = build_F(data, CFG)
    m = len(data.param_names)

    def dF(P, U):
        X = np.concatenate([P, U], axis=1)
        points, errors = F(P, U)
        steps = h * np.eye(X.shape[1])
        # every row x + h e_j, then every row x - h e_j
        Y = np.concatenate([X[:, None] + steps, X[:, None] - steps]).reshape(-1, X.shape[1])
        ends = F(Y[:, :m], Y[:, m:])[0].reshape(2, *X.shape, -1)
        J = np.swapaxes(ends[0] - ends[1], 1, 2) / (2.0 * h)
        return points, J, errors, np.zeros(len(X))

    return dF


def _heisenberg_ode_data(heis_data):
    """The Heisenberg initial data without its group: F runs the RK4 route."""
    return CRInitialData(
        chart=heis_data.chart, k=3, param_names=heis_data.param_names,
        sigma=heis_data.sigma, ambient_fields=heis_data.ambient_fields,
        group=None, name="heisenberg-ode")


@pytest.fixture(scope="module")
def line_data():
    chart = ComplexChart.standard(1)
    return CRInitialData(
        chart=chart, k=1, param_names=("s",),
        sigma=(parse_expr("s"), parse_expr("0")),
        ambient_fields=(VectorField.coordinate(chart, "x1"),),
        name="line")


@pytest.fixture(scope="module")
def heis_spec():
    chart = ComplexChart.standard(3)
    E1 = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=float)
    E2 = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
    E3 = np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=float)
    return MatrixGroupSpec(chart, np.eye(3), ((0, 1), (1, 2), (0, 2)), (E1, E2, E3))


@pytest.fixture(scope="module")
def heis_data(heis_spec):
    return CRInitialData.from_group(heis_spec, name="heisenberg-cr")


@pytest.fixture(scope="module")
def heis_oracle(heis_spec):
    chart = heis_spec.chart
    grads = tuple(parse_expr(s) for s in ["-y1", "-y2", "x1*y2 - y3"])
    fields = (
        field(chart, ["1", "0", "0", "0", "0", "y2"]),
        field(chart, ["0", "0", "1", "0", "x1", "0"]),
        field(chart, ["0", "0", "0", "0", "1", "0"]),
    )
    return grads, fields


@pytest.fixture(scope="module")
def affine_data():
    chart = ComplexChart.standard(2)
    E1 = np.array([[1, 0], [0, 0]], dtype=float)
    E2 = np.array([[0, 1], [0, 0]], dtype=float)
    base = np.array([[0, 0], [0, 1]], dtype=float)
    spec = MatrixGroupSpec(chart, base, ((0, 0), (0, 1)), (E1, E2))
    return CRInitialData.from_group(
        spec, param_domain=(parse_expr("p1 - 0.25"),),
        base_params=np.array([1.0, 0.0]), name="affine-cr")


# --- transversality and data validation ---------------------------------------


def test_line_transverse(line_data):
    res = check_cr_transverse(line_data, line_data.table.at(param_samples(line_data, 25, 0)))
    assert res.transverse and res.min_rank == 2


def test_heisenberg_transverse_at_random_points(heis_data):
    res = check_cr_transverse(heis_data, heis_data.table.at(param_samples(heis_data, 50, 3)))
    assert res.transverse and res.min_rank == 6


def test_vanishing_initial_field_fails_at_origin():
    chart = ComplexChart.standard(1)
    data = CRInitialData(
        chart=chart, k=1, param_names=("s",),
        sigma=(parse_expr("s"), parse_expr("0")),
        ambient_fields=(field(chart, ["x1", "0"]),),
        name="non-transverse")
    res = check_cr_transverse(data, data.table.at(param_samples(data, 25, 0)))
    assert not res.transverse
    assert np.allclose(res.witnesses[0], [0.0])


def test_group_data_without_ambient_fields_is_refused(heis_data):
    # every data check reads the initial fields, so the data object needs them
    with pytest.raises(ValueError, match=r"CRInitialData\.from_group"):
        dataclasses.replace(heis_data, ambient_fields=None)


def test_tangency_validates(line_data, heis_data):
    for data in (line_data, heis_data):
        assert validate_tangency(data, data.table.at(param_samples(data, 10, 0))) < 1e-12


def _line_with(field_y="0", param_domain=()):
    """The line's data with initial field d/dx + field_y d/dy."""
    chart = ComplexChart.standard(1)
    return CRInitialData(
        chart=chart, k=1, param_names=("s",),
        sigma=(parse_expr("s"), parse_expr("0")),
        ambient_fields=(field(chart, ["1", field_y]),),
        param_domain=tuple(parse_expr(g) for g in param_domain), name="line")


def test_tangency_refuses_a_field_off_M_above_its_tolerance():
    t = np.array([[0.0], [0.3]])
    assert validate_tangency(_line_with("1e-9"), _line_with("1e-9").table.at(t)) == 1e-9
    with pytest.raises(cgsys.cauchy.CauchyError) as err:
        validate_tangency(_line_with("0.5"), _line_with("0.5").table.at(t))
    assert str(err.value) == "initial fields are not tangent to M (residual 5.000e-01)"


def test_transversality_raises_a_param_domain_fault_naming_its_row():
    data = _line_with(param_domain=["log(s + 0.5)"])
    with pytest.raises(DomainError) as err:
        check_cr_transverse(data, data.table.at(np.array([[0.1], [-1.0], [0.2]])))
    assert str(err.value) == "log of non-positive value in 'log(s + 0.5)' at point 1 (s=-1.0)"


def test_initial_distribution_involutive_on_group(heis_data):
    t = heis_data.table.at(param_samples(heis_data, 10, 0))
    assert frobenius_defect_on_M(heis_data, t) < 1e-12


@pytest.mark.parametrize("name", ["line", "heisenberg-cr"])
def test_cauchy_op_draws_parameter_samples_once(monkeypatch, name):
    calls = []
    inner = cgsys.cauchy.param_samples

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(cgsys.cauchy, "param_samples", counted)
    assert main(["cauchy", name, "--grid", "3"]) == 0
    assert len(calls) == 1


def _ambient_file(c=1.1):
    """The benchmark's generated (1 + c z^2) d/dz file, by default c = 1.1."""
    return loads(ambient_cgs(c), name="ambient")


def _ambient_data():
    """The CR data of the benchmark's generated file, c = 1.1."""
    return _ambient_file().cr


CR_DATA = ["line", "heisenberg-cr", "affine", "non-transverse-demo", "ambient"]


def _cr_data(name):
    return _ambient_data() if name == "ambient" else load_builtin(name).cr


def one_at_a_time(data, n, seed):
    """The reference sampler: the base point, then draw and test one
    candidate at a time."""
    rng = np.random.default_rng(seed)
    out = [data.base]
    for _ in range(100 * (n + 1)):
        if len(out) == n + 1:
            break
        p = data.base + rng.uniform(-PARAM_SPREAD, PARAM_SPREAD,
                                    size=len(data.param_names))
        env = dict(zip(data.param_names, p))
        if all(evaluate(g, env) > 0.0 for g in data.param_domain):
            out.append(p)
    return np.array(out)


@pytest.mark.parametrize("name", CR_DATA)
def test_param_samples_match_one_at_a_time(monkeypatch, name):
    data = _cr_data(name)
    for n, seed in ((25, 0), (10, 0), (50, 3), (0, 1)):
        ref = one_at_a_time(data, n, seed)
        with monkeypatch.context() as m:
            # block draws test whole blocks through the compiled predicate
            m.setattr(cgsys.expr, "evaluate", None)
            got = param_samples(data, n, seed)
        assert np.array_equal(got, ref), (n, seed)


@pytest.mark.parametrize("name", CR_DATA)
def test_cr_table_matches_the_per_point_views(name):
    data = _cr_data(name)
    params = param_samples(data, 10, 2)
    # the bracket block: test_derivative_table's test_cr_bracket_block_matches_sympy
    t = data.table.at(params)
    for i, p in enumerate(params):
        # the tree walk at one point: sigma, its partials and the fields there
        env = dict(zip(data.param_names, p))
        q = np.array([evaluate(s, env) for s in data.sigma])
        dsigma = [[evaluate(diff(s, x), env) for x in data.param_names] for s in data.sigma]
        assert np.array_equal(t["p"][i], p)
        assert np.allclose(t["sigma"][i], q, rtol=1e-14, atol=1e-14)
        assert np.allclose(t["dsigma"][i], dsigma, rtol=1e-14, atol=1e-14)
        assert np.allclose(t["rho0"][i], field_matrix(data.ambient_fields, q),
                           rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("name", CR_DATA)
def test_cr_table_compiles_sigma_and_its_partials_alone(name):
    # the parameter block is the input rows themselves, not identity
    # outputs of the tape that every Newton trial's sigma_rows runs
    data = _cr_data(name)
    params = param_samples(data, 4, 1)
    assert len(data.table.exprs) == data.chart.dim * (1 + len(data.param_names))
    assert data.table.at(params)["p"] is params


@pytest.mark.parametrize("name", ["line", "heisenberg-cr", "affine"])
def test_cauchy_op_evaluates_the_cr_table_once(monkeypatch, name):
    rows = []
    inner = Table.at

    def counted(self, pts):
        rows.append(len(pts))
        return inner(self, pts)

    monkeypatch.setattr(Table, "at", counted)
    assert main(["cauchy", name, "--grid", "3"]) == 0
    assert rows == [26]


def test_rho0_param_exprs_restrict_ambient(heis_data):
    # the initial fields as expressions over the parameters, sigma
    # substituted into the ambient fields by sympy, against the table's rho0
    coords = {n: sympy.Symbol(n, real=True) for n in heis_data.chart.names}
    params = {n: sympy.Symbol(n, real=True) for n in heis_data.param_names}
    at_sigma = dict(zip(coords.values(), (to_sympy(s, params) for s in heis_data.sigma)))
    rho0_at = sympy.lambdify(list(params.values()), [
        [to_sympy(c, coords).xreplace(at_sigma) for c in f.components]
        for f in heis_data.ambient_fields])
    P = np.random.default_rng(1).uniform(-1, 1, size=(5, 3))
    rho0 = heis_data.table.at(P)["rho0"]
    for p, table_rho0 in zip(P, rho0):
        assert np.allclose(np.array(rho0_at(*p), dtype=float), table_rho0.T, atol=1e-14)


# --- the flow coordinates F ----------------------------------------------------


def test_line_F_is_translation_into_imaginary_axis(line_data):
    F = build_F(line_data, CFG)
    out, errors = F(np.array([[0.3]]), np.array([[0.4]]))
    assert errors == [None] and np.allclose(out, [[0.3, 0.4]], atol=1e-12)


def test_F_restricts_to_sigma_at_zero(heis_data):
    P = np.random.default_rng(2).uniform(-1, 1, size=(20, 3))
    points, errors = build_F(heis_data, CFG)(P, np.zeros((20, 3)))
    assert errors == [None] * 20
    assert np.allclose(points, heis_data.table.at(P)["sigma"], atol=1e-14)


def test_heisenberg_F_is_group_product(heis_data, heis_spec):
    F = build_F(heis_data, CFG)
    P = np.array([[0.2, -0.4, 0.1]])
    U = np.array([[0.3, 0.1, -0.2]])
    got, errors = F(P, U)
    oracle, _ = complexified_flow_matrix(heis_spec, heis_data.table.at(P)["sigma"], 1j * U)
    assert errors == [None] and np.allclose(got, oracle, atol=0)


def test_ode_route_matches_matrix_route(heis_data, heis_spec):
    F_ode = build_F(_heisenberg_ode_data(heis_data), CFG)
    F_mat = build_F(heis_data, CFG)
    rng = np.random.default_rng(4)
    P, U = np.zeros((5, 3)), np.zeros((5, 3))
    for i in range(5):
        P[i] = rng.uniform(-0.8, 0.8, size=3)
        U[i] = rng.uniform(-0.5, 0.5, size=3)
    (ode, ode_errors), (mat, errors) = F_ode(P, U), F_mat(P, U)
    assert ode_errors == errors == [None] * 5
    assert np.max(np.abs(ode - mat)) < 1e-8


def _two_routes(data, extent, grid):
    """solve on the group route and on the ambient one (the same data with
    group=None: its left-invariant fields flowed by Runge-Kutta) at the
    queries of the CLI's grid."""
    queries = grid_queries(data, [symmetric_axis(extent, grid)] * data.k, cfg=CFG)
    return solve(data, queries, CFG), solve(dataclasses.replace(data, group=None), queries, CFG)


@pytest.mark.parametrize("name", ["heisenberg-cr", "affine"])
def test_the_ambient_route_gives_the_group_route_answer(name):
    # an oracle for the group map that shares neither its exponential nor its
    # Frechet derivatives: the same ok set, and U and xi within cauchy_tol
    sf = load_builtin(name)
    tol = sf.config["cauchy_tol"]
    group, ambient = _two_routes(sf.cr, 0.5, 5)
    assert group.ok_rows.all() and np.array_equal(group.ok_rows, ambient.ok_rows)
    assert np.max(np.abs(group.U - ambient.U)) <= tol
    assert np.max(np.abs(group.xi - ambient.xi)) <= tol
    # negative control: the first left-invariant field scaled by 1.01 in the
    # ambient copy moves U and xi by far more than the tolerance
    X = sf.cr.ambient_fields[0]
    scaled = VectorField(X.chart, tuple(mul(Const(1.01), c) for c in X.components))
    perturbed = dataclasses.replace(sf.cr, ambient_fields=(scaled, *sf.cr.ambient_fields[1:]))
    _, off = _two_routes(perturbed, 0.5, 5)
    assert np.max(np.abs(group.U - off.U)) > 100 * tol
    assert np.max(np.abs(group.xi - off.xi)) > 100 * tol


def _refusing_group_data():
    """Affine-group data whose map refuses a row in each of its ways: sigma
    = log(p1) refuses p1 <= 0, a time past matrix_exp's accuracy bound makes
    the exponential NaN, and E2's entry 1e-3 below the coordinate pattern
    drifts off it wherever u2 != 0."""
    chart = ComplexChart.standard(2)
    E1, E2 = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [1e-3, 0.0]])
    spec = MatrixGroupSpec(chart, np.array([[0.0, 0.0], [0.0, 1.0]]), ((0, 0), (0, 1)),
                           (E1, E2))
    sigma = tuple(map(parse_expr, ("log(p1)", "0", "p2", "0")))
    return CRInitialData(chart, 2, ("p1", "p2"), sigma, left_invariant_fields(spec), spec)


def test_each_refused_row_keeps_the_error_it_gets_alone():
    # one stack: row 0 refused by sigma (its error names point 0, alone too),
    # row 1 by the exponential's bound, row 2 by the drift, row 3 by Newton
    # trials that all drift, and row 4 solved
    data = _refusing_group_data()
    F, dF = build_F(data, CFG), build_dF(data, CFG)

    def FJ(X, _rows):
        return dF(X[:, :2], X[:, 2:])

    x0 = np.array([[0.0, 0.3, 0.0, 0.0], [2.0, 0.3, 1e9, 0.0], [2.0, 0.3, 0.0, 0.5],
                   [2.0, 0.3, 0.0, 0.0], [2.0, 0.3, 0.0, 0.0]])
    (reachable, drifting), _ = F(np.array([[2.2, 0.3], [2.2, 0.3]]),
                                 np.array([[0.2, 0.0], [0.2, 0.4]]))
    targets = np.array([reachable] * 3 + [drifting, reachable])
    out = newton_rows(FJ, targets, x0, CFG)
    assert [str(err) if err else None for err in out.errors] == [
        "log of non-positive value in 'log(p1)' at point 0 (p1=0.0, p2=0.3)",
        "matrix exponential is not finite (overflow, or past matrix_exp's accuracy bound)",
        "matrix leaves the embedded coordinate pattern (drift 5.000e-04)",
        "no descent step found (residual 3.606e-01)", None]
    assert [type(err) for err in out.errors[:4]] == [
        DomainError, EmbeddingError, EmbeddingError, NewtonError]
    assert out.halvings.tolist() == [0, 0, 0, 10, 0]
    assert np.allclose(out.x[4], [2.2, 0.3, 0.2, 0.0], rtol=0, atol=1e-12)
    for i in range(5):
        alone = newton_rows(FJ, targets[i:i + 1], x0[i:i + 1], CFG)
        assert [type(alone.errors[0]), str(alone.errors[0])] == [
            type(out.errors[i]), str(out.errors[i])]
        assert np.array_equal(alone.x[0], out.x[i], equal_nan=True)
        assert (alone.iters[0], alone.halvings[0]) == (out.iters[i], out.halvings[i])
    # the map alone: each start row's error, stacked and one at a time
    errors = dF(x0[:, :2], x0[:, 2:])[2]
    for i in range(5):
        assert str(errors[i]) == str(dF(x0[i:i + 1, :2], x0[i:i + 1, 2:])[2][0])


def test_first_error_takes_each_row_from_the_first_list_that_refuses_it():
    a, b, c = DomainError("a"), EmbeddingError("b"), NewtonError("c")
    clear, one, two = [None] * 3, [None, a, None], [b, c, None]
    for lists, first in [((clear,), clear), ((clear, clear), clear), ((clear, one), one),
                         ((one, clear, clear), one), ((one, two), [b, a, None]),
                         ((two, clear, one), [b, c, None])]:
        got = cgsys.cauchy._first_error(*lists)
        assert got == first and all(got is not errs for errs in lists)


# sigma = log(s) refuses s <= 0, and the field x1/|z|^2 d/dx1 has a pole at 0
LOGSIG_CGS = ("[chart]\ncomplex_dim = 1\n\n[cr_data]\nparams = s\nsigma = log(s); 0\n"
              "field_1 = x1/(x1^2 + y1^2); -y1/(x1^2 + y1^2)\nbase_params = 2\n")


def test_flow_map_errors_name_their_row_in_the_stack():
    # sigma refuses row 0 (log 0), and row 2 starts on the field's pole:
    # F and dF name row 2 by its index in the stack, not among the rows
    # that sigma accepts
    data = loads(LOGSIG_CGS).cr
    P, U = np.array([[0.0], [2.0], [1.0]]), np.zeros((3, 1))
    (points, errors), (dpoints, J, derrors, _) = (
        build_F(data, CFG)(P, U), build_dF(data, CFG)(P, U))
    for errs in (errors, derrors):
        assert [str(err) if err else None for err in errs] == [
            "log of non-positive value in 'log(s)' at point 0 (s=0.0)", None,
            "division by zero in 'x1/(x1^2 + y1^2)' at point 2 (x1=0.0, y1=0.0)"]
    assert np.array_equal(points, dpoints, equal_nan=True)
    assert np.isnan(points[::2]).all() and np.isnan(J[::2]).all()
    assert np.array_equal(points[1], [math.log(2.0), 0.0])


def test_a_row_that_sigma_refuses_takes_no_step(monkeypatch):
    # row 0 is refused by sigma (log 0) and starts its flow at NaN: F and dF,
    # with counts chosen or frozen, evaluate the fields' tape on as many
    # rows as the two live rows alone do (642, 642 and 262 rows, where
    # stepping the NaN row too took 961, 961 and 392)
    data = loads(LOGSIG_CGS).cr
    P, U = np.array([[0.0], [2.0], [1.5]]), np.full((3, 1), 0.5)
    rows, at = [], cgsys.flow._HolomorphicFrame.at

    def counted(self, X, labels=None):
        rows.append(len(X))
        return at(self, X, labels)

    monkeypatch.setattr(cgsys.flow._HolomorphicFrame, "at", counted)
    F, dF = build_F(data, CFG), build_dF(data, CFG)
    for flow_map, counts in ((F, None), (dF, None), (dF, np.full(3, 5))):
        outs, evaluated = [], []
        for live in (slice(0, None), slice(1, None)):
            rows.clear()
            outs.append(flow_map(P[live], U[live], None if counts is None else counts[live]))
            evaluated.append(sum(rows))
        assert evaluated[0] == evaluated[1]
        points, errors = outs[0][0], outs[0][1 if flow_map is F else 2]
        assert str(errors[0]) == "log of non-positive value in 'log(s)' at point 0 (s=0.0)"
        assert errors[1:] == [None, None] and np.isnan(points[0]).all()
        assert np.array_equal(points[1:], outs[1][0])


# --- equation map ----------------------------------------------------------------


def test_line_equation_map_gives_minus_y(line_data):
    queries = [(0.0, 0.25), (0.4, -0.31), (-1.0, 0.5)]
    for (x, y), rec in zip(queries, solve(line_data, queries, CFG).records):
        assert rec.ok
        assert rec.U[0] == pytest.approx(-y, abs=1e-9)
        assert rec.params[0] == pytest.approx(x, abs=1e-9)


def test_equation_map_vanishes_on_M(heis_data):
    P = np.random.default_rng(5).uniform(-1, 1, size=(5, 3))
    for rec in solve(heis_data, heis_data.table.at(P)["sigma"], CFG).records:
        assert rec.ok and np.max(np.abs(rec.U)) < 1e-9


def test_group_identity_recovers_algebra_vector(heis_data, heis_spec):
    # q = exp(-i(a E1 + b E2 + c E3)) from the identity must give U = (a,b,c)
    V = np.random.default_rng(6).uniform(-0.5, 0.5, size=(5, 3))
    queries, errors = complexified_flow_matrix(heis_spec, np.zeros((5, 6)), -1j * V)
    assert errors == [None] * 5
    for v, rec in zip(V, solve(heis_data, queries, CFG).records):
        assert rec.ok and np.max(np.abs(rec.U - v)) < 1e-9


# --- frame, P, Q, A ---------------------------------------------------------------


def test_PQA_on_M_is_identity_and_zero(heis_data):
    dF = build_dF(heis_data, CFG)
    rng = np.random.default_rng(7)
    for p in rng.uniform(-1, 1, size=(5, 3)):
        frame = compute_PQA(heis_data, dF, p, np.zeros(3), CFG)
        assert np.max(np.abs(frame.P - np.eye(3))) < 1e-9
        assert np.max(np.abs(frame.Q)) < 1e-9
        assert np.max(np.abs(frame.A)) < 1e-9


def _j_loop(v):
    out = np.empty_like(v)
    out[0::2] = -v[1::2]
    out[1::2] = v[0::2]
    return out


@pytest.mark.parametrize("name", ["heis_data", "affine_data", "line_data"])
def test_stacked_J_pullbacks_equal_the_per_vector_loops(name, request):
    # J pulled back through F, dF^-1 J dF, and its products must round as
    # the per-row solves of J dF's columns and products do, so a frame
    # comes out as it would alone
    data = request.getfixturevalue(name)
    dF_map = build_dF(data, CFG)
    m, k = len(data.param_names), data.k
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = data.base + rng.uniform(-0.3, 0.3, m)
        frame = compute_PQA(data, dF_map, p, rng.uniform(-0.4, 0.4, k), CFG)
        D = frame.dF
        Jt = np.column_stack([np.linalg.solve(D, _j_loop(col)) for col in D.T])
        assert np.array_equal(frame.Jt, Jt)
        assert np.array_equal(frame.jh_adapted, frame.lifts @ Jt.T)
        assert np.array_equal(frame.je_adapted, Jt[:, m:].T)
        built = construct_fields(frame)
        jxi = built.xi_adapted @ Jt.T
        assert built.residual_dc == float(np.max(np.abs(jxi[:, m:] - np.eye(k))))
        assert np.array_equal(built.jxi_ambient,
                              np.array([_j_loop(v) for v in built.xi_ambient]))


@pytest.mark.parametrize("name", ["heis_data", "affine_data", "line_data"])
def test_each_column_of_A_is_solved_alone(name, request):
    # A = P^-1 Q solves each column of Q as its own system, in one stacked
    # call, so it rounds as a solve of that column alone does
    data = request.getfixturevalue(name)
    m, k = len(data.param_names), data.k
    rng = np.random.default_rng(5)
    P, U = data.base + rng.uniform(-0.3, 0.3, (20, m)), rng.uniform(-0.4, 0.4, (20, k))
    ambient, dF, errors, _ = build_dF(data, CFG)(P, U)
    frame, frame_errors = cgsys.cauchy._frames(data, P, U, ambient, dF)
    assert errors == frame_errors == [None] * 20
    for i in range(20):
        for b in range(k):
            assert np.array_equal(frame.A[i][:, b], np.linalg.solve(frame.P[i], frame.Q[i][:, b]))


NON_INVOLUTIVE = """
[chart]
complex_dim = 3

[cr_data]
params = a b c d
sigma = a; 0; b; 0; c; d
field_1 = 1; 0; 0; 0; 0; 0
field_2 = 0; 0; 1; 0; x1; y1
"""


def test_non_involutive_data_is_solved_pointwise_with_a_note(tmp_path, capsys):
    # [d/dx1, d/dx2 + x1 d/dx3] = d/dx3 leaves the span of the initial fields
    data = loads(NON_INVOLUTIVE, name="contact").cr
    queries = grid_queries(data, [np.linspace(-0.25, 0.25, 2)] * 2, cfg=CFG)
    sol = solve(data, queries, CFG)
    assert sol.integrability_defect == 1.0
    assert sol.integrability_note == ("initial distribution is not involutive on M "
                                      "(defect 1.000e+00); proceeding pointwise")
    assert sol.ok and len(sol.records) == 4
    path = tmp_path / "contact.cgs"
    path.write_text(NON_INVOLUTIVE)
    assert main(["cauchy", str(path), "--grid", "2", "--u-extent", "0.25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [f"note: {sol.integrability_note}", "verdict: pass"]


def _frames_with(data, refused):
    """_frames at three solved rows of ``data`` with ``refused`` (a map of
    the solved dF to a dF) put in as row 1, and the frames of the three
    rows alone; asserts that the other rows are as they are alone."""
    m, k = len(data.param_names), data.k
    rng = np.random.default_rng(3)
    P, U = data.base + rng.uniform(-0.3, 0.3, (3, m)), rng.uniform(-0.2, 0.2, (3, k))
    ambient, dF, _, _ = build_dF(data, CFG)(P, U)
    dF[1] = refused(dF[1])
    frame, errors = cgsys.cauchy._frames(data, P, U, ambient, dF)
    for i in (0, 2):
        alone, alone_errors = cgsys.cauchy._frames(
            data, P[i:i + 1], U[i:i + 1], ambient[i:i + 1], dF[i:i + 1])
        assert errors[i] is None and alone_errors == [None]
        for f in dataclasses.fields(frame):
            assert np.array_equal(getattr(frame, f.name)[i], getattr(alone, f.name)[0])
    return frame, errors[1]


def test_frames_refuse_a_singular_dF_alone(heis_data):
    def singular(dF):
        dF[:, 0] = 0.0
        return dF
    _, err = _frames_with(heis_data, singular)
    assert type(err) is cgsys.cauchy.OutsideDomainError
    assert str(err) == "dF is numerically singular at this point"


def test_frames_refuse_a_small_det_P_alone(heis_data):
    # u columns 1e4 times longer: P shrinks by 1e4 and det P by 1e12
    def stretched(dF):
        dF[:, 3:] *= 1e4
        return dF
    frame, err = _frames_with(heis_data, stretched)
    det = np.linalg.det(frame.P[1])
    assert 0.0 < abs(det) <= 1e-10
    assert type(err) is cgsys.cauchy.OutsideDomainError
    assert str(err) == f"det P = {det:.3e}: point lies outside the construction domain"


def test_frames_refuse_a_singular_P_by_its_det_alone(heis_data):
    # p1, p2, p3 go to x1, y1, x2: J h_b lies in the image of the parameter
    # directions except for its y2 part, so P has rank one and dF is regular;
    # a P that LU finds singular has det 0, so the det test refuses it
    def permuted(dF):
        return np.eye(6)
    _, err = _frames_with(heis_data, permuted)
    assert type(err) is cgsys.cauchy.OutsideDomainError
    assert str(err) == "det P = 0.000e+00: point lies outside the construction domain"


@pytest.mark.parametrize("name, mix", [("line_data", 1e-6), ("affine_data", 1e-10)])
def test_fields_refuse_an_ill_conditioned_dF_alone(name, mix, request):
    # column 1 of dF turned nearly parallel to column 0: dF stays regular
    # and det P passes, but du_a(xi_b) = 0 and d^c u_a(xi_b) = delta_ab
    # miss by more than CONSTRUCTION_TOL
    def mixed(dF):
        dF[:, 1] = dF[:, 0] + mix * dF[:, 1]
        return dF
    frame, err = _frames_with(request.getfixturevalue(name), mixed)
    assert err is None
    built, errors = cgsys.cauchy._construct_rows(frame)
    assert errors[0] is None and errors[2] is None
    worst = max(built.residual_d[1], built.residual_dc[1])
    assert type(errors[1]) is ConstructionError and worst > CONSTRUCTION_TOL
    assert str(errors[1]) == (f"internal identity residual {worst:.3e} exceeds "
                              f"{CONSTRUCTION_TOL:g}; dF is ill-conditioned here")
    with pytest.raises(ConstructionError, match="internal identity residual"):
        construct_fields(cgsys.cauchy._row(frame, 1))


def test_frames_refuse_a_nan_det_P_alone(affine_data):
    # NaN fails |det P| <= 1e-10 as it fails every comparison; LAPACK
    # solves a NaN dF without finding it singular
    def poisoned(dF):
        dF[0, 0] = np.nan
        return dF
    frame, err = _frames_with(affine_data, poisoned)
    assert np.isnan(frame.P[1]).all()
    assert type(err) is cgsys.cauchy.OutsideDomainError
    assert str(err) == "det P = nan is not finite"


@pytest.mark.parametrize("block, entry", [("A", (0, -1, -1)), ("Jt", (0, -1, 0))])
def test_fields_refuse_a_nan_residual(block, entry, affine_data):
    # a NaN in A makes both residuals NaN; one in the last row of Jt (off
    # its u columns, which J d/du_a views) only residual_dc, beside a
    # finite residual_d
    P, U = np.array([[0.1, 0.2]]), np.array([[0.1, -0.1]])
    ambient, dF, _, _ = build_dF(affine_data, CFG)(P, U)
    frame, errors = cgsys.cauchy._frames(affine_data, P, U, ambient, dF)
    assert errors == [None]
    getattr(frame, block)[entry] = np.nan
    built, [err] = cgsys.cauchy._construct_rows(frame)
    assert np.isnan(built.residual_dc[0])
    assert np.isnan(built.residual_d[0]) == (block == "A")
    assert type(err) is ConstructionError
    assert str(err) == "internal identity residual nan is not finite"


def test_one_stack_refuses_each_row_as_it_refuses_that_row_alone(affine_data):
    # rows refused by a singular dF, a NaN det P, a small det P, the
    # construction residual and param_domain beside a resolved row: each
    # row's error, and the first of the stages' errors, is what the row
    # alone gives, with its text unchanged
    m, k = len(affine_data.param_names), affine_data.k
    rng = np.random.default_rng(3)
    P, U = affine_data.base + rng.uniform(-0.3, 0.3, (6, m)), rng.uniform(-0.2, 0.2, (6, k))
    P[5, 0] = 0.1
    ambient, dF, _, _ = build_dF(affine_data, CFG)(P, U)
    dF[1][:, 0] = 0.0
    dF[2][0, 0] = np.nan
    dF[3][:, m:] *= 1e6
    dF[4][:, 1] = dF[4][:, 0] + 1e-10 * dF[4][:, 1]

    def stages(rows):
        frame, frame_errors = cgsys.cauchy._frames(
            affine_data, P[rows], U[rows], ambient[rows], dF[rows])
        built, built_errors = cgsys.cauchy._construct_rows(frame)
        domain_errors = cgsys.cauchy._domain_errors(affine_data, P[rows])
        return [domain_errors, frame_errors, built_errors]

    stack = stages(slice(None))
    for i in range(6):
        alone = stages(slice(i, i + 1))
        assert [[str(e) if e else e for e in errs[i:i + 1]] for errs in stack] == \
            [[str(e) if e else e for e in errs] for errs in alone]
    texts = [str(e) if e else e for e in cgsys.cauchy._first_error(*stack)]
    det = np.linalg.det(cgsys.cauchy._frames(
        affine_data, P[3:4], U[3:4], ambient[3:4], dF[3:4])[0].P[0])
    assert texts[:4] == [None, "dF is numerically singular at this point",
                         "det P = nan is not finite",
                         f"det P = {det:.3e}: point lies outside the construction domain"]
    assert texts[4].startswith("internal identity residual ") and texts[4].endswith(
        f"exceeds {CONSTRUCTION_TOL:g}; dF is ill-conditioned here")
    assert texts[5] == (f"Newton solution has parameters {np.round(P[5], 6).tolist()} "
                        "outside param_domain")
    # the construction refuses rows 1 and 2 too, after the frames
    assert [type(stack[2][i]) for i in (1, 2, 4)] == [ConstructionError] * 3


def test_line_frame_is_flat_off_M(line_data):
    dF = build_dF(line_data, CFG)
    frame = compute_PQA(line_data, dF, np.array([0.2]), np.array([0.35]), CFG)
    assert frame.P[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert abs(frame.Q[0, 0]) < 1e-9
    assert abs(frame.A[0, 0]) < 1e-9


def test_invariant_lift_on_M_is_initial_frame(heis_data):
    # the lifted frame h_a at F(p, u): its adapted components pushed
    # through dF, one column each
    p = np.array([0.3, 0.2, -0.4])
    frame = compute_PQA(heis_data, build_dF(heis_data, CFG), p, np.zeros(3), CFG)
    lifted = frame.dF @ frame.lifts.T
    assert np.max(np.abs(lifted - heis_data.table.at(p[None])["rho0"][0])) < 1e-8


def test_invariant_lift_matches_refined_differences(heis_data):
    # push-forward of the lifted frame: exact dF against a central-difference
    # dF with step 5e-7
    p = np.array([0.1, -0.2, 0.3])
    u = np.array([0.1, 0.0, 0.0])
    exact, fd = (compute_PQA(heis_data, dF, p, u, CFG)
                 for dF in (build_dF(heis_data, CFG), fd_dF(heis_data, 5e-7)))
    assert np.max(np.abs(exact.dF @ exact.lifts.T - fd.dF @ fd.lifts.T)) < 1e-6


def test_constructed_fields_extend_initial_data(heis_data):
    dF = build_dF(heis_data, CFG)
    P = np.random.default_rng(8).uniform(-1, 1, size=(5, 3))
    for p, rho0 in zip(P, heis_data.table.at(P)["rho0"]):
        frame = compute_PQA(heis_data, dF, p, np.zeros(3), CFG)
        built = construct_fields(frame)
        assert np.max(np.abs(built.xi_ambient - rho0.T)) < 1e-8


def test_heisenberg_fields_match_closed_forms_off_M(heis_data, heis_oracle):
    dF = build_dF(heis_data, CFG)
    grads, fields = heis_oracle
    p = np.array([0.4, -0.3, 0.2])
    u = np.array([0.2, 0.1, 0.0])
    frame = compute_PQA(heis_data, dF, p, u, CFG)
    built = construct_fields(frame)
    q = frame.ambient
    ref = np.array([values(f, q) for f in fields])
    assert np.max(np.abs(built.xi_ambient - ref)) < 1e-5


def test_field_values_stable_under_h_refinement(heis_data):
    # the fields built on the exact dF against those built on a
    # central-difference dF with step 5e-7
    p = np.array([0.4, -0.3, 0.2])
    u = np.array([0.2, 0.1, 0.0])
    a = construct_fields(compute_PQA(heis_data, build_dF(heis_data, CFG), p, u, CFG)).xi_ambient
    b = construct_fields(compute_PQA(heis_data, fd_dF(heis_data, 5e-7), p, u, CFG)).xi_ambient
    assert np.max(np.abs(a - b)) < 1e-6


# --- the exact dF against central differences ----------------------------------


QUADRATIC_FIELD = """
[chart]
complex_dim = 1

[cr_data]
params = s
sigma = s; 0
field_1 = 1 + 1.1*(x1^2 - y1^2); 2*1.1*x1*y1

[oracle]
field_1 = 1 + 1.1*(x1^2 - y1^2); 2*1.1*x1*y1
grad_1 = -log((1.1*x1^2 + (1 + sqrt(1.1)*y1)^2)/(1.1*x1^2 + (1 - sqrt(1.1)*y1)^2))/(4*sqrt(1.1))
"""


def _product_exp_data():
    # N = 2, k = 1: Z = (z1 z2, exp(z1)) has a non-constant holomorphic
    # Jacobian; dF does not need the field to be tangent to M
    chart = ComplexChart.standard(2)
    return CRInitialData(
        chart=chart, k=1, param_names=("s1", "s2", "s3"),
        sigma=tuple(parse_expr(t) for t in ["s1", "0", "s2", "s3"]),
        ambient_fields=(field(chart, ["x1*x2 - y1*y2", "x1*y2 + y1*x2",
                                      "exp(x1)*cos(y1)", "exp(x1)*sin(y1)"]),),
        name="product-exp")


@pytest.mark.parametrize("which", ["heisenberg", "affine", "heisenberg-ode",
                                   "line", "quadratic", "product-exp"])
def test_dF_matches_numerical_jacobian(which, heis_data, affine_data, line_data):
    data = {"heisenberg": heis_data, "affine": affine_data, "line": line_data,
            "heisenberg-ode": _heisenberg_ode_data(heis_data),
            "quadratic": loads(QUADRATIC_FIELD, name="quadratic").cr,
            "product-exp": _product_exp_data()}[which]
    F, dF = build_F(data, CFG), build_dF(data, CFG)
    m = len(data.param_names)
    rng = np.random.default_rng(11)
    for _ in range(4):
        p = data.base + rng.uniform(-0.3, 0.3, size=m)
        u = rng.uniform(-0.3, 0.3, size=data.k)
        (point,), (J,), errors, _ = dF(p[None], u[None])
        assert errors == [None]
        assert np.max(np.abs(point - F(p[None], u[None])[0][0])) < 1e-14
        fd = numerical_jacobian(lambda x: F(x[None, :m], x[None, m:])[0][0],
                                np.concatenate([p, u]), 1e-6)
        assert np.max(np.abs(J - fd)) < 1e-8


# --- solve -------------------------------------------------------------------------


def test_line_solve_grid(line_data):
    ys = np.linspace(-0.5, 0.5, 21)
    queries = np.column_stack([np.zeros(21), ys])
    chart = line_data.chart
    oracle = ((parse_expr("-y1"),), (VectorField.coordinate(chart, "x1"),))
    sol = solve(line_data, queries, CFG, oracle=oracle)
    assert sol.ok
    assert sol.max_oracle_dU < 1e-6
    assert sol.max_oracle_dxi < 1e-6


def test_heisenberg_solve_grid(heis_data, heis_oracle):
    axes = [np.linspace(-0.5, 0.5, 3)] * 3
    queries = grid_queries(heis_data, axes, cfg=CFG)
    sol = solve(heis_data, queries, CFG, oracle=heis_oracle)
    assert sol.ok
    assert sol.max_oracle_dU < 1e-5
    assert sol.max_oracle_dxi < 1e-5
    assert sol.max_axiom_residual < 1e-8


def test_affine_solve_grid(affine_data):
    chart = affine_data.chart
    th = "atan2(y1, x1)"
    oracle = (
        tuple(parse_expr(s) for s in [f"-{th}", f"-y2*{th}/y1"]),
        (field(chart, ["x1", "y1", f"y2*(x1/y1 - 1/{th})", "y2"]),
         field(chart, ["0", "0", f"y1/{th}", "0"])),
    )
    axes = [np.linspace(0.1, 0.5, 3), np.linspace(-0.5, 0.5, 3)]
    queries = grid_queries(affine_data, axes, cfg=CFG)
    sol = solve(affine_data, queries, CFG, oracle=oracle)
    assert sol.ok
    assert sol.max_oracle_dU < 1e-5
    assert sol.max_oracle_dxi < 1e-5


def test_line_grid_9_field_oracle_is_exact(line_data):
    oracle = ((parse_expr("-y1"),), (VectorField.coordinate(line_data.chart, "x1"),))
    queries = grid_queries(line_data, [np.linspace(-0.5, 0.5, 9)], cfg=CFG)
    sol = solve(line_data, queries, CFG, oracle=oracle)
    assert sol.ok
    assert sol.max_oracle_dxi < 1e-13


def test_heisenberg_cr_oracle_exact_on_the_nilpotent_group():
    sf = load_builtin("heisenberg-cr")
    queries = grid_queries(sf.cr, [np.linspace(-0.5, 0.5, 3)] * 3, cfg=CFG)
    sol = solve(sf.cr, queries, CFG, oracle=sf.oracle)
    assert sol.ok
    assert sol.max_oracle_dU <= 1e-14
    assert sol.max_oracle_dxi <= 1e-14


def test_quadratic_field_meets_the_field_oracle():
    # (1 + c z^2) d/dz with c = 1.1: U = -Im atan(sqrt(c) z)/sqrt(c).  The
    # step count changes at |u| = 0.25, the grid's end points, where the
    # flow moves by rounding only
    sf = loads(QUADRATIC_FIELD, name="quadratic")
    queries = grid_queries(sf.cr, [np.linspace(-0.25, 0.25, 3)], cfg=CFG)
    sol = solve(sf.cr, queries, CFG, oracle=sf.oracle)
    assert sol.ok
    assert sol.max_oracle_dU < 1e-10
    assert sol.max_oracle_dxi < 1e-10


def test_a_query_on_a_removable_singularity_keeps_nan_oracle_residuals():
    # affine's closed forms divide by y1, which this query on M sets to 0:
    # the query resolves, and only its comparison with them is undefined
    sf = load_builtin("affine")
    [rec] = solve(sf.cr, [[1.0, 0.0, 0.3, 0.0]], CFG, oracle=sf.oracle).records
    assert rec.ok and rec.error == ""
    assert rec.residual_d < 1e-12 and rec.residual_dc < 1e-12
    assert math.isnan(rec.oracle_dU) and math.isnan(rec.oracle_dxi)


@pytest.mark.parametrize("source, extent", [
    ("line", 0.5), ("heisenberg-cr", 0.5), ("affine", 0.5), ("affine", 3.0),
    ("ambient 0.8", 0.5), ("ambient 1.1", 0.5)])
def test_compiled_oracle_equals_the_tree_walk(source, extent):
    # every resolved record's oracle residuals, bit for bit, against the
    # closed forms walked at its query (NaN where a walk faults); affine
    # also gets the query on its removable singularity
    name, _, c = source.partition(" ")
    sf = _ambient_file(float(c)) if c else load_builtin(name)
    queries = grid_queries(sf.cr, [np.linspace(-extent, extent, 5)] * sf.cr.k, cfg=CFG)
    if name == "affine":
        queries = np.vstack([queries, [1.0, 0.0, 0.3, 0.0]])
    grads, fields = sf.oracle
    records = [r for r in solve(sf.cr, queries, CFG, oracle=sf.oracle).records if r.ok]
    assert records
    for rec in records:
        env = dict(zip(sf.chart.names, rec.query))
        try:
            U_ref = np.array([evaluate(g, env) for g in grads])
            xi_ref = np.array([values(f, rec.query) for f in fields])
            walked = [np.max(np.abs(U_ref - rec.U)), np.max(np.abs(xi_ref - rec.xi))]
        except ExprError:
            walked = [np.nan, np.nan]
        assert np.array_equal([rec.oracle_dU, rec.oracle_dxi], walked, equal_nan=True)
    if name == "affine":
        assert math.isnan(records[-1].oracle_dU)


def test_solve_rejects_parameters_outside_domain(affine_data):
    # at |u| <= 3 Newton can land on p1 = -1, the other sheet of
    # z1 = p1 exp(i u1), which param_domain p1 > 0.25 excludes
    axes = [np.linspace(-3.0, 3.0, 5)] * 2
    queries = grid_queries(affine_data, axes, cfg=CFG)
    sol = solve(affine_data, queries, CFG)
    outside = [r for r in sol.records if not r.ok]
    assert outside
    assert all("outside param_domain" in r.error for r in outside)
    inside, fault = affine_data.domain_predicate.holds(
        np.array([r.params for r in sol.records if r.ok]))
    assert inside.all() and fault is None


def test_solve_rejects_non_transverse_data():
    chart = ComplexChart.standard(1)
    data = CRInitialData(
        chart=chart, k=1, param_names=("s",),
        sigma=(parse_expr("s"), parse_expr("0")),
        ambient_fields=(field(chart, ["x1", "0"]),),
        name="non-transverse")
    with pytest.raises(TransversalityError) as err:
        solve(data, [np.array([0.5, 0.1])], CFG)
    assert err.value.witness is not None


# --- non-uniqueness -----------------------------------------------------------------


def test_alternate_line_extension_differs():
    # both (d/dx, -y) and (e^y d/dx, e^-y - 1) extend d/dx along the real
    # axis; their fields differ by e^0.1 - 1 at y = 0.1
    chart = ComplexChart.standard(1)
    xi = VectorField.coordinate(chart, "x1")
    xi_alt = field(chart, ["exp(y1)", "0"])
    p = np.array([0.0, 0.1])
    gap = np.max(np.abs(xi_alt.values(p) - xi.values(p)))
    assert gap == pytest.approx(math.exp(0.1) - 1.0, abs=1e-15)
    assert gap > 0.105


# --- every query of a solve in lockstep -------------------------------------------


# name: (system, u extent, grid); affine at |u| >= 2 refuses some of its
# rows, and at |u| <= 2 on the 7-grid some rows halve their steps; ambient
# and logsig at |u| <= 3 each have two rows that Newton refuses, whose NaN
# parameters go on through the later stages (and log(s) on logsig)
LOCKSTEP_CASES = {
    "line": ("line", 0.5, 9), "heisenberg-cr": ("heisenberg-cr", 0.5, 3),
    "affine": ("affine", 0.5, 5), "ambient": ("ambient", 0.5, 5),
    "affine-wide": ("affine", 3.0, 5), "affine-halving": ("affine", 2.0, 7),
    "ambient-wide": ("ambient", 3.0, 9), "logsig-wide": ("logsig", 3.0, 9),
}
# the error of every refused row of a case; the other cases refuse none
LOCKSTEP_REFUSALS = {
    "affine-wide": "outside param_domain", "affine-halving": "outside param_domain",
    "ambient-wide": "no descent step found", "logsig-wide": "no descent step found",
}


def _lockstep_case(name):
    system, extent, grid = LOCKSTEP_CASES[name]
    sf = (_ambient_file() if system == "ambient" else
          loads(LOGSIG_CGS, name="logsig") if system == "logsig" else load_builtin(system))
    axes = [np.linspace(-extent, extent, grid)] * sf.cr.k
    return sf.cr, sf.oracle, grid_queries(sf.cr, axes, cfg=CFG)


def _assert_same_record(a, b):
    assert (a.ok, a.error, a.newton_iters, a.halvings) == \
        (b.ok, b.error, b.newton_iters, b.halvings)
    for name in ("query", "params", "u", "U", "xi", "jxi"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name
    for name in ("residual_d", "residual_dc", "newton_residual", "oracle_dU", "oracle_dxi"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


@pytest.mark.parametrize("name", LOCKSTEP_CASES)
def test_solve_gives_each_query_the_record_it_gets_alone(name):
    data, oracle, queries = _lockstep_case(name)
    sol = solve(data, queries, CFG, oracle=oracle)
    refused, expected = [r.error for r in sol.records if not r.ok], LOCKSTEP_REFUSALS.get(name)
    assert bool(refused) == bool(expected)
    assert all(expected in e for e in refused)
    for q, rec in zip(queries, sol.records):
        _assert_same_record(rec, solve(data, [q], CFG, oracle=oracle).records[0])


@pytest.mark.parametrize("name", ["heisenberg-cr", "affine-wide"])
def test_reversed_queries_reverse_the_records(name):
    data, oracle, queries = _lockstep_case(name)
    forward = solve(data, queries, CFG, oracle=oracle).records
    backward = solve(data, queries[::-1], CFG, oracle=oracle).records
    for a, b in zip(forward, backward[::-1]):
        _assert_same_record(a, b)


def test_newton_counts_are_the_steps_of_newton_inverse():
    # an independent count: the one-row Newton from the same start on row 0
    # of stacks of one evaluates F and dF once per point; a step is taken at
    # each point whose residual norm beats the best so far, and every
    # other trial was a halving
    data, _, queries = _lockstep_case("affine-halving")
    dF = build_dF(data, CFG)
    m = len(data.param_names)
    records = solve(data, queries, CFG).records
    assert any(r.halvings for r in records)
    for q, rec in zip(queries, records):
        norms = []

        def G(x):
            value = dF(x[None, :m], x[None, m:])[0][0]
            norms.append(math.sqrt(sum(r * r for r in value - q)))
            return value

        def dG(x):
            return dF(x[None, :m], x[None, m:])[1][0]

        x0 = cgsys.cauchy._initial_guesses(data, q[None])[0]
        newton_inverse(G, q, x0, CFG, jac=dG)
        best, steps = norms[0], 0
        for norm in norms[1:]:
            if norm < best:
                best, steps = norm, steps + 1
        assert rec.newton_iters == steps
        assert len(norms) == 1 + rec.newton_iters + rec.halvings


def test_cli_newton_counts_repeat_from_run_to_run(tmp_path):
    reports = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in reports:
        assert main(["cauchy", "affine", "--u-extent", "3", "--grid", "5",
                     "--json", str(out)]) == 1
    assert reports[0].read_bytes() == reports[1].read_bytes()
    data, _, queries = _lockstep_case("affine-wide")
    records = json.loads(reports[0].read_text())["records"]
    for rec, ref in zip(records, solve(data, queries, CFG).records):
        assert (rec["newton_iters"], rec["halvings"]) == (ref.newton_iters, ref.halvings)


@pytest.mark.parametrize("which", ["heisenberg", "affine", "heisenberg-ode", "quadratic"])
def test_stacked_F_and_dF_equal_their_one_point_calls(which, heis_data, affine_data):
    # a row of a stack comes out as it does in a stack of one
    data = {"heisenberg": heis_data, "affine": affine_data,
            "heisenberg-ode": _heisenberg_ode_data(heis_data),
            "quadratic": loads(QUADRATIC_FIELD, name="quadratic").cr}[which]
    F, dF = build_F(data, CFG), build_dF(data, CFG)
    m = len(data.param_names)
    rng = np.random.default_rng(14)
    P = data.base + rng.uniform(-0.3, 0.3, size=(4, m))
    U = rng.uniform(-0.3, 0.3, size=(4, data.k))
    points, errors = F(P, U)
    dpoints, J, derrors, _ = dF(P, U)
    assert errors == derrors == [None] * 4
    for i in range(4):
        one = slice(i, i + 1)
        assert np.array_equal(points[one], F(P[one], U[one])[0])
        point, Ji, _, _ = dF(P[one], U[one])
        assert np.array_equal(dpoints[one], point)
        assert np.array_equal(J[one], Ji)


@pytest.mark.parametrize("which", ["heisenberg", "affine", "heisenberg-ode",
                                   "quadratic", "ambient"])
def test_dF_points_equal_F_points(which, heis_data, affine_data):
    # Newton takes its residuals from dF's points, so they must be F's to
    # the last bit
    data = {"heisenberg": heis_data, "affine": affine_data,
            "heisenberg-ode": _heisenberg_ode_data(heis_data),
            "quadratic": loads(QUADRATIC_FIELD, name="quadratic").cr,
            "ambient": _ambient_data()}[which]
    F, dF = build_F(data, CFG), build_dF(data, CFG)
    m = len(data.param_names)
    rng = np.random.default_rng(15)
    P = data.base + rng.uniform(-0.3, 0.3, size=(16, m))
    U = rng.uniform(-1.0, 1.0, size=(16, data.k))
    U[0] = 0.0
    points, errors = F(P, U)
    dpoints, _, derrors, _ = dF(P, U)
    assert errors == derrors == [None] * 16
    assert np.array_equal(points, dpoints)


def _counted_maps(monkeypatch):
    """Patch build_F, build_dF and newton_rows in cauchy so that each F
    call records its caller, each dF call its rows and whether it came from
    outside a Newton run, and each Newton result is kept; and patch the one
    Runge-Kutta loop of flow, which every complex flow runs once, so that
    each flow records whether it ran inside a Newton run."""
    seen = {"F": [], "dF": [], "late": 0, "newton": [], "running": False, "flows": []}
    build_F_, build_dF_, newton_rows_ = (
        cgsys.cauchy.build_F, cgsys.cauchy.build_dF, cgsys.cauchy.newton_rows)
    rk = cgsys.flow._rk

    def counted_rk(*args):
        seen["flows"].append(seen["running"])
        return rk(*args)

    def counted_F(*args):
        F = build_F_(*args)

        def view(p, u, *nsteps):
            seen["F"].append(sys._getframe(1).f_code.co_name)
            return F(p, u, *nsteps)
        return view

    def counted_dF(*args):
        dF = build_dF_(*args)

        def view(p, u, *nsteps):
            seen["dF"].append(np.concatenate([np.atleast_2d(p), np.atleast_2d(u)], axis=1))
            seen["late"] += not seen["running"]
            return dF(p, u, *nsteps)
        return view

    def kept(*args):
        seen["running"] = True
        out = newton_rows_(*args)
        seen["running"] = False
        # the counts as this run returned them, before solve adds them up;
        # solve writes a second run's rows into the first run's result
        seen["newton"].append((out.iters.copy(), out.halvings.copy()))
        seen.setdefault("result", out)
        return out

    monkeypatch.setattr(cgsys.cauchy, "build_F", counted_F)
    monkeypatch.setattr(cgsys.cauchy, "build_dF", counted_dF)
    monkeypatch.setattr(cgsys.cauchy, "newton_rows", kept)
    monkeypatch.setattr(cgsys.flow, "_rk", counted_rk)
    return seen


def _evaluated_by_newton(runs):
    """The rows that Newton runs evaluate: each run's start rows, then one
    trial per Newton step and one per halving."""
    return sum(int(np.sum(1 + iters + halvings)) for iters, halvings in runs)


def _only_newton_flows(seen, data):
    """Whether every complex flow ran inside a Newton run, one per
    evaluation of its map (matrix groups run none)."""
    return seen["flows"] == ([] if data.group is not None else [True] * len(seen["dF"]))


@pytest.mark.parametrize("name", ["line", "affine-halving", "ambient"])
def test_solve_evaluates_each_newton_point_once(monkeypatch, name):
    data, oracle, _ = _lockstep_case(name)
    system, extent, grid = LOCKSTEP_CASES[name]
    with monkeypatch.context() as mp:
        seen = _counted_maps(mp)
        queries = grid_queries(data, [np.linspace(-extent, extent, grid)] * data.k, cfg=CFG)
        seen["flows"].clear()
        sol = solve(data, queries, CFG, oracle=oracle)
    assert seen["F"] == ["grid_queries"]
    assert seen["late"] == 0
    assert _only_newton_flows(seen, data)
    evaluated = sum(len(rows) for rows in seen["dF"])
    assert evaluated == _evaluated_by_newton(seen["newton"])
    # a row solved once more (ambient rows off M) takes its steps and
    # halvings of both runs
    assert len(seen["newton"]) == (2 if name == "ambient" else 1)
    for j, count in enumerate(("newton_iters", "halvings")):
        assert sum(getattr(r, count) for r in sol.records) == sum(
            int(run[j].sum()) for run in seen["newton"])
    assert any(r.newton_iters for r in sol.records)
    if name == "affine-halving":
        assert any(r.halvings for r in sol.records)
    # and per record: a query solved alone has the record it has in the
    # stack, so count its own rows there
    for q, rec in zip(queries, sol.records):
        with monkeypatch.context() as mp:
            alone = _counted_maps(mp)
            solve(data, [q], CFG, oracle=oracle)
        assert sum(len(rows) for rows in alone["dF"]) == _evaluated_by_newton(alone["newton"])
        assert _only_newton_flows(alone, data)
        assert sum(int(iters[0]) for iters, _ in alone["newton"]) == rec.newton_iters
        assert sum(int(halvings[0]) for _, halvings in alone["newton"]) == rec.halvings
    # F and dF at the returned rows, at their frozen step counts, are what
    # a fresh dF gives there
    newton = seen["result"]
    ok = [i for i, r in enumerate(sol.records) if r.ok]
    assert ok
    m = len(data.param_names)
    counts = None if data.group is not None else [sol.records[i].rk_steps for i in ok]
    points, J, errors, _ = build_dF(data, CFG)(newton.x[ok, :m], newton.x[ok, m:], counts)
    assert errors == [None] * len(ok)
    assert np.array_equal(newton.values[ok], points)
    assert np.array_equal(newton.jac[ok], J)


@pytest.mark.parametrize("name", ["line", "affine", "ambient"])
def test_equation_map_is_the_one_row_view_of_solve(name):
    # the equation map U = -u of one query solved alone is its record in
    # the stack, bit for bit, as are the fields and residuals
    data, oracle, queries = _lockstep_case(name)
    records = solve(data, queries, CFG, oracle=oracle).records
    assert all(r.ok for r in records)
    for q, rec in zip(queries, records):
        _assert_same_record(solve(data, [q], CFG, oracle=oracle).records[0], rec)


def test_cauchy_op_builds_one_complex_flow(tmp_path, monkeypatch, capsys):
    # one ComplexFlow for each map, grid_queries' F and solve's dF, both
    # on the data's one stage tape, made from the check table's jet Table
    path = tmp_path / "ambient.cgs"
    path.write_text(_ambient_file().text)
    built = []
    inner = cgsys.flow.ComplexFlow.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        inner(self, *args, **kwargs)

    monkeypatch.setattr(cgsys.flow.ComplexFlow, "__init__", counted)
    for argv in (["cauchy", str(path), "--grid", "3"],
                 ["cauchy", str(path), "--grid", "5", "--u-extent", "0.25"]):
        built.clear()
        assert main(argv) == 0
        assert len(built) == 2 and built[0][0] is built[1][0]
        assert isinstance(built[0][0], cgsys.flow._HolomorphicFrame)
    capsys.readouterr()


@pytest.mark.parametrize("name", ["line", "ambient", "heisenberg-cr", "affine"])
def test_cauchy_op_compiles_its_fields_jets_once(name, tmp_path, monkeypatch, capsys):
    # the check table compiles the data's jets once, and the complex flows
    # of ambient data share one stage tape, the jets' tape followed by its
    # layout, which the flow module compiles once per loaded text; group
    # data compiles the jets once too, for the checks alone, and no stage
    # tape.  A repeat of the op loads the same data and compiles nothing
    sf = _ambient_file() if name == "ambient" else load_builtin(name)
    path = tmp_path / f"{name}.cgs"
    path.write_text(sf.text)
    jets = [e for _, _, block in jet_blocks((), sf.cr.ambient_fields, sf.chart) for e in block]
    loads.cache_clear()      # sf is the file's (text, name), built above
    compiled = []
    inner = cgsys.expr.compile_exprs

    def counted_in(module_name):
        def counted(exprs, names):
            compiled.append((module_name, list(exprs)))
            return inner(exprs, names)
        return counted

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "cgsys" and getattr(module, "compile_exprs", None) is inner:
            monkeypatch.setattr(module, "compile_exprs", counted_in(module_name))
    assert main(["cauchy", str(path), "--grid", "3"]) == 0
    assert sum(exprs == jets for module_name, exprs in compiled
               if module_name != "cgsys.flow") == 1
    assert [module_name for module_name, _ in compiled].count("cgsys.flow") == (
        sf.cr.group is None)
    compiled.clear()
    assert main(["cauchy", str(path), "--grid", "3"]) == 0
    assert compiled == []
    capsys.readouterr()


@pytest.mark.parametrize("c", [0.75, 1.1, 1.25])
def test_flow_is_not_the_accuracy_limit_of_ambient_cauchy(tmp_path, capsys, c):
    # at a tight Newton tolerance every ok record meets the closed form to
    # 1e-13: the 8th-order flow adds rounding only
    path, out = tmp_path / "ambient.cgs", tmp_path / "ambient.json"
    path.write_text(_ambient_file(c).text)
    assert main(["cauchy", str(path), "--grid", "3", "--u-extent", "0.25",
                 "--newton-tol", "1e-13", "--json", str(out)]) == 0
    records = [r for r in json.loads(out.read_text())["records"] if r["ok"]]
    assert len(records) == 3
    for rec in records:
        assert rec["oracle_dU"] < 1e-13 and rec["oracle_dxi"] < 1e-13
    capsys.readouterr()


# --- frozen Runge-Kutta step counts on ambient fields ------------------------------


def test_dF_is_the_derivative_of_F_at_frozen_counts():
    # at fixed counts F is one smooth discrete map and dF its exact
    # derivative, also where the chosen counts would differ across x +- h
    data = _ambient_data()
    F, dF = build_F(data, CFG), build_dF(data, CFG)
    rng = np.random.default_rng(16)
    for nsteps in ([1], [2], [5], [9]):
        p, u = rng.uniform(-0.4, 0.4, size=1), rng.uniform(-0.3, 0.3, size=1)
        (point,), (J,), errors, _ = dF(p[None], u[None], nsteps)
        assert errors == [None]
        assert np.array_equal(point, F(p[None], u[None], nsteps)[0][0])
        fd = numerical_jacobian(lambda x: F(x[None, :1], x[None, 1:], nsteps)[0][0],
                                np.concatenate([p, u]), 1e-6)
        assert np.max(np.abs(J - fd)) < 1e-8


@pytest.mark.parametrize("name", ["heisenberg-cr", "affine", "ambient"])
def test_each_solve_enters_the_count_loop_once(name, monkeypatch):
    # the plain flows' count loop is the Newton's: one pass of
    # FlowConfig.settle per solve, whose first run starts every row at one
    # step; a group map estimates 0, so its loop ends after that run
    sf = _ambient_file(1.25) if name == "ambient" else load_builtin(name)
    data = sf.cr
    queries = grid_queries(data, [np.linspace(-0.25, 0.25, 3)] * data.k, cfg=CFG)
    calls, settle, newton_rows = [], FlowConfig.settle, cgsys.cauchy.newton_rows
    starts = []

    def spy(cfg, limit, run):
        runs = []
        calls.append(runs)
        return settle(cfg, limit, lambda rows, counts: runs.append((rows, counts.copy()))
                      or run(rows, counts))

    def newton_spy(FJ, targets, x0, cfg, polish=False):
        out = newton_rows(FJ, targets, x0, cfg, polish)
        starts.append((np.array(x0), polish, out.x.copy()))
        return out

    monkeypatch.setattr(FlowConfig, "settle", spy)
    monkeypatch.setattr(cgsys.cauchy, "newton_rows", newton_spy)
    sol = solve(data, queries, CFG, oracle=sf.oracle)
    assert len(calls) == 1
    runs = [rows for rows, _ in calls[0]]
    first_counts = calls[0][0][1]
    assert runs[0].tolist() == list(range(len(queries)))
    assert first_counts.tolist() == [1] * len(queries)
    if name == "ambient":
        assert len(runs) > 1 and all(r.rk_steps >= 1 for r in sol.records)
    else:
        assert len(runs) == 1 and all(r.rk_steps is None for r in sol.records)
    assert sol.ok
    # each run is one Newton run: the first from the linearized guesses, the
    # later ones, with one step past newton_tol, from the last solutions
    assert len(starts) == len(runs)
    x0, polish, x = starts[0]
    assert np.array_equal(x0, cgsys.cauchy._initial_guesses(data, queries)) and not polish
    for rows, (x0, polish, out) in zip(runs[1:], starts[1:]):
        assert polish and np.array_equal(x0, x[rows])
        x[rows] = out


SIGMA_FAULTS = """
[chart]
complex_dim = 1

[cr_data]
params = s
sigma = log(s - 1); 0
field_1 = 1; 0
"""


@pytest.mark.parametrize("name", ["heisenberg-cr", "affine", "ambient"])
def test_solve_of_no_queries_is_empty(name):
    # the count loop's first run, of no rows, gives the Newton outputs
    data = _cr_data(name)
    sol = solve(data, np.zeros((0, data.chart.dim)), CFG)
    assert sol.records == [] and sol.ok


def test_maps_without_counts_return_the_rows_that_sigma_refuses():
    # sigma faults on every row, so the flow runs on no row: the count loop
    # still takes its one run, of no rows, and each row's DomainError comes
    # back in its place
    data = loads(SIGMA_FAULTS, name="sigma-faults").cr
    P, U = np.array([[0.0], [0.5]]), np.zeros((2, 1))
    points, errors = build_F(data, CFG)(P, U)
    points_d, J, errors_d, estimates = build_dF(data, CFG)(P, U)
    assert all(isinstance(err, DomainError) for err in errors + errors_d)
    assert [str(err) for err in errors] == [str(err) for err in errors_d]
    assert np.isnan(points).all() and np.isnan(points_d).all()
    assert np.isnan(J).all() and np.isnan(estimates).all()


def test_dF_without_counts_flows_once_per_count(monkeypatch):
    # the map called without counts (as compute_PQA calls it) carries the
    # tangent columns through the count loop: one run per count the loop
    # visits, none repeated, and the outputs of a run at the chosen count
    data = _ambient_data()
    flow = ComplexFlow(data.table.fields, CFG)
    P, U = np.array([[0.1]]), np.array([[0.2]])
    S, D, _ = data.sigma_rows(P)
    W, dZ0 = 1j * U, D[:, 0::2] + 1j * D[:, 1::2]
    counts = flow.chosen(S, W)[0]
    assert counts.tolist() == [3]
    runs, rk = [], cgsys.flow._rk

    def counted_rk(velocity, state, h, nsteps, *args):
        runs.append(np.broadcast_to(nsteps, (len(state),)).tolist())
        return rk(velocity, state, h, nsteps, *args)

    monkeypatch.setattr(cgsys.flow, "_rk", counted_rk)
    chosen = build_dF(data, CFG)(P, U)
    assert runs == [[1], [3]]
    runs.clear()
    for got, want in zip(flow.rows(S, W, dZ0), flow.rows(S, W, dZ0, counts)):
        assert np.array_equal(got, want)
    for got, want in zip(chosen, build_dF(data, CFG)(P, U, counts)):
        assert np.array_equal(got, want)
    assert runs == [[1], [3], [3], [3]]


def test_each_row_reaches_the_newton_map_with_one_count(monkeypatch):
    # a spy between newton_rows and build_dF's map: within a Newton run each
    # row index is flowed at one count, the count its start row chose; a
    # row off M is checked at its solution and solved once more at the
    # count chosen there, which its record reports
    data, oracle, queries = _lockstep_case("ambient")
    seen, runs = [], []
    build_dF_, newton_rows_ = cgsys.cauchy.build_dF, cgsys.cauchy.newton_rows

    def spied_dF(*args):
        dF = build_dF_(*args)

        def view(P, U, nsteps):
            seen[-1].append(np.asarray(nsteps).tolist())
            return dF(P, U, nsteps)
        return view

    def spied_newton(FJ, targets, x0, cfg, *rest):
        runs.append([])

        def FJ_(X, rows):
            seen.append([rows.tolist()])
            runs[-1].append(len(seen) - 1)
            return FJ(X, rows)
        return newton_rows_(FJ_, targets, x0, cfg, *rest)

    monkeypatch.setattr(cgsys.cauchy, "build_dF", spied_dF)
    monkeypatch.setattr(cgsys.cauchy, "newton_rows", spied_newton)
    records = solve(data, queries, CFG, oracle=oracle).records
    assert len(runs) == 2 and all(r.ok for r in records)
    per_run = []
    for run in runs:
        counts = {}
        for rows, nsteps in (seen[j] for j in run):
            for i, n in zip(rows, nsteps):
                counts.setdefault(i, set()).add(n)
        assert all(len(c) == 1 for c in counts.values())
        per_run.append({i: c.pop() for i, c in counts.items()})
    # every query starts at u = 0, where one step is exact
    assert set(per_run[0].values()) == {1}
    again = [i for i, r in enumerate(records) if r.u[0] != 0.0]
    assert len(again) == len(per_run[1]) == 4
    assert [records[i].rk_steps for i in again] == [per_run[1][j] for j in range(4)]
    for r in records:
        assert r.rk_error <= CFG.newton_tol * cgsys.flow.STEP_TOL_FRACTION
        assert r.rk_steps < math.ceil(abs(r.u[0]) * CFG.steps_per_unit) or r.u[0] == 0.0


def test_cli_ambient_records_report_their_step_counts(tmp_path):
    # ambient records carry rk_steps and rk_error, byte for byte from run to
    # run; matrix-group records do not
    path = tmp_path / "ambient.cgs"
    path.write_text(_ambient_file(1.25).text)
    reports = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in reports:
        assert main(["cauchy", str(path), "--grid", "3", "--u-extent", "0.25",
                     "--json", str(out)]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    records = json.loads(reports[0].read_text())["records"]
    assert [r["rk_steps"] for r in records] == [3, 1, 3]
    assert all(0.0 <= r["rk_error"] <= 1e-12 for r in records)
    assert main(["cauchy", "affine", "--grid", "2", "--json", str(reports[0])]) == 0
    records = json.loads(reports[0].read_text())["records"]
    assert not any("rk_steps" in r or "rk_error" in r for r in records)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(c=st.floats(0.75, 1.25), grid=st.sampled_from([3, 5]),
       extent=st.sampled_from([0.25, 0.5]), newton_tol=st.sampled_from([1e-10, 1e-13]))
def test_ambient_records_meet_the_flow_tolerance_or_take_their_limit(c, grid, extent,
                                                                     newton_tol):
    # the step counts are re-chosen until none changes, so every ok record's
    # flow meets newton_tol * STEP_TOL_FRACTION at its solution, or takes the
    # most steps its |u| allows
    data, cfg = _ambient_file(c).cr, FlowConfig(newton_tol=newton_tol)
    axes = [2.0 * np.linspace(-extent / 2, extent / 2, grid)]
    records = [r for r in solve(data, grid_queries(data, axes, cfg), cfg).records if r.ok]
    assert records
    for r in records:
        limit = max(1, math.ceil(cfg.steps_per_unit * float(np.abs(r.u).sum())))
        assert (r.rk_error <= newton_tol * cgsys.flow.STEP_TOL_FRACTION
                or r.rk_steps == limit)


@pytest.mark.parametrize("generated, argv, stages, passes", [
    (False, ["line", "--grid", "9"], 24, 36),
    (True, ["--grid", "3", "--u-extent", "0.25"], 156, 191),
])
def test_an_ambient_op_takes_no_stage_at_newtons_start(monkeypatch, tmp_path, generated, argv,
                                                       stages, passes):
    # Newton starts every query at u = 0, where the flow is the identity:
    # that evaluation of dF reads the tape once and calls no stage velocity.
    # The generated file is the benchmark's (1 + c z^2) d/dz; the line's F
    # at the grid's u = 0 reads its tape once too, for the faults of its
    # start
    if generated:
        path = tmp_path / "ambient.cgs"
        path.write_text(ambient_cgs(0.9), encoding="utf-8")
        argv = [str(path), *argv]
    calls = {"stage": 0, "pass": 0}
    rk, tape = cgsys.flow._rk, Program._pass

    def counted_rk(velocity, *args):
        def counted(rows, y):
            calls["stage"] += 1
            return velocity(rows, y)
        return rk(counted, *args)

    def counted_pass(self, X):
        calls["pass"] += 1
        return tape(self, X)

    monkeypatch.setattr(cgsys.flow, "_rk", counted_rk)
    monkeypatch.setattr(Program, "_pass", counted_pass)
    assert main(["cauchy", *argv]) == 0
    assert calls == {"stage": stages, "pass": passes}
