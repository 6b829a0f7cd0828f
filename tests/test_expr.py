"""Parser, compiled evaluator (against the tree-walk reference) and
structural-derivative checks for the expression core."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from cgsys import expr as expr_module
from cgsys.dsl import builtin_names, load_builtin
from cgsys.expr import (
    Atan2, Binary, Const, DomainError, ParseError, Predicate, Unary,
    UnboundVariableError, UnknownFunctionError, Var, _pow_values, add,
    compile_exprs, diff, div, evaluate, free_vars, mul, neg, parse_expr, pow_,
    sub, to_string, unary,
)
from cgsys.verify import sample_points


def central_difference(e, name, env, h=1e-5):
    """Independent derivative oracle: symmetric difference of evaluate."""
    lo = dict(env)
    hi = dict(env)
    lo[name] = env[name] - h
    hi[name] = env[name] + h
    return (evaluate(e, hi) - evaluate(e, lo)) / (2.0 * h)


# --- parsing ---------------------------------------------------------------


def test_parse_sum_of_products_shape():
    e = parse_expr("y3 + x1*y2")
    assert e == Binary("add", Var("y3"), Binary("mul", Var("x1"), Var("y2")))


def test_parse_atan_quotient_shape():
    e = parse_expr("atan(y1/x1)")
    assert e == parse_expr("atan(y1 / x1)")
    assert to_string(e) == "atan(y1/x1)"


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 + ")
    assert err.value.offset == 5


def test_parse_unknown_function():
    with pytest.raises(UnknownFunctionError):
        parse_expr("sinh(x1)")


def test_parse_precedence_and_associativity():
    # pow binds above unary minus, which binds above * and /
    a, b, c, x, two = Var("a"), Var("b"), Var("c"), Var("x"), Const(2.0)
    assert parse_expr("-x^2") == neg(pow_(x, two))
    assert parse_expr("(-x)^2") == pow_(neg(x), two)
    assert parse_expr("a - b - c") == sub(sub(a, b), c)
    assert parse_expr("a / b / c") == div(div(a, b), c)
    assert parse_expr("a ^ b ^ c") == pow_(a, pow_(b, c))
    assert parse_expr("a + b*c") == add(a, mul(b, c))


def test_parse_atan2():
    e = parse_expr("atan2(y1, x1)")
    assert e == Atan2(Var("y1"), Var("x1"))
    assert evaluate(e, {"y1": 1.0, "x1": 1.0}) == pytest.approx(math.pi / 4)


def test_parse_numbers():
    assert parse_expr("2.5e-3") == Const(2.5e-3)
    assert parse_expr(".5") == Const(0.5)
    assert parse_expr("3") == Const(3.0)


# --- evaluation ------------------------------------------------------------


def test_eval_product():
    assert evaluate(parse_expr("x1*y2"), {"x1": 2.0, "y2": 3.0}) == 6.0


def test_eval_atan_quarter_pi():
    v = evaluate(parse_expr("atan(y1/x1)"), {"x1": 1.0, "y1": 1.0})
    assert v == pytest.approx(0.78539816, abs=1e-8)


def test_eval_division_by_zero_is_domain_error():
    # the tape's one-row view names its one row as point 0
    with pytest.raises(DomainError) as err:
        evaluate(parse_expr("x1/x2"), {"x1": 1.0, "x2": 0.0})
    assert str(err.value) == "division by zero in 'x1/x2' at point 0 (x1=1.0, x2=0.0)"
    assert err.value.index == 0


def test_eval_log_nonpositive_is_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse_expr("log(x1)"), {"x1": -1.0})
    with pytest.raises(DomainError):
        evaluate(parse_expr("log(x1)"), {"x1": 0.0})


def test_eval_sqrt_negative_is_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse_expr("sqrt(x1)"), {"x1": -4.0})


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(parse_expr("x1 + q"), {"x1": 1.0})


def test_eval_deterministic():
    e = parse_expr("sin(x1)*exp(y1) - atan2(y1, x1)^3 / (1 + x1^2)")
    env = {"x1": 0.7315, "y1": -1.25}
    first = evaluate(e, env)
    assert all(evaluate(e, env) == first for _ in range(5))


def test_evaluate_compiles_each_tree_once_per_names(monkeypatch):
    # the one-row program is cached per tree and names: an equal tree
    # compiles nothing more and gives what a fresh compile gives, other
    # names compile again, an unbound variable raises at every call, and a
    # tree equal but for the sign of a zero constant has its own program
    compiled, compile_ = [], expr_module.compile_exprs

    def counted(exprs, names):
        compiled.append(names)
        return compile_(exprs, names)

    monkeypatch.setattr(expr_module, "compile_exprs", counted)
    expr_module._one_row.cache_clear()
    text = "sin(x1)*exp(y1) - atan2(y1, x1)^3 / (1 + x1^2)"
    for env in ({"x1": 0.7315, "y1": -1.25}, {"x1": -2.0, "y1": 0.5}, {"y1": 3.0, "x1": 1.5}):
        want = compile_([parse_expr(text)], tuple(env))(np.array([list(env.values())]))[0, 0]
        assert evaluate(parse_expr(text), env) == want
    assert compiled == [("x1", "y1"), ("y1", "x1")]
    for _ in range(2):
        with pytest.raises(UnboundVariableError):
            evaluate(parse_expr("x1 + q"), {"x1": 1.0})
    assert compiled[2:] == [("x1",)] * 2
    assert evaluate(parse_expr("atan2(0, x1)"), {"x1": -1.0}) == math.pi
    assert evaluate(parse_expr("atan2(-0, x1)"), {"x1": -1.0}) == -math.pi


# --- differentiation -------------------------------------------------------


def test_diff_product_drops_to_partner():
    assert diff(parse_expr("x1*y2"), "x1") == Var("y2")


def test_diff_constant_is_zero():
    assert diff(parse_expr("3"), "x1") == Const(0.0)
    assert to_string(diff(parse_expr("3"), "x1")) == "0"


def test_diff_atan_quotient_frozen_value():
    # oracle: central difference of evaluate at (1, 1) gives 0.5
    e = parse_expr("atan(y1/x1)")
    env = {"x1": 1.0, "y1": 1.0}
    oracle = central_difference(e, "y1", env)
    assert oracle == pytest.approx(0.5, abs=1e-9)
    assert evaluate(diff(e, "y1"), env) == pytest.approx(0.5, abs=1e-12)


def test_diff_variables_subset_of_input():
    exprs = [
        "x1*y2 + sin(x1)",
        "atan2(y1, x1) / y2",
        "exp(-y1) - 1",
        "sqrt(x1^2 + y1^2)",
        "log(x1) * tan(y1)",
    ]
    for s in exprs:
        e = parse_expr(s)
        for v in free_vars(e):
            assert free_vars(diff(e, v)) <= free_vars(e)


def test_diff_linearity_exact():
    rng = np.random.default_rng(3)
    a = parse_expr("sin(x1)*y1 + x1^3")
    b = parse_expr("atan2(y1, x1) - exp(x1*y1)")
    s = add(a, b)
    for _ in range(100):
        env = {"x1": rng.uniform(0.1, 2.0), "y1": rng.uniform(-2.0, 2.0)}
        lhs = evaluate(diff(s, "x1"), env)
        rhs = evaluate(diff(a, "x1"), env) + evaluate(diff(b, "x1"), env)
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("text", [
    "sin(x1)", "cos(x1)", "tan(x1)", "atan(x1)", "exp(x1)", "log(x1)",
    "sqrt(x1)", "x1^3", "x1^y1", "x1/y1", "atan2(y1, x1)", "-x1*y1",
])
def test_diff_matches_central_difference(text):
    rng = np.random.default_rng(11)
    e = parse_expr(text)
    for _ in range(25):
        env = {"x1": rng.uniform(0.2, 1.4), "y1": rng.uniform(0.2, 1.4)}
        for v in sorted(free_vars(e)):
            cd = central_difference(e, v, env)
            got = evaluate(diff(e, v), env)
            assert abs(got - cd) / (1.0 + abs(cd)) < 1e-6


def test_second_derivatives_match_oracle():
    # nested structural derivative against a second-order difference stencil
    e = parse_expr("atan(y1/x1)")
    env = {"x1": 0.8, "y1": 1.3}
    h = 1e-4
    up = dict(env, y1=env["y1"] + h)
    dn = dict(env, y1=env["y1"] - h)
    oracle = (evaluate(e, up) - 2 * evaluate(e, env) + evaluate(e, dn)) / h**2
    got = evaluate(diff(diff(e, "y1"), "y1"), env)
    assert abs(got - oracle) < 1e-6


# --- printing ---------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "y3 + x1*y2",
    "atan(y1/x1)",
    "-x1^2 + (a - b) - c",
    "x1*(y1 + y2)*(-y3)",
    "atan2(y1, x1)/(1 + x1^2)",
    "exp(-y1) - 1",
    "2^-3 * x1",
    "sqrt(x1^2 + y1^2)",
])
def test_print_parse_roundtrip(text):
    t = parse_expr(text)
    assert parse_expr(to_string(t)) == t


def test_roundtrip_of_derivatives():
    for s in ["atan(y1/x1)", "x1*y2 - y3", "exp(-y1) - 1", "atan2(y1, x1)"]:
        e = parse_expr(s)
        for v in sorted(free_vars(e)):
            d = diff(e, v)
            assert parse_expr(to_string(d)) == d


# --- compiled programs -------------------------------------------------------

NAMES = ("x1", "y1", "x2")
COORDS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.25, -2.5]),
                   st.floats(-3.0, 3.0, allow_nan=False))
POINTS = st.lists(st.tuples(COORDS, COORDS, COORDS), min_size=1, max_size=8)
LEAVES = st.one_of(
    st.sampled_from([Var(n) for n in NAMES]),
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 1e-3]).map(Const))
EXPONENTS = st.sampled_from([-2.0, -1.0, 0.0, 2.0, 3.0, 0.5, 1.5]).map(Const)


def _arithmetic(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda t: add(*t)), pairs.map(lambda t: sub(*t)),
        pairs.map(lambda t: mul(*t)), pairs.map(lambda t: div(*t)),
        children.map(neg),
        st.tuples(children, EXPONENTS).map(lambda t: pow_(*t)))


def _with_faults(children):
    return st.one_of(_arithmetic(children),
                     children.map(lambda e: unary("log", e)),
                     children.map(lambda e: unary("sqrt", e)))


ARITHMETIC_TREES = st.recursive(LEAVES, _arithmetic, max_leaves=12)
FAULTING_TREES = st.recursive(LEAVES, _with_faults, max_leaves=12)


SMOOTH_TREES = st.recursive(LEAVES, lambda children: st.one_of(
    _arithmetic(children),
    st.tuples(children, children).map(lambda t: Atan2(*t)),
    st.tuples(st.sampled_from(["sin", "cos", "tan", "atan", "exp", "log", "sqrt"]),
              children).map(lambda t: unary(*t))), max_leaves=8)


def subtrees(e):
    """e and every node below it, repeats included."""
    kids = {Unary: ("arg",), Binary: ("lhs", "rhs"), Atan2: ("y", "x")}.get(type(e), ())
    return [e, *(s for k in kids for s in subtrees(getattr(e, k)))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(SMOOTH_TREES, st.tuples(COORDS, COORDS, COORDS))
def test_diff_matches_central_differences_of_the_tape(e, point):
    # the central difference D(h) of the compiled e errs by c h^2 + O(h^4)
    # plus rounding; at h = H, H/2, H/4 the gap D(H/2) - D(H/4) is then a
    # quarter of D(H) - D(H/2) and three times the error of D(H/4), and the
    # second difference K(h) = h f'' + O(h^3) halves with h.  A coordinate
    # where they do not shrink so (a stencil across a branch cut or a pole)
    # is skipped, and so is a stencil where a partial or an intermediate of
    # e exceeds 1e4.  Rounding: a few ulps of the largest intermediate, per
    # node, over the smallest step.
    grads = [diff(e, x) for x in NAMES]
    nodes, grad_nodes = subtrees(e), [n for g in grads for n in subtrees(g)]
    h = 1e-3 / np.array([1.0, 2.0, 4.0])
    steps = (h[:, None, None] * np.eye(3)).reshape(-1, 3)
    P = np.array(point) + np.concatenate([np.zeros((1, 3)), steps, -steps])
    vals, errors = compile_exprs([*grads, *nodes, *grad_nodes], NAMES).rows(P)
    n = len(nodes)
    if any(errors) or not np.isfinite(vals).all() or np.max(np.abs(vals[:, :3 + n])) > 1e4:
        return      # outside the domain of e or its partials, or ill-scaled
    f = vals[:, 3]
    plus, minus = f[1:10].reshape(3, 3), f[10:].reshape(3, 3)   # (step, coordinate)
    D = (plus - minus) / (2 * h[:, None])
    K = (plus - 2 * f[0] + minus) / h[:, None]                  # h f'' + O(h^3)
    eps = np.finfo(float).eps
    noise = 8 * n * eps * np.max(np.abs(vals[:, 3:3 + n])) / h[2]
    gap1, gap2 = np.abs(D[0] - D[1]), np.abs(D[1] - D[2])
    resolved = (gap2 <= 0.5 * gap1 + noise) & (np.abs(K[2]) <= 0.75 * np.abs(K[1]) + noise)
    noise += 8 * len(grad_nodes) * eps * np.max(np.abs(vals[0, 3 + n:]), initial=0.0)
    assert np.all((np.abs(vals[0, :3] - D[2]) <= gap2 + noise)[resolved])


def tree_walk(exprs, P):
    """The per-point reference: walk every expression at each row.
    Returns the values, or None and the row of the first DomainError."""
    rows = []
    for i, p in enumerate(P):
        env = dict(zip(NAMES, p))
        try:
            rows.append([reference.evaluate(e, env) for e in exprs])
        except DomainError:
            return None, i
    return np.array(rows).reshape(len(P), len(exprs)), None


def run_program(exprs, P):
    try:
        return compile_exprs(exprs, NAMES)(P), None
    except DomainError as err:
        return None, err.index


@settings(max_examples=150, deadline=None)
@given(st.lists(ARITHMETIC_TREES, min_size=1, max_size=3), POINTS)
def test_program_bit_identical_on_arithmetic(exprs, points):
    P = np.array(points, dtype=float)
    ref, ref_fault = tree_walk(exprs, P)
    got, fault = run_program(exprs, P)
    assert fault == ref_fault
    if ref is not None:
        assert np.array_equal(got, ref, equal_nan=True)
        same = ~np.isnan(ref)
        assert np.array_equal(np.signbit(got[same]), np.signbit(ref[same]))


@settings(max_examples=150, deadline=None)
@given(st.lists(FAULTING_TREES, min_size=1, max_size=3), POINTS)
def test_program_faults_at_the_tree_walks_first_point(exprs, points):
    P = np.array(points, dtype=float)
    _, ref_fault = tree_walk(exprs, P)
    _, fault = run_program(exprs, P)
    assert fault == ref_fault


@pytest.mark.parametrize("exponent", ["2", "3", "0.5", "-1", "1.5"])
def test_program_power_matches_python_power(exponent):
    # x^2 through libm's pow differs from x*x in about one case in a thousand
    e = parse_expr(f"x1^{exponent}")
    P = np.random.default_rng(5).uniform(0.0, 3.0, size=(20000, 1))
    ref = np.array([reference.evaluate(e, {"x1": x}) for x in P[:, 0]])
    assert np.array_equal(compile_exprs([e], ("x1",))(P)[:, 0], ref)


@pytest.mark.parametrize("exponent", [2.0, 3.0, 0.0, -1.0, -2.0, 0.5, 1.5])
def test_constant_exponent_power_keeps_the_evaluator_contract(exponent):
    e = pow_(Var("x1"), Const(exponent))
    prog = compile_exprs([e], NAMES)
    assert prog.code[0][0] is not _pow_values           # the specialized path
    good = [0.5, 1.0, -3.0, 2.0, -0.25, 7.5]
    # each fault candidate first after the good rows: 0^-1, (-1)^0.5 and
    # 1e200^2 (overflow), then more candidates behind it
    for bad in (0.0, -1.0, 1e200, -1e200):
        P = np.zeros((len(good) + 3, 3))
        P[:, 0] = good + [bad, 0.0, -1.0]
        ref, ref_row = tree_walk([e], P)
        got, row = run_program([e], P)
        assert row == ref_row
        if ref is not None:
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
        else:
            with pytest.raises(DomainError) as walked:
                reference.evaluate(e, dict(zip(NAMES, P[row])))
            with pytest.raises(DomainError) as compiled:
                prog(P)
            assert str(compiled.value).startswith(f"{walked.value} at point {row} ")


def test_power_of_two_variables_takes_the_general_path():
    prog = compile_exprs([parse_expr("x1^y1")], ("x1", "y1"))
    assert prog.code[0][0] is _pow_values
    P = np.array([[2.0, 0.5], [-2.0, 3.0], [0.0, 2.0]])
    assert np.array_equal(prog(P)[:, 0], [2.0 ** 0.5, -8.0, 0.0])
    with pytest.raises(DomainError, match="negative base with non-integer exponent"):
        prog(np.array([[-2.0, 0.5]]))


@pytest.mark.parametrize("n", [0, 1, 50])
def test_constant_and_input_column_outputs(n):
    prog = compile_exprs([Const(2.5), Var("y1"), parse_expr("x1*y1"), Const(0.0),
                          Var("x1"), Const(2.5)], ("x1", "y1"))
    P = np.random.default_rng(n).uniform(-1, 1, (n, 2))
    out = prog(P)
    assert out.shape == (n, 6)
    assert np.array_equal(out, np.column_stack(
        [np.full(n, 2.5), P[:, 1], P[:, 0] * P[:, 1], np.zeros(n), P[:, 0],
         np.full(n, 2.5)]))
    consts = compile_exprs([Const(1.0), Const(-3.0)], ("x1", "y1"))
    assert np.array_equal(consts(P), np.tile([1.0, -3.0], (n, 1)))


def test_program_domain_error_names_node_and_point():
    prog = compile_exprs([parse_expr("x1 + 1"), parse_expr("-y1 + sqrt(x1)")],
                         ("x1", "y1"))
    P = np.array([[1.0, 0.0], [-0.5, 2.0], [-1.0, 0.0]])
    with pytest.raises(DomainError) as err:
        prog(P)
    assert err.value.index == 1
    msg = str(err.value)
    assert "sqrt of negative value in 'sqrt(x1)'" in msg
    assert "point 1 (x1=-0.5, y1=2.0)" in msg


def test_program_rows_names_each_faulting_row_by_its_own_index():
    prog = compile_exprs([parse_expr("1/x1")], ("x1",))
    P = np.array([[1.0], [2.0], [0.0], [4.0], [0.0]])
    out, errors = prog.rows(P)
    assert [err is None for err in errors] == [True, True, False, True, False]
    assert np.array_equal(out[[0, 1, 3], 0], [1.0, 0.5, 0.25])
    assert np.isnan(out[[2, 4]]).all()
    for i in (2, 4):
        assert errors[i].index == i
        assert str(errors[i]) == f"division by zero in '1/x1' at point {i} (x1=0.0)"
    # given labels, row i is named labels[i]
    _, errors = prog.rows(P, labels=np.array([10, 11, 12, 13, 14]))
    assert [err.index for err in errors if err] == [12, 14]
    assert "at point 14 (x1=0.0)" in str(errors[4])


def test_program_numbers_equal_subtrees_once():
    # two separately parsed copies of one subtree share every slot
    a, b = parse_expr("sin(x1*y1) + x1*y1"), parse_expr("x1*y1")
    prog = compile_exprs([a, b], ("x1", "y1"))
    assert len(prog) == 3                     # mul, sin, add
    out = prog(np.array([[0.5, 2.0]]))
    assert out[0, 1] == 1.0 and out[0, 0] == pytest.approx(math.sin(1.0) + 1.0)


def test_program_rejects_unbound_variables_and_bad_shapes():
    with pytest.raises(UnboundVariableError):
        compile_exprs([parse_expr("x1 + q")], ("x1",))
    prog = compile_exprs([parse_expr("x1")], ("x1", "y1"))
    with pytest.raises(ValueError):
        prog(np.zeros((3, 3)))
    assert prog(np.zeros((0, 2))).shape == (0, 1)


@pytest.mark.parametrize("name", [n for n in builtin_names()
                                  if load_builtin(n).system is not None])
def test_gallery_tables_match_tree_walk(name):
    # numpy's transcendental ufuncs are not libm: a fixed float64 tolerance
    # relative to the table's scale, not bit equality
    sys_ = load_builtin(name).system
    pts = sample_points(sys_, 12, seed=3)
    ref = np.array([[reference.evaluate(e, dict(zip(sys_.chart.names, p)))
                     for e in sys_.table.jets.exprs] for p in pts])
    got = sys_.table.jets.program(pts)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale


def test_diff_and_free_vars_caches_stay_within_their_bound():
    import random
    from cgsys import expr
    from cgsys.dsl import loads
    for fn in (expr.diff, expr.free_vars):
        assert fn.cache_info().maxsize == expr.CACHE_SIZE
    rng = random.Random(7)

    def poly():
        return " + ".join(f"{rng.uniform(-2, 2):.6f}*x1^{i}*y1^{j}"
                          for i in range(5) for j in range(5 - i))

    def misses():
        return min(expr.diff.cache_info().misses, expr.free_vars.cache_info().misses)

    # distinct generated systems, loaded and their tables built, until each
    # cache has made more entries than its bound holds
    start = misses()
    for _ in range(1000):
        if misses() - start > expr.CACHE_SIZE:
            break
        sf = loads(f"[chart]\ncomplex_dim = 1\n\n[system]\nk = 1\n"
                   f"field_1 = {poly()}; {poly()}\ngrad_1 = {poly()}\n")
        assert sf.system.table.at(np.array([[0.1, 0.2]]))["lap"].shape == (1, 1)
    assert misses() - start > expr.CACHE_SIZE
    for fn in (expr.diff, expr.free_vars):
        assert fn.cache_info().currsize <= expr.CACHE_SIZE


# --- one pass per stack --------------------------------------------------------

MIXED_COORDS = st.one_of(COORDS, st.sampled_from([710.0, -710.0, 1e200, -1e200]))
MIXED_POINTS = st.lists(st.tuples(MIXED_COORDS, MIXED_COORDS, MIXED_COORDS),
                        min_size=1, max_size=12)
MIXED_LEAVES = st.one_of(
    st.sampled_from([Var(n) for n in NAMES]),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 1e-3]).map(Const))
FRACTIONAL = st.sampled_from([0.5, 1.5, -0.5, -2.5, 1.0 / 3.0]).map(Const)


def _mixed(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        _arithmetic(children),
        st.tuples(children, FRACTIONAL).map(lambda t: pow_(*t)),
        pairs.map(lambda t: pow_(*t)),
        pairs.map(lambda t: Atan2(*t)),
        st.tuples(st.sampled_from(["log", "sqrt", "exp", "sin", "cos", "tan", "atan"]),
                  children).map(lambda t: unary(*t)))


MIXED_TREES = st.recursive(MIXED_LEAVES, _mixed, max_leaves=10)


def walked_error(exprs, p):
    """The DomainError the walk raises at the point p, or None."""
    env = dict(zip(NAMES, p))
    try:
        for e in exprs:
            reference.evaluate(e, env)
    except DomainError as err:
        return err
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(MIXED_TREES, min_size=1, max_size=3), MIXED_POINTS)
def test_program_rows_is_each_row_alone_in_one_pass(exprs, points):
    P = np.array(points, dtype=float)
    labels = np.arange(len(P)) + 10
    prog = compile_exprs(exprs, NAMES)
    out, errors = prog.rows(P, labels)
    for i in range(len(P)):
        try:
            alone, alone_error = prog(P[i:i + 1], labels[i:i + 1])[0], None
        except DomainError as err:
            alone, alone_error = None, err
        walked = walked_error(exprs, P[i])
        if alone_error is None:
            assert errors[i] is None and walked is None
            assert out[i].tobytes() == alone.tobytes()
        else:
            assert str(errors[i]) == str(alone_error)
            assert errors[i].index == alone_error.index == 10 + i
            assert np.isnan(out[i]).all()
            # the node the walk raises at, named by the row's label
            assert str(errors[i]).startswith(f"{walked} at point {10 + i} (")
    faulting = [i for i, err in enumerate(errors) if err is not None]
    if faulting:
        with pytest.raises(DomainError) as raised:
            prog(P, labels)
        assert str(raised.value) == str(errors[faulting[0]])
        assert raised.value.index == 10 + faulting[0]
    else:
        assert prog(P, labels).tobytes() == out.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(MIXED_TREES, min_size=1, max_size=3), MIXED_POINTS)
def test_predicate_matches_all_one_row_at_a_time(exprs, points):
    # log of the first expression faults only where that expression fails
    gs = exprs + [unary("log", exprs[0])]
    P = np.array(points, dtype=float)
    ref_inside, ref_errors = [], []
    for p in P:
        env = dict(zip(NAMES, p))
        try:
            ref_inside.append(all(reference.evaluate(g, env) > 0.0 for g in gs))
            ref_errors.append(None)
        except DomainError as err:
            ref_inside.append(False)
            ref_errors.append(err)
    pred = Predicate(gs, NAMES)
    inside, errors = pred.rows(P)
    assert inside.tolist() == ref_inside
    for i, (err, ref) in enumerate(zip(errors, ref_errors)):
        assert (err is None) == (ref is None)
        if err is not None:
            assert err.index == i and str(err).startswith(f"{ref} at point {i} (")
    first = next((i for i, ref in enumerate(ref_errors) if ref is not None), len(P))
    mask, fault = pred.holds(P, 7)
    assert mask.tolist() == ref_inside[:first]
    if first == len(P):
        assert fault is None
    else:
        assert fault.index == first + 7
        assert str(fault).startswith(f"{ref_errors[first]} at point {first + 7} (")


def test_predicate_counts_no_fault_where_an_earlier_expression_fails():
    pred = Predicate([parse_expr("x1"), parse_expr("log(x1)"), parse_expr("1/(x1 - 2)")],
                     ("x1",))
    P = np.array([[1.5], [-1.0], [0.0], [3.0], [2.0], [0.5]])
    inside, errors = pred.rows(P)
    assert inside.tolist() == [False, False, False, True, False, False]
    assert [i for i, err in enumerate(errors) if err] == [4]
    assert str(errors[4]) == "division by zero in '1/(x1 - 2)' at point 4 (x1=2.0)"
    mask, fault = pred.holds(P, 10)
    assert mask.tolist() == [False, False, False, True]
    assert fault.index == 14 and "at point 14 (x1=2.0)" in str(fault)
    mask, fault = pred.holds(P[:4])
    assert mask.tolist() == [False, False, False, True] and fault is None


def test_program_rows_runs_the_tape_once(monkeypatch):
    log, reason = expr_module._TAPE_OPS["log"]
    calls = []

    def counting(x):
        calls.append(len(x))
        return log(x)
    monkeypatch.setitem(expr_module._TAPE_OPS, "log", (counting, reason))
    prog = compile_exprs([parse_expr("log(x1) + y1")], ("x1", "y1"))
    P = np.random.default_rng(1).uniform(0.5, 2.0, (1000, 2))
    P[[10, 500, 999], 0] = [0.0, -1.0, 0.0]
    out, errors = prog.rows(P)
    assert calls == [1000]
    assert [i for i, err in enumerate(errors) if err] == [10, 500, 999]
    assert np.isnan(out[[10, 500, 999]]).all()
    assert not np.isnan(np.delete(out, [10, 500, 999], axis=0)).any()


# --- finite constants ---------------------------------------------------------------


@pytest.mark.parametrize("text", ["1e309", "x1 - 1e999", "2*10e308"])
def test_parse_refuses_non_finite_numbers(text):
    with pytest.raises(ParseError, match="bad number"):
        parse_expr(text)


def test_constants_fold_only_to_finite_values():
    assert mul(Const(1e308), Const(10.0)) == Binary("mul", Const(1e308), Const(10.0))
    assert add(Const(1e308), Const(1e308)).op == "add"
    assert sub(Const(-1e308), Const(1e308)).op == "sub"
    assert div(Const(1e308), Const(1e-10)).op == "div"
    assert pow_(Const(1e300), Const(2.0)).op == "pow"
    assert mul(Const(1e154), Const(1e154)) == Const(1e308)
    assert to_string(mul(Const(1e308), Const(10.0))) == "1e+308*10"


POW_OPERANDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e200, 1e300, -1e300, 1.0, -1.0,
                     2.0, -2.0, 3.0, -3.0, 0.5, -0.5, 1.5, -2.5, 1e-300]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(POW_OPERANDS, POW_OPERANDS)
@example(1e200, 2.0).via("overflow")
@example(1e300, 2.0).via("overflow")
@example(5e-324, -2.0).via("overflow")
@example(-0.0, 3.0).via("sign of zero")
@example(-0.0, -1.0).via("negative exponent of zero")
@example(-2.0, 3.0).via("negative base, integer exponent")
@example(-2.0, 0.5).via("negative base, fractional exponent")
def test_one_pow_rule_for_the_folder_the_tape_and_the_walk(a, b):
    # pow_ folds exactly where the walk's pow does not fault, to its bits,
    # and the tape of the unfolded power gives those bits or its fault
    power = Binary("pow", Const(a), Const(b))
    prog = compile_exprs([power], ())
    try:
        ref = reference.evaluate(power, {})
    except DomainError as walked:
        assert pow_(Const(a), Const(b)) == power
        with pytest.raises(DomainError, match=f"^{re.escape(str(walked))} at point 0 \\(\\)$"):
            prog(np.empty((1, 0)))
        return
    assert pow_(Const(a), Const(b)).value.hex() == ref.hex()
    assert prog(np.empty((1, 0)))[0, 0].hex() == ref.hex()


HUGE = st.one_of(
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 1e300, -2.5e200, 5e-324,
                     1e16, -1e22, 0.1, -3.25, 0.0, -0.0, 2.0]),
    st.floats(allow_nan=False, allow_infinity=False)).map(Const)
ROUNDTRIP_TREES = st.recursive(
    st.one_of(st.sampled_from([Var(n) for n in NAMES]), HUGE), _mixed, max_leaves=10)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ROUNDTRIP_TREES)
def test_print_parse_roundtrip_of_random_trees(t):
    assert parse_expr(to_string(t)) == t
