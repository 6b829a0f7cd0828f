"""The tape's one fault rule against the reference walk's.

A row faults at the first node whose value is not finite while its
operands are; a non-finite input never faults anew.  ``Program`` finds such
rows from one finiteness test of its outputs, of the values no
instruction reads and of the operands through which a non-finite value can
turn finite again (``expr._masking``: a denominator, exp, atan, atan2 and
a power whose exponent is not a positive constant).  On generated trees,
with such masked intermediates among them, and on rows with overflowing,
zero and non-finite coordinates, the compiled pass and the walk refuse the
same rows with the same text, and an output is non-finite only at a
refused row or at a row whose input is non-finite.  Without the masking
operands' test the property fails.  A selection of a tape's outputs
(``Program.select``) gives the values and refuses the rows of those
outputs compiled alone, and a fault in the second tape of a
``Program.then`` names its node over the first tape's expressions."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cgsys import expr as expr_module
from cgsys.expr import Atan2, Const, Var, compile_exprs, parse_expr, pow_, unary
from test_expr import NAMES, _arithmetic, walked_error

# a fault hidden by a later op: 1/0 = inf under atan, exp(800) = inf under
# 1/x and under exp(-x), and an overflow whose difference is NaN
MASKED = ("atan(1/x1)", "1/exp(x1)", "exp(-exp(x1))", "x1*1e200*1e200 - x1*1e200*1e200")
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 800.0, -800.0, 1e200, -1e160,
                     math.inf, -math.inf, math.nan]),
    st.floats(-3.0, 3.0, allow_nan=False))
ROWS = st.lists(st.tuples(COORDS, COORDS, COORDS), min_size=1, max_size=8)
LEAVES = st.one_of(
    st.sampled_from([Var(n) for n in NAMES]),
    st.sampled_from([0.0, 1.0, -2.0, 0.5, 1e200, 1e-300]).map(Const),
    st.sampled_from(MASKED).map(parse_expr))


def _any_op(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        _arithmetic(children),
        pairs.map(lambda t: pow_(*t)),
        pairs.map(lambda t: Atan2(*t)),
        st.tuples(st.sampled_from(["exp", "log", "sqrt", "sin", "cos", "tan", "atan"]),
                  children).map(lambda t: unary(*t)))


TREES = st.recursive(LEAVES, _any_op, max_leaves=8)


def assert_one_fault_rule(exprs, P):
    out, errors = compile_exprs(exprs, NAMES).rows(P)
    for i, (p, err) in enumerate(zip(P, errors)):
        walked = walked_error(exprs, p)
        assert (err is None) == (walked is None), (i, err, walked)
        if err is not None:
            coords = ", ".join(f"{name}={float(v)!r}" for name, v in zip(NAMES, p))
            assert str(err) == f"{walked} at point {i} ({coords})"
    refused = np.array([err is not None for err in errors], dtype=bool)
    finite_input = np.isfinite(P).all(axis=1)
    assert np.isfinite(out[~refused & finite_input]).all()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(TREES, min_size=1, max_size=3), ROWS)
@example([parse_expr(MASKED[0])], [(0.0, 1.0, 0.0), (2.0, 1.0, 0.0)])
@example([parse_expr(MASKED[1])], [(800.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
@example([parse_expr(MASKED[2])], [(800.0, 0.0, 0.0), (math.inf, 0.0, 0.0)])
@example([parse_expr(MASKED[3])], [(1.0, 0.0, 0.0), (0.0, 0.0, 0.0)])
def test_the_tape_and_the_walk_refuse_the_same_rows(exprs, rows):
    assert_one_fault_rule(exprs, np.array(rows, dtype=float))


@pytest.mark.parametrize("text, row", [(MASKED[0], (0.0, 1.0, 0.0)),
                                       (MASKED[1], (800.0, 0.0, 0.0)),
                                       (MASKED[2], (800.0, 0.0, 0.0))])
def test_without_the_masking_operands_test_a_masked_fault_slips_through(
        monkeypatch, text, row):
    # the negative control: a pass that tests only its outputs returns the
    # finite pi/2 or 0 where the walk faults
    P = np.array([row])
    assert_one_fault_rule([parse_expr(text)], P)
    monkeypatch.setattr(expr_module, "_masking", lambda *_: ())
    with pytest.raises(AssertionError):
        assert_one_fault_rule([parse_expr(text)], P)


def test_an_overflow_names_the_first_node_that_overflows():
    prog = compile_exprs([parse_expr(MASKED[3])], NAMES)
    _, errors = prog.rows(np.array([[1.0, 0.0, 2.0], [np.inf, 0.0, 2.0], [0.0, 0.0, 2.0]]))
    assert [str(err) if err else None for err in errors] == [
        "overflow in 'x1*1e+200*1e+200' at point 0 (x1=1.0, y1=0.0, x2=2.0)", None, None]


def test_a_value_that_no_instruction_reads_faults_too():
    # the second tape reads only the first tape's second output, so the
    # first one's overflow feeds no output of the joined tape
    first = compile_exprs([parse_expr("x1*1e200*1e200"), parse_expr("y1 + 1")], NAMES)
    tape = first.then(compile_exprs([Var("b")], ("a", "b")))
    out, errors = tape.rows(np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0]]))
    assert [str(err) if err else None for err in errors] == [
        "overflow in 'x1*1e+200*1e+200' at point 0 (x1=1.0, y1=2.0, x2=0.0)", None]
    assert out[1, 0] == 4.0
    # a fault in the second tape names its node over the first tape's
    # output expressions, and none of the second tape's input names
    tape = first.then(compile_exprs([parse_expr("b*b*1e300")], ("a", "b")))
    _, errors = tape.rows(np.array([[0.0, 1e5, 0.0], [0.0, 3.0, 0.0]]))
    assert [str(err) if err else None for err in errors] == [
        "overflow in '(y1 + 1)*(y1 + 1)*1e+300' at point 0 (x1=0.0, y1=100000.0, x2=0.0)", None]
    assert not re.search(r"\b[ab]\b", str(errors[0]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(TREES, min_size=1, max_size=4), ROWS, st.data())
def test_a_selection_runs_as_its_outputs_compiled_alone(exprs, rows, data):
    """``Program.select`` keeps the instructions that feed the chosen
    outputs, in the whole tape's order: its outputs are those of the
    outputs compiled alone, bit for bit, and it refuses the same rows.
    Where two of a row's instructions fault, the selection names the first
    of them in the whole tape's order, which the tape compiled alone,
    visiting only the chosen outputs and in their order, may not reach
    first; so only the refused rows are compared, not their text."""
    idx = data.draw(st.lists(st.integers(0, len(exprs) - 1), min_size=1, unique=True))
    P = np.array(rows, dtype=float)
    out, errors = compile_exprs(exprs, NAMES).select(idx).rows(P)
    alone, alone_errors = compile_exprs([exprs[i] for i in idx], NAMES).rows(P)
    assert out.tobytes() == alone.tobytes()
    assert [err is None for err in errors] == [err is None for err in alone_errors]
