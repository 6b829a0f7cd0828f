"""The sparse composition against the dense one it replaced.

``geometry.Composition`` computes only the products of the jets that are not
``Const(0.0)``; ``reference.compose`` is the dense composition over every
product.  On every gallery system and on generated systems with planted
zero patterns (constant and linear fields, k up to 3), every composed block
must equal the reference bit for bit up to the sign of a zero, and be NaN
exactly where the reference is: at rows whose jets overflow to inf, a
dropped product meets inf as 0 * inf does in the reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgsys.dsl import builtin_names, load_builtin
from cgsys.expr import Program, parse_expr
from cgsys.geometry import ComplexChart, VectorField
from cgsys.cauchy import param_samples
from cgsys.verify import TABLE_CHUNK, GradientSystem, sample_points
import reference

SYSTEMS = [n for n in builtin_names() if load_builtin(n).system is not None]
CR_ENTRIES = [n for n in builtin_names() if load_builtin(n).cr is not None]
JETS = ("X", "DX", "dU", "D2U")


def assert_matches_reference(table, pts):
    """The check table's composition at pts equals the dense reference."""
    with np.errstate(all="ignore"):
        got = {name: np.moveaxis(b, 0, -1) for name, b in table.composition(pts).items()}
        want = reference.compose({name: got[name] for name in JETS}, table.pairs)
    for name, block in want.items():
        assert got[name].shape == block.shape, name
        assert np.array_equal(got[name], block, equal_nan=True), name


@pytest.mark.parametrize("name", SYSTEMS)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_gallery_compositions_equal_the_dense_reference(name, n, seed):
    sys_ = load_builtin(name).system
    assert_matches_reference(sys_.table, sample_points(sys_, n, seed))


@pytest.mark.parametrize("name", CR_ENTRIES)
def test_cr_brackets_equal_the_dense_reference(name):
    data = load_builtin(name).cr
    tab = data.table
    c = {key: np.moveaxis(b, 0, -1)
         for key, b in tab.composition(tab.at(param_samples(data, 30, 4))["sigma"]).items()}
    pairs = [(i, j) for i in range(data.k) for j in range(i + 1, data.k)]
    want = np.swapaxes(reference.bracket_values(c["X"], c["DX"], pairs), 0, 1)
    assert c["bracket"].shape == want.shape
    assert np.array_equal(c["bracket"], want, equal_nan=True)


@st.composite
def systems(draw):
    """A system on C^N with k <= min(N, 3) whose components are zero,
    constant, linear or quadratic, some with a 1e300 coefficient whose
    jets overflow at large coordinates without a fault."""
    N = draw(st.integers(1, 3))
    k = draw(st.integers(1, min(N, 3)))
    chart = ComplexChart.standard(N)
    var = st.sampled_from(chart.names)
    component = st.one_of(
        st.just("0"), st.just("0"), st.just("0"),
        st.sampled_from(["1", "-2.5", "0.75"]),
        st.builds(lambda c, a: f"{c}*{a}", st.sampled_from(["1", "-3", "0.5"]), var),
        st.builds(lambda a, b: f"{a} - 2*{b}", var, var),
        st.builds(lambda a, b: f"{a}*{b}", var, var),
        st.builds(lambda a, b: f"1e300*{a}*{b}", var, var),
    )
    fields = [VectorField.from_exprs(chart, [parse_expr(c) for c in
                                             draw(st.lists(component, min_size=2 * N,
                                                           max_size=2 * N))])
              for _ in range(k)]
    grads = [parse_expr(draw(component)) for _ in range(k)]
    return GradientSystem(chart, tuple(fields), tuple(grads))


@given(systems(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generated_compositions_equal_the_dense_reference(sys_, data):
    n = data.draw(st.integers(1, 4))
    coordinate = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([1e200, -1e160, 3e150]))
    pts = np.array(data.draw(st.lists(st.lists(coordinate, min_size=sys_.chart.dim,
                                               max_size=sys_.chart.dim),
                                      min_size=n, max_size=n)))
    assert_matches_reference(sys_.table, pts)


def test_a_dropped_product_meeting_inf_is_nan_only_in_its_row():
    # at x1 = 1e200 the field's 1e150 x1^2 is inf, so the reference's
    # brackets multiply it by the zero jets of the other field; the other
    # rows stay finite
    chart = ComplexChart.standard(1)
    sys_ = GradientSystem(chart, (VectorField.from_exprs(
        chart, [parse_expr("1e150*x1*x1"), parse_expr("0")]),), (parse_expr("-y1"),))
    pts = np.array([[0.5, 0.25], [1e200, 0.0], [-1.5, 1.0]])
    assert_matches_reference(sys_.table, pts)
    with np.errstate(all="ignore"):
        t = sys_.table.at(pts)
    assert np.isnan(t["bracket"][1]).any()
    assert np.isfinite(t["bracket"][[0, 2]]).all()


@pytest.mark.parametrize("n", [1, 256, 257])
def test_the_check_table_is_two_tape_passes_per_chunk(monkeypatch, n):
    # each chunk of rows runs the jets' Program and then the composition's
    sys_ = load_builtin("heisenberg").system
    table, pts = sys_.table, sample_points(sys_, n, 0)
    assert isinstance(table.composition.program, Program)
    passes, tape = [], Program._pass

    def counted(self, P):
        passes.append(self)
        return tape(self, P)

    monkeypatch.setattr(Program, "_pass", counted)
    table.at(pts)
    assert passes == [table.program, table.composition.program] * math.ceil(n / TABLE_CHUNK)
