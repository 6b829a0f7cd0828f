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
from cgsys.expr import Program, Table, parse_expr
from cgsys.geometry import Composition, ComplexChart, VectorField, j_rotate, jet_blocks
from cgsys.cauchy import _bracket_terms, param_samples
from cgsys.verify import TABLE_CHUNK, GradientSystem, sample_points
import reference

SYSTEMS = [n for n in builtin_names() if load_builtin(n).system is not None]
CR_ENTRIES = [n for n in builtin_names() if load_builtin(n).cr is not None]
JETS = ("X", "DX", "dU", "D2U")


def assert_matches_reference(table, pts):
    """The check table's composition at pts equals the dense reference."""
    with np.errstate(all="ignore"):
        got = {name: np.moveaxis(b, 0, -1) for name, b in table.at(pts).items()}
        jets = {name: np.moveaxis(b, 0, -1) for name, b in table.jets.at(pts).items()}
        want = reference.compose({name: jets[name] for name in JETS}, table.pairs)
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
    sigma = tab.at(param_samples(data, 30, 4))["sigma"]
    c = {key: np.moveaxis(b, 0, -1)
         for key, b in [*tab.fields.at(sigma).items(), *tab.composition.at(sigma).items()]}
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


def points(data, sys_):
    """1 to 4 rows on the system's chart, some coordinates so large that
    the 1e300 components' jets overflow."""
    n = data.draw(st.integers(1, 4))
    coordinate = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([1e200, -1e160, 3e150]))
    return np.array(data.draw(st.lists(st.lists(coordinate, min_size=sys_.chart.dim,
                                                max_size=sys_.chart.dim),
                                       min_size=n, max_size=n)))


@given(systems(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generated_compositions_equal_the_dense_reference(sys_, data):
    assert_matches_reference(sys_.table, points(data, sys_))


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
def test_the_check_table_is_one_tape_pass_per_chunk(monkeypatch, n):
    # each chunk of rows runs the one tape of the jets and their composition
    sys_ = load_builtin("heisenberg").system
    table, pts = sys_.table, sample_points(sys_, n, 0)
    assert isinstance(table.program, Program)
    passes, tape = [], Program._pass

    def counted(self, P):
        passes.append(self)
        return tape(self, P)

    monkeypatch.setattr(Program, "_pass", counted)
    table.at(pts)
    assert passes == [table.program] * math.ceil(n / TABLE_CHUNK)


@pytest.mark.parametrize("name", CR_ENTRIES)
def test_the_cr_table_is_two_tape_passes(monkeypatch, name):
    # sigma over the parameters, then the fields' jets and their
    # composition at sigma on one tape
    data = load_builtin(name).cr
    tab, params = data.table, param_samples(data, 6, 2)
    passes, tape = [], Program._pass

    def counted(self, P):
        passes.append(self)
        return tape(self, P)

    monkeypatch.setattr(Program, "_pass", counted)
    tab.at(params)
    assert passes == [tab.program, tab.composition.program]


# --- the jets the compositions pass through -----------------------------------


def assert_passes_the_jets_through(table, pts):
    """The check table's ``frame``, ``grad`` and ``DX`` at pts are, bit for
    bit, the jets Table's J-rotated concatenation of X, its dU and its DX,
    at every row the tapes do not refuse; both refuse the same rows with
    the same errors, and there every block is NaN."""
    with np.errstate(all="ignore"):
        vals, refused = table.rows(pts)
        jets, errors = table.jets.program.rows(pts)
    got, jets = table.blocks(vals), table.jets.blocks(jets)
    xi = jets["X"]
    want = {"frame": np.swapaxes(np.concatenate([xi, j_rotate(xi, axis=2)], 1), 1, 2),
            "grad": jets["dU"], "DX": jets["DX"]}
    assert {j: str(err) for j, err in refused.items()} == {
        j: str(err) for j, err in enumerate(errors) if err is not None}
    ok = np.array([err is None for err in errors], dtype=bool)
    for name, block in want.items():
        assert got[name].shape == block.shape, name
        assert got[name][ok].tobytes() == block[ok].tobytes(), name
        assert np.isnan(got[name][~ok]).all(), name


@pytest.mark.parametrize("name", SYSTEMS)
def test_gallery_check_tables_pass_the_jets_through(name):
    sys_ = load_builtin(name).system
    assert_passes_the_jets_through(sys_.table, sample_points(sys_, 40, 5))


@given(systems(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_generated_check_tables_pass_the_jets_through(sys_, data):
    assert_passes_the_jets_through(sys_.table, points(data, sys_))


def _pole():
    """The field 1/z d/dz with u = -y1: its tapes fault at the origin."""
    chart = ComplexChart.standard(1)
    field = VectorField.from_exprs(chart, [parse_expr("x1/(x1^2 + y1^2)"),
                                           parse_expr("-y1/(x1^2 + y1^2)")])
    return chart, field


# rows with two faults (division by zero at the origin, and the square of
# 1e200, which overflows) and a NaN row
POLE_ROWS = np.array([[0.5, -1.0], [0.0, 0.0], [np.nan, 1.0], [1e200, 0.0], [1.5, 0.25]])


def test_a_check_table_passes_the_jets_through_beside_a_faulting_row():
    chart, field = _pole()
    table = GradientSystem(chart, (field,), (parse_expr("-y1"),)).table
    assert_passes_the_jets_through(table, POLE_ROWS)
    assert list(table.rows(POLE_ROWS)[1]) == [1, 3]


@pytest.mark.parametrize("name", CR_ENTRIES)
def test_the_cr_tables_rho0_is_the_fields_jets(name):
    data = load_builtin(name).cr
    t = data.table.at(param_samples(data, 30, 4))
    X = data.table.fields.at(t["sigma"])["X"]
    assert t["rho0"].shape == np.swapaxes(X, 1, 2).shape
    assert t["rho0"].tobytes() == np.swapaxes(X, 1, 2).tobytes()


def test_the_cr_brackets_pass_the_jets_through_beside_a_faulting_row():
    chart, field = _pole()
    jets = Table(jet_blocks((), [field], chart), chart.names)
    composition = Composition(jets, _bracket_terms)
    with np.errstate(all="ignore"):
        vals, refused = composition.rows(POLE_ROWS)
        X, errors = jets.program.rows(POLE_ROWS)
    assert {j: str(err) for j, err in refused.items()} == {
        j: str(err) for j, err in enumerate(errors) if err is not None} and list(refused) == [1, 3]
    rho0, X = composition.blocks(vals)["rho0"], np.swapaxes(jets.blocks(X)["X"], 1, 2)
    ok = [0, 2, 4]
    assert rho0[ok].tobytes() == X[ok].tobytes()
    assert np.isnan(rho0[[1, 3]]).all()
