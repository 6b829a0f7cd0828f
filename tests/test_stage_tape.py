"""The complex flows' stage tape (``flow._HolomorphicFrame``) against the
reads it replaced: Z and dZ/dz read off the fields' ``jet_blocks`` Table
through ``to_complex`` and ``holomorphic_jacobians``, the Cauchy-Riemann
residuals through ``cr_residuals``, and the refusals those reads made, byte
for byte.  The data are every ambient field list of the gallery (the CR
data's and the systems'), the benchmark's generated (1 + c z^2) d/dz, an
N = 2, k = 2 polynomial frame, the field 1/z, whose tape faults at 0, and
fields that are not holomorphic, one with a constant Jacobian; the rows are seeded, with a row where the
tape faults, a NaN row and a row whose jets overflow.  ``ComplexFlow.rows``
equals tests/reference.py's loop over a velocity that reads the old way."""

import math

import numpy as np
import pytest

from cgsys.dsl import builtin_names, load_builtin, loads
from cgsys.expr import Const, DomainError, Table, parse_expr
from cgsys.flow import HOLOMORPHY_TOL, ComplexFlow, FlowConfig, HolomorphyError, _HolomorphicFrame
from cgsys.geometry import (
    ComplexChart, VectorField, cr_residuals, holomorphic_jacobians, jet_blocks, to_chart,
    to_complex,
)
from cli_contract import ambient_cgs
from reference import rk as rk_reference

CFG = FlowConfig()


def _field(chart, comps):
    return VectorField.from_exprs(chart, [parse_expr(c) for c in comps])


def _datasets():
    """name -> the fields of one ambient flow."""
    data = {}
    for name in builtin_names():
        sf = load_builtin(name)
        if sf.cr is not None:
            data[f"{name}-cr"] = list(sf.cr.ambient_fields)
        if sf.system is not None:
            data[f"{name}-system"] = list(sf.system.fields)
    for c in (0.75, 1.143973, 3.0):
        data[f"generated-{c}"] = list(loads(ambient_cgs(c)).cr.ambient_fields)
    one, two = ComplexChart.standard(1), ComplexChart.standard(2)
    # z1 z2 d/dz1 + z1^2 d/dz2 and (1 + z2) d/dz1 + (z1 - z2^2) d/dz2
    data["polynomial-N2-k2"] = [
        _field(two, ["x1*x2 - y1*y2", "x1*y2 + y1*x2", "x1^2 - y1^2", "2*x1*y1"]),
        _field(two, ["1 + x2", "y2", "x1 - (x2^2 - y2^2)", "y1 - 2*x2*y2"])]
    data["pole"] = [_field(one, ["x1/(x1^2 + y1^2)", "-y1/(x1^2 + y1^2)"])]
    data["not-holomorphic"] = [_field(one, ["1 + y1", "0"])]
    # a constant Jacobian whose residual is 1: checked at every read
    data["not-holomorphic-constant"] = [_field(one, ["x1", "-y1"])]
    data["not-holomorphic-N2"] = [
        _field(two, ["x1*x2", "y1", "1", "x2*y1"]), _field(two, ["0", "1", "y2", "0"])]
    return data


DATA = _datasets()


def _rows(dim, seed):
    """Seeded rows, the origin (where 1/z faults), a NaN row and a row
    whose jets overflow."""
    X = np.random.default_rng(seed).uniform(-1.5, 1.5, (7, dim))
    X[1], X[3], X[5] = 0.0, np.nan, 1e200
    return X


def _jets(fields):
    chart = fields[0].chart
    return Table(jet_blocks((), fields, chart), chart.names)


def _old_checks(jets):
    """The old rule: a frame checks holomorphy unless its Jacobians are
    constants whose residual is within HOLOMORPHY_TOL."""
    DX = jets.exprs[jets.columns["DX"][0]]
    if not all(isinstance(e, Const) for e in DX):
        return True
    shape = jets.columns["DX"][1]
    return bool(cr_residuals(np.array([e.value for e in DX]).reshape(shape)).max()
                > HOLOMORPHY_TOL)


def _old_at(jets, X, labels=None):
    """The stage read before the stage tape: the jets' Table, Z and dZ/dz
    through to_complex and holomorphic_jacobians, the refusals with the
    holomorphy test on cr_residuals; and each row's largest residual."""
    vals, faults = jets.program.rows(X, labels)
    refused = {j: err for j, err in enumerate(faults) if err}
    t = jets.blocks(vals)
    with np.errstate(invalid="ignore"):
        R = cr_residuals(t["DX"])
    worst = np.fmax.reduce(R.reshape(len(X), -1), axis=1, initial=0.0)
    if _old_checks(jets) and not R.max(initial=0.0) <= HOLOMORPHY_TOL:
        for j in (worst > HOLOMORPHY_TOL).nonzero()[0]:
            refused.setdefault(j, HolomorphyError(
                f"field complexification violates the Cauchy-Riemann "
                f"equations (residual {worst[j]:.3e} > {HOLOMORPHY_TOL:g}); "
                "complex-time flow refused"))
    return to_complex(t["X"]), holomorphic_jacobians(t["DX"]), refused, worst


def _described(refused):
    return {int(j): (type(err), str(err), getattr(err, "index", None))
            for j, err in refused.items()}


@pytest.mark.parametrize("name", DATA)
def test_the_stage_tape_reads_what_the_jet_table_read(name):
    fields = DATA[name]
    jets = _jets(fields)
    X = _rows(fields[0].chart.dim, len(name))
    labels = np.arange(len(X)) + 10
    old_Z, old_dZ, old_refused, old_worst = _old_at(jets, X, labels)
    # made from the fields and from their compiled jets, as cauchy shares them
    for frame in (_HolomorphicFrame(fields), _HolomorphicFrame(jets)):
        assert frame.checks_holomorphy == _old_checks(jets)
        Z, dZ, refused = frame.at(X, labels)
        assert Z.shape == old_Z.shape and Z.tobytes() == old_Z.tobytes()
        assert dZ.shape == old_dZ.shape and dZ.tobytes() == old_dZ.tobytes()
        assert _described(refused) == _described(old_refused)
        assert list(refused) == list(old_refused)
        assert frame.residuals(X).tobytes() == old_worst.tobytes()
    if name == "pole":
        assert isinstance(refused[1], DomainError) and refused[1].index == 11
    if name.startswith("not-holomorphic"):
        assert any(isinstance(err, HolomorphyError) for err in refused.values())


@pytest.mark.parametrize("name", DATA)
def test_flow_rows_equal_the_reference_loop_over_the_old_reads(name):
    # rows at 1-3 steps with two tangent columns: each row the flow accepts
    # comes out as tests/reference.py's loop steps it over the velocity
    # [w Z; (w dZ/dz) Y + Z in the d/dw columns] read the old way
    fields = DATA[name]
    chart, k = fields[0].chart, len(fields)
    N, n, r = chart.N, 4, 2
    jets, flow = _jets(fields), ComplexFlow(fields, CFG)
    rng = np.random.default_rng(len(name))
    P = rng.uniform(-0.6, 0.6, (n, chart.dim))
    W = rng.uniform(-0.3, 0.3, (n, k)) + 1j * rng.uniform(-0.3, 0.3, (n, k))
    dZ0 = rng.uniform(-1, 1, (n, N, r)) + 0.5j
    nsteps = np.array([1, 2, 3, 2])
    points, Y, errors, estimates = flow.rows(P, W, dZ0, nsteps)

    def velocity(rows, y):
        Z, dZ, _, _ = _old_at(jets, to_chart(y[:, 0]))
        out, Wr = np.empty(y.shape, dtype=complex), W[rows][:, None]
        np.matmul(Wr, Z, out=out[:, :1])
        A = (Wr @ dZ.reshape(len(rows), k, N * N)).reshape(-1, N, N)
        np.matmul(y[:, 1:], np.swapaxes(A, 1, 2), out=out[:, 1:])
        out[:, 1 + r:] += Z
        return out

    state = np.concatenate([to_complex(P)[:, None], np.swapaxes(dZ0, 1, 2),
                            np.zeros((n, k, N), dtype=complex)], axis=1)
    want_estimates = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        want = rk_reference(velocity, state, 1.0 / nsteps, nsteps, lambda rows, y: None,
                            want_estimates)
    accepted = [i for i, err in enumerate(errors) if err is None]
    for i in accepted:
        assert points[i].tobytes() == to_chart(want[i, 0]).tobytes()
        assert Y[i].tobytes() == np.swapaxes(want[i, 1:], 0, 1).tobytes()
        assert estimates[i] == want_estimates[i]
    holomorphic = not flow.frame.checks_holomorphy or (
        flow.frame.residuals(P).max() <= HOLOMORPHY_TOL)
    assert accepted or not holomorphic


# residuals on either side of the tolerance, subnormal, NaN and infinite
RESIDUALS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, HOLOMORPHY_TOL,
             2 * HOLOMORPHY_TOL, *(2 * HOLOMORPHY_TOL * (1 + j * 2.0**-52) for j in (-3, -1, 1, 3)),
             math.nextafter(2 * HOLOMORPHY_TOL, 0.0), math.nextafter(2 * HOLOMORPHY_TOL, 1.0),
             4 * HOLOMORPHY_TOL, 1e308, math.inf, math.nan]


def test_the_stack_test_at_twice_the_tolerance_decides_as_the_halved_one():
    # hypot(p, q) <= 2 TOL against the old 0.5 hypot(p, q) <= TOL, alone and
    # through a frame: 1 + x1 y1 has p = y1 and q = x1, so the row (v, 0)
    # has the residual hypot(0, v) / 2
    for v in RESIDUALS:
        h = np.hypot(0.0, v)
        assert (h <= 2 * HOLOMORPHY_TOL) == (0.5 * h <= HOLOMORPHY_TOL)
    fields = [_field(ComplexChart.standard(1), ["1 + x1*y1", "0"])]
    X = np.array([[v, 0.0] for v in RESIDUALS])
    frame, jets = _HolomorphicFrame(fields), _jets(fields)
    for rows in [[j] for j in range(len(X))] + [list(range(len(X)))]:
        refused, old = frame.at(X[rows])[2], _old_at(jets, X[rows])[2]
        assert _described(refused) == _described(old)
    refused = frame.at(X)[2]
    assert [RESIDUALS[j] for j in refused] == [
        v for v in RESIDUALS if 0.5 * v > HOLOMORPHY_TOL]
