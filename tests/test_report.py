"""The canonical JSON encoder: its float fast path and its record columns
against the one-value-at-a-time reference encoder, byte for byte."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cgsys.cli
from cgsys.cauchy import CauchySolution
from cgsys.dsl import builtin_names, load_builtin
from cgsys.report import canonical_json


def reference_encode(obj) -> str:
    """The encoder as it was before the fast path: one isinstance dispatch
    per value."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{json.dumps(k)}: {reference_encode(v)}"
                               for k, v in items) + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_encode(v) for v in obj) + "]"
    raise TypeError(f"cannot encode {type(obj).__name__} in a report")


def reference_records(records, oracle: bool) -> list[dict]:
    """The report's records as ``cgsys cauchy`` built them before they were
    kept by column: one dict per QueryRecord."""
    payload = []
    for r in records:
        item = {"query": r.query, "ok": r.ok, "newton_iters": r.newton_iters,
                "halvings": r.halvings}
        if r.rk_steps is not None:
            item.update({"rk_steps": r.rk_steps, "rk_error": r.rk_error})
        if r.ok:
            item.update({
                "params": r.params, "u": r.u, "U": r.U, "xi": r.xi,
                "residual_d": r.residual_d, "residual_dc": r.residual_dc,
            })
            if oracle:
                item.update({"oracle_dU": r.oracle_dU, "oracle_dxi": r.oracle_dxi})
        else:
            item["error"] = r.error
        payload.append(item)
    return payload


def _gallery_ops():
    ops = []
    for name in builtin_names():
        sf = load_builtin(name)
        if sf.cr is not None:
            ops.append(["cauchy", name])
        if sf.system is not None:
            ops += [["verify", name, "--points", "20"], ["normal-form", name]]
    ops.append(["cauchy", "affine", "--u-extent", "3", "--grid", "5"])
    return ops


@pytest.mark.parametrize("argv", _gallery_ops(), ids=" ".join)
def test_gallery_reports_encode_as_the_reference_does(argv, tmp_path, monkeypatch):
    # a cauchy report's records are expanded from the solution's
    # QueryRecords by the reference loop, not read off its columns
    docs, solved = [], []
    solve = cgsys.cli.solve

    def solve_and_keep(data, queries, cfg, oracle=None):
        solved.append((solve(data, queries, cfg, oracle=oracle), oracle is not None))
        return solved[-1][0]

    monkeypatch.setattr(cgsys.cli, "solve", solve_and_keep)
    monkeypatch.setattr(cgsys.cli, "write_report", lambda doc, path: docs.append(doc))
    code = cgsys.cli.main([*argv, "--json", str(tmp_path / "report.json")])
    if not docs:
        assert code == 1           # refused before any report
        return
    assert len(docs) == 1
    doc = dict(docs[0])
    if argv[0] == "cauchy":
        [(sol, oracle)] = solved
        doc["records"] = reference_records(sol.records, oracle)
    assert canonical_json(docs[0]) == reference_encode(doc) + "\n"


EDGE_VALUES = {
    "specials": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308],
    "array": np.array([0.1, -0.0, math.nan, math.inf, -math.inf, 1e-300]),
    "matrix": np.array([[0.1, math.nan], [-0.0, 2.5]]),
    "cube": np.arange(24, dtype=float).reshape(2, 3, 4) / 7.0,
    "finite-matrix": np.array([[1.0, 2.0], [3.0, 4.0]]),
    "numpy-scalars": [np.float64(0.1), np.float32(0.1), np.int64(7), np.bool_(True)],
    "bools": [True, False, np.bool_(False)],
    "floats-and-bools": [1.5, True, 0.0, False],
    "floats-and-ints": [1.0, 2, 3.5, 2 ** 60],
    "nested": [[0.1, -0.0], [math.nan, 1e-7]],
    "nested-tuples": ((0.5, 0.25), (math.inf, 3.0)),
    "ragged": [[0.1], [0.2, 0.3]],
    "ragged-deep": [[[0.1], [0.2]], [[0.3]]],
    "with-none": [0.5, None],
    "with-str": [0.5, "x"],
    "arrays-in-list": [np.array([0.1, 0.2]), np.array([math.nan, 0.3])],
    "float64-list": [np.float64(1.0), np.float64(-0.0), np.float64(math.nan)],
    "empty": [[], (), np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3))],
    "int-array": np.arange(4),
    "bool-array": np.array([True, False]),
    "float32-array": np.array([0.1, 0.2], dtype=np.float32),
    "object-array": np.array([0.5, True], dtype=object),
    "dict-in-list": [{"b": 0.1, "a": [0.2, math.nan]}],
    "unicode": "é→",
    "single": [0.1],
    "deep-single": [[[0.1]]],
}


@pytest.mark.parametrize("key", EDGE_VALUES)
def test_edge_values_encode_as_the_reference_does(key):
    doc = {key: EDGE_VALUES[key], "x": 1}
    assert canonical_json(doc) == reference_encode(doc) + "\n"


def test_zero_dimensional_arrays_stay_refused():
    for value in (np.array(0.5), np.array(1)):
        with pytest.raises(TypeError) as ours:
            canonical_json({"x": value})
        with pytest.raises(TypeError) as ref:
            reference_encode({"x": value})
        assert str(ours.value) == str(ref.value)


# floats that every record column may hold: NaN, infinities, signed zeros,
# the smallest subnormal and the largest double among arbitrary ones
_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     1.7976931348623157e308, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True))
_ERRORS = st.one_of(st.sampled_from(['det P = "nan" \\ é→', "outside param_domain"]),
                    st.text(max_size=12))


@st.composite
def _solutions(draw):
    """A CauchySolution of random columns: k fields, chart dimension 2N,
    up to four rows, each ok or refused, with or without the ambient
    counts and the oracle columns.  Half the stacks hold finite floats
    only, so their ok rows take the template."""
    k, N, n = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    m = k + 2 * draw(st.integers(0, 1))
    finite = draw(st.booleans())
    floats = st.floats(-1e3, 1e3) if finite else _FLOATS

    def column(*shape):
        size = n * math.prod(shape)
        return np.array(draw(st.lists(floats, min_size=size, max_size=size)),
                        dtype=float).reshape(n, *shape)

    def counts():
        return np.array(draw(st.lists(st.integers(0, 2 ** 40), min_size=n, max_size=n)),
                        dtype=int)

    ok = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    errors = ["" if good else draw(_ERRORS) for good in ok]
    ambient, oracle = draw(st.booleans()), draw(st.booleans())
    return CauchySolution(
        None, column(2 * N), ok, errors, counts(), counts(),
        counts() if ambient else None, column() if ambient else None,
        column(m), column(k), column(k), column(k, 2 * N), column(k, 2 * N),
        column(), column(), column(),
        column() if oracle else None, column() if oracle else None)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sol=_solutions())
def test_record_columns_encode_as_the_reference_records_do(sol):
    ours = canonical_json({"records": cgsys.cli._report_records(sol)})
    ref = reference_encode({"records": reference_records(sol.records, sol.oracle_dU is not None)})
    assert ours == ref + "\n"
    if not len(sol.query):
        assert ours == '{"records": []}\n'
