"""The canonical JSON encoder: its float fast path against the
one-value-at-a-time reference encoder, byte for byte."""

import json
import math

import numpy as np
import pytest

import cgsys.cli
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
    docs = []
    monkeypatch.setattr(cgsys.cli, "write_report", lambda doc, path: docs.append(doc))
    code = cgsys.cli.main([*argv, "--json", str(tmp_path / "report.json")])
    if not docs:
        assert code == 1           # refused before any report
        return
    assert len(docs) == 1
    assert canonical_json(docs[0]) == reference_encode(docs[0]) + "\n"


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
