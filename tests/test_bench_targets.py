"""The benchmark tracer wraps program functions by name: every name it lists
must resolve, or its traced runs stop before they measure anything."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_tracer_target_resolves(monkeypatch):
    # bench/ is read, never written: no bytecode lands there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    sys.modules.pop("tracer", None)
    tracer = importlib.import_module("tracer")
    sys.modules.pop("tracer")
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        assert callable(tracer._resolve(target)[3]), target.label
