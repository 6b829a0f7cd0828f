"""Self-tests of the benchmark: generated inputs, the output gate, the tracer.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import cmath
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import child
import run
import workloads
from tracer import MARK, TARGETS, Tracer, bindings, installed_wrappers, metric_specs

from cgsys import cli
from cgsys.dsl import builtin_names, builtin_text, load_builtin, loads
from cgsys.expr import evaluate

ROOT = Path(__file__).resolve().parents[2]
C_VALUES = (workloads.AMBIENT_C_RANGE[0], 1.0, workloads.AMBIENT_C_RANGE[1])
POINTS = ((0.3, 0.2), (-0.5, 0.1), (0.1, -0.4), (0.7, 0.35))


def _ambient_oracle(c):
    grads, fields = loads(workloads.ambient_cgs(c), name="ambient").oracle
    return grads[0], fields[0]


def _U(U, x, y):
    return evaluate(U, {"x1": x, "y1": y})


@pytest.mark.parametrize("c", C_VALUES)
def test_ambient_oracle_is_the_closed_form(c):
    U, xi = _ambient_oracle(c)
    r = math.sqrt(c)
    for x, y in POINTS:
        z = complex(x, y)
        assert _U(U, x, y) == pytest.approx(-(cmath.atan(r * z) / r).imag, abs=1e-13)
        f = 1 + c * z * z
        assert xi.values([x, y]) == pytest.approx([f.real, f.imag], abs=1e-13)


@pytest.mark.parametrize("c", C_VALUES)
def test_ambient_oracle_satisfies_the_axioms_by_central_differences(c):
    # dU(xi) = 0 and d^cU(xi) = -dU(J xi) = 1, with J(a, b) = (-b, a)
    U, xi = _ambient_oracle(c)
    h = 1e-5
    for x, y in POINTS:
        Ux = (_U(U, x + h, y) - _U(U, x - h, y)) / (2 * h)
        Uy = (_U(U, x, y + h) - _U(U, x, y - h)) / (2 * h)
        a, b = xi.values([x, y])
        assert Ux * a + Uy * b == pytest.approx(0.0, abs=1e-8)
        assert -(Ux * -b + Uy * a) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("c", workloads.AMBIENT_C_RANGE)
def test_ambient_cauchy_passes_at_the_line_gallery_tolerance(c, tmp_path):
    line_tol = loads(builtin_text("line"), name="line").config["cauchy_tol"]
    assert workloads.AMBIENT_CAUCHY_TOL == line_tol
    path = tmp_path / "ambient.cgs"
    path.write_text(workloads.ambient_cgs(c), encoding="utf-8")
    report = tmp_path / "report.json"
    assert cli.main(["cauchy", str(path), "--grid", "3", "--json", str(report)]) == 0
    records = json.loads(report.read_text())["records"]
    assert all(r["ok"] for r in records)
    assert max(max(r["oracle_dU"], r["oracle_dxi"]) for r in records) < line_tol


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_expected_oracle_tolerances_are_the_inputs_own(name, tmp_path):
    for op in workloads.build(name, 1, tmp_path, ROOT):
        tol = op["expect"]["oracle_tol"]
        if tol is None:
            continue
        system = op["argv"][1]
        text = (builtin_text(system) if system in builtin_names()
                else Path(system).read_text(encoding="utf-8"))
        assert loads(text).config["cauchy_tol"] == tol


def test_workloads_are_determined_by_the_seed(tmp_path):
    def generated(seed, sub):
        ops = workloads.build("cauchy-ambient", seed, tmp_path / sub, ROOT)
        files = sorted((tmp_path / sub).glob("*.cgs"))
        return ([workloads.label(op["argv"]) for op in ops],
                [op["argv"][-1] for op in ops], [f.read_bytes() for f in files])

    assert generated(5, "a") == generated(5, "b")
    labels, seeds, files = generated(6, "c")
    assert labels == generated(5, "a")[0]
    assert seeds != generated(5, "a")[1] and files != generated(5, "a")[2]


def _outcome(argv, tmp_path):
    path = tmp_path / "report.json"
    path.unlink(missing_ok=True)
    _, code, out, err = child.run_op(cli, argv + ["--json", str(path)])
    return code, out, err, path.read_bytes() if path.exists() else None


def test_gate_accepts_the_intended_failures_and_nothing_else(tmp_path):
    ops = workloads.build("verify-mix", 1, tmp_path, ROOT)
    broken = next(op for op in ops if "broken-demo" in op["argv"])
    refused = next(op for op in ops if op["argv"][:2] == ["normal-form", "heisenberg"])

    outcome = _outcome(broken["argv"], tmp_path)
    assert child.check_op(broken["expect"], *outcome)[0] == []
    wrong = dict(broken["expect"], exit=0, verdict="pass", failing=[])
    assert len(child.check_op(wrong, *outcome)[0]) == 3

    outcome = _outcome(refused["argv"], tmp_path)
    assert outcome[3] is None
    assert child.check_op(refused["expect"], *outcome)[0] == []


def test_gate_checks_oracle_errors_against_the_tolerance(tmp_path):
    op = workloads.build("cauchy-ambient", 1, tmp_path, ROOT)[0]
    outcome = _outcome(op["argv"], tmp_path)
    problems, worst = child.check_op(op["expect"], *outcome)
    assert problems == [] and 0 < worst < op["expect"]["oracle_tol"]
    strict = dict(op["expect"], oracle_tol=worst / 2)
    assert "oracle error" in child.check_op(strict, *outcome)[0][0]


def test_gate_counts_a_crash_and_changed_report_bytes(tmp_path):
    class Crashing:
        @staticmethod
        def main(argv):
            raise ZeroDivisionError("boom")

    _, code, out, err = child.run_op(Crashing, ["verify", "line"])
    assert code is None and "ZeroDivisionError" in err

    op = workloads.build("verify-mix", 1, tmp_path, ROOT)[3]
    runner = child.Runner(cli, [op], tmp_path)
    code, out, err, report = _outcome(op["argv"], tmp_path)
    runner._gate(0, op, code, out, err, report)
    runner._gate(0, op, code, out, err, report)
    assert runner.failures == []
    runner._gate(0, op, code, out, err, report + b" ")
    assert "report bytes differ" in runner.failures[0]
    runner._gate(0, op, code, out, err, b"{")
    assert "report does not parse" in runner.failures[1]


def test_tracer_wraps_every_binding_and_restores_the_originals():
    before = {t.label: [(o, a, getattr(o, a)) for o, a, _ in bindings(t)]
              for t in TARGETS}
    assert all(before.values())
    assert installed_wrappers() == []
    tracer = Tracer()
    tracer.install()
    try:
        assert installed_wrappers() == [t.label for t in TARGETS]
        import cgsys.expr
        import cgsys.verify
        # the by-name copy is wrapped; the recursive home binding is not
        assert hasattr(cgsys.verify.evaluate, MARK)
        assert not hasattr(cgsys.expr.evaluate, MARK)
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    for found in before.values():
        for owner, attr, orig in found:
            assert getattr(owner, attr) is orig


def test_evaluate_counts_outermost_calls_only():
    field = load_builtin("affine").system.fields[0]   # nested expressions
    tracer = Tracer()
    tracer.install()
    try:
        field.values(np.array([1.0, 0.5, 0.3, 0.2]))
    finally:
        tracer.uninstall()
    counts = tracer.call_counts()
    assert counts["geometry.VectorField.values"] == 1
    assert counts["expr.evaluate"] == 4               # one per component


def test_rk4_steps_and_newton_trials_count_what_runs():
    from cgsys import flow
    _, xi = _ambient_oracle(1.0)        # holomorphic: (1 + z^2) d/dz
    w = 0.05 + 0.02j
    calls = []

    def F(x):
        calls.append(x)
        return np.arctan(x)             # a full step from 2 overshoots

    tracer = Tracer()
    tracer.install()
    try:
        flow.flow_real(xi, [0.1, 0.0], 0.1)
        flow.flow_complex_multi([xi], [0.1, 0.0], [w])
        x = flow.newton_inverse(F, [0.0], [2.0])
    finally:
        tracer.uninstall()
    raw = tracer.snapshot()
    per_unit = flow.DEFAULT_CONFIG.steps_per_unit
    assert raw["flow.rk4_steps"] == math.ceil(0.1 * per_unit) + math.ceil(abs(w) * per_unit)

    assert abs(x[0]) < 1e-10
    iters = raw["flow.newton_iters"]
    trials = len(calls) - 1 - 2 * iters  # less the start and the Jacobians
    assert raw["flow.newton.trials"] == trials
    assert raw["flow.newton.accepted"] == iters   # one step taken per Jacobian
    assert trials > iters                         # and a rejected one


def _spec(tmp_path, ops, min_cycles):
    return {"ops": ops, "workdir": str(tmp_path), "seconds": 0,
            "min_cycles": min_cycles, "time_cap": 60}


def test_untraced_measurement_detects_an_installed_wrapper(tmp_path):
    ops = workloads.build("verify-mix", 1, tmp_path, ROOT)[3:4]
    res = child.measure(_spec(tmp_path, ops, 2))
    assert res["attempted"] == 2 and res["failures"] == [] and res["problems"] == []

    tracer = Tracer()
    tracer.install()
    try:
        res = child.measure(_spec(tmp_path, ops, 1))
    finally:
        tracer.uninstall()
    assert "wrappers installed" in res["problems"][0]


def test_traced_counts_repeat_exactly(tmp_path):
    ops = workloads.build("cauchy-group", 1, tmp_path, ROOT)[:1]
    a = child.trace(_spec(tmp_path, ops, 1))
    b = child.trace(_spec(tmp_path, ops, 1))
    assert a["failures"] == [] and a["problems"] == []
    counts = [name for name, unit, _ in metric_specs() if unit == "count"]
    assert {k: a["layers"][k] for k in counts} == {k: b["layers"][k] for k in counts}
    layers = a["layers"]
    assert layers["flow.matrix_exp.calls"] > 0
    assert layers["cauchy.F.calls"] == layers["flow.complexified_flow_matrix.calls"]
    assert layers["flow.newton_iters"] > 0
    assert 0 < layers["flow.newton.accept_ratio"] <= 1
    assert layers["cauchy.records_ok_ratio"] == 1.0
    assert installed_wrappers() == []


def test_benchmark_json_lists_what_the_runs_print():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == metric_specs()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
