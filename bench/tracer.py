"""Wrap-only tracing of cgsys layers, installed from outside the program.

``Tracer.install`` replaces every binding of each target function with a
timing wrapper: the attribute in the module that defines it and each copy
that another cgsys module took with ``from .x import f`` (``cauchy``,
``verify``, ``flow`` and ``geometry`` import by name).  ``uninstall`` puts
the originals back.  No program file changes.

Recursive functions (``evaluate``, ``diff``) recurse through the binding in
their own module, which is left alone, so only outermost calls are seen.

Each call of a non-leaf target records one span (id, parent span, op tag,
label, start, end, self time).  Hot leaf targets (``evaluate``,
``VectorField.values``, ``lstsq``, ``matrix_exp`` and a few more) record no
span of their own: their calls and time are added to the enclosing span.
Self time of any call is its duration minus the time spent in the wrapped
calls made from it.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

MARK = "__bench_wrapped__"


@dataclass(frozen=True)
class Target:
    label: str            # metric prefix, e.g. "flow.newton_inverse"
    module: str           # module that defines the function
    name: str             # attribute there; "Class.method" for a method
    leaf: bool = False    # aggregate under the parent span, no span per call
    recursive: bool = False  # leave the home binding so recursion is not seen
    report: bool = True   # publish .calls/.total_s/.self_s


TARGETS = (
    Target("expr.evaluate", "cgsys.expr", "evaluate", leaf=True, recursive=True),
    Target("expr.diff", "cgsys.expr", "diff", leaf=True, recursive=True),
    Target("expr.parse_expr", "cgsys.expr", "parse_expr", leaf=True),
    Target("geometry.VectorField.values", "cgsys.geometry", "VectorField.values", leaf=True),
    Target("geometry.lie_bracket", "cgsys.geometry", "lie_bracket", leaf=True),
    Target("geometry.field_matrix", "cgsys.geometry", "field_matrix", leaf=True),
    Target("geometry.is_holomorphic", "cgsys.geometry", "is_holomorphic"),
    Target("linalg.lstsq", "numpy.linalg", "lstsq", leaf=True),
    Target("linalg.solve", "numpy.linalg", "solve", leaf=True),
    Target("flow.flow_real", "cgsys.flow", "flow_real"),
    Target("flow.flow_complex_multi", "cgsys.flow", "flow_complex_multi"),
    Target("flow.matrix_exp", "cgsys.flow", "matrix_exp", leaf=True),
    Target("flow.complexified_flow_matrix", "cgsys.flow", "complexified_flow_matrix", leaf=True),
    Target("flow.newton_inverse", "cgsys.flow", "newton_inverse"),
    Target("flow.numerical_jacobian", "cgsys.flow", "numerical_jacobian"),
    Target("cauchy.solve", "cgsys.cauchy", "solve"),
    Target("cauchy.grid_queries", "cgsys.cauchy", "grid_queries"),
    Target("cauchy.compute_PQA", "cgsys.cauchy", "compute_PQA"),
    Target("cauchy.construct_fields", "cgsys.cauchy", "construct_fields"),
    Target("cauchy.check_cr_transverse", "cgsys.cauchy", "check_cr_transverse"),
    Target("verify.sample_points", "cgsys.verify", "sample_points"),
    Target("verify.check_axioms", "cgsys.verify", "check_axioms"),
    Target("verify.check_bracket_relations", "cgsys.verify", "check_bracket_relations"),
    Target("verify.check_commutation", "cgsys.verify", "check_commutation"),
    Target("verify.decomposition_check_result", "cgsys.verify", "decomposition_check_result"),
    Target("verify.classify", "cgsys.verify", "classify"),
    Target("verify.check_level_set", "cgsys.verify", "check_level_set"),
    Target("verify.normal_form", "cgsys.verify", "normal_form"),
    Target("dsl.loads", "cgsys.dsl", "loads"),
    Target("report.write_report", "cgsys.report", "write_report"),
    # probes for the derived counters, not published themselves
    Target("cli.main", "cgsys.cli", "main", report=False),
    Target("cauchy.build_F", "cgsys.cauchy", "build_F", report=False),
    Target("verify.GradientSystem.in_domain", "cgsys.verify",
           "GradientSystem.in_domain", leaf=True, report=False),
    Target("flow._HolomorphicFrame.coefficients", "cgsys.flow",
           "_HolomorphicFrame.coefficients", leaf=True, report=False),
)

# (metric, unit, better) of the counters derived from the probes
DERIVED = (
    ("flow.rk4_steps", "count", "lower"),
    ("flow.newton_iters", "count", "lower"),
    ("flow.newton.accept_ratio", "ratio", "higher"),
    ("cauchy.F.calls", "count", "lower"),
    ("cauchy.records_ok_ratio", "ratio", "higher"),
    ("verify.sample_points.accept_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for t in TARGETS:
        if t.report:
            out += [(f"{t.label}.calls", "count", "lower"),
                    (f"{t.label}.total_s", "s", "lower"),
                    (f"{t.label}.self_s", "s", "lower")]
    return out + list(DERIVED)


class _Frame:
    __slots__ = ("label", "child", "span", "owner", "leaves")

    def __init__(self, label, span, owner):
        self.label = label
        self.child = 0.0      # seconds spent in wrapped calls made from here
        self.span = span      # span id, None for a leaf call
        self.owner = owner    # the span frame this call's time is filed under
        self.leaves = {} if span is not None else None


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Installs wrappers on ``TARGETS`` and aggregates what they see."""

    def __init__(self):
        self.stats: dict[str, list] = {}     # label -> [calls, total_s, self_s]
        self.counters: Counter = Counter()   # derived counts
        self.spans: list[tuple] = []
        self.op = ""                          # tag of the op being run
        self._root = _Frame("op", 0, None)
        self._root.owner = self._root
        self._stack = [self._root]
        self._next_span = 1
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "geometry.VectorField.values": (None, self._after_values),
            "flow.newton_inverse": (self._before_newton, self._after_newton),
            "flow.numerical_jacobian": (self._before_jacobian, None),
            "cauchy.build_F": (None, self._after_build_F),
            "cauchy.solve": (None, self._after_solve),
            "verify.GradientSystem.in_domain": (None, self._after_in_domain),
        }

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for t in TARGETS:
            pre, post = self._hooks.get(t.label, (None, None))
            for owner, attr, orig in bindings(t):
                wrapper = self.wrap(t.label, orig, t.leaf, pre, post)
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def wrap(self, label, fn, leaf, pre=None, post=None):
        """A timing wrapper around ``fn`` that files its calls under ``label``."""
        tracer = self
        stack = self._stack
        perf = time.perf_counter
        stat = self.stats.setdefault(label, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args, kwargs)
            parent = stack[-1]
            if leaf:
                frame = _Frame(label, None, parent.owner)
            else:
                frame = _Frame(label, tracer._next_span, None)
                frame.owner = frame
                tracer._next_span += 1
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer._record(frame, parent, stat, t0, t1)
            if post is not None:
                result = post(args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _record(self, frame, parent, stat, t0, t1):
        dt = t1 - t0
        label = frame.label
        parent.child += dt
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - frame.child
        if frame.span is None:
            agg = frame.owner.leaves.get(label)
            if agg is None:
                frame.owner.leaves[label] = [1, dt]
            else:
                agg[0] += 1
                agg[1] += dt
        else:
            self.spans.append((frame.span, parent.owner.span, self.op, label,
                               t0, t1, dt - frame.child, frame.leaves))

    # -- hooks for derived counters ---------------------------------------

    def _after_values(self, args, kwargs, result):
        # the RK4 loop of flow_real evaluates its field four times a step
        if self._stack[-1].label == "flow.flow_real":
            self.counters["real_rk4_evals"] += 1
        return result

    def _before_newton(self, args, kwargs):
        """Count the trial points newton_inverse evaluates itself (not those
        inside its Jacobian); the first evaluation is the start, not a
        trial.  The last trial is kept on the probe, so that the Jacobian
        or return that follows can tell whether Newton went on from it."""
        F = _arg(args, kwargs, 0, "F", None)
        stack, counters = self._stack, self.counters

        def probe(x):
            if stack[-1].label == "flow.newton_inverse":
                if probe.started:
                    counters["newton_trials"] += 1
                    probe.trial = np.array(x, dtype=float)
                probe.started = True
            return F(x)

        probe.started, probe.trial = False, None
        if len(args) > 0:
            return (probe,) + tuple(args[1:])
        kwargs["F"] = probe
        return args

    def _accept_trial(self, F, x) -> None:
        """A trial is accepted when Newton goes on from it: its next
        Jacobian is taken there, or it is the point returned."""
        trial = getattr(F, "trial", None)
        if trial is not None and np.array_equal(trial, x):
            self.counters["newton_accepted"] += 1
            F.trial = None

    def _before_jacobian(self, args, kwargs):
        if self._stack[-1].label == "flow.newton_inverse":
            self.counters["newton_iters"] += 1
            self._accept_trial(_arg(args, kwargs, 0, "F", None),
                               _arg(args, kwargs, 1, "x", None))
        return args

    def _after_newton(self, args, kwargs, x):
        self._accept_trial(_arg(args, kwargs, 0, "F", None), x)
        return x

    def _after_build_F(self, args, kwargs, F):
        return self.wrap("cauchy.F", F, leaf=True)

    def _after_solve(self, args, kwargs, sol):
        self.counters["records"] += len(sol.records)
        self.counters["records_ok"] += sum(bool(r.ok) for r in sol.records)
        return sol

    def _after_in_domain(self, args, kwargs, inside):
        if self._stack[-1].label == "verify.sample_points":
            self.counters["sample_draws"] += 1
            self.counters["sample_accepts"] += bool(inside)
        return inside

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Raw totals so far: per-target calls/total_s/self_s and the
        derived counts (the overhead ratio is the caller's to add)."""
        c = self.counters
        counts = self.call_counts()
        out: dict[str, float] = {}
        for t in TARGETS:
            if t.report:
                calls, total, self_s = self.stats.get(t.label, (0, 0.0, 0.0))
                out[f"{t.label}.calls"] = calls
                out[f"{t.label}.total_s"] = total
                out[f"{t.label}.self_s"] = self_s
        evals = c["real_rk4_evals"] + counts.get("flow._HolomorphicFrame.coefficients", 0)
        out["flow.rk4_steps"] = evals // 4 if evals % 4 == 0 else evals / 4
        out["flow.newton_iters"] = c["newton_iters"]
        out["flow.newton.accepted"] = c["newton_accepted"]
        out["flow.newton.trials"] = c["newton_trials"]
        out["cauchy.F.calls"] = counts.get("cauchy.F", 0)
        out["cauchy.records_ok"] = c["records_ok"]
        out["cauchy.records"] = c["records"]
        out["verify.sample_points.accepts"] = c["sample_accepts"]
        out["verify.sample_points.draws"] = c["sample_draws"]
        return out

    def call_counts(self) -> dict[str, int]:
        return {label: st[0] for label, st in self.stats.items()}

    def write_spans(self, path) -> int:
        """Write the spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, label, t0, t1, self_s, leaves in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": label,
                    "start": t0, "end": t1, "self_s": self_s,
                    "leaves": {k: {"calls": v[0], "total_s": v[1]}
                               for k, v in leaves.items()},
                }) + "\n")
        return len(self.spans)


def _resolve(t: Target):
    mod = importlib.import_module(t.module)
    if "." in t.name:
        cls_name, attr = t.name.split(".")
        cls = getattr(mod, cls_name)
        return mod, cls, attr, cls.__dict__[attr]
    return mod, None, t.name, getattr(mod, t.name)


def bindings(t: Target) -> list[tuple[object, str, object]]:
    """Every (owner, attribute, original) through which the program reaches
    ``t``: the class attribute of a method, or each module binding of a
    function (the home module's own one skipped when it is recursive)."""
    mod, cls, attr, orig = _resolve(t)
    orig = getattr(orig, MARK, orig)
    if cls is not None:
        return [(cls, attr, orig)]
    owners = [m for name, m in sorted(sys.modules.items())
              if m is not None and (name == "cgsys" or name.startswith("cgsys."))]
    if mod not in owners:
        owners.append(mod)
    out = []
    for owner in owners:
        if t.recursive and owner is mod:
            continue
        for name, value in list(vars(owner).items()):
            if getattr(value, MARK, value) is orig:
                out.append((owner, name, orig))
    return out


def installed_wrappers() -> list[str]:
    """Labels of the targets that have a wrapper in any binding."""
    return [t.label for t in TARGETS
            if any(hasattr(getattr(owner, attr), MARK)
                   for owner, attr, _ in bindings(t))]
