"""One fresh interpreter of the benchmark: set up, measure or trace a workload.

    python3 bench/child.py {setup|measure|trace} SPEC.json OUT.json

SPEC.json is written by ``run.py``: the workload's ops, the run length and
a work directory.  The result goes to OUT.json.  cgsys is imported from the
``src`` directory of the checkout this file sits in, never from elsewhere.

* ``setup``: import cgsys and make one cold pass over every distinct op form
  at its smallest size; reports the seconds that took, as measured and
  scaled to the reference speed.
* ``measure``: the cold pass, then whole cycles of the op list, closed loop,
  until the run length has passed and a few cycles are done.  No wrapper may
  be installed, and it is checked.
* ``trace``: the cold pass, then pairs of cycles, the first untraced and the
  second traced, until the run length has passed.  Reports per-layer counts
  and times per traced cycle and writes the spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The host's speed changes by a third or more, for spells from a fraction of
# a second to tens of seconds, so a reference loop is timed between ops and
# op times are scaled to the speed where the loop takes REF_LOOP_S, its
# median on the 2-CPU host this benchmark was written on.
REF_PY_ITERATIONS = 50_000
REF_NP_ITERATIONS = 300
REF_LOOP_S = 0.009
SETUP_REFS = 9      # set-up is scaled by the median of this many loops


def reference_loop() -> float:
    """Seconds a fixed piece of work takes now: a pure-Python loop and small
    numpy operations, the two kinds of work cgsys does.  It calls nothing
    the tracer wraps."""
    import numpy as np
    a = np.eye(3) * 1.5 + 0.1
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_PY_ITERATIONS):
        acc += (i % 7) * 0.5
    m = a
    for _ in range(REF_NP_ITERATIONS):
        m = (m @ a) * 0.5
        v = np.array([m[0, 0], 1.0, 2.0])
        acc += float(np.dot(v, v))
    return time.perf_counter() - t0


def scaled(latencies, refs) -> list[float]:
    """Op times at the reference speed.  ``refs`` holds the loop timed
    before each op and one more after the last; each op is scaled by the
    mean of the loops just before and just after it, which catches spells
    shorter than an op cycle."""
    return [t * 2.0 * REF_LOOP_S / (refs[j] + refs[j + 1])
            for j, t in enumerate(latencies)]


def import_cli():
    """cgsys.cli from this checkout's sources."""
    sys.path.insert(0, str(SRC))
    import cgsys.cli
    if not Path(cgsys.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cgsys imported from {cgsys.cli.__file__}, not {SRC}")
    return cgsys.cli


def run_op(cli, argv):
    """Run one op; returns (seconds, exit code or None, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:     # argparse refusing argv
        code = exc.code
    except Exception as exc:      # a crash is a failed op, not a dead run
        error = f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), error or err.getvalue().strip()


def check_op(expect, code, stdout, error, report: bytes | None):
    """Compare one op's outcome with its expectation.

    Returns (problems, accuracy error).  The accuracy error is the largest
    [oracle] deviation over ok records for ``cauchy``, else the largest
    finite residual of the passing checks; None when there is no report.
    """
    problems = []
    if code != expect["exit"]:
        problems.append(f"exit {code}, expected {expect['exit']} ({error[:200]})")
    verdicts = [ln[len("verdict: "):] for ln in stdout.splitlines()
                if ln.startswith("verdict: ")]
    verdict = verdicts[-1] if verdicts else None
    if verdict != expect["verdict"]:
        problems.append(f"verdict {verdict}, expected {expect['verdict']}")
    if not expect["report"]:
        if report is not None:
            problems.append("wrote a report, expected none")
        return problems, None
    if report is None:
        problems.append("wrote no report")
        return problems, None
    try:
        doc = json.loads(report)
        checks = [(c["name"], c["pass"], c["max_residual"]) for c in doc["checks"]]
        records = [(r["ok"], r.get("oracle_dU"), r.get("oracle_dxi"))
                   for r in doc.get("records", [])]
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"report does not parse: {exc!r}")
        return problems, None
    failing = sorted(name for name, ok, _ in checks if not ok)
    if failing != sorted(expect["failing"]):
        problems.append(f"failing checks {failing}, expected {expect['failing']}")
    tol = expect["oracle_tol"]
    if tol is None:
        residuals = [res for _, ok, res in checks if ok and isinstance(res, float)]
        return problems, max(residuals, default=None)
    errs = [max(du, dxi) for ok, du, dxi in records
            if ok and du is not None and dxi is not None]
    worst = max(errs, default=None)
    if worst is None or not worst < tol:
        problems.append(f"oracle error {worst}, expected below {tol:g}")
    return problems, worst


class Runner:
    """Runs ops of one workload and gates their outputs."""

    def __init__(self, cli, ops, workdir: Path):
        self.cli = cli
        self.ops = ops
        self.workdir = workdir
        self.latencies: list[float] = []
        self.refs: list[float] = []        # reference loop before each op, and at the end
        self.failures: list[str] = []
        self.accuracy_err = 0.0
        self.attempted = 0
        self._digests: dict[int, str] = {}

    def cold_pass(self):
        seen = set()
        for op in self.ops:
            key = tuple(op["cold"])
            if key not in seen:
                seen.add(key)
                path = self.workdir / f"cold-{len(seen)}.json"
                run_op(self.cli, op["cold"] + ["--json", str(path)])

    def cycle(self, tracer=None) -> None:
        """One pass over the op list."""
        for i, op in enumerate(self.ops):
            path = self.workdir / f"op-{i}.json"
            path.unlink(missing_ok=True)
            if tracer is not None:
                tracer.op = f"{self.attempted}"
            self.refs.append(reference_loop())
            dt, code, out, err = run_op(self.cli, op["argv"] + ["--json", str(path)])
            self.latencies.append(dt)
            self.attempted += 1
            report = path.read_bytes() if path.exists() else None
            self._gate(i, op, code, out, err, report)

    def _gate(self, i, op, code, out, err, report):
        problems, acc = check_op(op["expect"], code, out, err, report)
        if report is not None:
            digest = hashlib.sha256(report).hexdigest()
            if self._digests.setdefault(i, digest) != digest:
                problems.append("report bytes differ from this op's first run")
        if acc is not None:
            self.accuracy_err = max(self.accuracy_err, acc)
        if problems:
            self.failures.append(f"{' '.join(op['argv'])}: {'; '.join(problems)}")


def setup(spec) -> dict:
    t0 = time.perf_counter()
    cli = import_cli()
    Runner(cli, spec["ops"], Path(spec["workdir"])).cold_pass()
    raw = time.perf_counter() - t0
    # after the timed part, which must include importing numpy
    refs = [reference_loop() for _ in range(SETUP_REFS)]
    return {"setup_s": raw * REF_LOOP_S / statistics.median(refs), "raw_s": raw}


def measure(spec) -> dict:
    from tracer import installed_wrappers
    cli = import_cli()
    runner = Runner(cli, spec["ops"], Path(spec["workdir"]))
    runner.cold_pass()
    wrapped = installed_wrappers()
    cycles = 0
    start = time.perf_counter()
    while True:
        runner.cycle()
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed >= spec["seconds"] and cycles >= spec["min_cycles"]:
            break
        if elapsed >= spec["time_cap"]:
            break
    runner.refs.append(reference_loop())
    wrapped += installed_wrappers()
    problems = []
    if wrapped:
        problems.append(f"wrappers installed in the untraced run: {sorted(set(wrapped))}")
    return {
        "latencies": runner.latencies,
        "refs": runner.refs,
        "scaled": scaled(runner.latencies, runner.refs),
        "cycles": cycles,
        "elapsed_s": time.perf_counter() - start,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "problems": problems,
        "accuracy_err": runner.accuracy_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(spec) -> dict:
    from tracer import Tracer, metric_specs
    cli = import_cli()
    workdir = Path(spec["workdir"])
    runner = Runner(cli, spec["ops"], workdir)
    runner.cold_pass()
    tracer = Tracer()
    per_cycle_calls = []
    start = time.perf_counter()
    while True:
        runner.cycle()
        before = tracer.call_counts()
        try:
            tracer.install()
            runner.cycle(tracer)
        finally:
            tracer.uninstall()
        per_cycle_calls.append({k: v - before.get(k, 0)
                                for k, v in tracer.call_counts().items()})
        elapsed = time.perf_counter() - start
        if elapsed >= spec["seconds"]:
            break
    runner.refs.append(reference_loop())
    n = len(per_cycle_calls)
    times = scaled(runner.latencies, runner.refs)
    per = len(runner.ops)        # cycles alternate: untraced, traced, ...
    plain = sum(sum(times[c * per:(c + 1) * per]) for c in range(0, 2 * n, 2))
    traced = sum(sum(times[c * per:(c + 1) * per]) for c in range(1, 2 * n, 2))
    traced_raw = sum(sum(runner.latencies[c * per:(c + 1) * per])
                     for c in range(1, 2 * n, 2))
    raw = tracer.snapshot()
    ratios = {
        "flow.newton.accept_ratio": ("flow.newton.accepted", "flow.newton.trials"),
        "cauchy.records_ok_ratio": ("cauchy.records_ok", "cauchy.records"),
        "verify.sample_points.accept_ratio": ("verify.sample_points.accepts",
                                              "verify.sample_points.draws"),
    }
    layers = {}
    for name, _, _ in metric_specs():
        if name in ratios:
            num, den = (raw[k] for k in ratios[name])
            layers[name] = num / den if den else 0.0  # 0: layer did not run
        elif name == "trace.overhead_ratio":
            layers[name] = traced / plain - 1.0
        elif raw[name] % n == 0:
            layers[name] = raw[name] // n   # per traced cycle
        else:
            layers[name] = raw[name] / n
    spans_path = workdir / "spans.jsonl"
    return {
        "layers": layers,
        "cycles_traced": n,
        "traced_cycle_s": traced_raw / n,
        "spans": tracer.write_spans(spans_path),
        "spans_path": os.path.relpath(spans_path, ROOT),
        "attempted": runner.attempted,
        "failures": runner.failures,
        "problems": ([] if all(c == per_cycle_calls[0] for c in per_cycle_calls)
                     else ["traced cycles made different call counts"]),
    }


def main(argv) -> int:
    mode, spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = {"setup": setup, "measure": measure, "trace": trace}[mode](spec)
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
