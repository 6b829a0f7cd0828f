"""cgsys benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload verify-mix --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; cgsys is taken from the checkout's
``src``.  Closed loop, one client: each op is one in-process
``cgsys.cli.main(argv)`` call, started when the previous one returns.

``--trace 0`` prints the end-to-end metrics: set-up time is the median of
several fresh interpreters (import, cold pass); the rest come from one more
fresh interpreter that measures whole cycles of the op list.  ``--trace 1``
prints the per-layer metrics of a separate traced run instead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Generated inputs, reports and spans go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import metric_specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_CYCLES = 5
DEADLINE_S = 170.0      # the whole run, children included
ACCURACY_CAP_DIGITS = 17.0
TAIL_PERCENTILE = 90

# (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class ChildError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(mode: str, spec_path: Path, deadline: float) -> dict:
    """Run bench/child.py in a fresh interpreter and return its result."""
    out_path = spec_path.with_name(f"{mode}-result.json")
    out_path.unlink(missing_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(spec_path), str(out_path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"the {mode} process ran out of time") from None
    if proc.returncode != 0:
        raise ChildError(f"the {mode} process exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def end_to_end(ops: list[dict], res: dict, setups: list[dict]):
    """The end-to-end metrics and the lines that explain them.

    Op times are the scaled ones (see child.REF_LOOP_S).  Throughput and
    the median take every op of the run; the tail is each op's
    TAIL_PERCENTILE over its repeats, and the largest of those.
    """
    times = res["scaled"]
    n = len(ops)
    repeats = len(times) // n
    tails = [statistics.quantiles(times[i::n], n=100, method="inclusive")[TAIL_PERCENTILE - 1]
             for i in range(n)]
    slowest = max(range(n), key=tails.__getitem__)
    err = max(res["accuracy_err"], 10.0 ** -ACCURACY_CAP_DIGITS)
    setup = [s["setup_s"] for s in setups]
    values = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tails[slowest],
        "accuracy_digits": -math.log10(err),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    notes = {
        "ops_per_s": f"{len(times)} ops / the sum of their times",
        "op_p50_s": f"median of the {len(times)} op times",
        "op_tail_s": f"p{TAIL_PERCENTILE} of each op's {repeats} repeats, largest: "
                     f"{workloads.label(ops[slowest]['argv'])}",
        "accuracy_digits": f"-log10 of the largest reference error, {res['accuracy_err']:.3e}",
        "peak_rss_mb": "max resident set of the measuring process",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup)
                   + " (as measured: " + ", ".join(f"{s['raw_s']:.3f}" for s in setups) + ")",
    }
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not (ROOT / "src" / "cgsys" / "cli.py").is_file():
        print(f"error: no cgsys sources at {ROOT / 'src' / 'cgsys'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = workloads.build(args.workload, args.seed, workdir, ROOT)
    spec_path = workdir / "spec.json"
    spec = {
        "ops": ops,
        "workdir": str(workdir),
        "seconds": args.seconds,
        "min_cycles": MIN_CYCLES,
        # leave room for the last cycle and the checks after it
        "time_cap": max(float(args.seconds), DEADLINE_S - 60.0),
    }
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")

    print(f"bench {args.workload} seed {args.seed}: closed loop, 1 client, "
          f"{len(ops)} ops per cycle")
    try:
        if args.trace:
            res = run_child("trace", spec_path, deadline)
            specs = metric_specs()
            metrics = {name: {"value": res["layers"][name], "unit": unit}
                       for name, unit, _ in specs}
            for op in ops:
                print(f"  {workloads.label(op['argv'])}")
            cycle_s = res["traced_cycle_s"]
            print(f"traced {res['cycles_traced']} cycles, each after an untraced "
                  f"one; values are per traced cycle of {cycle_s:.4f} s, with "
                  f"times as a share of it; {res['spans']} spans in "
                  f"{res['spans_path']}")
            for name, unit, _ in specs:
                value = res["layers"][name]
                share = f"  {value / cycle_s:6.1%}" if unit == "s" else ""
                print(f"  {name:<46} {value:.6g} {unit}{share}")
        else:
            setups = [run_child("setup", spec_path, deadline)
                      for _ in range(SETUP_REPEATS)]
            res = run_child("measure", spec_path, deadline)
            values, notes = end_to_end(ops, res, setups)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            print(f"measured {res['cycles']} cycles, {len(res['latencies'])} ops, "
                  f"in {res['elapsed_s']:.1f} s; median seconds per op, "
                  "as measured and scaled:")
            for i, op in enumerate(ops):
                n = len(ops)
                print(f"  {statistics.median(res['latencies'][i::n]):9.4f} "
                      f"{statistics.median(res['scaled'][i::n]):9.4f}  "
                      f"{workloads.label(op['argv'])}")
            for name, unit in END_TO_END:
                print(f"  {name:<16} {values[name]:.6g} {unit}  ({notes[name]})")
    except ChildError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted = res["attempted"]
    failed = len(res["failures"])
    print(f"  fail_frac        {failed}/{attempted} = {failed / attempted:.4g}")
    for line in res["failures"][:20] + res["problems"]:
        print(f"  FAILED {line}")
    print(f"total {time.monotonic() - start:.1f} s")
    correct = failed == 0 and not res["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
