"""The benchmark's workloads: op lists, expected outcomes, generated inputs.

An op is one ``cgsys.cli.main(argv)`` call.  A workload is a fixed list of
ops, run as one cycle, over and over (closed loop, one client).  The
workload seed chooses each op's ``--seed``, the level-set target of
``verify-mix`` and the coefficients of ``cauchy-ambient``'s generated
fields; the program sees only argv and the generated files.

Why each workload is in the benchmark:

* ``verify-mix`` - the symbolic checks, where ``VectorField.values``, the
  expression evaluator and per-point ``lstsq`` do the work, plus
  ``normal-form`` (the only caller of the real RK4 flow) and the intended
  exit-1 outcomes.  No complex flow, no Newton.
* ``cauchy-ambient`` - reconstruction from ambient holomorphic fields:
  complex-time RK4 flows under finite-difference Newton, with the evaluator
  called one point at a time.  No matrix exponential; few ``lstsq`` calls.
* ``cauchy-group`` - reconstruction on matrix groups: ``matrix_exp`` and
  ``complexified_flow_matrix`` under finite-difference Newton and the P/Q/A
  linear algebra.  No RK4 and little evaluation, so it is the bypass case
  for evaluator and RK4 changes.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("verify-mix", "cauchy-ambient", "cauchy-group")

# the op sizes used by the cold pass of set-up: enough to run every symbolic
# preparation once, little numeric work
_COLD_SIZE = {"verify": ("--points", "4"), "normal-form": ("--grid", "3"),
              "cauchy": ("--grid", "2")}

# the line gallery's oracle tolerance, which the generated fields must meet
AMBIENT_CAUCHY_TOL = 1e-6
AMBIENT_C_RANGE = (0.75, 1.25)


def ambient_cgs(c: float) -> str:
    """Initial data for the field (1 + c z^2) d/dz along the real axis, with
    its closed form: U = -Im atan(sqrt(c) z)/sqrt(c), xi = the field."""
    re = f"1 + {c!r}*(x1^2 - y1^2)"
    im = f"2*{c!r}*x1*y1"
    r = f"sqrt({c!r})"
    # Im atan(a + ib) = log((a^2 + (1 + b)^2)/(a^2 + (1 - b)^2))/4
    grad = (f"-log(({c!r}*x1^2 + (1 + {r}*y1)^2)/"
            f"({c!r}*x1^2 + (1 - {r}*y1)^2))/(4*{r})")
    return f"""# Generated: the holomorphic field (1 + c z^2) d/dz with c = {c!r},
# flowed in complex time from the real axis.

[chart]
complex_dim = 1

[cr_data]
params = s
sigma = s; 0
field_1 = {re}; {im}

[oracle]
field_1 = {re}; {im}
grad_1 = {grad}

[config]
cauchy_tol = {AMBIENT_CAUCHY_TOL!r}
grid = 21
u_extent = 0.5
"""


def _op(command, system, *args, seed, exit=0, verdict="pass", failing=(),
        report=True, oracle_tol=None):
    argv = [command, system, *args, "--seed", str(seed)]
    flag, value = _COLD_SIZE[command]
    cold = [command, system, *args]
    if flag in cold:
        cold[cold.index(flag) + 1] = value
    else:
        cold += [flag, value]
    return {
        "argv": argv,
        "cold": cold,
        "expect": {"exit": exit, "verdict": verdict, "failing": list(failing),
                   "report": report, "oracle_tol": oracle_tol},
    }


def _verify_mix(rng, seed_op, workdir):
    level = ",".join(f"{rng.uniform(-1.0, 1.0):.6f}" for _ in range(3))
    return [
        seed_op("verify", "heisenberg", "--points", "120"),
        seed_op("verify", "affine", "--points", "8"),
        seed_op("verify", "model-k1-rotated"),
        seed_op("verify", "line-alt"),
        seed_op("verify", "broken-demo", exit=1, verdict="fail",
                failing=["axioms.normalization"]),
        # '=' keeps a negative first value from reading as an option
        seed_op("verify", "heisenberg", "--points", "20", f"--level-set={level}"),
        seed_op("normal-form", "model-k1"),
        seed_op("normal-form", "model-k1-rotated"),
        seed_op("normal-form", "heisenberg", exit=1, verdict=None, report=False),
    ]


def _cauchy_ambient(rng, seed_op, workdir):
    files = []
    for i in range(2):
        c = round(rng.uniform(*AMBIENT_C_RANGE), 6)
        path = workdir / f"ambient-{i}.cgs"
        path.write_text(ambient_cgs(c), encoding="utf-8")
        files.append(str(path))
    tol = AMBIENT_CAUCHY_TOL
    return [
        seed_op("cauchy", "line", "--grid", "3", oracle_tol=tol),
        seed_op("cauchy", "line", "--grid", "5", oracle_tol=tol),
        seed_op("cauchy", "line", "--grid", "9", oracle_tol=tol),
        seed_op("cauchy", files[0], "--grid", "3", "--u-extent", "0.25", oracle_tol=tol),
        seed_op("cauchy", files[1], "--grid", "3", "--u-extent", "0.25", oracle_tol=tol),
    ]


def _cauchy_group(rng, seed_op, workdir):
    tol = 1e-5   # cauchy_tol of both gallery files
    return [
        seed_op("cauchy", "heisenberg-cr", "--grid", "3", oracle_tol=tol),
        seed_op("cauchy", "heisenberg-cr", "--grid", "4", oracle_tol=tol),
        seed_op("cauchy", "heisenberg-cr", "--grid", "5", oracle_tol=tol),
        seed_op("cauchy", "affine", "--grid", "4", oracle_tol=tol),
        seed_op("cauchy", "affine", "--grid", "5", oracle_tol=tol),
    ]


_OP_LISTS = {"verify-mix": _verify_mix, "cauchy-ambient": _cauchy_ambient,
             "cauchy-group": _cauchy_group}


def build(name: str, seed: int, workdir: Path, root: Path) -> list[dict]:
    """The op list of workload ``name`` for ``seed``.  Generated inputs go
    to ``workdir``; paths in argv are relative to the checkout ``root``."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)

    def seed_op(command, system, *args, **expect):
        return _op(command, system, *args, seed=rng.randrange(1, 2**31), **expect)

    ops = _OP_LISTS[name](rng, seed_op, workdir)
    for op in ops:
        for key in ("argv", "cold"):
            op[key] = [_relative(a, root) for a in op[key]]
    return ops


def _relative(arg: str, root: Path) -> str:
    p = Path(arg)
    if p.is_absolute() and p.is_relative_to(root):
        return str(p.relative_to(root))
    return arg


def label(argv: list[str]) -> str:
    """Short display form of an op: no --seed, generated files by base name."""
    shown = []
    for i, a in enumerate(argv):
        if a == "--seed" or (i > 0 and argv[i - 1] == "--seed"):
            continue
        shown.append(Path(a).name if a.endswith(".cgs") else a)
    return " ".join(shown)
