"""The CLI contract: one table of ``cgsys`` command lines and one checker.

A case runs its argv in a fresh directory that holds the files it names.
It allows some exit codes, lists patterns (``re.search``) that stdout and
stderr must hold or that neither may hold, and predicates on its report
(``--json report.json``); ``rerun`` asks a second run for the same code,
stdout and report bytes.  ``universal_faults`` holds every run, on any
input, to exit code 0, 1 or 2, no ``Traceback``, no warning, an exit-2
stderr that starts ``input error:`` or ``sampling error:``, and an exit-1
stderr that is empty or starts ``error:``, ``refused:`` or
``transversality failure:``.

``run(argv, cwd) -> (code, stdout, stderr, warnings)``: ``in_process``
calls ``cgsys.cli.main`` (tier-1, ``test_cli_contract.py``), and
``console_script`` runs the installed ``cgsys``, against which running this
file checks every case: ``python tests/cli_contract.py``.
"""

from __future__ import annotations

import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import jsonschema

from cgsys.cli import main
from cgsys.dsl import builtin_names, builtin_text, load_builtin
from cgsys.flow import DEFAULT_CONFIG, STEP_TOL_FRACTION
from cgsys.report import schema_text

REPORT = "report.json"
SCHEMA = json.loads(schema_text())


@cache
def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


def ambient_cgs(c: float) -> str:
    """The benchmark's generated file for the field (1 + c z^2) d/dz, from
    ``bench/workloads.py``, read without writing bytecode into bench/."""
    return _workloads().ambient_cgs(c)


def edited(base: str, old: str, new: str) -> str:
    """``base`` (a builtin name or a text) with its first ``old``, which must
    occur, replaced by ``new``."""
    text = builtin_text(base) if base in builtin_names() else base
    assert old in text, (base, old)
    return text.replace(old, new, 1)


# --- report predicates ------------------------------------------------------------


def valid(doc) -> bool:
    """The report validates against the shipped schema."""
    try:
        jsonschema.validate(doc, SCHEMA)
    except jsonschema.ValidationError:
        return False
    return True


def affine_oracle_bound(doc) -> bool:
    """The group flow's Frechet derivatives reach only Newton and xi, so a
    degraded dF that still converges shows here: at least 40 non-null oracle
    errors on ok records, all <= 1e-14 (null: the closed form is undefined)."""
    errs = [r[key] for r in doc["records"] if r["ok"]
            for key in ("oracle_dU", "oracle_dxi") if r[key] is not None]
    return len(errs) >= 40 and max(errs) <= 1e-14


def some_row_refused(doc) -> bool:
    """At least one record is refused."""
    return any(not r["ok"] for r in doc["records"])


def ok_row_with_null_oracle(doc) -> bool:
    """An ok record where the closed form is undefined: its oracle is null."""
    return any(r["ok"] and r["oracle_dU"] is None for r in doc["records"])


def group_layout_closed(doc) -> bool:
    """Matrix-group records carry no rk_steps, and a record with a key the
    schema does not name is invalid."""
    first, *rest = doc["records"]
    extra = dict(doc, records=[dict(first, jxi=first["query"]), *rest])
    return all("rk_steps" not in r for r in doc["records"]) and not valid(extra)


TIGHT_NEWTON_TOL = 1e-13


def flow_meets_its_tolerance(doc) -> bool:
    """There are ok records, and each one's flow meets TIGHT_NEWTON_TOL *
    STEP_TOL_FRACTION at its solution or takes the most steps its |u| allows."""
    ok = [r for r in doc["records"] if r["ok"]]
    return bool(ok) and all(
        r["rk_error"] <= TIGHT_NEWTON_TOL * STEP_TOL_FRACTION or r["rk_steps"]
        == max(1, math.ceil(DEFAULT_CONFIG.steps_per_unit * sum(map(abs, r["u"]))))
        for r in ok)


# --- the table --------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    id: str
    command: str                          # the argv, split on whitespace
    codes: tuple[int, ...] = (0,)
    files: dict[str, str] = field(default_factory=dict)
    stdout: tuple[str, ...] = ()          # patterns stdout must hold
    stderr: tuple[str, ...] = ()          # patterns stderr must hold
    absent: tuple[str, ...] = ()          # patterns neither may hold
    report: tuple = ()                    # predicates on the report
    rerun: bool = False

    @property
    def argv(self) -> list[str]:
        return self.command.split()


MINIMAL = "\n[chart]\ncomplex_dim = 1\n\n[system]\nk = 1\nfield_1 = 1; 0\ngrad_1 = -y1\n"
CR_HEAD = "[chart]\ncomplex_dim = 1\n\n[cr_data]\nparams = s\n"
INPUT_ERROR = ("^input error:",)
# an expression nested or chained past expr.MAX_DEPTH, in grad_1 on line 8
TOO_DEEP = (r"^input error: \[system\] grad_1: ", "MAX_DEPTH", r"\(line 8\)\n\Z")


def _grad(expr: str) -> dict[str, str]:
    return {"grad.cgs": edited(MINIMAL, "grad_1 = -y1", f"grad_1 = {expr}")}


CASES = (
    # one row per builtin, in gallery order
    Case("list", "list", stdout=("".join([r"\A", *(
        rf"  {re.escape(name)} +N=\d+  .*\n" for name in builtin_names()), r"\Z"]),)),
    Case("verify-heisenberg", "verify heisenberg"),
    Case("verify-heisenberg-level-set", "verify heisenberg --points 20 --level-set=0.1,-0.2,0.3"),
    # Newton's residual norms near the largest doubles do not overflow
    Case("verify-level-set-1e308", "verify heisenberg --level-set=1e308,1e308,1e308"),
    # classify reads holomorphy off the fields' Jacobians
    # a UTF-8 file saved with a byte-order mark loads
    Case("verify-bom", "verify bom.cgs", files={"bom.cgs": "\ufeff" + builtin_text("line")}),
    Case("verify-line-alt", "verify line-alt", stdout=("holomorphic=False",)),
    Case("verify-model-k1", "verify model-k1", stdout=("holomorphic=True",)),
    # every [system] of the gallery passes at a second point count and seed,
    # except broken-demo
    *(Case(f"gallery-{name}", f"verify {name} --points 37 --seed 5", (int(name == "broken-demo"),))
      for name in builtin_names() if load_builtin(name).system is not None),
    # a domain fault at a sample point, a literal that overflows a double and
    # expressions past expr.MAX_DEPTH are input errors: the parser refuses
    # non-finite literals, so no tree holds an infinite constant, and each
    # deep expression overflowed Python 3.11's default recursion limit when
    # loaded before the bound
    Case("verify-log-domain", "verify grad.cgs", (2,),
         {"grad.cgs": MINIMAL + "domain = log(x1)\n"}, stderr=INPUT_ERROR),
    Case("verify-inf-literal", "verify grad.cgs", (2,),
         {"grad.cgs": MINIMAL + "domain = log(x1 - 1e309)\n"},
         stderr=(*INPUT_ERROR, "bad number")),
    Case("verify-grad-1e999", "verify grad.cgs", (2,), _grad("sqrt(x1 - 1e999)"),
         stderr=(*INPUT_ERROR, "bad number")),
    Case("verify-deep-parens", "verify grad.cgs --points 3", (2,),
         _grad("(" * 246 + "y1" + ")" * 246), stderr=TOO_DEEP),
    Case("verify-deep-parens-sum", "verify grad.cgs --points 3", (2,),
         _grad("(" * 245 + "x1 + y1" + ")" * 245), stderr=TOO_DEEP),
    Case("verify-deep-sum", "verify grad.cgs --points 3", (2,),
         _grad(" + ".join(["y1"] + ["x1"] * 499)), stderr=TOO_DEEP),
    Case("verify-deep-product", "verify grad.cgs --points 3", (2,),
         _grad("*".join(["y1"] + ["x1"] * 248)), stderr=TOO_DEEP),
    Case("cauchy-line", "cauchy line --grid 3"),
    Case("cauchy-heisenberg-cr", "cauchy heisenberg-cr --grid 3"),
    # the compiled [oracle] comparison, with atan2 and rows where a closed
    # form is undefined
    Case("cauchy-affine-oracle", f"cauchy affine --grid 5 --json {REPORT}",
         report=(valid, affine_oracle_bound)),
    # Newton solutions outside param_domain refuse their own queries
    Case("cauchy-affine-wide", f"cauchy affine --u-extent 3 --grid 5 --json {REPORT}",
         (1,), report=(valid, some_row_refused, ok_row_with_null_oracle, group_layout_closed),
         rerun=True),
    # cauchy and normal-form draw no samples, but check --seed as verify does
    *(Case(f"seed-{command}", f"{command} line --grid 2 --seed -5", (2,),
           stderr=(r"\Ainput error: --seed: must be an integer >= 0, got -5\n\Z",))
      for command in ("cauchy", "normal-form")),
    # an ambient field that is not holomorphic has no complex-time flow
    Case("cauchy-not-holomorphic", "cauchy not-holomorphic.cgs --grid 3", (1,),
         {"not-holomorphic.cgs": CR_HEAD + "sigma = s; 0\nfield_1 = 1 + y1; 0\n"},
         stderr=("^error:", "Cauchy-Riemann")),
    Case("cauchy-nan-base", "cauchy nan-base.cgs --grid 2", (2,), {"nan-base.cgs": edited(
        "affine", "base = 0.0 0.0 / 0.0 1.0", "base = 0.0 0.0 / 0.0 nan")}, stderr=INPUT_ERROR),
    # non-transverse-demo's field vanishes at s = 0
    Case("cauchy-non-transverse", "cauchy non-transverse-demo", (1,),
         stderr=("^transversality failure", r"witness parameters: \[0\.0\]")),
    # group exponentials that overflow, or whose squarings would leave too few
    # correct bits, are refused where F places the queries, before a report
    *(Case(f"cauchy-{name}-u-{extent}",
           f"cauchy {name} --u-extent {extent} --grid 2 --json {REPORT}", (1,),
           stderr=(r"\Aerror: matrix exponential is not finite "
                   r"\(overflow, or past matrix_exp's accuracy bound\)\n\Z",))
      for name, extent in (("affine", "1e308"), ("heisenberg-cr", "1e308"),
                           ("affine", "5e307"))),
    # an ambient field at a tight Newton tolerance: every query resolves
    Case("cauchy-ambient-tight", "cauchy amb.cgs --grid 3 --u-extent 0.25 "
         f"--newton-tol {TIGHT_NEWTON_TOL!r} --json {REPORT}",
         files={"amb.cgs": ambient_cgs(1.25)}, report=(flow_meets_its_tolerance,)),
    # flows that run into the field's poles: rows refused inside the
    # Runge-Kutta loop turn NaN there and step on
    Case("cauchy-ambient-poles", f"cauchy amb-poles.cgs --grid 4 --u-extent 2.0 --json {REPORT}",
         (1,), {"amb-poles.cgs": ambient_cgs(3.0)}, report=(valid,), rerun=True),
    # two queries that Newton refuses run every later stage at NaN, through
    # sigma = log(s)
    Case("cauchy-log-sigma", f"cauchy logsig.cgs --grid 9 --u-extent 3 --json {REPORT}", (1,),
         {"logsig.cgs": CR_HEAD + "sigma = log(s); 0\nfield_1 = x1/(x1^2 + y1^2); "
          "-y1/(x1^2 + y1^2)\nbase_params = 2\n"}, report=(valid,), rerun=True),
    Case("normal-form-model-k1", "normal-form model-k1"),
    Case("normal-form-model-k1-rotated", "normal-form model-k1-rotated"),
    Case("normal-form-line", "normal-form line"),
    # broken-demo fails profile-shift-invariance; systems that are not
    # holomorphic abelian are refused
    Case("normal-form-broken-demo", "normal-form broken-demo", (1,), stdout=("verdict: fail",)),
    Case("normal-form-heisenberg", "normal-form heisenberg", (1,), stderr=("^refused:",)),
    Case("normal-form-line-alt", "normal-form line-alt", (1,), stderr=("^refused:",)),
    # the profile's own overflow is an input error at finite coordinates
    Case("normal-form-extent-1e308", "normal-form model-k1 --extent 1e308", (2,),
         stderr=("^input error: overflow in ",), absent=("nan", r"\b(nan|inf)\b")),
)
assert len({case.id for case in CASES}) == len(CASES)


# --- running and checking ---------------------------------------------------------


def in_process(argv, cwd):
    """``cgsys.cli.main(argv)`` in ``cwd``, recording every warning: a
    SystemExit gives its code, an uncaught exception its traceback on stderr
    and code 1, as the interpreter would."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        os.chdir(cwd)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception:
            traceback.print_exc()
            code = 1
        finally:
            os.chdir(home)
    return code, out.getvalue(), err.getvalue(), [
        f"{w.category.__name__}: {w.message}" for w in caught]


def console_script(argv, cwd):
    """The installed ``cgsys`` run in ``cwd``; its warnings are the stderr
    lines that name one."""
    done = subprocess.run([shutil.which("cgsys"), *argv], cwd=cwd,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr, [
        line for line in done.stderr.splitlines() if "Warning" in line]


STDERR_STARTS = {1: ("error:", "refused:", "transversality failure:"),
                 2: ("input error:", "sampling error:")}


def universal_faults(code, stderr, caught) -> list[str]:
    """The rules that every run keeps on any input: each one it breaks."""
    faults = [] if code in (0, 1, 2) else [f"exit code {code} is not 0, 1 or 2"]
    if "Traceback" in stderr:
        faults.append("stderr holds a traceback")
    if caught:
        faults.append(f"warnings {caught}")
    starts = STDERR_STARTS.get(code)
    if starts and (code == 2 or stderr) and not stderr.startswith(starts):
        faults.append(f"exit-{code} stderr starts with none of {starts}")
    return faults


def check(case: Case, run) -> None:
    """Run ``case`` with ``run`` in a fresh directory; raise an
    AssertionError that names every rule it breaks."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd, report = Path(tmp), Path(tmp) / REPORT
        for name, text in case.files.items():
            (cwd / name).write_text(text, encoding="utf-8")
        code, out, err, caught = run(case.argv, cwd)
        faults = universal_faults(code, err, caught)
        if code not in case.codes:
            faults.append(f"exit code {code} is not in {case.codes}")
        faults += [f"stdout lacks /{p}/" for p in case.stdout if not re.search(p, out)]
        faults += [f"stderr lacks /{p}/" for p in case.stderr if not re.search(p, err)]
        faults += [f"output holds /{p}/" for p in case.absent
                   if re.search(p, out) or re.search(p, err)]
        first = report.read_bytes() if report.exists() else None
        if first is None and (case.report or case.rerun):
            faults.append("no report written")
        faults += [f"report fails {p.__name__}" for p in case.report
                   if first is not None and not p(json.loads(first))]
        if case.rerun:
            report.unlink(missing_ok=True)
            code2, out2, err2, caught2 = run(case.argv, cwd)
            faults += [f"second run: {f}" for f in universal_faults(code2, err2, caught2)]
            again = report.read_bytes() if report.exists() else None
            if (code2, out2, again) != (code, out, first):
                faults.append("a second run differs")
    assert not faults, f"{case.id}: {'; '.join(faults)}\nstderr:\n{err}"


if __name__ == "__main__":
    if shutil.which("cgsys") is None:
        sys.exit("no cgsys console script on PATH: install the package first")
    failed = []
    for case in CASES:
        try:
            check(case, console_script)
            print(f"ok   {case.id}")
        except AssertionError as err:
            failed.append(case.id)
            print(f"FAIL {err}")
    print(f"{len(CASES) - len(failed)} of {len(CASES)} cases pass")
    sys.exit(1 if failed else 0)
