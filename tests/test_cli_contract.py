"""Tier-1 runs the CLI contract table (``cli_contract.py``) in process, and
shows its checker one fault at a time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cli_contract import CASES, REPORT, Case, check, in_process, valid


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_cli_contract(case):
    check(case, in_process)


def test_the_runtime_imports_numpy_only():
    # the Runge-Kutta tableau is embedded, not read from scipy (an extra of
    # the tests only); a fresh interpreter, since the suite imports scipy
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", "import sys, cgsys.cli, cgsys.flow; "
                    "assert 'scipy' not in sys.modules"], env=env, check=True)


CONTROL = Case("control", f"cauchy line --grid 2 --json {REPORT}",
               stdout=("verdict: pass",), report=(valid,), rerun=True)


def _changed_on_rerun(result, report, n):
    if n == 2:
        report.write_text(report.read_text() + "\n")
    return result


def _invalid_report(result, report, n):
    report.write_text('{"verdict": "pass"}\n')
    return result


# fault -> (the rule that names it, a map of one run's result, its report
# path and the number of the run)
FAULTS = {
    "exit code": ("exit code 3", lambda r, *_: (3, *r[1:])),
    "traceback": ("traceback", lambda r, *_: (*r[:2], r[2] + "Traceback (most recent", r[3])),
    "warning": ("warnings", lambda r, *_: (*r[:3], ["RuntimeWarning: overflow"])),
    "missing pattern": ("stdout lacks", lambda r, *_: (r[0], "", *r[2:])),
    "unnamed input error": ("exit-2 stderr", lambda r, *_: (2, r[1], "no such file\n", r[3])),
    "rerun differs": ("a second run differs", _changed_on_rerun),
    "invalid report": ("report fails valid", _invalid_report),
}


def test_the_checker_passes_the_unfaulted_control():
    check(CONTROL, in_process)


@pytest.mark.parametrize("fault", FAULTS)
def test_the_checker_rejects_each_fault(fault):
    rule, inject = FAULTS[fault]
    runs = []

    def run(argv, cwd):
        runs.append(argv)
        return inject(in_process(argv, cwd), cwd / REPORT, len(runs))

    with pytest.raises(AssertionError, match=rule):
        check(CONTROL, run)
