"""SHA-256 digests of what each ``cgsys`` command line gives back, one per
part (``PARTS``): its exit code, stdout, stderr, warnings and ``--json``
report bytes.  Two source trees that give the same digests on every
command line behave the same on them, to the byte.

The command lines (``argv_list``) are every gallery entry under ``verify``,
``cauchy`` and ``normal-form``, a few larger runs, the contract table's
ambient ``cauchy`` cases (``CONTRACT_CASES``, with their input files:
refusals, rows refused inside the Runge-Kutta loop and NaN rows), and the
``argv`` and ``cold`` op lists of every benchmark workload at seeds 1 and 2,
read from ``bench/workloads.py`` through ``cli_contract``'s loader; the
generated input files are written to a temporary folder, never under
``bench/``.
Each command runs in a fresh folder that holds those files, with
``--json report.json`` added, in one interpreter that imports ``cgsys``
from the given ``src`` root.  That interpreter runs the whole list twice
(``passes``): a cold pass, and then a warm pass in reverse order that finds
every text already loaded and runs each command after other commands than
its cold pass did.  A command line whose digest differs between the two
passes raises ``HistoryError``: its output depends on what the process ran
before, such as a cache whose content depends on which op filled it.

    python tests/report_digests.py --src SRC --out DIGESTS.json
    python tests/report_digests.py --compare BASE.json HEAD.json

``--compare`` lists the command lines whose digests differ, each with the
parts that moved, or that only one file holds, and exits 0 either way: a
tree that changes bytes on purpose is not a failure.  A command that raises, or that gives another
digest on its warm pass, makes the run fail.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPORT = "report.json"
PARTS = ("exit code", "stdout", "stderr", "warnings", "report")
SEEDS = (1, 2)
EXTRA = (
    ["cauchy", "affine", "--u-extent", "1.5"],
    ["cauchy", "affine", "--u-extent", "3"],
    ["cauchy", "line", "--grid", "9"],
    ["cauchy", "heisenberg-cr", "--u-extent", "1.5"],
    ["cauchy", "heisenberg-cr", "--grid", "9"],
    ["verify", "heisenberg", "--points", "5000", "--seed", "3"],
    ["verify", "affine", "--points", "2000", "--seed", "4"],
)
# cases of cli_contract.CASES, run with their files and without their own --json
CONTRACT_CASES = ("cauchy-not-holomorphic", "cauchy-not-tangent", "cauchy-ambient-tight",
                  "cauchy-ambient-poles", "cauchy-log-sigma", "verify-overflow-product",
                  "verify-overflow-exp", "verify-overflow-composed")


def argv_list() -> tuple[list[list[str]], dict[str, str]]:
    """The distinct command lines, in a stable order, and the generated
    input files they name: relative path -> text."""
    from cli_contract import CASES, REPORT, _workloads
    from cgsys.dsl import builtin_names

    argvs = [[command, name] for command in ("verify", "cauchy", "normal-form")
             for name in builtin_names()]
    argvs += [list(a) for a in EXTRA]
    files = {}
    for case in (case for case in CASES if case.id in CONTRACT_CASES):
        argv = case.argv
        if argv[-2:] == ["--json", REPORT]:
            argv = argv[:-2]
        argvs.append(argv)
        files.update(case.files)
    workloads = _workloads()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                ops = workloads.build(name, seed, root / f"{name}-{seed}", root)
                argvs += [op[key] for op in ops for key in ("argv", "cold")]
        for path in root.rglob("*"):
            if path.is_file():
                files[path.relative_to(root).as_posix()] = path.read_text(encoding="utf-8")
    return list(map(list, dict.fromkeys(map(tuple, argvs)))), files


def run_here(argvs, files) -> dict[str, dict[str, str]]:
    """Each command line's digests from ``cgsys.cli.main`` in this
    interpreter, part -> digest, keyed by the command line joined by
    spaces."""
    from cgsys.cli import main

    digests, home = {}, os.getcwd()
    for argv in argvs:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                (Path(tmp) / name).parent.mkdir(parents=True, exist_ok=True)
                (Path(tmp) / name).write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter("always")
                os.chdir(tmp)
                try:
                    code = main([*argv, "--json", REPORT])
                except SystemExit as exc:
                    code = 0 if exc.code is None else exc.code
                finally:
                    os.chdir(home)
            report = Path(tmp) / REPORT
            record = [code, out.getvalue(), err.getvalue(),
                      [f"{w.category.__name__}: {w.message}" for w in caught],
                      report.read_bytes().hex() if report.exists() else None]
        digests[" ".join(argv)] = {part: hashlib.sha256(json.dumps(value).encode()).hexdigest()
                                   for part, value in zip(PARTS, record)}
    return digests


def passes(argvs, run) -> tuple[dict, dict]:
    """``run(argvs)`` and then ``run`` of the command lines in reverse
    order, each a dict keyed by command line; the warm pass's is given in
    the cold pass's order."""
    cold, warm = run(argvs), run(argvs[::-1])
    return cold, {argv: warm[argv] for argv in cold}


class HistoryError(RuntimeError):
    """A command line gave other bytes on its warm pass than on its cold one."""


def digests(src, argvs=None) -> dict[str, dict[str, str]]:
    """The digests of the command lines ``argvs`` (default: ``argv_list``)
    with ``cgsys`` imported from the source root ``src``, in a fresh
    interpreter that writes no bytecode and runs them twice (``passes`` of
    ``run_here``): the cold pass's digests, which HistoryError refuses where
    the warm pass differs."""
    argvs, files = argv_list() if argvs is None else (argvs, argv_list()[1])
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run([sys.executable, "-B", __file__, "--here"], env=env, check=True,
                          input=json.dumps([argvs, files]), capture_output=True, text=True)
    cold, warm = json.loads(done.stdout)
    if changed := moved(cold, warm):
        raise HistoryError(f"{len(changed)} command lines depend on the process's history, "
                           f"their warm pass differs from their cold one: {changed}")
    return cold


def moved(base: dict, head: dict) -> list[str]:
    """The command lines whose digests differ, or that one side lacks."""
    return [argv for argv in dict.fromkeys([*base, *head]) if base.get(argv) != head.get(argv)]


def parts_moved(base: dict | None, head: dict | None) -> str:
    """The parts of one command line whose digests differ, or the side that
    holds it alone."""
    if base is None or head is None:
        return "only in base" if head is None else "only in head"
    return ", ".join(part for part in PARTS if base.get(part) != head.get(part))


def _main(args=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", help="the source root to import cgsys from")
    ap.add_argument("--out", help="write the digests here (default: stdout)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    ap.add_argument("--here", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(args)
    if args.here:
        # the child: cgsys from PYTHONPATH, command lines and files on stdin
        import cgsys
        if not Path(cgsys.__file__).resolve().is_relative_to(Path(os.environ["PYTHONPATH"])):
            raise SystemExit(f"cgsys was imported from {cgsys.__file__}")
        argvs, files = json.loads(sys.stdin.read())
        print(json.dumps(passes(argvs, lambda order: run_here(order, files))))
        return 0
    if args.compare:
        base, head = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        changed = moved(base, head)
        print(f"{len(changed)} of {len(set(base) | set(head))} command lines moved")
        for argv in changed:
            print(f"- `{argv}`: {parts_moved(base.get(argv), head.get(argv))}")
        return 0
    if not args.src:
        ap.error("give --src or --compare")
    text = json.dumps(digests(args.src), indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
