"""Command-line driver: verify | cauchy | normal-form | list.

Exit codes: 0 all checks pass; 1 a check fails, or a construction is
refused with one ``error:``, ``refused:`` or ``transversality failure:``
message; 2 the input is malformed.  Exit 2 prints one ``input error:``
line for a file that does not load, a setting outside its rule
(``dsl.SETTINGS``) or a sample point outside an expression's domain, a
``sampling error:`` line when too few sample points lie in the domain, and
argparse's ``usage:`` and ``error:`` lines for a flag that the command
does not take.  ``--json PATH`` writes the deterministic report document
described by the shipped schema.
"""

from __future__ import annotations

import argparse
import math
import sys as _sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .cauchy import (
    CONSTRUCTION_TOL, CauchyError, CauchySolution, TransversalityError, grid_queries, solve,
)
from .dsl import (
    SETTINGS, LoadError, SystemFile, builtin_names, check_rows, load, load_builtin,
)
from .expr import DomainError
from .flow import DEFAULT_CONFIG, FlowConfig, FlowError
from .report import RecordColumns, build_document, check_entry, input_digest, write_report
from .verify import (
    GridSpec, NormalFormRefusal, SamplingError, check_level_set, normal_form,
    symmetric_axis, verify_system,
)

__all__ = ["main"]


# normal-form's --extent has no [config] key; like a tolerance it must be
# finite and > 0
_RULES = {**SETTINGS, "extent": SETTINGS["tol"]}


def _resolve(name_or_path: str) -> SystemFile:
    if name_or_path in builtin_names():
        return load_builtin(name_or_path)
    if not Path(name_or_path).exists():
        raise LoadError(f"'{name_or_path}' is neither a builtin system nor a file")
    return load(name_or_path)


def _setting(sf: SystemFile, args, flag: str, default, key: str | None = None):
    """The value of ``--flag``, else of the file's [config] ``key`` (named
    like the flag unless given), else ``default``.  Flag values pass the
    same checked converter as [config] values."""
    key = key or flag
    value = getattr(args, flag, None)
    if value is None:
        return sf.config.get(key, default)
    try:
        return _RULES[key](value)
    except ValueError as err:
        raise LoadError(f"--{flag.replace('_', '-')}: {err}") from None


def _flow_config(sf: SystemFile, args) -> FlowConfig:
    """The defaults with the flags' and the file's flow settings (``_setting``)."""
    return DEFAULT_CONFIG.with_(**{key: _setting(sf, args, key, getattr(DEFAULT_CONFIG, key))
                                   for key in ("steps_per_unit", "newton_tol")})


def _level_target(text: str, k: int) -> list[float]:
    """The --level-set values: k finite numbers, one per gradient component."""
    try:
        target = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise LoadError(f"level-set values must be numbers, got {text!r}") from None
    if len(target) != k or not all(map(math.isfinite, target)):
        raise LoadError(f"level-set needs {k} finite comma-separated values "
                        f"(one per gradient component), got {text!r}")
    return target


def _print_check(entry: dict) -> None:
    flag = "PASS" if entry["pass"] else "FAIL"
    res = entry["max_residual"]
    res_s = "   n/a   " if res is None or res != res else f"{res:.3e}"
    print(f"  {entry['name']:<44} max {res_s}  tol {entry['tolerance']:<8g} {flag}")


def _finish(doc: dict, json_path: str | None) -> int:
    """Write the report when asked, print the verdict and return the exit
    code."""
    if json_path:
        write_report(doc, json_path)
        print(f"report written to {json_path}")
    print("verdict:", doc["verdict"])
    return 0 if doc["verdict"] == "pass" else 1


def cmd_verify(args) -> int:
    sf = _resolve(args.system)
    if sf.system is None:
        raise LoadError(f"'{sf.name}' has no [system] section to verify")
    points = check_rows(_setting(sf, args, "points", 100), "points")
    seed = _setting(sf, args, "seed", 0)
    tol = _setting(sf, args, "tol", 1e-9)

    sys_ = sf.system
    target = (None if args.level_set is None
              else _level_target(args.level_set, sys_.k))
    rep = verify_system(sys_, points, seed, tol)
    cls = rep.classification
    entries = [check_entry(c.name, c.anchor, c.max_residual, c.tolerance, c.points)
               for c in rep.checks]
    if target is not None:
        rec = check_level_set(sys_, target, seed=seed)
        entries.append(check_entry(
            "level-set", "level-set-cr-type", 0.0 if rec.ok else 1.0, 0.5,
            len(rec.points)))
        if rec.note:
            print(f"level-set note: {rec.note}")

    print(f"verify {sf.name}: {points} points, seed {seed}, tol {tol:g}")
    for e in entries:
        _print_check(e)
    print(f"classification: holomorphic={cls.holomorphic} "
          f"abelian={cls.abelian} harmonic={cls.harmonic}")

    doc = build_document(input_digest(sf.text), entries,
                         classification=cls.as_dict(),
                         system=sf.name, seed=seed, points=points)
    return _finish(doc, args.json)


def cmd_cauchy(args) -> int:
    sf = _resolve(args.system)
    if sf.cr is None:
        raise LoadError(f"'{sf.name}' has no [cr_data] section")
    cfg = _flow_config(sf, args)
    _setting(sf, args, "seed", 0)      # checked like verify's; no samples are drawn
    grid = _setting(sf, args, "grid", 5)
    extent = _setting(sf, args, "u_extent", 0.5)
    tol = _setting(sf, args, "tol", 1e-5, key="cauchy_tol")

    data = sf.cr
    check_rows(grid ** data.k, f"grid^k = {grid}^{data.k}")
    try:
        axes = [symmetric_axis(extent, grid)] * data.k
        queries = grid_queries(data, axes, cfg=cfg)
        sol = solve(data, queries, cfg, oracle=sf.oracle)
    except TransversalityError as err:
        print(f"transversality failure: {err}", file=_sys.stderr)
        if err.witness is not None:
            print(f"witness parameters: {np.asarray(err.witness).tolist()}",
                  file=_sys.stderr)
        return 1

    n, n_ok = len(sol.query), int(sol.ok_rows.sum())
    entries = [
        check_entry("cauchy.queries-resolved", "flow-coordinates-invertible",
                    float(n - n_ok), 0.5, n),
        check_entry("cauchy.identities-internal", "construction-identities",
                    sol.max_axiom_residual, CONSTRUCTION_TOL, n_ok),
    ]
    if sf.oracle is not None:
        entries.append(check_entry(
            "cauchy.gradient-oracle", "gradient-map-closed-form",
            sol.max_oracle_dU, tol, n_ok))
        entries.append(check_entry(
            "cauchy.field-oracle", "extending-fields-closed-form",
            sol.max_oracle_dxi, tol, n_ok))

    print(f"cauchy {sf.name}: {n} queries "
          f"(grid {grid}^{data.k}, |u| <= {extent:g})")
    for e in entries:
        _print_check(e)
    if sol.integrability_note:
        print(f"note: {sol.integrability_note}")

    doc = build_document(input_digest(sf.text), entries, system=sf.name,
                         records=_report_records(sol))
    return _finish(doc, args.json)


def _report_records(sol: CauchySolution) -> RecordColumns:
    """The report's records of a solution, by column: every record holds
    its query, ok, its counts and, on ambient fields, rk_steps and rk_error;
    an ok record its reconstruction (with an oracle, the deviations from
    it), a refused one its error."""
    shared = {"query": sol.query, "ok": sol.ok_rows, "newton_iters": sol.newton_iters,
              "halvings": sol.halvings}
    if sol.rk_steps is not None:
        shared.update(rk_steps=sol.rk_steps, rk_error=sol.rk_error)
    ok_only = {"params": sol.params, "u": sol.u, "U": sol.U, "xi": sol.xi,
               "residual_d": sol.residual_d, "residual_dc": sol.residual_dc}
    if sol.oracle_dU is not None:
        ok_only.update(oracle_dU=sol.oracle_dU, oracle_dxi=sol.oracle_dxi)
    return RecordColumns(sol.ok_rows, shared, ok_only, {"error": sol.errors})


def cmd_normal_form(args) -> int:
    sf = _resolve(args.system)
    if sf.system is None:
        raise LoadError(f"'{sf.name}' has no [system] section")
    _setting(sf, args, "seed", 0)      # checked like verify's; no samples are drawn
    grid_n = _setting(sf, args, "grid", 11)
    extent = _setting(sf, args, "extent", 0.5)
    tol = _setting(sf, args, "tol", 1e-6)
    cfg = _flow_config(sf, args)
    check_rows(grid_n ** 2, f"grid^2 = {grid_n}^2")
    p = np.zeros(sf.chart.dim)
    try:
        nf = normal_form(sf.system, p, GridSpec(nx=grid_n, ny=grid_n, extent=extent),
                         cfg)
    except NormalFormRefusal as err:
        print(f"refused: {err}", file=_sys.stderr)
        return 1
    entries = [check_entry(f"normal-form.{name}", anchor, res, t, nf.points)
               for name, anchor, res, t in (
                   ("straightened-fields", "fields-become-translations",
                    nf.pushforward_residual, max(tol, 1e-6)),
                   ("profile-shift-invariance", "profile-independent-of-flow-times",
                    nf.independence_residual, max(tol, 1e-7)),
                   ("time-holomorphy", "coordinates-holomorphic-in-time",
                    nf.time_cr_residual, 1e-6))]
    print(f"normal-form {sf.name}: slice pair "
          f"{'-' if nf.slice_pair is None else nf.slice_pair + 1}, "
          f"{len(nf.xs)}x{len(nf.ys)} grid")
    for e in entries:
        _print_check(e)
    profile = {"xs": nf.xs, "ys": nf.ys, "values": nf.F}
    doc = build_document(input_digest(sf.text), entries, system=sf.name,
                         profile=profile)
    return _finish(doc, args.json)


def cmd_list(args) -> int:
    names = builtin_names()
    if args.json:
        doc = {"version": __version__, "builtins": list(names)}
        write_report(doc, args.json)
    for name in names:
        sf = load_builtin(name)
        kinds = []
        if sf.system is not None:
            kinds.append(f"system k={sf.system.k}")
        if sf.cr is not None:
            kinds.append(f"cr-data k={sf.cr.k}")
        print(f"  {name:<22} N={sf.chart.N}  {', '.join(kinds)}")
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing reads it and
    makes a new namespace each call, so calls share nothing else."""
    ap = argparse.ArgumentParser(
        prog="cgsys",
        description="Construct and numerically verify complex gradient systems.")
    ap.add_argument("--version", action="version", version=f"cgsys {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write the JSON report here")
    common.add_argument("--seed", type=int, default=None, help="seed of verify's sample "
                        "points; cauchy and normal-form accept it but draw no samples from it")
    common.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("verify", parents=[common],
                       help="run every identity check on a [system]")
    p.add_argument("system", help="builtin name or file path")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--level-set", default=None, metavar="V1,V2,...",
                   help="also verify the CR type of one level set")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cauchy", parents=[common],
                       help="reconstruct a system from [cr_data]")
    p.add_argument("system", help="builtin name or file path")
    p.add_argument("--grid", type=int, default=None,
                   help="grid points per flow-time axis")
    p.add_argument("--u-extent", type=float, default=None, dest="u_extent")
    p.add_argument("--newton-tol", type=float, default=None, dest="newton_tol")
    p.set_defaults(func=cmd_cauchy)

    p = sub.add_parser("normal-form", parents=[common],
                       help="straighten a holomorphic abelian [system]")
    p.add_argument("system", help="builtin name or file path")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--extent", type=float, default=None)
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("list", help="list the builtin gallery")
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_list)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LoadError, DomainError) as err:
        # a DomainError names the node and the sample point that left its domain
        print(f"input error: {err}", file=_sys.stderr)
        return 2
    except SamplingError as err:
        print(f"sampling error: {err}", file=_sys.stderr)
        return 2
    except (CauchyError, FlowError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
