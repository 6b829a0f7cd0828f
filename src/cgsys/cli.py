"""Command-line driver: verify | cauchy | normal-form | list.

Exit codes: 0 all checks pass, 1 a check fails or a construction is refused,
2 the input cannot be loaded.  ``--json PATH`` writes the deterministic
report document described by the shipped schema.
"""

from __future__ import annotations

import argparse
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__
from .cauchy import (
    CauchyError, TransversalityError, check_cr_transverse, grid_queries, solve,
)
from .dsl import LoadError, SystemFile, builtin_names, builtin_text, load, loads
from .flow import DEFAULT_CONFIG, FlowConfig, FlowError
from .report import build_document, check_entry, input_digest, write_report
from .verify import (
    GridSpec, NormalFormRefusal, SamplingError, check_axioms,
    check_bracket_relations, check_commutation, check_level_set, classify,
    decomposition_check_result, normal_form, sample_points,
)

__all__ = ["main"]


def _resolve(name_or_path: str) -> SystemFile:
    if name_or_path in builtin_names():
        text = builtin_text(name_or_path)
        return loads(text, name=name_or_path)
    path = Path(name_or_path)
    if path.exists():
        return load(path)
    raise LoadError(f"'{name_or_path}' is neither a builtin system nor a file")


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise LoadError(f"{name} must be a positive count, got {value}")
    return value


def _print_check(entry: dict) -> None:
    flag = "PASS" if entry["pass"] else "FAIL"
    res = entry["max_residual"]
    res_s = "   n/a   " if res is None or res != res else f"{res:.3e}"
    print(f"  {entry['name']:<44} max {res_s}  tol {entry['tolerance']:<8g} {flag}")


def _emit(doc: dict, json_path: str | None) -> None:
    if json_path:
        write_report(doc, json_path)
        print(f"report written to {json_path}")


def _result_entries(results) -> list[dict]:
    return [check_entry(c.name, c.anchor, c.max_residual, c.tolerance,
                        c.passed, c.points) for c in results]


def cmd_verify(args) -> int:
    sf = _resolve(args.system)
    if sf.system is None:
        raise LoadError(f"'{sf.name}' has no [system] section to verify")
    points = _positive("points", args.points if args.points is not None
                       else sf.config.get("points", 100))
    seed = args.seed if args.seed is not None else sf.config.get("seed", 0)
    tol = args.tol if args.tol is not None else sf.config.get("tol", 1e-9)

    sys_ = sf.system
    results = list(check_axioms(sys_, points, seed, tol).checks)
    pts = sample_points(sys_, min(points, 25), seed)
    results.append(decomposition_check_result(sys_, pts))
    results.extend(check_bracket_relations(sys_, points, seed, tol))
    results.append(check_commutation(sys_, points, seed, tol))
    cls = classify(sys_, min(points, 50), seed, tol)

    entries = _result_entries(results)
    if args.level_set is not None:
        target = [float(tok) for tok in args.level_set.split(",")]
        rec = check_level_set(sys_, target, seed=seed)
        entries.append(check_entry(
            "level-set", "level-set-cr-type", 0.0 if rec.ok else 1.0, 0.5,
            rec.ok, len(rec.points)))
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
    _emit(doc, args.json)
    ok = all(e["pass"] for e in entries)
    print("verdict:", "pass" if ok else "fail")
    return 0 if ok else 1


def _flow_config(sf: SystemFile, args) -> FlowConfig:
    cfg = DEFAULT_CONFIG
    updates = {}
    if "steps_per_unit" in sf.config:
        updates["steps_per_unit"] = sf.config["steps_per_unit"]
    if "newton_tol" in sf.config:
        updates["newton_tol"] = sf.config["newton_tol"]
    if getattr(args, "newton_tol", None) is not None:
        updates["newton_tol"] = args.newton_tol
    return cfg.with_(**updates) if updates else cfg


def cmd_cauchy(args) -> int:
    sf = _resolve(args.system)
    if sf.cr is None:
        raise LoadError(f"'{sf.name}' has no [cr_data] section")
    cfg = _flow_config(sf, args)
    grid = _positive("grid", args.grid if args.grid is not None
                     else sf.config.get("grid", 5))
    extent = (args.u_extent if args.u_extent is not None
              else sf.config.get("u_extent", 0.5))
    tol = args.tol if args.tol is not None else sf.config.get("cauchy_tol", 1e-5)

    data = sf.cr
    tres = check_cr_transverse(data)
    if not tres.transverse:
        print(f"transversality failure: rank {tres.min_rank} < "
              f"{tres.required_rank} at a sample", file=_sys.stderr)
        print(f"witness parameters: {np.asarray(tres.witnesses[0]).tolist()}",
              file=_sys.stderr)
        return 1
    try:
        axes = [np.linspace(-extent, extent, grid)] * data.k
        queries = grid_queries(data, axes, cfg=cfg)
        sol = solve(data, queries, cfg, oracle=sf.oracle)
    except TransversalityError as err:
        print(f"transversality failure: {err}", file=_sys.stderr)
        if err.witness is not None:
            print(f"witness parameters: {np.asarray(err.witness).tolist()}",
                  file=_sys.stderr)
        return 1

    records = sol.records
    n_ok = sum(r.ok for r in records)
    entries = [
        check_entry("cauchy.queries-resolved", "flow-coordinates-invertible",
                    float(len(records) - n_ok), 0.5, n_ok == len(records),
                    len(records)),
        check_entry("cauchy.identities-internal", "construction-identities",
                    sol.max_axiom_residual, cfg.construction_tol,
                    sol.max_axiom_residual < cfg.construction_tol, n_ok),
    ]
    if sf.oracle is not None:
        entries.append(check_entry(
            "cauchy.gradient-oracle", "gradient-map-closed-form",
            sol.max_oracle_dU, tol, sol.max_oracle_dU < tol, n_ok))
        entries.append(check_entry(
            "cauchy.field-oracle", "extending-fields-closed-form",
            sol.max_oracle_dxi, tol, sol.max_oracle_dxi < tol, n_ok))

    print(f"cauchy {sf.name}: {len(records)} queries "
          f"(grid {grid}^{data.k}, |u| <= {extent:g})")
    for e in entries:
        _print_check(e)
    if sol.integrability_note:
        print(f"note: {sol.integrability_note}")

    rec_payload = []
    for r in records:
        item = {"query": r.query, "ok": r.ok}
        if r.ok:
            item.update({
                "params": r.params, "u": r.u, "U": r.U, "xi": r.xi,
                "residual_d": r.residual_d, "residual_dc": r.residual_dc,
            })
            if sf.oracle is not None:
                item.update({"oracle_dU": r.oracle_dU, "oracle_dxi": r.oracle_dxi})
        else:
            item["error"] = r.error
        rec_payload.append(item)
    doc = build_document(input_digest(sf.text), entries, system=sf.name,
                         records=rec_payload)
    _emit(doc, args.json)
    ok = all(e["pass"] for e in entries)
    print("verdict:", "pass" if ok else "fail")
    return 0 if ok else 1


def cmd_normal_form(args) -> int:
    sf = _resolve(args.system)
    if sf.system is None:
        raise LoadError(f"'{sf.name}' has no [system] section")
    grid_n = args.grid if args.grid is not None else sf.config.get("grid", 11)
    extent = args.extent if args.extent is not None else 0.5
    tol = args.tol if args.tol is not None else sf.config.get("tol", 1e-6)
    p = np.zeros(sf.chart.dim)
    try:
        nf = normal_form(sf.system, p, GridSpec(nx=grid_n, ny=grid_n,
                                                extent=extent))
    except NormalFormRefusal as err:
        print(f"refused: {err}", file=_sys.stderr)
        return 1
    entries = [
        check_entry("normal-form.straightened-fields", "fields-become-translations",
                    nf.pushforward_residual, max(tol, 1e-6),
                    nf.pushforward_residual < max(tol, 1e-6), len(nf.xs) * len(nf.ys)),
        check_entry("normal-form.profile-shift-invariance",
                    "profile-independent-of-flow-times",
                    nf.independence_residual, max(tol, 1e-7),
                    nf.independence_residual < max(tol, 1e-7), len(nf.xs) * len(nf.ys)),
        check_entry("normal-form.time-holomorphy", "coordinates-holomorphic-in-time",
                    nf.time_cr_residual, 1e-6, nf.time_cr_residual < 1e-6,
                    len(nf.xs) * len(nf.ys)),
    ]
    print(f"normal-form {sf.name}: slice pair "
          f"{'-' if nf.slice_pair is None else nf.slice_pair + 1}, "
          f"{len(nf.xs)}x{len(nf.ys)} grid")
    for e in entries:
        _print_check(e)
    profile = {"xs": nf.xs, "ys": nf.ys, "values": nf.F}
    doc = build_document(input_digest(sf.text), entries, system=sf.name,
                         profile=profile)
    _emit(doc, args.json)
    ok = all(e["pass"] for e in entries)
    print("verdict:", "pass" if ok else "fail")
    return 0 if ok else 1


def cmd_list(args) -> int:
    names = builtin_names()
    if args.json:
        doc = {"version": __version__, "builtins": list(names)}
        write_report(doc, args.json)
    for name in names:
        sf = loads(builtin_text(name), name=name)
        kinds = []
        if sf.system is not None:
            kinds.append(f"system k={sf.system.k}")
        if sf.cr is not None:
            kinds.append(f"cr-data k={sf.cr.k}")
        print(f"  {name:<22} N={sf.chart.N}  {', '.join(kinds)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cgsys",
        description="Construct and numerically verify complex gradient systems.")
    ap.add_argument("--version", action="version", version=f"cgsys {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write the JSON report here")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--points", type=int, default=None)
    common.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("verify", parents=[common],
                       help="run every identity check on a [system]")
    p.add_argument("system", help="builtin name or file path")
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
    except LoadError as err:
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
