"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  All systems are loaded through the shipped
gallery files, so the format path participates in every run.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math
import time

import numpy as np
import pytest

from cgsys.cli import main
from cgsys.dsl import builtin_names, load_builtin
from cgsys.expr import DomainError, UnboundVariableError, diff, free_vars
from cgsys.flow import FlowConfig
from cgsys.cauchy import grid_queries, solve
from cgsys.geometry import apply_J, lie_bracket
from cgsys.verify import (
    GridSpec, NormalFormRefusal, check_axioms, check_commutation, normal_form,
    sample_points,
)
from reference import evaluate

CFG = FlowConfig()


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def heis():
    return load_builtin("heisenberg").system


@pytest.fixture(scope="module")
def affine():
    return load_builtin("affine").system


@pytest.fixture(scope="module")
def line():
    return load_builtin("line")


def test_criterion_01_heisenberg_axioms(heis):
    start = time.perf_counter()
    rep = check_axioms(heis, heis.table.at(sample_points(heis, 100, 7)), 1e-12)
    elapsed = time.perf_counter() - start
    d = next(c for c in rep if c.name == "axioms.gradient-annihilation")
    dc = next(c for c in rep if c.name == "axioms.normalization")
    ok = d.max_residual < 1e-12 and dc.max_residual < 1e-12 and elapsed < 1.0
    _criterion(1, ok, f"axiom residuals {max(d.max_residual, dc.max_residual):.2e} "
                      f"< 1e-12 over 100 points in {elapsed:.2f}s")


def test_criterion_02_heisenberg_bracket_table(heis):
    # frame columns 0..2 are xi_1..xi_3, 3..5 are J xi_1..J xi_3
    t = heis.table.at(sample_points(heis, 100, seed=7))
    bracket = {pq: t["bracket"][..., r] for pq, r in heis.table.row.items()}
    xi_3 = t["frame"][..., 2]
    residuals = [bracket[(0, 1)] - xi_3, bracket[(3, 4)] - xi_3]
    residuals += [bracket[pq] for pq in ((0, 2), (1, 2), (3, 5), (4, 5))]
    residuals += [bracket[(a, 3 + b)] for a in range(3) for b in range(3)]
    worst = float(np.max(np.abs(residuals)))
    _criterion(2, worst < 1e-12,
               f"bracket table residual {worst:.2e} < 1e-12 at 100 points")


def test_criterion_03_harmonicity(heis, affine):
    # the check tables' Laplacians, which test_derivative_table pins
    # against sympy's
    worst = float(np.max(np.abs(heis.table.at(sample_points(heis, 100, seed=7))["lap"])))
    worst_a = float(np.max(np.abs(affine.table.at(sample_points(affine, 100, seed=7))["lap"])))
    ok = worst < 1e-12 and worst_a > 1e-3
    _criterion(3, ok, f"harmonic residual {worst:.2e} < 1e-12; "
                      f"non-harmonic witness {worst_a:.2e} > 1e-3")


def test_criterion_04_affine_bracket_identity(affine):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, size=(100, 4))
    pts[:, 0] = rng.uniform(0.5, 2.0, size=100)
    pts[:, 1] = rng.uniform(0.5, 2.0, size=100)
    r1, r2 = affine.fields
    lhs = lie_bracket(r1, apply_J(r1))
    worst = 0.0
    for p in pts:
        x1, y1, _, y2 = p
        th = math.atan2(y1, x1)
        coef = (2.0 * y2 / y1) * (x1 / y1 - 1.0 / th)
        worst = max(worst, float(np.max(np.abs(lhs.values(p) - coef * r2.values(p)))))
    _criterion(4, worst < 1e-9,
               f"[xi_1, J xi_1] identity residual {worst:.2e} < 1e-9 at 100 points")


def test_criterion_05_commutation(heis, affine, line):
    worst = 0.0
    for sys_ in (heis, affine, line.system):
        c = check_commutation(sys_, sys_.table.at(sample_points(sys_, 100, 7)), 1e-9)
        worst = max(worst, c.max_residual)
        assert c.passed, sys_.name
    _criterion(5, worst < 1e-9,
               f"complexified commutation residual {worst:.2e} < 1e-9, 100 points each")


def test_criterion_06_cauchy_line(line):
    ys = np.linspace(-0.5, 0.5, 21)
    queries = np.column_stack([np.zeros(21), ys])
    sol = solve(line.cr, queries, CFG, oracle=line.oracle)
    assert sol.ok
    dU = sol.max_oracle_dU
    dxi = sol.max_oracle_dxi
    ok = dU < 1e-6 and dxi < 1e-6
    _criterion(6, ok, f"|U + y| = {dU:.2e} and field deviation {dxi:.2e} < 1e-6 "
                      f"on the 21-point grid")


def test_criterion_07_cauchy_heisenberg():
    sf = load_builtin("heisenberg-cr")
    start = time.perf_counter()
    axes = [np.linspace(-0.5, 0.5, 5)] * 3
    queries = grid_queries(sf.cr, axes, cfg=CFG)
    sol = solve(sf.cr, queries, CFG, oracle=sf.oracle)
    elapsed = time.perf_counter() - start
    assert sol.ok
    ok = (sol.max_oracle_dU < 1e-5 and sol.max_oracle_dxi < 1e-5
          and elapsed < 30.0)
    _criterion(7, ok, f"gradient delta {sol.max_oracle_dU:.2e}, field delta "
                      f"{sol.max_oracle_dxi:.2e} < 1e-5 on 5x5x5 grid "
                      f"in {elapsed:.1f}s")


def test_criterion_08_non_uniqueness(line):
    alt = load_builtin("line-alt").system
    rep1 = check_axioms(line.system,
                        line.system.table.at(sample_points(line.system, 100, 7)), 1e-12)
    rep2 = check_axioms(alt, alt.table.at(sample_points(alt, 100, 7)), 1e-12)
    p = np.array([0.0, 0.1])
    gap = float(np.max(np.abs(alt.fields[0].values(p)
                              - line.system.fields[0].values(p))))
    ok = (all(c.passed for c in rep1 + rep2)
          and gap >= math.exp(0.1) - 1.0 - 1e-15)
    _criterion(8, ok, f"both extensions pass < 1e-12; field gap {gap:.6f} "
                      f">= e^0.1 - 1 at y = 0.1")


def test_criterion_09_normal_form(heis):
    model = load_builtin("model-k1").system
    nf = normal_form(model, np.zeros(4), GridSpec(nx=11, ny=11, extent=0.5))
    xs, ys = np.meshgrid(nf.xs, nf.ys, indexing="ij")
    err_model = float(np.max(np.abs(nf.F[0] - (xs**2 - ys**2))))

    rot = load_builtin("model-k1-rotated").system
    nf2 = normal_form(rot, np.zeros(4), GridSpec(nx=11, ny=11, extent=0.4),
                      class_tol=1e-8)
    T = np.array([[1.0 + 0.5j, 0.25 - 0.75j], [-0.3 + 0.2j, 1.1 + 0.4j]])
    err_rot = 0.0
    for i, x in enumerate(nf2.xs):
        for j, y in enumerate(nf2.ys):
            zeta = np.zeros(2, dtype=complex)
            zeta[nf2.slice_pair] = complex(x, y)
            Z = T @ zeta
            expect = Z[0].real**2 - Z[0].imag**2 - Z[1].imag
            err_rot = max(err_rot, abs(nf2.F[0, i, j] - expect))

    refused = False
    try:
        normal_form(heis, np.zeros(6))
    except NormalFormRefusal:
        refused = True

    ok = err_model < 1e-7 and err_rot < 1e-6 and refused
    _criterion(9, ok, f"model profile error {err_model:.2e} < 1e-7, rotated "
                      f"{err_rot:.2e} < 1e-6, non-abelian system refused")


def test_criterion_10_derivative_engine():
    exprs = []
    charts = {}
    for name in builtin_names():
        sf = load_builtin(name)
        pool = []
        if sf.system is not None:
            pool.extend(sf.system.grads)
            for f in sf.system.fields:
                pool.extend(f.components)
            pool.extend(sf.system.domain)
        if sf.cr is not None and sf.cr.ambient_fields is not None:
            pool.extend(sf.cr.sigma)
            for f in sf.cr.ambient_fields:
                pool.extend(f.components)
        if sf.oracle is not None:
            grads, fields = sf.oracle
            pool.extend(grads)
            for f in fields:
                pool.extend(f.components)
        for e in pool:
            if free_vars(e):
                exprs.append(e)
    assert exprs
    rng = np.random.default_rng(7)
    h = 1e-5
    checked = 0
    worst = 0.0
    while checked < 1000:
        e = exprs[rng.integers(len(exprs))]
        names = sorted(free_vars(e))
        v = names[rng.integers(len(names))]
        env = {n: float(rng.uniform(0.25, 2.0)) for n in names}
        try:
            up = dict(env, **{v: env[v] + h})
            dn = dict(env, **{v: env[v] - h})
            cd = (evaluate(e, up) - evaluate(e, dn)) / (2.0 * h)
            got = evaluate(diff(e, v), env)
        except (DomainError, UnboundVariableError):
            continue
        rel = abs(got - cd) / (1.0 + abs(cd))
        worst = max(worst, rel)
        checked += 1
    _criterion(10, worst < 1e-6,
               f"max relative derivative error {worst:.2e} < 1e-6 over 1000 probes")


def test_criterion_11_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        path = tmp_path / f"heis-{tag}.json"
        code = main(["verify", "heisenberg", "--points", "60", "--seed", "13",
                     "--json", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    cau = []
    for tag in ("a", "b"):
        path = tmp_path / f"cr-{tag}.json"
        code = main(["cauchy", "heisenberg-cr", "--grid", "3",
                     "--json", str(path)])
        assert code == 0
        cau.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and cau[0] == cau[1]
    _criterion(11, ok, "repeated runs emit byte-identical JSON reports")
