"""The one derivative table against an independent oracle.

The check table and the CR data's table compile only jets (fields, their
Jacobians, differentials and Hessians) and compose brackets, d^c and dd^c
numerically.  Here sympy differentiates the same expressions and composes
every block from the coordinate definitions, evaluated at 30 digits; no
runtime path may fall back on the symbolic composition; and the verdicts,
failing checks and classifications of the gallery systems stay pinned."""

import cgsys
import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cgsys.cli import main
from cgsys.dsl import builtin_names, load_builtin, loads
from cgsys.expr import (
    Atan2, Binary, Const, Var, add, diff, evaluate, mul, pow_, sub, unary,
)
from cgsys.cauchy import param_samples
from cgsys.verify import sample_points
from reference import to_sympy

SYSTEMS = [n for n in builtin_names() if load_builtin(n).system is not None]
CR_ENTRIES = [n for n in builtin_names() if load_builtin(n).cr is not None]
REL = 1e-13
DIGITS = 30


def _evaluator(exprs, syms):
    """The sympy expressions as one function of a point, at DIGITS digits."""
    fn = sympy.lambdify(list(syms), exprs, modules="mpmath")

    def at(p):
        with mpmath.workdps(DIGITS):
            return np.array(fn(*[mpmath.mpf(float(v)) for v in p]), dtype=float)

    return at


def _sym_frame(sys_, syms):
    """The sympy fields xi_a, then J xi_a, as component lists."""
    xs = [[to_sympy(c, syms) for c in f.components] for f in sys_.fields]
    return xs + [_J(X) for X in xs]


def _J(V):
    """J d/dx_mu = d/dy_mu, J d/dy_mu = -d/dx_mu on a component list."""
    out = []
    for vx, vy in zip(V[0::2], V[1::2]):
        out += [-vy, vx]
    return out


def _d(f, V, xs):
    return sum(sympy.diff(f, x) * v for x, v in zip(xs, V))


def _dc(f, V, xs):
    return -_d(f, _J(V), xs)


def _bracket(V, W, xs):
    return [sum(V[j] * sympy.diff(W[i], xs[j]) - W[j] * sympy.diff(V[i], xs[j])
                for j in range(len(xs))) for i in range(len(xs))]


def _close(got, want, what):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.max(np.abs(got - want), initial=0.0) <= REL * scale, what


@pytest.mark.parametrize("name", SYSTEMS)
def test_check_table_blocks_match_sympy(name):
    sys_ = load_builtin(name).system
    names = sys_.chart.names
    syms = {n: sympy.Symbol(n, real=True) for n in names}
    xs = [syms[n] for n in names]
    k, frame = sys_.k, _sym_frame(sys_, syms)
    us = [to_sympy(g, syms) for g in sys_.grads]
    tab = sys_.table
    # one bracket per frame pair i < j, in row-major order
    assert tab.pairs == [(i, j) for i in range(2 * k) for j in range(i + 1, 2 * k)]
    brackets = [_bracket(frame[i], frame[j], xs) for i, j in tab.pairs]
    # the checks read [J xi_a, xi_b] as the negation of [xi_b, J xi_a]
    mixed = [_bracket(frame[k + a], frame[b], xs) for a in range(k) for b in range(k)]
    blocks = {
        "d": [[_d(u, frame[b], xs) for b in range(k)] for u in us],
        "dc": [[_dc(u, frame[b], xs) for b in range(k)] for u in us],
        "bracket": [[b[i] for b in brackets] for i in range(len(xs))],
        "t1": [[_d(_dc(u, frame[y], xs), frame[x], xs) for u in us]
               for x, y in tab.pairs],
        "t2": [[_d(_dc(u, frame[x], xs), frame[y], xs) for u in us]
               for x, y in tab.pairs],
        "t3": [[_dc(u, b, xs) for u in us] for b in brackets],
        "lap": [sum(sympy.diff(u, x, 2) for x in xs) for u in us],
        "mixed": [[b[i] for b in mixed] for i in range(len(xs))],
    }
    refs = {block: _evaluator(exprs, xs) for block, exprs in blocks.items()}
    pts = sample_points(sys_, 6, seed=17)
    t = tab.at(pts)
    assert t["bracket"].shape == (6, 2 * sys_.chart.N, k * (2 * k - 1))
    t["mixed"] = -t["bracket"][..., [tab.row[(b, k + a)] for a in range(k) for b in range(k)]]
    for block, ref in refs.items():
        want = np.array([ref(p) for p in pts])
        assert t[block].shape == want.shape, block
        _close(t[block], want, (name, block))


@pytest.mark.parametrize("name", CR_ENTRIES)
def test_cr_bracket_block_matches_sympy(name):
    data = load_builtin(name).cr
    names = data.chart.names
    syms = {n: sympy.Symbol(n, real=True) for n in names}
    params = {n: sympy.Symbol(n, real=True) for n in data.param_names}
    xs = [syms[n] for n in names]
    fields = [[to_sympy(c, syms) for c in f.components] for f in data.ambient_fields]
    brackets = [_bracket(fields[i], fields[j], xs)
                for i in range(data.k) for j in range(i + 1, data.k)]
    at_sigma = dict(zip(xs, [to_sympy(s, params) for s in data.sigma]))
    exprs = [[b[i].subs(at_sigma) for b in brackets] for i in range(len(xs))]
    ref = _evaluator(exprs, list(params.values()))
    P = param_samples(data, 6, 3)
    got = data.table.at(P)["bracket"]
    want = np.array([ref(p) for p in P]).reshape(got.shape)
    _close(got, want, name)


# --- diff against sympy on random trees ---------------------------------------

_X, _Y = Var("x1"), Var("y1")
_ONE = Const(1.0)
_TWO = Const(2.0)
_leaves = st.sampled_from([_X, _Y, Const(0.5), Const(-1.25), Const(3.0)])


def _grow(children):
    """Trees that stay finite and in every domain on the box the points
    come from: unbounded operations see a bounded or positive argument."""
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda ab: add(*ab)),
        pairs.map(lambda ab: sub(*ab)),
        pairs.map(lambda ab: mul(*ab)),
        children.map(lambda a: unary("neg", a)),
        children.map(lambda a: unary("sin", a)),
        children.map(lambda a: unary("cos", a)),
        children.map(lambda a: unary("atan", a)),
        children.map(lambda a: unary("exp", unary("sin", a))),
        children.map(lambda a: unary("tan", mul(Const(0.5), unary("sin", a)))),
        children.map(lambda a: unary("log", add(_ONE, pow_(a, _TWO)))),
        children.map(lambda a: unary("sqrt", add(_ONE, pow_(a, _TWO)))),
        children.map(lambda a: pow_(a, Const(3.0))),
        pairs.map(lambda ab: Binary("div", ab[0], add(_ONE, pow_(ab[1], _TWO)))),
        pairs.map(lambda ab: Atan2(ab[0], add(_ONE, pow_(ab[1], _TWO)))),
    )


_trees = st.recursive(_leaves, _grow, max_leaves=8)
_POINTS = [(0.3, -0.7), (1.1, 0.4), (-0.9, 1.3)]


@given(_trees)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_diff_first_and_second_partials_match_sympy(e):
    syms = {"x1": sympy.Symbol("x1", real=True), "y1": sympy.Symbol("y1", real=True)}
    s = to_sympy(e, syms)
    cases = [(diff(e, a), sympy.diff(s, syms[a])) for a in syms]
    cases += [(diff(diff(e, a), b), sympy.diff(s, syms[a], syms[b]))
              for a in syms for b in syms]
    ref = _evaluator([r for _, r in cases], list(syms.values()))
    for x, y in _POINTS:
        got = [evaluate(mine, {"x1": x, "y1": y}) for mine, _ in cases]
        want = ref((x, y))
        assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want))), (e, x, y)


# --- no symbolic composition at run time --------------------------------------


def test_verify_and_cauchy_never_compose_symbolically(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a runtime path composed derivatives symbolically")

    for mod in (cgsys, cgsys.expr, cgsys.geometry, cgsys.flow, cgsys.cauchy,
                cgsys.verify, cgsys.dsl, cgsys.cli):
        if hasattr(mod, "lie_bracket"):
            monkeypatch.setattr(mod, "lie_bracket", refuse)
    loads.cache_clear()      # the builds of the tables run patched too
    for name in SYSTEMS:
        assert main(["verify", name]) == (1 if name == "broken-demo" else 0), name
    for name in CR_ENTRIES:
        want = 1 if name == "non-transverse-demo" else 0
        assert main(["cauchy", name, "--grid", "3"]) == want, name
    capsys.readouterr()


# --- verdicts pinned at the values of the symbolic table ----------------------

_ALL = {"holomorphic": True, "abelian": True, "harmonic": True}
_NONE = {"holomorphic": False, "abelian": False, "harmonic": False}
PINNED = {
    "line": (0, [], _ALL),
    "line-alt": (0, [], _NONE),
    "heisenberg": (0, [], {"holomorphic": False, "abelian": False, "harmonic": True}),
    "affine": (0, [], _NONE),
    "model-k1": (0, [], _ALL),
    "model-k1-rotated": (0, [], _ALL),
    "broken-demo": (1, ["axioms.normalization"], _ALL),
}


def test_pins_cover_every_gallery_system():
    assert sorted(PINNED) == sorted(SYSTEMS)


@pytest.mark.parametrize("extra", [[], ["--points", "37", "--seed", "5"]])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_gallery_verdicts_are_pinned(name, extra, tmp_path, capsys):
    import json
    path = tmp_path / "report.json"
    code = main(["verify", name, *extra, "--json", str(path)])
    doc = json.loads(path.read_text())
    failing = [c["name"] for c in doc["checks"] if not c["pass"]]
    assert (code, failing, doc["classification"]) == PINNED[name]
    capsys.readouterr()
