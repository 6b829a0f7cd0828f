"""Verifier checks: axioms, decompositions, bracket consequences,
commutation, classification, level sets and the normal form."""

import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cgsys.dsl import builtin_names, load_builtin
from cgsys.expr import DomainError, diff, parse_expr
from cgsys.flow import FlowConfig, flow_real, numerical_jacobian
from cgsys.geometry import (
    ComplexChart, Span, VectorField, apply_J, d_values, dc_values, j_matrix, j_rotate,
    lie_bracket,
)
import cgsys.flow
import cgsys.verify
from cgsys.cli import main
from cgsys.verify import (
    CheckTable, Classification, GradientSystem, GridSpec, NormalFormRefusal,
    check_axioms, check_bracket_relations, check_commutation,
    check_decompositions, check_level_set, classify,
    decomposition_check_result, normal_form, sample_points, verify_system,
)
from reference import env_at, evaluate, field_matrix, in_domain, values


# the gallery entries with a [system] section
SYSTEMS = [n for n in builtin_names() if load_builtin(n).system is not None]


def field(chart, comps):
    return VectorField.from_exprs(chart, comps)


def system(chart, fields, grads, domain=(), name=""):
    return GradientSystem(chart, tuple(fields), tuple(parse_expr(g) for g in grads),
                          tuple(parse_expr(d) for d in domain), name)


@pytest.fixture(scope="module")
def heis():
    chart = ComplexChart.standard(3)
    return system(chart, [
        field(chart, ["1", "0", "0", "0", "0", "y2"]),
        field(chart, ["0", "0", "1", "0", "x1", "0"]),
        field(chart, ["0", "0", "0", "0", "1", "0"]),
    ], ["-y1", "-y2", "x1*y2 - y3"], name="heisenberg")


@pytest.fixture(scope="module")
def affine():
    chart = ComplexChart.standard(2)
    th = "atan2(y1, x1)"
    return system(chart, [
        field(chart, ["x1", "y1", f"y2*(x1/y1 - 1/{th})", "y2"]),
        field(chart, ["0", "0", f"y1/{th}", "0"]),
    ], [f"-{th}", f"-y2*{th}/y1"],
        domain=["x1 - 0.25", "y1 - 0.25"], name="affine")


@pytest.fixture(scope="module")
def line():
    chart = ComplexChart.standard(1)
    return system(chart, [field(chart, ["1", "0"])], ["-y1"], name="line")


@pytest.fixture(scope="module")
def line_alt():
    chart = ComplexChart.standard(1)
    return system(chart, [field(chart, ["exp(y1)", "0"])], ["exp(-y1) - 1"],
                  name="line-alt")


@pytest.fixture(scope="module")
def broken():
    chart = ComplexChart.standard(1)
    return system(chart, [field(chart, ["2", "0"])], ["-y1"], name="broken-demo")


@pytest.fixture(scope="module")
def model():
    chart = ComplexChart.standard(2)
    return system(chart, [field(chart, ["0", "0", "1", "0"])],
                  ["x1^2 - y1^2 - y2"], name="model-k1")


ROTATION = np.array([[1.0 + 0.5j, 0.25 - 0.75j],
                     [-0.3 + 0.2j, 1.1 + 0.4j]])


def rotated_model():
    """The flat model seen through the complex-linear chart change ROTATION."""
    chart = ComplexChart.standard(2)
    T = ROTATION
    names = ["x1", "y1", "x2", "y2"]

    def lin(re_coeffs):
        return " + ".join(f"({float(c)!r})*{n}" for c, n in zip(re_coeffs, names))

    rows = []
    for idx in range(2):
        t1, t2 = T[idx, 0], T[idx, 1]
        re = (t1.real, -t1.imag, t2.real, -t2.imag)
        im = (t1.imag, t1.real, t2.imag, t2.real)
        rows.append((lin(re), lin(im)))
    grad = f"({rows[0][0]})^2 - ({rows[0][1]})^2 - ({rows[1][1]})"
    xi_c = np.linalg.solve(T, np.array([0.0, 1.0]))
    comps = [repr(float(xi_c[0].real)), repr(float(xi_c[0].imag)),
             repr(float(xi_c[1].real)), repr(float(xi_c[1].imag))]
    chartf = field(chart, comps)
    return system(chart, [chartf], [grad], name="model-k1-rotated")


# --- axioms -----------------------------------------------------------------


def test_axioms_heisenberg_machine_tight(heis):
    rep = check_axioms(heis, heis.table.at(sample_points(heis, 100, 7)), 1e-12)
    assert all(c.passed for c in rep)
    for c in rep:
        assert c.max_residual < 1e-12, c.name


def test_axioms_line(line):
    rep = check_axioms(line, line.table.at(sample_points(line, 50, 0)), 1e-12)
    assert all(c.passed for c in rep)


def test_axioms_affine(affine):
    rep = check_axioms(affine, affine.table.at(sample_points(affine, 100, 1)), 1e-9)
    assert all(c.passed for c in rep)


def test_axioms_broken_fails_with_unit_residual(broken):
    rep = check_axioms(broken, broken.table.at(sample_points(broken, 20, 0)), 1e-9)
    assert not all(c.passed for c in rep)
    norm = next(c for c in rep if c.name == "axioms.normalization")
    assert norm.max_residual == pytest.approx(1.0, abs=1e-14)


def test_sampling_respects_domain(affine):
    pts = sample_points(affine, 64, seed=5)
    assert np.all(pts[:, 0] > 0.25) and np.all(pts[:, 1] > 0.25)


def test_sampling_reproducible(heis):
    a = sample_points(heis, 32, seed=9)
    b = sample_points(heis, 32, seed=9)
    assert np.array_equal(a, b)


def one_at_a_time(sys_, n, seed, box=2.0):
    """The reference sampler: draw and test one candidate at a time.
    Returns the points, or None and the draw index of a DomainError."""
    rng = np.random.default_rng(seed)
    out = []
    for attempt in range(100 * n):
        if len(out) == n:
            break
        p = rng.uniform(-box, box, size=sys_.chart.dim)
        try:
            inside = in_domain(sys_, p)
        except DomainError:
            return None, attempt
        if inside:
            out.append(p)
    return np.array(out), None


@pytest.mark.parametrize("n, seed", [(1, 0), (8, 5), (64, 5), (300, 2)])
def test_sampling_matches_one_at_a_time(affine, heis, n, seed):
    for sys_ in (affine, heis):
        ref, _ = one_at_a_time(sys_, n, seed)
        assert np.array_equal(sample_points(sys_, n, seed), ref)


def test_sampling_domain_faults_like_one_at_a_time(line):
    # log(x1) is only evaluated where x1 > 0 holds, as all() would
    guarded = system(line.chart, line.fields, ["-y1"], domain=["x1", "log(x1) + 1"])
    ref, fault = one_at_a_time(guarded, 20, 4)
    assert fault is None
    assert np.array_equal(sample_points(guarded, 20, 4), ref)
    # sqrt(x1) faults at the first draw with x1 < 0, unless enough points
    # were accepted before it
    bare = system(line.chart, line.fields, ["-y1"], domain=["y1 + 3", "sqrt(x1)"])
    faults = []
    for n in (1, 2, 3, 6):
        ref, fault = one_at_a_time(bare, n, 9)
        faults.append(fault)
        if fault is None:
            assert np.array_equal(sample_points(bare, n, 9), ref)
        else:
            with pytest.raises(DomainError) as err:
                sample_points(bare, n, 9)
            assert err.value.index == fault
    assert faults == [None, None, None, 4]


def test_in_domain_is_the_predicates_one_row_view(line):
    bare = system(line.chart, line.fields, ["-y1"], domain=["y1 + 3", "sqrt(x1)"])
    for p in ([0.5, 0.0], [0.5, -4.0], [-0.5, -4.0]):
        assert bare.in_domain(p) is in_domain(bare, p)
    with pytest.raises(DomainError) as err:
        bare.in_domain([-0.5, 0.0])
    assert str(err.value) == "sqrt of negative value in 'sqrt(x1)' at point 0 (x1=-0.5, y1=0.0)"
    with pytest.raises(ValueError, match="point must have 2 coordinates"):
        bare.in_domain([0.5])


def test_table_is_built_once_per_system(heis):
    assert heis.table is heis.table
    other = system(heis.chart, heis.fields, ["-y1", "-y2", "x1*y2 - y3"])
    assert other.table is not heis.table


def test_span_residuals_of_checks_match_lstsq_per_point(affine, heis):
    # the batched checks against one least-squares solve per point and bracket
    def worst(S, brackets, p):
        out = 0.0
        for b in brackets:
            v = values(b, p)
            coef, *_ = np.linalg.lstsq(S, v, rcond=None)
            out = max(out, float(np.linalg.norm(v - S @ coef)))
        return out

    for sys_, seed in ((affine, 40), (heis, 41)):
        xs = list(sys_.fields)
        frame = xs + [apply_J(f) for f in xs]
        pairs = [(i, j) for i in range(len(frame)) for j in range(i + 1, len(frame))]
        brackets = [lie_bracket(frame[i], frame[j]) for i, j in pairs]
        pts = sample_points(sys_, 30, seed)
        integrability = check_axioms(sys_, sys_.table.at(sample_points(sys_, 30, seed)))[3]
        closure = check_bracket_relations(sys_, sys_.table.at(sample_points(sys_, 30, seed)))[0]
        for i, p in enumerate(pts):
            ref = worst(field_matrix(frame, p), brackets, p)
            assert abs(integrability.residuals[i] - ref) < 1e-14
            ref = worst(field_matrix(xs, p), brackets, p)
            assert abs(closure.residuals[i] - ref) < 1e-14


# --- decompositions -----------------------------------------------------------


def test_decompositions_heisenberg_counts(heis):
    recs = check_decompositions(heis, heis.table.at(sample_points(heis, 5, seed=2)))
    assert len(recs) == 5
    for rec in recs:
        assert rec.ok
        assert (rec.rank_span, rec.rank_gradient, rec.dim_horizontal) == (6, 3, 0)
        assert rec.rank_total == 6


def test_decompositions_model_counts(model):
    for rec in check_decompositions(model, model.table.at(sample_points(model, 5, seed=3))):
        assert rec.ok
        assert (rec.rank_span, rec.rank_gradient, rec.dim_horizontal) == (2, 1, 2)
        assert rec.rank_total == 4


def test_decompositions_broken_fails(broken):
    # the scaled field still spans, but the gradient does not vanish on it
    [rec] = check_decompositions(broken, broken.table.at([[0.3, -0.4]]))
    assert rec.ok  # rank arithmetic still consistent for this demo ...
    rep = check_axioms(broken, broken.table.at(sample_points(broken, 10, 0)), 1e-9)
    # ... the axiom residuals are what flag it
    assert not all(c.passed for c in rep)


def test_decompositions_kernel_failure():
    # a genuinely degenerate gradient map: U constant has rank 0, not k
    chart = ComplexChart.standard(1)
    sys = system(chart, [field(chart, ["1", "0"])], ["2"], name="degenerate")
    [rec] = check_decompositions(sys, sys.table.at([[0.1, 0.2]]))
    assert not rec.ok
    assert rec.rank_gradient == 0


def _decomposition_ranks_row_by_row(sys_, t):
    """The rank arithmetic of check_decompositions one row at a time, with
    numpy's matrix_rank: the reference for the stacked check."""
    rank, k = np.linalg.matrix_rank, sys_.k
    out = []
    for G, span in zip(t["grad"], t["frame"]):
        M = np.concatenate([G, G @ j_matrix(sys_.chart).T])
        _, s, vt = np.linalg.svd(M)
        H = vt[int(np.sum(s > max(M.shape) * np.finfo(float).eps * s[0])):].T
        sv = np.linalg.svd(span, compute_uv=False)
        out.append((rank(span[:, :k]), rank(span), rank(G), H.shape[1],
                    rank(np.hstack([span, H])), bool(sv[-1] > 0 and sv[0] / sv[-1] > 1e10)))
    return out


def test_stacked_decompositions_equal_the_row_by_row_ranks(heis, affine, line, model, broken):
    # U = x1^2 has dU = 0 on x1 = 0, so its horizontal spaces differ in
    # dimension between rows of one stack (and d/dx2 lies in them)
    chart = ComplexChart.standard(2)
    fold = system(chart, [field(chart, ["0", "0", "1", "0"])], ["x1^2"], name="fold")
    cases = [(sys_, sys_.table.at(sample_points(sys_, 60, 4)))
             for sys_ in (heis, affine, line, model, broken)]
    # U constant: dU = 0, so M = [dU; d^c U] vanishes
    line1 = ComplexChart.standard(1)
    degenerate = system(line1, [field(line1, ["1", "0"])], ["2"], name="degenerate")
    cases.append((degenerate, degenerate.table.at([[0.1, 0.2], [-0.5, 0.3]])))
    # xi = x2 d/dx2 vanishes where x2 = 0
    vanishing = system(chart, [field(chart, ["0", "0", "x2", "0"])], ["-y2"], name="vanishing")
    cases.append((vanishing, vanishing.table.at([[0.1, 0.2, 0.0, 0.3], [0.5, -0.1, 0.7, 0.2],
                                                 [0.0, 0.0, 0.0, 0.0]])))
    cases.append((fold, fold.table.at([[0.5, -0.2, 0.1, 0.0], [0.0, 0.3, 0.0, 1.0],
                                       [-1.5, 0.0, 0.2, 0.2], [0.0, 1.0, -0.4, 0.0]])))
    for sys_, t in cases:
        got = [(r.rank_representation, r.rank_span, r.rank_gradient, r.dim_horizontal,
                r.rank_total, bool(r.warning)) for r in check_decompositions(sys_, t)]
        assert got == _decomposition_ranks_row_by_row(sys_, t), sys_.name
    assert [rec.dim_horizontal for rec in check_decompositions(*cases[-1])] == [2, 4, 2, 4]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(N=st.integers(1, 3), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       plant=st.sampled_from(["none", "zero row", "repeated row", "zero field",
                              "repeated field", "fields in ker dU", "fields in ker M"]))
def test_rank_total_is_rank_nullity_of_the_frame_and_ker_M(N, k, seed, plant):
    # rank [frame | ker M] = (2N - rank M) + rank (M frame), M = [dU; d^c U],
    # on random small-integer G (k x 2N) and fields xi with planted
    # degeneracies, against numpy's rank of the frame, scaled to norm 1 as the
    # kernel basis is (a rank is scale-free), beside a kernel basis of M.
    # Fields projected into a kernel keep rounding errors, so a rank decision
    # is compared where it is clear: no singular value within a factor 4 of
    # numpy's cutoff.  A frame inside ker M gives an M frame of rounding
    # errors alone, whose rank is 0 on the scale |M| |frame|.
    k = min(k, N)
    rng = np.random.default_rng(seed)
    G = rng.integers(-2, 3, (k, 2 * N)).astype(float)
    xi = rng.integers(-2, 3, (2 * N, k)).astype(float)
    if plant == "zero row":
        G[-1] = 0.0
    elif plant == "repeated row" and k > 1:
        G[-1] = G[0]
    elif plant == "zero field":
        xi[:, -1] = 0.0
    elif plant == "repeated field" and k > 1:
        xi[:, -1] = xi[:, 0]
    sys_ = SimpleNamespace(k=k, chart=ComplexChart.standard(N))
    M = np.concatenate([G, G @ j_matrix(sys_.chart).T])
    if plant.startswith("fields in ker"):
        A = G if plant == "fields in ker dU" else M
        xi -= np.linalg.pinv(A) @ (A @ xi)
    frame = np.concatenate([xi, j_rotate(xi, axis=0)], axis=1)
    t = {"grad": G[None], "frame": frame[None],
         "d": d_values(G[..., None], xi.T[..., None])[..., 0][None],
         "dc": dc_values(G[..., None], xi.T[..., None])[..., 0][None]}
    [rec] = check_decompositions(sys_, t)
    kernel = np.linalg.svd(M)[2][np.linalg.matrix_rank(M):].T
    assert rec.dim_horizontal == kernel.shape[1]
    unit = frame / max(np.linalg.norm(frame, 2), np.finfo(float).tiny)
    beside = np.hstack([unit, kernel])
    s = np.linalg.svd(beside, compute_uv=False)
    cutoff = max(beside.shape) * np.finfo(float).eps * s[0]
    assume(np.all((s > 4 * cutoff) | (s <= cutoff / 4)))
    assert rec.rank_total == np.sum(s > cutoff)


# --- bracket relations ----------------------------------------------------------


def test_bracket_relations_heisenberg(heis):
    for c in check_bracket_relations(heis, heis.table.at(sample_points(heis, 100, 11)), 1e-9):
        assert c.passed, (c.name, c.max_residual)


def test_bracket_relations_affine(affine):
    for c in check_bracket_relations(affine, affine.table.at(sample_points(affine, 60, 12)), 1e-9):
        assert c.passed, (c.name, c.max_residual)


def test_bracket_relations_abelian_trivial(model):
    for c in check_bracket_relations(model, model.table.at(sample_points(model, 20, 13)), 1e-12):
        assert c.passed


# --- commutation -----------------------------------------------------------------


def test_commutation_heisenberg(heis):
    c = check_commutation(heis, heis.table.at(sample_points(heis, 100, 14)), 1e-9)
    assert c.passed and c.max_residual < 1e-12


def test_commutation_affine(affine):
    c = check_commutation(affine, affine.table.at(sample_points(affine, 100, 15)), 1e-9)
    assert c.passed


def test_commutation_line(line):
    c = check_commutation(line, line.table.at(sample_points(line, 20, 16)), 1e-12)
    assert c.passed


# --- classification ----------------------------------------------------------------


def test_classify_heisenberg(heis):
    cls = classify(heis, heis.table.at(sample_points(heis, 50, 17)), 1e-9)
    assert cls.as_dict() == {"holomorphic": False, "abelian": False, "harmonic": True}
    # the non-holomorphic residual is the constant 1/2 from the i y2 coefficient
    assert cls.residuals["holomorphic"] == pytest.approx(0.5, abs=1e-14)


def test_classify_affine(affine):
    cls = classify(affine, affine.table.at(sample_points(affine, 50, 18)), 1e-9)
    assert cls.abelian is False
    assert cls.harmonic is False
    assert cls.residuals["harmonic"] > 1e-3


def test_classify_line_and_alternative(line, line_alt):
    assert classify(line, line.table.at(sample_points(line, 20, 19)), 1e-9).as_dict() == {
        "holomorphic": True, "abelian": True, "harmonic": True}
    alt = classify(line_alt, line_alt.table.at(sample_points(line_alt, 20, 19)), 1e-9)
    assert alt.abelian is False and alt.holomorphic is False


def test_classify_model_and_rotation(model):
    cls = classify(model, model.table.at(sample_points(model, 30, 20)), 1e-9)
    assert cls.holomorphic and cls.abelian
    rotated = rotated_model()
    rot = classify(rotated, rotated.table.at(sample_points(rotated, 30, 20)), 1e-8)
    assert rot.holomorphic and rot.abelian


def test_classify_abelian_invariant_under_basis_change(heis, model):
    rng = np.random.default_rng(21)
    for sys_ in (heis, model):
        for _ in range(3):
            k = sys_.k
            B = rng.uniform(-1, 1, size=(k, k))
            while abs(np.linalg.det(B)) < 0.2:
                B = rng.uniform(-1, 1, size=(k, k))
            Binv = np.linalg.inv(B)
            new_fields = []
            for b in range(k):
                f = sys_.fields[0].scale(float(B[0, b]))
                for a in range(1, k):
                    f = f + sys_.fields[a].scale(float(B[a, b]))
                new_fields.append(f)
            new_grads = []
            for b in range(k):
                g = float(Binv[b, 0]) * sys_.grads[0]
                for a in range(1, k):
                    g = g + float(Binv[b, a]) * sys_.grads[a]
                new_grads.append(g)
            changed = GradientSystem(sys_.chart, tuple(new_fields),
                                     tuple(new_grads), sys_.domain,
                                     name=sys_.name + "-basis")
            t = changed.table.at(sample_points(changed, 25, 22))
            rep = check_axioms(changed, t, 1e-9)
            assert all(c.passed for c in rep)
            t_ref = sys_.table.at(sample_points(sys_, 25, 22))
            assert (classify(changed, t, 1e-9).abelian
                    == classify(sys_, t_ref, 1e-9).abelian)


# --- consequence meta-check ----------------------------------------------------------


def test_axiom_pass_implies_consequences(heis, affine, line, line_alt, model):
    for sys_ in (heis, affine, line, line_alt, model):
        rep = check_axioms(sys_, sys_.table.at(sample_points(sys_, 40, 23)), 1e-8)
        assert all(c.passed for c in rep), sys_.name
        for c in check_bracket_relations(sys_, sys_.table.at(sample_points(sys_, 40, 23)), 1e-8):
            assert c.passed, (sys_.name, c.name, c.max_residual)
        t = sys_.table.at(sample_points(sys_, 40, 23))
        assert check_commutation(sys_, t, 1e-8).passed, sys_.name
        assert all(r.ok for r in check_decompositions(sys_, t)), sys_.name


# --- level sets ------------------------------------------------------------------------


def test_level_set_line(line):
    rec = check_level_set(line, [0.0], n_points=6, seed=24)
    assert rec.ok and len(rec.points) > 0
    assert all(abs(p[1]) < 1e-9 for p in rec.points)  # the real axis
    assert all(h == 0 for h in rec.holomorphic_dim)


def test_level_set_heisenberg_zero_level(heis):
    rec = check_level_set(heis, [0.0, 0.0, 0.0], n_points=6, seed=25)
    assert rec.ok and len(rec.points) > 0
    assert all(r == 3 for r in rec.rank_gradient)
    for p in rec.points:  # the real group: all y coordinates vanish
        assert np.max(np.abs(p[1::2])) < 1e-8


def test_level_set_far_target_is_empty_pass(line):
    rec = check_level_set(line, [1e7], n_points=4, seed=26)
    assert rec.ok and len(rec.points) == 0
    assert "empty" in rec.note


def test_level_set_at_the_largest_doubles_is_empty_without_overflow(heis):
    # residual norms near 1e308 stay finite: no overflow warning, which the
    # suite turns into an error
    rec = check_level_set(heis, [1e308, 1e308, 1e308], n_points=4, seed=0)
    assert rec.ok and len(rec.points) == 0


def _level_set_by_gauss_newton(sys_, V, n_points=8, seed=0):
    """The reference search: per seed point, undamped Gauss-Newton with
    lstsq steps on the tree-walked U and dU, stopped when max |U - V| <
    1e-11, after 60 passes, at a non-finite step or outside |x| <= 50; a
    root counts when it is in the domain and 1e-6 from every earlier one.
    Returns the points, whether each point's residuals fell at every step,
    the ranks of dU and the holomorphic dimensions."""
    names = sys_.chart.names

    def rows_of_dU(p):
        env = env_at(sys_.chart, p)
        return np.array([[evaluate(diff(g, x), env) for x in names] for g in sys_.grads])

    found, falling = [], []
    for p in sample_points(sys_, max(4 * n_points, 16), seed):
        norms = []
        for _ in range(60):
            r = np.array([evaluate(g, env_at(sys_.chart, p)) for g in sys_.grads]) - V
            norms.append(np.linalg.norm(r))
            if np.max(np.abs(r)) < 1e-11:
                if in_domain(sys_, p) and not any(
                        np.linalg.norm(p - q) < 1e-6 for q in found):
                    found.append(p)
                    falling.append(all(np.diff(norms) < 0))
                break
            step, *_ = np.linalg.lstsq(rows_of_dU(p), -r, rcond=None)
            if not np.all(np.isfinite(step)):
                break
            p = p + step
            if np.max(np.abs(p)) > 50.0:
                break
        if len(found) >= n_points:
            break
    ranks, hdims = [], []
    for p in found:
        G = rows_of_dU(p)
        ranks.append(int(np.linalg.matrix_rank(G)))
        _, s, vt = np.linalg.svd(G)
        T = vt[int(np.sum(s > max(G.shape) * np.finfo(float).eps * s[0])):].T
        span = np.hstack([T, j_matrix(sys_.chart) @ T])
        hdims.append((2 * T.shape[1] - int(np.linalg.matrix_rank(span))) // 2)
    return found, falling, ranks, hdims


@pytest.mark.parametrize("name", SYSTEMS)
def test_level_set_search_finds_what_gauss_newton_finds(name):
    # the lockstep damped Newton on the compiled tape against the undamped
    # per-point tree-walk reference, at 12 seeded targets in [-1.5, 1.5]^k:
    # the same number of points, ranks, dimensions and note; every point on
    # the level set, in the box and the domain; and the reference's point
    # wherever its residuals fell at every step, so that damping took no part
    sys_ = load_builtin(name).system
    n = sys_.chart.N - sys_.k
    rng = np.random.default_rng(12)
    for seed, V in enumerate(rng.uniform(-1.5, 1.5, (12, sys_.k))):
        rec = check_level_set(sys_, V, seed=seed)
        points, falling, ranks, hdims = _level_set_by_gauss_newton(sys_, V, seed=seed)
        assert len(rec.points) == len(points), (name, V)
        assert rec.rank_gradient == ranks and rec.holomorphic_dim == hdims, (name, V)
        assert rec.note == (
            "level set appears empty for this target" if not points else
            "" if all(h == n for h in hdims) else
            f"holomorphic tangent dimension {hdims} differs from {n}")
        for p in rec.points:
            U = [evaluate(g, env_at(sys_.chart, p)) for g in sys_.grads]
            assert np.max(np.abs(U - V)) < 1e-11 and np.max(np.abs(p)) <= 50.0
            assert in_domain(sys_, p)
        for p, fell in zip(points, falling):
            if fell:
                assert np.min(np.max(np.abs(rec.points - p), axis=1)) < 1e-9, (name, V)


# --- normal form ------------------------------------------------------------------------


def test_normal_form_recovers_model_profile(model):
    nf = normal_form(model, np.zeros(4), GridSpec(nx=11, ny=11, extent=0.5))
    assert nf.slice_pair == 0
    xs, ys = np.meshgrid(nf.xs, nf.ys, indexing="ij")
    oracle = xs**2 - ys**2
    assert np.max(np.abs(nf.F[0] - oracle)) < 1e-7
    assert nf.independence_residual < 1e-7
    assert nf.pushforward_residual < 1e-7
    assert nf.time_cr_residual < 1e-6


def test_normal_form_rotated_model_matches_transformed_oracle():
    sys_ = rotated_model()
    nf = normal_form(sys_, np.zeros(4), GridSpec(nx=11, ny=11, extent=0.4),
                     class_tol=1e-8)
    mu = nf.slice_pair
    T = ROTATION
    worst = 0.0
    for i, x in enumerate(nf.xs):
        for j, y in enumerate(nf.ys):
            zeta = np.zeros(2, dtype=complex)
            zeta[mu] = complex(x, y)
            Z = T @ zeta
            expect = Z[0].real**2 - Z[0].imag**2 - Z[1].imag
            worst = max(worst, abs(nf.F[0, i, j] - expect))
    assert worst < 1e-6
    assert nf.independence_residual < 1e-6


def test_normal_form_nan_residual_is_not_dropped(model):
    # a NaN residual must fail its check, not read as 0
    nf = normal_form(model, np.zeros(4), GridSpec(nx=5, ny=5, extent=float("nan")))
    assert np.isnan(nf.independence_residual)
    assert np.isnan(nf.pushforward_residual)
    assert np.isnan(nf.time_cr_residual)


def test_normal_form_refuses_non_abelian(heis):
    with pytest.raises(NormalFormRefusal):
        normal_form(heis, np.zeros(6))


def test_normal_form_stable_under_step_refinement(model):
    a = normal_form(model, np.zeros(4), GridSpec(nx=5, ny=5, extent=0.4),
                    cfg=FlowConfig(steps_per_unit=128))
    b = normal_form(model, np.zeros(4), GridSpec(nx=5, ny=5, extent=0.4),
                    cfg=FlowConfig(steps_per_unit=512))
    assert np.max(np.abs(a.F - b.F)) < 1e-7


def _rk_runs(monkeypatch) -> list:
    """The step counts, one entry per row, of every run of flow's one
    Runge-Kutta loop."""
    runs, inner = [], cgsys.flow._rk

    def counted(velocity, state, h, nsteps, guard, *args):
        runs.append(np.broadcast_to(nsteps, (len(state),)).tolist())
        return inner(velocity, state, h, nsteps, guard, *args)

    monkeypatch.setattr(cgsys.flow, "_rk", counted)
    return runs


@pytest.mark.parametrize("name", ["model-k1", "model-k1-rotated"])
def test_normal_form_flows_each_leg_once_per_flow_time(monkeypatch, name):
    # k = 1: the 5 slice corners x 2 flow times are the rows of one complex
    # flow, and its linear field needs one step a row
    runs = _rk_runs(monkeypatch)
    assert main(["normal-form", name]) == 0
    assert runs == [[1] * 10]


def two_commuting_fields():
    # k = 2: the exponential chart change in w1 beside a flat w2, so each
    # derivative column must be read against its own field
    chart = ComplexChart.standard(3)
    return system(chart, [field(chart, ["0", "0", "1 + x2", "y2", "0", "0"]),
                          field(chart, ["0", "0", "0", "0", "1", "0"])],
                  ["x1^2 - y1^2 - atan2(y2, 1 + x2)", "-y3"])


def test_normal_form_two_commuting_fields(monkeypatch):
    sys_ = two_commuting_fields()
    runs = _rk_runs(monkeypatch)
    nf = normal_form(sys_, np.zeros(6), GridSpec(nx=5, ny=5, extent=0.4))
    assert nf.slice_pair == 0 and nf.points == 5 * 3
    # the count loop flows all 15 rows once, then again only the rows whose
    # count it raised, all of one run at the count it visits
    counts = [c for run in runs for c in set(run)]
    assert runs[0] == [1] * 15 and all(len(run) <= 15 for run in runs)
    assert len(counts) == len(set(counts)) == len(runs)
    assert nf.pushforward_residual < 1e-9
    assert nf.time_cr_residual < 1e-9
    assert nf.independence_residual < 1e-9
    # phi at one slice point against its closed form (z1, e^(w1) - 1, w2)
    w = np.array([0.2 + 0.1j, -0.1 + 0.3j])
    z = np.array([0.1 - 0.2j, np.exp(w[0]) - 1, w[1]])
    expect = np.column_stack([z.real, z.imag]).ravel()
    assert np.max(np.abs(nf.phi((0.1, -0.2), w) - expect)) < 1e-9


def _composed_legs(sys_, P, w) -> np.ndarray:
    """phi from the start point P by 2k fixed-count real flows: for
    a = k, ..., 1 the flow of xi_a for time Re w_a, then that of J xi_a for
    time Im w_a."""
    for a in reversed(range(sys_.k)):
        P = flow_real(sys_.fields[a], P, w[a].real, FlowConfig())
        P = flow_real(apply_J(sys_.fields[a]), P, w[a].imag, FlowConfig())
    return P


@pytest.mark.parametrize("name", ["model-k1", "model-k1-rotated", "line",
                                  "two-commuting-fields"])
def test_normal_form_flow_matches_composed_real_legs(monkeypatch, name):
    # the one complex-time flow of normal_form against its independent
    # reference, the composed real legs: its points and phi to rounding, its
    # d/dw_a columns (dphi/dRe w_a, and i times them dphi/dIm w_a) to the
    # central differences of the legs
    sys_ = (two_commuting_fields() if name == "two-commuting-fields"
            else load_builtin(name).system)
    flows, inner = [], cgsys.flow.ComplexFlow.rows

    def recorded(self, P, W, dZ0=None, nsteps=None, labels=None):
        out = inner(self, P, W, dZ0, nsteps, labels)
        if dZ0 is not None and nsteps is None:    # not a run of the count loop
            flows.append((P, W, out))
        return out

    monkeypatch.setattr(cgsys.flow.ComplexFlow, "rows", recorded)
    nf = normal_form(sys_, np.zeros(sys_.chart.dim), GridSpec(nx=5, ny=5, extent=0.4))
    [(P, W, (Q, Y, errors, _))] = flows
    assert len(P) == nf.points and errors == [None] * len(P)
    k, N = sys_.k, sys_.chart.N
    D = np.stack([Y.real, Y.imag], axis=2).reshape(len(P), 2 * N, k)
    for p, w, q, d in zip(P, W, Q, D):
        legs = _composed_legs(sys_, p, w)
        zxy = (0.0, 0.0) if nf.slice_pair is None else p[2 * nf.slice_pair:][:2]
        assert np.max(np.abs(q - legs)) < 1e-13
        assert np.max(np.abs(nf.phi(zxy, w) - legs)) < 1e-13
        fd = numerical_jacobian(lambda x: _composed_legs(sys_, p, w + x[:k] + 1j * x[k:]),
                                np.zeros(2 * k), 1e-6)
        assert np.max(np.abs(np.hstack([d, j_rotate(d, axis=0)]) - fd)) < 1e-8


def test_normal_form_time_holomorphy_fails_off_holomorphic_fields(line_alt):
    # negative control: line-alt's field exp(y1) d/dx1 is not holomorphic;
    # pushed past classify, the flow refuses every row at its start point,
    # where |dZ/dzbar| = e^y1 / 2 = 1/2 fails the time check
    nf = normal_form(line_alt, np.zeros(2), class_tol=1e9)
    assert nf.time_cr_residual == pytest.approx(0.5, abs=1e-15)
    for res in (nf.pushforward_residual, nf.independence_residual, nf.time_cr_residual):
        assert not res < 1e-6


def test_normal_form_report_counts_the_points_it_checked(tmp_path):
    path = tmp_path / "model-k1.json"
    assert main(["normal-form", "model-k1", "--json", str(path)]) == 0
    # the residuals see 5 slice corners x 2 flow times (k = 1), not the
    # 11 x 11 profile grid
    assert [c["points"] for c in json.loads(path.read_text())["checks"]] == [10] * 3


def test_normal_form_line_degenerate_slice(line):
    nf = normal_form(line, np.zeros(2))
    assert nf.slice_pair is None
    assert nf.F.shape == (1, 1, 1)
    assert abs(nf.F[0, 0, 0]) < 1e-9  # U + u vanishes identically on the axis


# --- report reproducibility ---------------------------------------------------------------


def test_reports_bitwise_reproducible(affine):
    r1 = check_axioms(affine, affine.table.at(sample_points(affine, 40, 30)), 1e-9)
    r2 = check_axioms(affine, affine.table.at(sample_points(affine, 40, 30)), 1e-9)
    for c1, c2 in zip(r1, r2):
        assert np.array_equal(c1.residuals, c2.residuals)


# --- one draw per op -------------------------------------------------------------


@pytest.mark.parametrize("extra, draws", [([], 1), (["--level-set=0.1,-0.2,0.3"], 2)])
def test_verify_op_samples_once(monkeypatch, extra, draws):
    calls = []
    inner = cgsys.verify.sample_points

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(cgsys.verify, "sample_points", counted)
    assert main(["verify", "heisenberg", "--points", "20", *extra]) == 0
    assert len(calls) == draws


@pytest.mark.parametrize("points, seed", [(100, 0), (37, 5), (12, 3)])
def test_verify_system_equals_checks_on_their_own_draws(heis, affine, points, seed):
    for sys_ in (heis, affine):
        rep = verify_system(sys_, points, seed, 1e-9)
        pts = sample_points(sys_, points, seed)
        alone = (check_axioms(sys_, sys_.table.at(pts), 1e-9)
                 + [decomposition_check_result(
                     sys_, sys_.table.at(sample_points(sys_, min(points, 25), seed)))]
                 + check_bracket_relations(sys_, sys_.table.at(pts), 1e-9)
                 + [check_commutation(sys_, sys_.table.at(pts), 1e-9)])
        assert [c.name for c in rep.checks] == [c.name for c in alone]
        for c, ref in zip(rep.checks, alone):
            assert np.array_equal(c.residuals, ref.residuals), (sys_.name, c.name)
            assert (c.points, c.tolerance, c.note) == \
                (ref.points, ref.tolerance, ref.note)
        cls = classify(sys_, sys_.table.at(sample_points(sys_, min(points, 50), seed)), 1e-9)
        assert rep.classification == cls
        assert (rep.system, rep.seed, rep.n_points) == (sys_.name, seed, points)


# --- one table evaluation per op -------------------------------------------------



@pytest.mark.parametrize("name", SYSTEMS)
def test_table_blocks_sliced_equal_the_prefix_evaluated_alone(name):
    sys_ = load_builtin(name).system
    for points, seed in ((100, 0), (37, 5)):
        pts = sample_points(sys_, points, seed)
        t = sys_.table.at(pts)
        for n in (25, 50):
            alone = sys_.table.at(pts[:n])
            assert alone.keys() == t.keys()
            for block, vals in alone.items():
                assert np.array_equal(t[block][:n], vals), (block, points, n)


@pytest.mark.parametrize("extra", [[], ["--level-set=0.1,-0.2,0.3"]])
def test_verify_op_evaluates_the_check_table_once(monkeypatch, extra):
    rows = []
    inner = CheckTable.at

    def counted(self, pts):
        rows.append(len(pts))
        return inner(self, pts)

    monkeypatch.setattr(CheckTable, "at", counted)
    assert main(["verify", "heisenberg", "--points", "20", *extra]) == 0
    assert rows == [20]


# --- one factorization per span ---------------------------------------------------


@pytest.mark.parametrize("name", SYSTEMS)
def test_each_check_factors_its_span_once(monkeypatch, name):
    # independence and integrability read one factorization of the 2k frame;
    # closure and representation-involutivity one of span(xi_1..xi_k)
    sys_ = load_builtin(name).system
    k, dim = sys_.k, sys_.chart.dim
    t = sys_.table.at(sample_points(sys_, 40, 3))
    want = check_axioms(sys_, t) + check_bracket_relations(sys_, t)
    spans = []

    class Counted(cgsys.verify.Span):
        def __init__(self, S):
            spans.append(np.shape(S))
            super().__init__(S)

    def refuse(*args, **kwargs):
        raise AssertionError("a check took a rank apart from its span's factorization")

    monkeypatch.setattr(cgsys.verify, "Span", Counted)
    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    got = check_axioms(sys_, t)
    assert spans == [(40, dim, 2 * k)]
    spans.clear()
    got += check_bracket_relations(sys_, t)
    assert spans == [(40, dim, k)]
    for c, ref in zip(got, want):
        assert np.array_equal(c.residuals, ref.residuals), c.name


def test_verify_op_takes_two_svd_stacks_over_its_points(monkeypatch):
    # the frame and span(xi) at the 60 sample points; the decomposition
    # check factors its own 25 rows
    sizes, ranks = [], []
    svd, matrix_rank = np.linalg.svd, np.linalg.matrix_rank

    def counted_svd(M, *args, **kwargs):
        sizes.append(len(M))
        return svd(M, *args, **kwargs)

    def counted_rank(M, *args, **kwargs):
        ranks.append(len(M))
        return matrix_rank(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "matrix_rank", counted_rank)
    assert main(["verify", "heisenberg", "--points", "60"]) == 0
    assert sizes.count(60) == 2 and 60 not in ranks


def test_every_rank_of_an_op_is_a_span_rank(monkeypatch, capsys):
    # transversality, the decompositions, the level set and the group-basis
    # check (loading heisenberg-cr and affine) all count by geometry.Span
    callers = set()
    svd = np.linalg.svd

    def traced_svd(M, *args, **kwargs):
        callers.add(sys._getframe(1).f_code)
        return svd(M, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a rank was taken apart from geometry.Span")

    monkeypatch.setattr(np.linalg, "svd", traced_svd)
    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    normal_forms = {"line", "model-k1", "model-k1-rotated"}
    for name in builtin_names():
        sf = load_builtin(name)
        if sf.system is not None:
            level = ",".join(str(0.1 * (a + 1)) for a in range(sf.system.k))
            failing = int(name == "broken-demo")
            assert main(["verify", name]) == failing, name
            assert main(["verify", name, "--points", "20", f"--level-set={level}"]) == failing
            assert main(["normal-form", name]) == int(name not in normal_forms), name
        if sf.cr is not None:
            assert main(["cauchy", name]) == int(name == "non-transverse-demo"), name
    assert callers == {Span.__init__.__code__}
    capsys.readouterr()
