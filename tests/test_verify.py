"""Verifier checks: axioms, decompositions, bracket consequences,
commutation, classification, level sets and the normal form."""

import numpy as np
import pytest

from cgsys.expr import DomainError, parse_expr
from cgsys.flow import FlowConfig
from cgsys.geometry import (
    ComplexChart, VectorField, apply_J, field_matrix, lie_bracket,
)
from cgsys.verify import (
    Classification, GradientSystem, GridSpec, NormalFormRefusal,
    check_axioms, check_bracket_relations, check_commutation,
    check_decompositions, check_level_set, classify, normal_form,
    sample_points,
)


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
    rep = check_axioms(heis, n_points=100, seed=7, tol=1e-12)
    assert rep.passed
    for c in rep.checks:
        assert c.max_residual < 1e-12, c.name


def test_axioms_line(line):
    rep = check_axioms(line, n_points=50, seed=0, tol=1e-12)
    assert rep.passed


def test_axioms_affine(affine):
    rep = check_axioms(affine, n_points=100, seed=1, tol=1e-9)
    assert rep.passed


def test_axioms_broken_fails_with_unit_residual(broken):
    rep = check_axioms(broken, n_points=20, seed=0, tol=1e-9)
    assert not rep.passed
    norm = next(c for c in rep.checks if c.name == "axioms.normalization")
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
            inside = sys_.in_domain(p)
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


def test_table_is_built_once_per_system(heis):
    assert heis.table is heis.table
    other = system(heis.chart, heis.fields, ["-y1", "-y2", "x1*y2 - y3"])
    assert other.table is not heis.table


def test_span_residuals_of_checks_match_lstsq_per_point(affine, heis):
    # the batched checks against one least-squares solve per point and bracket
    def worst(S, brackets, p):
        out = 0.0
        for b in brackets:
            v = b.values(p)
            coef, *_ = np.linalg.lstsq(S, v, rcond=None)
            out = max(out, float(np.linalg.norm(v - S @ coef)))
        return out

    for sys_, seed in ((affine, 40), (heis, 41)):
        xs = list(sys_.fields)
        frame = xs + [apply_J(f) for f in xs]
        pairs = [(i, j) for i in range(len(frame)) for j in range(i + 1, len(frame))]
        brackets = [lie_bracket(frame[i], frame[j]) for i, j in pairs]
        pts = sample_points(sys_, 30, seed)
        integrability = check_axioms(sys_, 30, seed).checks[3]
        closure = check_bracket_relations(sys_, 30, seed)[0]
        for i, p in enumerate(pts):
            ref = worst(field_matrix(frame, p), brackets, p)
            assert abs(integrability.residuals[i] - ref) < 1e-14
            ref = worst(field_matrix(xs, p), brackets, p)
            assert abs(closure.residuals[i] - ref) < 1e-14


# --- decompositions -----------------------------------------------------------


def test_decompositions_heisenberg_counts(heis):
    p = sample_points(heis, 1, seed=2)[0]
    rec = check_decompositions(heis, p)
    assert rec.ok
    assert (rec.rank_span, rec.rank_gradient, rec.dim_horizontal) == (6, 3, 0)
    assert rec.rank_total == 6


def test_decompositions_model_counts(model):
    p = sample_points(model, 1, seed=3)[0]
    rec = check_decompositions(model, p)
    assert rec.ok
    assert (rec.rank_span, rec.rank_gradient, rec.dim_horizontal) == (2, 1, 2)
    assert rec.rank_total == 4


def test_decompositions_broken_fails(broken):
    # the scaled field still spans, but the gradient does not vanish on it
    p = np.array([0.3, -0.4])
    rec = check_decompositions(broken, p)
    assert rec.ok  # rank arithmetic still consistent for this demo ...
    rep = check_axioms(broken, n_points=10, seed=0, tol=1e-9)
    assert not rep.passed  # ... the axiom residuals are what flag it


def test_decompositions_kernel_failure():
    # a genuinely degenerate gradient map: U constant has rank 0, not k
    chart = ComplexChart.standard(1)
    sys = system(chart, [field(chart, ["1", "0"])], ["2"], name="degenerate")
    rec = check_decompositions(sys, np.array([0.1, 0.2]))
    assert not rec.ok
    assert rec.rank_gradient == 0


# --- bracket relations ----------------------------------------------------------


def test_bracket_relations_heisenberg(heis):
    for c in check_bracket_relations(heis, n_points=100, seed=11, tol=1e-9):
        assert c.passed, (c.name, c.max_residual)


def test_bracket_relations_affine(affine):
    for c in check_bracket_relations(affine, n_points=60, seed=12, tol=1e-9):
        assert c.passed, (c.name, c.max_residual)


def test_bracket_relations_abelian_trivial(model):
    for c in check_bracket_relations(model, n_points=20, seed=13, tol=1e-12):
        assert c.passed


# --- commutation -----------------------------------------------------------------


def test_commutation_heisenberg(heis):
    c = check_commutation(heis, n_points=100, seed=14, tol=1e-9)
    assert c.passed and c.max_residual < 1e-12


def test_commutation_affine(affine):
    c = check_commutation(affine, n_points=100, seed=15, tol=1e-9)
    assert c.passed


def test_commutation_line(line):
    c = check_commutation(line, n_points=20, seed=16, tol=1e-12)
    assert c.passed


# --- classification ----------------------------------------------------------------


def test_classify_heisenberg(heis):
    cls = classify(heis, n_points=50, seed=17, tol=1e-9)
    assert cls.as_dict() == {"holomorphic": False, "abelian": False, "harmonic": True}
    # the non-holomorphic residual is the constant 1/2 from the i y2 coefficient
    assert cls.residuals["holomorphic"] == pytest.approx(0.5, abs=1e-14)


def test_classify_affine(affine):
    cls = classify(affine, n_points=50, seed=18, tol=1e-9)
    assert cls.abelian is False
    assert cls.harmonic is False
    assert cls.residuals["harmonic"] > 1e-3


def test_classify_line_and_alternative(line, line_alt):
    assert classify(line, 20, 19, 1e-9).as_dict() == {
        "holomorphic": True, "abelian": True, "harmonic": True}
    alt = classify(line_alt, 20, 19, 1e-9)
    assert alt.abelian is False and alt.holomorphic is False


def test_classify_model_and_rotation(model):
    cls = classify(model, 30, 20, 1e-9)
    assert cls.holomorphic and cls.abelian
    rot = classify(rotated_model(), 30, 20, 1e-8)
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
            rep = check_axioms(changed, n_points=25, seed=22, tol=1e-9)
            assert rep.passed
            assert classify(changed, 25, 22, 1e-9).abelian == \
                classify(sys_, 25, 22, 1e-9).abelian


# --- consequence meta-check ----------------------------------------------------------


def test_axiom_pass_implies_consequences(heis, affine, line, line_alt, model):
    for sys_ in (heis, affine, line, line_alt, model):
        rep = check_axioms(sys_, n_points=40, seed=23, tol=1e-8)
        assert rep.passed, sys_.name
        for c in check_bracket_relations(sys_, n_points=40, seed=23, tol=1e-8):
            assert c.passed, (sys_.name, c.name, c.max_residual)
        assert check_commutation(sys_, 40, 23, 1e-8).passed, sys_.name
        p = sample_points(sys_, 1, seed=23)[0]
        assert check_decompositions(sys_, p).ok, sys_.name


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


def test_normal_form_refuses_non_abelian(heis):
    with pytest.raises(NormalFormRefusal):
        normal_form(heis, np.zeros(6))


def test_normal_form_stable_under_step_refinement(model):
    a = normal_form(model, np.zeros(4), GridSpec(nx=5, ny=5, extent=0.4),
                    cfg=FlowConfig(steps_per_unit=128))
    b = normal_form(model, np.zeros(4), GridSpec(nx=5, ny=5, extent=0.4),
                    cfg=FlowConfig(steps_per_unit=512))
    assert np.max(np.abs(a.F - b.F)) < 1e-7


def test_normal_form_line_degenerate_slice(line):
    nf = normal_form(line, np.zeros(2))
    assert nf.slice_pair is None
    assert nf.F.shape == (1, 1, 1)
    assert abs(nf.F[0, 0, 0]) < 1e-9  # U + u vanishes identically on the axis


# --- report reproducibility ---------------------------------------------------------------


def test_reports_bitwise_reproducible(affine):
    r1 = check_axioms(affine, n_points=40, seed=30, tol=1e-9)
    r2 = check_axioms(affine, n_points=40, seed=30, tol=1e-9)
    for c1, c2 in zip(r1.checks, r2.checks):
        assert np.array_equal(c1.residuals, c2.residuals)
