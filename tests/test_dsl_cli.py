"""File format, gallery, CLI exit codes, JSON schema and determinism."""

import json
import sys
import time

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgsys import cli
from cgsys.cauchy import CauchySolution
from cgsys.cli import main
from cgsys.dsl import (
    MAX_COMPLEX_DIM, MAX_ROWS, MAX_STEPS_PER_UNIT, LoadError, builtin_names,
    builtin_text, check_rows, dumps, load_builtin, loads,
)
from cgsys.expr import MAX_DEPTH
from cgsys.flow import DEFAULT_CONFIG, _HolomorphicFrame
from cgsys.geometry import VectorField
from cgsys.report import canonical_json, schema_text
from cgsys.verify import (
    GradientSystem, check_axioms, normal_form, sample_points, symmetric_axis,
)
from cli_contract import MINIMAL, ambient_cgs, edited as _edited, in_process, universal_faults

# --- loading -----------------------------------------------------------------


def test_builtin_listing_is_stable():
    assert builtin_names() == (
        "line", "line-alt", "heisenberg", "affine", "model-k1",
        "model-k1-rotated", "heisenberg-cr", "broken-demo",
        "non-transverse-demo")


def test_load_heisenberg_builtin():
    sf = load_builtin("heisenberg")
    assert sf.chart.N == 3
    assert sf.system is not None and sf.system.k == 3


def test_load_heisenberg_cr_builtin():
    sf = load_builtin("heisenberg-cr")
    assert sf.system is None
    assert sf.cr is not None and sf.cr.k == 3 and sf.cr.group is not None
    assert sf.oracle is not None


def test_every_builtin_loads():
    for name in builtin_names():
        sf = load_builtin(name)
        assert sf.system is not None or sf.cr is not None, name


def test_minimal_file_loads():
    sf = loads(MINIMAL, name="mini")
    assert sf.system.k == 1


def test_component_count_mismatch_is_error():
    bad = """
[chart]
complex_dim = 3

[system]
k = 1
field_1 = 1; 0; 0; 0; 0
grad_1 = -y1
"""
    with pytest.raises(LoadError) as err:
        loads(bad)
    assert "components" in str(err.value)


def test_atan2_accepted_in_files():
    text = MINIMAL.replace("-y1", "atan2(y1, x1)")
    sf = loads(text)
    assert sf.system is not None


def test_unknown_key_rejected():
    with pytest.raises(LoadError) as err:
        loads(MINIMAL + "\nwhat = 3\n")
    assert "unknown key" in str(err.value)


def test_fd_step_config_key_is_unknown():
    with pytest.raises(LoadError, match="unknown key 'fd_step'"):
        loads(MINIMAL + "\n[config]\nfd_step = 1e-6\n")


def test_unknown_section_rejected():
    with pytest.raises(LoadError):
        loads(MINIMAL + "\n[extras]\nfoo = 1\n")


def test_parse_error_carries_location():
    bad = MINIMAL.replace("grad_1 = -y1", "grad_1 = y1 +")
    with pytest.raises(LoadError) as err:
        loads(bad)
    assert err.value.line is not None


def test_missing_k_rejected():
    bad = MINIMAL.replace("k = 1\n", "")
    with pytest.raises(LoadError):
        loads(bad)


def test_removed_names_raise_naming_their_replacement():
    import cgsys
    assert {"subst", "pair_brackets", "laplacian", "span_residuals"} <= set(cgsys.REMOVED)
    for name, replacement in cgsys.REMOVED.items():
        with pytest.raises(AttributeError) as err:
            getattr(cgsys, name)
        assert str(err.value).endswith(f"it was removed, use {replacement}")
        assert not any(hasattr(module, name) for module in (
            cgsys.expr, cgsys.geometry, cgsys.flow, cgsys.cauchy, cgsys.verify))
    with pytest.raises(AttributeError, match="^module 'cgsys' has no attribute 'nope'$"):
        cgsys.nope


# --- fuzzed values ---------------------------------------------------------------

ATOMS = st.one_of(
    st.integers(-3, 10**4).map(str), st.floats().map(repr),
    st.sampled_from(["x1", "y1", "y2", "x3", "p1", "s", "q", "k", "sin"]))
EXPR_TEXT = st.recursive(ATOMS, lambda e: st.one_of(
    st.tuples(e, st.sampled_from(["+", "-", "*", "/", "^"]), e).map(" ".join),
    e.map("-{}".format), e.map("sqrt({})".format), e.map("({})".format),
    st.tuples(e, e).map(lambda t: f"atan2({t[0]}, {t[1]})")), max_leaves=6)
VALUES = st.lists(st.one_of(EXPR_TEXT, st.sampled_from([";", "/", "", "(", "="])),
                  max_size=6).map(" ".join)


@pytest.mark.parametrize("name", builtin_names())
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_value_loads_or_is_load_error(name, data):
    lines = builtin_text(name).splitlines()
    entries = [i for i, line in enumerate(lines)
               if "=" in line and not line.startswith("#")]
    i = data.draw(st.sampled_from(entries))
    lines[i] = lines[i].partition("=")[0] + "= " + data.draw(VALUES)
    try:
        sf = loads("\n".join(lines), name=name)
    except LoadError:
        return
    assert sf.system is not None or sf.cr is not None


# --- round-trip ----------------------------------------------------------------


@pytest.mark.parametrize("name", builtin_names())
def test_roundtrip_serialization(name):
    sf = load_builtin(name)
    sf2 = loads(dumps(sf), name=name)
    if sf.system is not None:
        r1 = check_axioms(sf.system, sf.system.table.at(sample_points(sf.system, 25, 3)), 1e-6)
        r2 = check_axioms(sf2.system, sf2.system.table.at(sample_points(sf2.system, 25, 3)), 1e-6)
        for c1, c2 in zip(r1, r2):
            assert np.array_equal(c1.residuals, c2.residuals), (name, c1.name)
    if sf.cr is not None:
        assert sf2.cr is not None
        P = np.asarray(sf.cr.base) + np.array([[0.0], [0.25]])
        t1, t2 = sf.cr.table.at(P), sf2.cr.table.at(P)
        for key in ("sigma", "dsigma", "rho0"):
            assert np.array_equal(t1[key], t2[key]), (name, key)


# --- CLI exit codes --------------------------------------------------------------


def test_cli_verify_pass(capsys):
    assert main(["verify", "heisenberg", "--points", "50", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "abelian=False" in out and "harmonic=True" in out


def test_cli_verify_failure_exit_code():
    assert main(["verify", "broken-demo"]) == 1


def test_cli_load_error_exit_code(capsys):
    assert main(["verify", "does-not-exist"]) == 2
    assert main(["cauchy", "heisenberg"]) == 2       # no [cr_data]
    assert main(["verify", "heisenberg-cr"]) == 2    # no [system]


@pytest.mark.parametrize("argv", [
    ["cauchy", "line", "--grid", "0"],
    ["cauchy", "line", "--grid", "-2"],
    ["verify", "line", "--points", "0"],
    ["verify", "line", "--points", "-5"],
])
def test_cli_rejects_non_positive_counts(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_cli_normal_form_model():
    assert main(["normal-form", "model-k1", "--grid", "5"]) == 0


def test_cli_normal_form_builds_its_flow_config_from_the_file(tmp_path, monkeypatch):
    # [config] steps_per_unit and newton_tol reach normal_form's FlowConfig,
    # as they reach cauchy's
    path = tmp_path / "model-k1-settings.cgs"
    path.write_text(builtin_text("model-k1").replace(
        "[config]\n", "[config]\nsteps_per_unit = 1\nnewton_tol = 1e-3\n"))
    seen = []

    def spy(sys_, p, grid, cfg):
        seen.append(cfg)
        return normal_form(sys_, p, grid, cfg)

    monkeypatch.setattr(cli, "normal_form", spy)
    assert main(["normal-form", str(path), "--grid", "3"]) == 0
    assert [(cfg.steps_per_unit, cfg.newton_tol) for cfg in seen] == [(1, 1e-3)]


@pytest.mark.parametrize("a", [1, 3, 5])
def test_cli_normal_form_passes_the_exponential_family(tmp_path, a):
    # the model x1^2 - y1^2 pushed through (z, w) -> (z, (e^(aw) - 1)/a): a
    # valid holomorphic abelian system whose flow grows like e^(at)
    path = tmp_path / f"exp-{a}.cgs"
    path.write_text(f"""[chart]
complex_dim = 2

[system]
k = 1
field_1 = 0; 0; 1 + {a}*x2; {a}*y2
grad_1 = x1^2 - y1^2 - atan2({a}*y2, 1 + {a}*x2)/{a}
""", encoding="utf-8")
    report = tmp_path / "verify.json"
    assert main(["verify", str(path), "--json", str(report)]) == 0
    flags = json.loads(report.read_text())["classification"]
    assert flags["holomorphic"] and flags["abelian"]
    assert main(["normal-form", str(path)]) == 0


def test_cli_list_json(tmp_path):
    out = tmp_path / "list.json"
    assert main(["list", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["builtins"] == list(builtin_names())


def test_cli_verify_level_set():
    assert main(["verify", "line", "--level-set", "0"]) == 0


def test_cli_verify_file_path(tmp_path):
    path = tmp_path / "mini.cgs"
    path.write_text(MINIMAL)
    assert main(["verify", str(path)]) == 0


@pytest.mark.parametrize("value", ["1,2", "1,x"])
@pytest.mark.parametrize("system", ["heisenberg", "line"])
def test_cli_rejects_malformed_level_set(system, value, capsys):
    assert main(["verify", system, "--level-set", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_cli_verify_domain_fault_is_input_error(tmp_path, capsys):
    # sqrt(x1) leaves its domain at the sample points with x1 < 0
    path = tmp_path / "sqrt.cgs"
    path.write_text(MINIMAL.replace("field_1 = 1; 0", "field_1 = 0; 1")
                    .replace("grad_1 = -y1", "grad_1 = -y1 + sqrt(x1)"))
    assert main(["verify", str(path), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err
    assert "'sqrt(x1)'" in err and "at point " in err and "x1=-" in err


def test_cli_empty_domain_is_a_sampling_error(tmp_path, capsys):
    path = tmp_path / "empty-domain.cgs"
    path.write_text(MINIMAL + "domain = -1\n")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == \
        "sampling error: found 0/100 domain points in 10000 draws\n"


def test_cli_normal_form_needs_a_system_section(capsys):
    assert main(["normal-form", "heisenberg-cr"]) == 2
    assert capsys.readouterr().err == \
        "input error: 'heisenberg-cr' has no [system] section\n"


def test_cli_empty_level_set_passes_with_its_note(capsys):
    assert main(["verify", "line", "--level-set=1e7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("level-set note: level set appears empty for this target\n")
    assert "  level-set " in out and out.endswith("verdict: pass\n")


def _ambient_file(tmp_path):
    """The benchmark's generated (1 + c z^2) d/dz file, c = 1.1."""
    out = tmp_path / "ambient.cgs"
    out.write_text(ambient_cgs(1.1))
    return str(out)


def test_cli_ops_walk_no_expression_tree(tmp_path, monkeypatch, capsys):
    # every check, the level-set search, the normal form and the Cauchy
    # construction with its [oracle] comparison run on compiled tapes and
    # stacks of rows only: with every cgsys binding of the tree walker, the
    # symbolic bracket, the one-point views, field values, the symbolic J,
    # the file writer and the per-query record views raising, each op
    # exits, prints and reports as it does unpatched
    systems = [n for n in builtin_names() if load_builtin(n).system is not None]
    ops = [*(["verify", name] for name in systems),
           ["verify", "heisenberg", "--points", "20", "--level-set=0.1,-0.2,0.3"],
           ["normal-form", "model-k1"], ["normal-form", "model-k1-rotated"],
           ["cauchy", "line"], ["cauchy", "affine"], ["cauchy", "heisenberg-cr"],
           ["cauchy", "affine", "--u-extent", "3"],
           ["cauchy", _ambient_file(tmp_path)]]
    report = tmp_path / "report.json"

    def run(argv):
        report.unlink(missing_ok=True)
        code = main([*argv, "--json", str(report)])
        return code, capsys.readouterr().out, report.read_bytes()

    unpatched = [run(argv) for argv in ops]
    # broken-demo fails its normalization; affine at |u| <= 3 refuses the
    # queries whose Newton solutions leave param_domain
    assert [code for code, _, _ in unpatched] == [
        1 if argv[1] == "broken-demo" or "--u-extent" in argv else 0 for argv in ops]

    def banned(*args):
        raise AssertionError("a tree walk or a one-point view ran at run time")

    functions = {
        "cgsys.expr": ["evaluate"],
        "cgsys.geometry": ["field_matrix", "lie_bracket", "is_holomorphic", "apply_J"],
        "cgsys.flow": ["newton_inverse", "numerical_jacobian", "flow_complex_multi",
                       "flow_real"],
        "cgsys.cauchy": ["compute_PQA", "construct_fields"],
        "cgsys.dsl": ["dumps"],
    }
    for home, names in functions.items():
        for name in names:
            original = getattr(sys.modules[home], name)
            for module_name, module in list(sys.modules.items()):
                if (module_name.split(".")[0] == "cgsys"
                        and getattr(module, name, None) is original):
                    monkeypatch.setattr(module, name, banned)
    monkeypatch.setattr(VectorField, "values", banned)
    monkeypatch.setattr(GradientSystem, "in_domain", banned)
    monkeypatch.setattr(_HolomorphicFrame, "coefficients", banned)
    monkeypatch.setattr(CauchySolution, "records", property(banned))
    loads.cache_clear()      # the ops build their tapes again, patched
    for argv, before in zip(ops, unpatched):
        assert run(argv) == before, argv


def test_cli_cauchy_largest_u_extent_is_refused_without_a_warning(capsys):
    # the axis of the largest double is finite, with no RuntimeWarning: its
    # flow time is refused
    assert main(["cauchy", "line", "--u-extent", "1.7976931348623157e308", "--grid", "7"]) == 1
    assert capsys.readouterr().err == "error: |w| = 1.79769e+308 exceeds max_time 16\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(extent=st.floats(0.0, np.finfo(float).max, exclude_min=True), n=st.integers(1, 300))
def test_symmetric_axis_is_linspace_where_that_is_finite(extent, n):
    # up to a quarter of the largest double linspace itself does not
    # overflow, subnormal extents included; beyond, the axis stays finite
    axis = symmetric_axis(extent, n)
    assert axis[0] == -extent and axis[-1] == (extent if n > 1 else -extent)
    assert np.isfinite(axis).all() and (np.diff(axis) >= 0).all()
    if extent <= np.finfo(float).max / 4:
        assert axis.tobytes() == np.linspace(-extent, extent, n).tobytes()
    else:   # the quartered axis is linspace's, scaled: the halved one agrees
        halved = 2.0 * np.linspace(-extent / 2, extent / 2, n)
        finite = np.isfinite(halved)
        assert np.array_equal(axis[finite], halved[finite])


@pytest.mark.parametrize("command", ["cauchy", "normal-form"])
def test_cli_points_flag_belongs_to_verify(command, capsys):
    system = "line" if command == "cauchy" else "model-k1"
    with pytest.raises(SystemExit) as exc:
        main([command, system, "--points", "9"])
    assert exc.value.code == 2
    assert "--points" in capsys.readouterr().err


def test_cli_refuses_huge_complex_dim_quickly(tmp_path, capsys):
    path = tmp_path / "huge.cgs"
    path.write_text(MINIMAL.replace("complex_dim = 1", "complex_dim = 100000000"))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "complex_dim" in err
    assert "(line 3)" in err


@pytest.mark.parametrize("argv, what", [
    (["cauchy", "heisenberg-cr", "--grid", "100000"], "grid^k = 100000^3"),
    (["cauchy", "line", "--grid", "1000000000000"], "grid^k = 1000000000000^1"),
    (["verify", "heisenberg", "--points", "1000000000000"], "points"),
    (["normal-form", "model-k1", "--grid", "100000000"], "grid^2 = 100000000^2"),
])
def test_cli_refuses_more_rows_than_max_rows_before_any_work(argv, what, capsys,
                                                             monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the run started")
    for name in ("grid_queries", "solve", "verify_system", "normal_form"):
        monkeypatch.setattr(f"cgsys.cli.{name}", never)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {what}: ") and "MAX_ROWS" in err


def test_row_bound_is_inclusive_and_admits_the_largest_runs():
    assert check_rows(MAX_ROWS, "rows") == MAX_ROWS
    with pytest.raises(LoadError, match="MAX_ROWS"):
        check_rows(MAX_ROWS + 1, "rows")
    # normal-form --grid 300, and grid 21 at k = 3
    assert check_rows(300 ** 2, "grid^2") and check_rows(21 ** 3, "grid^k")


def test_steps_per_unit_bound_is_inclusive_and_admits_the_values_in_use():
    for n in (1, 128, 256, 512, DEFAULT_CONFIG.steps_per_unit, MAX_STEPS_PER_UNIT):
        assert loads(f"{MINIMAL}[config]\nsteps_per_unit = {n}\n").config[
            "steps_per_unit"] == n
    with pytest.raises(LoadError, match="MAX_STEPS_PER_UNIT"):
        loads(f"{MINIMAL}[config]\nsteps_per_unit = {MAX_STEPS_PER_UNIT + 1}\n")


def test_cli_refuses_huge_steps_per_unit_before_any_flow(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the run started")
    for name in ("grid_queries", "solve"):
        monkeypatch.setattr(f"cgsys.cli.{name}", never)
    path = tmp_path / "steps.cgs"
    path.write_text(_edited("line", "[config]\n",
                            "[config]\nsteps_per_unit = 1000000000000\n"))
    assert main(["cauchy", str(path), "--grid", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "MAX_STEPS_PER_UNIT" in err


def test_complex_dim_bound_is_inclusive():
    text = f"[chart]\ncomplex_dim = {MAX_COMPLEX_DIM}\n"
    assert loads(text).chart.N == MAX_COMPLEX_DIM
    with pytest.raises(LoadError, match="complex_dim"):
        loads(f"[chart]\ncomplex_dim = {MAX_COMPLEX_DIM + 1}\n")


def test_cli_param_domain_fault_at_a_newton_solution_refuses_the_query(
        tmp_path, capsys):
    path = tmp_path / "log-domain.cgs"
    path.write_text(_edited("affine", "param_domain = p1 - 0.25",
                            "param_domain = log(p1 + 0.75)"))
    assert main(["cauchy", str(path), "--grid", "5"]) == 0
    # at |u| <= 3 Newton lands on p1 = -1, where log(p1 + 0.75) faults
    report = tmp_path / "report.json"
    assert main(["cauchy", str(path), "--u-extent", "3", "--grid", "5",
                 "--json", str(report)]) == 1
    refused = [r["error"] for r in json.loads(report.read_text())["records"]
               if not r["ok"]]
    assert refused
    assert all(e.startswith("Newton solution has parameters [-1.0, ")
               and "param_domain faults: log of non-positive value" in e
               for e in refused)
    # the fault names each query by its own index
    records = json.loads(report.read_text())["records"]
    assert all(f"at point {i} (p1=" in r["error"]
               for i, r in enumerate(records) if not r["ok"])
    assert "Traceback" not in capsys.readouterr().err
    # a fault while sampling the parameters stays an input error
    path.write_text(_edited("affine", "param_domain = p1 - 0.25",
                            "param_domain = log(p1 - 0.5)"))
    assert main(["cauchy", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: log of non-positive value in 'log(p1 - 0.5)' at point ")


CR = "sigma = s; 0\n"                       # in line's [cr_data]
ORACLE = "[oracle]\nfield_1 = 1; 0\ngrad_1 = -y1\n"

# id -> (argv, file text): "FILE" in argv names a file holding the text, or a
# directory when the text is None
MALFORMED = {
    "chart-dim-0": (["verify", "FILE"], _edited(MINIMAL, "= 1\n", "= 0\n")),
    "chart-names-repeat": (["verify", "FILE"],
                           _edited(MINIMAL, "= 1\n", "= 1\nnames = x x\n")),
    "system-k-word": (["verify", "FILE"], _edited(MINIMAL, "k = 1", "k = one")),
    "system-domain-q": (["verify", "FILE"],
                        _edited(MINIMAL, "-y1", "-y1\ndomain = q")),
    "system-grad-q": (["verify", "FILE", "--level-set", "0"],
                      _edited(MINIMAL, "-y1", "-y1 + q")),
    "cr-field-q": (["cauchy", "FILE"],
                   _edited("line", CR + "field_1 = 1;", CR + "field_1 = 1 + q;")),
    "cr-param_domain-q": (["cauchy", "FILE"],
                          _edited("line", CR, CR + "param_domain = q\n")),
    "cr-base_params-word": (["cauchy", "FILE"],
                            _edited("line", CR, CR + "base_params = x\n")),
    "cr-base_params-nan": (["cauchy", "FILE"],
                           _edited("line", CR, CR + "base_params = nan\n")),
    "cr-params-repeat": (["cauchy", "FILE"],
                         _edited("line", "params = s", "params = s s s")),
    "cr-base_params-3": (["cauchy", "FILE"],
                         _edited("line", CR, CR + "base_params = 0; 0; 0\n")),
    "cr-embed-word": (["cauchy", "FILE"],
                      _edited("affine", "embed = 1 1; 1 2", "embed = 1 x")),
    "cr-embed-outside": (["cauchy", "FILE"],
                         _edited("affine", "embed = 1 1; 1 2", "embed = 1 1; 1 5")),
    "cr-mixed-forms": (["cauchy", "FILE"], _edited("line", CR, CR + "embed = 1 1\n")),
    # every query row is evaluated at the base, where sigma faults
    "cr-sigma-faults-at-base": (["cauchy", "FILE"],
                                _edited("line", CR, "sigma = log(s - 1); 0\n")),
    "cr-base-inf": (["cauchy", "FILE", "--grid", "2"],
                    _edited("affine", "base = 0.0 0.0 / 0.0 1.0", "base = 0.0 0.0 / 0.0 inf")),
    "cr-basis-1e309": (["cauchy", "FILE", "--grid", "2"],
                       _edited("affine", "basis_1 = 1.0 0.0", "basis_1 = 1e309 0.0")),
    "oracle-field-q": (["cauchy", "FILE"],
                       _edited("line", ORACLE, ORACLE.replace("1; 0", "1; q"))),
    "oracle-no-field": (["cauchy", "FILE"],
                        _edited("line", ORACLE, ORACLE.replace("field_1 = 1; 0\n", ""))),
    "oracle-grad-q": (["cauchy", "FILE"],
                      _edited("line", ORACLE, ORACLE.replace("-y1", "-y1 + q"))),
    "config-steps-0": (["verify", "FILE"], MINIMAL + "[config]\nsteps_per_unit = 0\n"),
    "config-steps-huge": (["cauchy", "FILE", "--grid", "3"],
                          _edited("line", "[config]\n",
                                  "[config]\nsteps_per_unit = 1000000000000\n")),
    "config-seed-neg": (["verify", "FILE"], MINIMAL + "[config]\nseed = -1\n"),
    "flag-seed-neg": (["verify", "line", "--seed", "-1"], None),
    "flag-grid-0": (["normal-form", "model-k1", "--grid", "0"], None),
    "flag-u-extent-nan": (["cauchy", "line", "--u-extent", "nan"], None),
    "flag-extent-nan": (["normal-form", "model-k1", "--extent", "nan"], None),
    "flag-tol-nan": (["verify", "line", "--tol", "nan"], None),
    "flag-newton-tol-neg": (["cauchy", "line", "--newton-tol", "-1"], None),
    "path-is-directory": (["verify", "FILE"], None),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_cli_malformed_input_is_input_error(case, tmp_path, capsys):
    argv, text = MALFORMED[case]
    path = tmp_path
    if text is not None:
        path = tmp_path / "bad.cgs"
        path.write_text(text)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def _deep(shape: str, depth: int, a: str = "x1", b: str = "y1") -> str:
    """An expression of the given depth: a nesting of parentheses (the
    parser's recursion), or a flat sum or product (a tree as deep as it is
    long, which hashing and equality walk recursively)."""
    if shape == "parentheses":
        return "(" * (depth - 1) + f"{a} + {b}" + ")" * (depth - 1)
    op = {"sum": " + ", "product": "*"}[shape]
    return op.join([b] + [a] * (depth - 1))


@pytest.mark.parametrize("shape", ["parentheses", "sum", "product"])
def test_expressions_at_the_depth_bound_run_in_every_command(shape, tmp_path, capsys):
    # at MAX_DEPTH in the [system] gradient, which verify differentiates
    # twice, and in the [cr_data] and [oracle] slots that cauchy compiles
    def text(depth):
        return _edited(_edited(_edited(
            "line", "grad_1 = -y1\n", f"grad_1 = {_deep(shape, depth)}\n"),
            CR, CR + f"param_domain = {_deep(shape, depth, 's', 's')}\n"),
            ORACLE, ORACLE.replace("-y1", _deep(shape, depth)))
    path = tmp_path / "deep.cgs"
    path.write_text(text(MAX_DEPTH))
    for argv in (["verify", "--points", "5"], ["normal-form", "--grid", "3"],
                 ["cauchy", "--grid", "2"]):
        assert main([argv[0], str(path), *argv[1:]]) in (0, 1)
        assert "input error" not in capsys.readouterr().err
    path.write_text(text(MAX_DEPTH + 1))
    assert main(["verify", str(path)]) == 2
    assert "MAX_DEPTH" in capsys.readouterr().err


# --- fuzzed files through main --------------------------------------------------------

INJECTED = ["log(", "/0", "^-1", "1e309", "(", ")", ";", "=", "\n[system]\n",
            "\ndomain = log(x1)\n", "\nparam_domain = sqrt(s)\n",
            "\nsteps_per_unit = 0\n", "\nk = 2\n", "-", "0", "x1", "sqrt(-1)"]
RUNS = [["verify", "FILE", "--points", "5"], ["cauchy", "FILE", "--grid", "2"],
        ["normal-form", "FILE", "--grid", "3"]]


def _mutated(data, text: str) -> str:
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["insert", "delete", "inject"]))
        if edit == "insert":
            text = text[:at] + data.draw(st.characters(max_codepoint=127)) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + data.draw(st.integers(1, 4)):]
        else:
            text = text[:at] + data.draw(st.sampled_from(INJECTED)) + text[at:]
    return text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_files_keep_the_exit_code_contract(data, tmp_path_factory):
    # every run keeps the contract table's universal rules
    text = _mutated(data, builtin_text(data.draw(st.sampled_from(builtin_names()))))
    cwd = tmp_path_factory.mktemp("fuzz")
    (cwd / "fuzzed.cgs").write_text(text)
    for argv in RUNS:
        code, _, err, caught = in_process(["fuzzed.cgs" if a == "FILE" else a for a in argv], cwd)
        assert not universal_faults(code, err, caught), (argv, text, err)


# --- JSON reports ------------------------------------------------------------------


@pytest.fixture(scope="module")
def schema():
    return json.loads(schema_text())


@pytest.mark.parametrize("name", [n for n in builtin_names()
                                  if load_builtin(n).system is not None])
def test_verify_reports_validate_against_schema(name, tmp_path_factory, schema):
    out = tmp_path_factory.mktemp("reports") / f"{name}.json"
    main(["verify", name, "--points", "25", "--json", str(out)])
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema)
    assert doc["verdict"] in ("pass", "fail")


def test_cauchy_report_validates(tmp_path, schema):
    out = tmp_path / "cauchy.json"
    assert main(["cauchy", "line", "--grid", "5", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema)
    assert any(c["name"] == "cauchy.gradient-oracle" for c in doc["checks"])


def test_cauchy_records_validate_against_schema(tmp_path, schema):
    # records on ambient fields (not matrix-group ones) carry rk_steps and
    # rk_error; the contract case cauchy-affine-wide checks group records
    out = tmp_path / "cauchy.json"
    assert main(["cauchy", _ambient_file(tmp_path), "--grid", "3", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema)
    records = doc["records"]
    assert all("rk_steps" in r for r in records)
    # the record layouts admit no other key
    records[0]["jxi"] = records[0]["query"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


def test_normal_form_report_validates(tmp_path, schema):
    out = tmp_path / "nf.json"
    assert main(["normal-form", "model-k1", "--grid", "5",
                 "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema)
    assert "profile" in doc


def test_reports_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for argv in (["verify", "affine", "--points", "40", "--seed", "11"],
                 ["cauchy", "affine", "--grid", "4"],
                 ["cauchy", "line", "--grid", "5"],
                 ["cauchy", _ambient_file(tmp_path), "--grid", "3", "--u-extent", "0.25"],
                 ["cauchy", "heisenberg-cr", "--grid", "4"]):
        for out in (a, b):
            assert main([*argv, "--json", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_report_floats_have_17_significant_digits():
    doc = {"x": 0.1}
    assert canonical_json(doc) == '{"x": 0.10000000000000001}\n'


def test_report_digest_reflects_input():
    from cgsys.report import input_digest
    assert input_digest(builtin_text("line")) != input_digest(builtin_text("affine"))
    assert len(input_digest("x")) == 64


def test_main_builds_its_parser_once_and_calls_share_no_options(tmp_path, capsys):
    from cgsys import cli
    plain, flagged, again = (tmp_path / f"{n}.json" for n in ("plain", "flagged", "again"))
    assert main(["verify", "line", "--json", str(plain)]) == 0
    assert main(["verify", "line", "--points", "12", "--seed", "3", "--tol", "1e-6",
                 "--level-set=0.5", "--json", str(flagged)]) == 0
    assert main(["cauchy", "line", "--grid", "3", "--u-extent", "0.25"]) == 0
    assert main(["verify", "line", "--json", str(again)]) == 0
    # the flags of the calls in between leave the defaults as they were
    assert again.read_text() == plain.read_text()
    doc = json.loads(flagged.read_text())
    assert (doc["points"], doc["seed"]) == (12, 3)
    assert [c["name"] for c in doc["checks"]][-1] == "level-set"
    assert "level-set" not in [c["name"] for c in json.loads(plain.read_text())["checks"]]
    assert cli._build_parser() is cli._build_parser()
    capsys.readouterr()
