"""File format, gallery, CLI exit codes, JSON schema and determinism."""

import json

import jsonschema
import numpy as np
import pytest

from cgsys.cli import main
from cgsys.dsl import (
    LoadError, builtin_names, builtin_text, dumps, load_builtin, loads,
)
from cgsys.report import canonical_json, schema_text
from cgsys.verify import check_axioms

MINIMAL = """
[chart]
complex_dim = 1

[system]
k = 1
field_1 = 1; 0
grad_1 = -y1
"""


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


# --- round-trip ----------------------------------------------------------------


@pytest.mark.parametrize("name", builtin_names())
def test_roundtrip_serialization(name):
    sf = load_builtin(name)
    sf2 = loads(dumps(sf), name=name)
    if sf.system is not None:
        r1 = check_axioms(sf.system, 25, seed=3, tol=1e-6)
        r2 = check_axioms(sf2.system, 25, seed=3, tol=1e-6)
        for c1, c2 in zip(r1.checks, r2.checks):
            assert np.array_equal(c1.residuals, c2.residuals), (name, c1.name)
    if sf.cr is not None:
        assert sf2.cr is not None
        p = np.asarray(sf.cr.base) + 0.25
        assert np.allclose(sf.cr.sigma_at(p), sf2.cr.sigma_at(p), atol=0)
        assert np.allclose(sf.cr.initial_field_values(p),
                           sf2.cr.initial_field_values(p), atol=0)


# --- CLI exit codes --------------------------------------------------------------


def test_cli_verify_pass(capsys):
    assert main(["verify", "heisenberg", "--points", "50", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "abelian=False" in out and "harmonic=True" in out


def test_cli_verify_failure_exit_code():
    assert main(["verify", "broken-demo"]) == 1


def test_cli_verify_line_alt_passes():
    assert main(["verify", "line-alt"]) == 0


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


def test_cli_cauchy_non_transverse(capsys):
    assert main(["cauchy", "non-transverse-demo"]) == 1
    err = capsys.readouterr().err
    assert "witness" in err


def test_cli_normal_form_refusal(capsys):
    assert main(["normal-form", "heisenberg"]) == 1
    assert "refused" in capsys.readouterr().err


def test_cli_normal_form_model():
    assert main(["normal-form", "model-k1", "--grid", "5"]) == 0


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    names = builtin_names()
    positions = [out.index(n) for n in names]
    assert positions == sorted(positions)


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
    for out in (a, b):
        assert main(["verify", "affine", "--points", "40", "--seed", "11",
                     "--json", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_floats_have_17_significant_digits():
    doc = {"x": 0.1}
    assert canonical_json(doc) == '{"x": 0.10000000000000001}\n'


def test_report_digest_reflects_input():
    from cgsys.report import input_digest
    assert input_digest(builtin_text("line")) != input_digest(builtin_text("affine"))
    assert len(input_digest("x")) == 64
