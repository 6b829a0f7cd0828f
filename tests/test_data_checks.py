"""Each CR datum is checked once: ``CRInitialData.checks`` holds the
transversality, tangency and involutivity checks of a data object, so a
repeated ``cauchy`` op draws no parameter samples and gives the bytes of its
first run, and data whose checks raise raises on every call.  normal_form's
holomorphic-abelian gate is found once per system in the same way
(``GradientSystem.normal_form_residuals``)."""

import dataclasses

import numpy as np
import pytest

import cgsys.cauchy
import cgsys.verify
from cgsys.cauchy import CauchyError, solve
from cgsys.dsl import builtin_names, builtin_text, load_builtin, loads
from cgsys.expr import DomainError
from cgsys.verify import GridSpec, NormalFormRefusal, normal_form
from cli_contract import CASES, REPORT, edited
from report_digests import CONTRACT_CASES
from test_cauchy import _line_with
from test_load_cache import _run

# every gallery entry with CR data, and the contract table's ambient cauchy
# files; cauchy-not-tangent's checks raise, so it draws on every run (below)
WARM = [(["cauchy", name], {}) for name in builtin_names()
        if load_builtin(name).cr is not None] + [
    ([a for a in case.argv if a not in ("--json", REPORT)], case.files)
    for case in CASES if case.id in CONTRACT_CASES and case.argv[0] == "cauchy"
    and case.id != "cauchy-not-tangent"]


@pytest.fixture
def draws(monkeypatch):
    """The calls of ``param_samples`` and ``verify.sample_points``, by name,
    from a cold load cache."""
    calls = []
    for module, name in ((cgsys.cauchy, "param_samples"), (cgsys.verify, "sample_points")):
        inner = getattr(module, name)

        def counted(*args, _name=name, _inner=inner):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(module, name, counted)
    loads.cache_clear()
    return calls


@pytest.mark.parametrize("argv, files", WARM, ids=[" ".join(argv) for argv, _ in WARM])
def test_a_repeated_cauchy_op_draws_nothing_and_gives_the_same_bytes(argv, files, draws,
                                                                     tmp_path):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    cold = _run(argv, tmp_path)
    draws.clear()
    warm = _run(argv, tmp_path)
    assert draws == []
    assert warm == cold and not cold[3]


def test_non_transverse_data_is_refused_with_its_witness_on_every_call(draws, tmp_path):
    runs = [_run(["cauchy", "non-transverse-demo"], tmp_path) for _ in range(3)]
    assert draws == ["param_samples"]
    code, _, stderr, _, _ = runs[0]
    assert code == 1 and "witness parameters: [0.0]" in stderr
    assert runs[1] == runs[2] == runs[0]


def test_data_whose_checks_raise_raises_on_every_call(draws):
    # cached_property stores no exception: each call checks, and raises, anew
    query = [[0.5, 0.1]]
    not_tangent = _line_with("0.5")
    for _ in range(3):
        with pytest.raises(CauchyError) as err:
            solve(not_tangent, query)
        assert str(err.value) == "initial fields are not tangent to M (residual 5.000e-01)"
    faulting = _line_with(param_domain=["log(s + 0.5)"])
    messages = set()
    for _ in range(3):
        with pytest.raises(DomainError) as err:
            solve(faulting, query)
        messages.add(str(err.value))
    assert len(messages) == 1 and messages.pop().startswith("log of non-positive value")
    assert draws == ["param_samples"] * 6
    assert "checks" not in vars(not_tangent) and "checks" not in vars(faulting)


def test_a_rewritten_file_is_a_new_data_object_and_is_checked_again(draws, tmp_path):
    path = tmp_path / "line.cgs"
    path.write_text(builtin_text("line"), encoding="utf-8")
    argv = ["cauchy", "line.cgs", "--grid", "3"]
    first = _run(argv, tmp_path)
    assert _run(argv, tmp_path) == first and draws == ["param_samples"]
    # sigma = 2s: the same line, another parametrization, so other params
    text = edited("line", "sigma = s; 0", "sigma = 2*s; 0")
    path.write_text(text, encoding="utf-8")
    second = _run(argv, tmp_path)
    assert draws == ["param_samples"] * 2
    assert second[0] == 0 and second[4] != first[4]
    assert loads(text, name="line").cr is not loads(builtin_text("line"), name="line").cr


def test_the_checks_record_is_immutable():
    checks = load_builtin("heisenberg-cr").cr.checks
    assert checks.witness is None and checks.note == ""
    assert (checks.min_rank, checks.required_rank) == (6, 6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        checks.tangency = 1.0
    refused = load_builtin("non-transverse-demo").cr.checks
    assert np.array_equal(refused.witness, [0.0])
    with pytest.raises(ValueError, match="read-only"):
        refused.witness[0] = 1.0
    residuals = load_builtin("model-k1").system.normal_form_residuals
    with pytest.raises(TypeError):
        residuals["abelian"] = 0.0


def test_a_repeated_normal_form_draws_nothing(draws, tmp_path):
    for name in ("model-k1", "heisenberg"):
        cold = _run(["normal-form", name, "--grid", "3"], tmp_path)
        assert draws == ["sample_points"]
        draws.clear()
        assert _run(["normal-form", name, "--grid", "3"], tmp_path) == cold
        assert draws == []
    assert cold[0] == 1 and cold[2].startswith("refused: system heisenberg is not")


def test_the_normal_form_gate_compares_its_residuals_with_each_calls_tolerance():
    # line-alt is not holomorphic abelian: refused at the default class_tol, then
    # straightened at a tolerance above its residuals, then refused again
    sys_ = load_builtin("line-alt").system
    grid = GridSpec(nx=3, ny=3, extent=0.4)
    with pytest.raises(NormalFormRefusal, match=r"holomorphic=False, abelian=False"):
        normal_form(sys_, np.zeros(2), grid)
    assert normal_form(sys_, np.zeros(2), grid, class_tol=1e9).points > 0
    with pytest.raises(NormalFormRefusal):
        normal_form(sys_, np.zeros(2), grid)
