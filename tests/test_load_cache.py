"""``dsl.loads`` builds each system text once per process: it hands every
caller of one (text, name) the same immutable SystemFile, so a repeated op
parses and compiles nothing and gives the bytes of its first run."""

import dataclasses
import importlib.resources
import sys

import numpy as np
import pytest

import cgsys.expr
from cgsys.dsl import (
    LOAD_CACHE_SIZE, LoadError, builtin_names, builtin_text, load, load_builtin, loads,
)
from cli_contract import MINIMAL, REPORT, edited, in_process

OPS = [[command, name] for command in ("verify", "cauchy", "normal-form")
       for name in builtin_names()]
OPS.append(["verify", "heisenberg", "--points", "20", "--level-set=0.1,-0.2,0.3"])


@pytest.fixture
def builds(monkeypatch):
    """The calls of ``parse_expr`` and ``compile_exprs`` through every cgsys
    binding, by name, from a cold load cache."""
    calls = []
    for name in ("parse_expr", "compile_exprs"):
        inner = getattr(cgsys.expr, name)

        def counted(*args, _name=name, _inner=inner):
            calls.append(_name)
            return _inner(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "cgsys" and getattr(module, name, None) is inner:
                monkeypatch.setattr(module, name, counted)
    loads.cache_clear()
    return calls


def _run(argv, cwd):
    """Exit code, stdout, stderr, warnings and report bytes of one op in cwd."""
    (cwd / REPORT).unlink(missing_ok=True)
    out = in_process([*argv, "--json", REPORT], cwd)
    return (*out, (cwd / REPORT).read_bytes() if (cwd / REPORT).exists() else None)


@pytest.mark.parametrize("argv", OPS, ids=" ".join)
def test_a_repeated_op_parses_and_compiles_nothing(argv, builds, tmp_path):
    cold = _run(argv, tmp_path)
    builds.clear()
    warm = _run(argv, tmp_path)
    assert builds == []
    assert warm == cold and not cold[3]


def test_a_rewritten_file_is_built_again(builds, tmp_path):
    # the same path with one constant of the field changed: its text is new,
    # so it is parsed and compiled again, and d^c u(xi) = 2 fails
    path = tmp_path / "line.cgs"
    path.write_text(builtin_text("line"), encoding="utf-8")
    first = _run(["verify", "line.cgs"], tmp_path)
    assert first[0] == 0
    path.write_text(edited("line", "field_1 = 1; 0", "field_1 = 2; 0"), encoding="utf-8")
    builds.clear()
    second = _run(["verify", "line.cgs"], tmp_path)
    assert "parse_expr" in builds and "compile_exprs" in builds
    assert second[0] == 1 and second[4] != first[4]


def test_loads_shares_one_object_per_text_and_name():
    text = edited(MINIMAL, "grad_1 = -y1", "grad_1 = -y1 + 0.5")
    sf = loads(text, name="a")
    assert loads(text, name="a") is sf
    assert loads(text, name="b") is not sf and loads(text, name="b").name == "b"
    assert load_builtin("line") is load_builtin("line")


def test_a_warm_builtin_load_reads_no_package_resource(monkeypatch):
    # the gallery text is read once per name: a second load_builtin is two
    # dictionary lookups, and the nine builtins bound that cache
    first = load_builtin("heisenberg")

    def banned(*args):
        raise AssertionError("a package resource was read")

    monkeypatch.setattr(importlib.resources, "files", banned)
    assert load_builtin("heisenberg") is first
    assert builtin_text.cache_info().maxsize == len(builtin_names())
    with pytest.raises(LoadError, match="unknown builtin system 'nothing'"):
        load_builtin("nothing")


def test_the_cache_keeps_the_latest_texts_and_no_error():
    loads.cache_clear()
    texts = [f"# text {i}\n{MINIMAL}" for i in range(LOAD_CACHE_SIZE + 1)]
    held = [loads(text) for text in texts[:-1]]
    assert all(loads(text) is sf for text, sf in zip(texts, held))
    loads(texts[-1])            # one text past the bound evicts the oldest
    assert loads.cache_info().currsize == LOAD_CACHE_SIZE
    assert loads(texts[1]) is held[1]
    again = loads(texts[0])
    assert again is not held[0] and again.text == held[0].text
    for _ in range(2):
        with pytest.raises(LoadError, match="missing \\[chart\\]"):
            loads("[system]\nk = 1\n")
    assert loads.cache_info().currsize == LOAD_CACHE_SIZE


def test_loaded_objects_are_immutable():
    affine, heis = load_builtin("affine"), load_builtin("heisenberg-cr")
    objects = [(affine, "name"), (load_builtin("heisenberg").system, "grads"),
               (affine.cr, "base_params"), (heis.cr.group, "base")]
    for obj, name in objects:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    with pytest.raises(TypeError):
        affine.config["seed"] = 1
    arrays = [affine.cr.base_params, affine.cr.base, heis.cr.group.base,
              *heis.cr.group.basis, *affine.cr.group.basis]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    assert affine.cr.base_params.tolist() == [1.0, 0.0]


def test_a_file_with_a_byte_order_mark_loads_as_without(tmp_path):
    plain, marked = tmp_path / "line.cgs", tmp_path / "bom" / "line.cgs"
    marked.parent.mkdir()
    plain.write_text(load_builtin("line").text, encoding="utf-8")
    marked.write_text("\ufeff" + load_builtin("line").text, encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load(marked) is load(plain) is load_builtin("line")
    assert np.array_equal(load(marked).cr.base, np.zeros(1))
