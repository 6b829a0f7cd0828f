"""One jets tape per system: every tape a gradient system runs is a
selection of ``GradientSystem.jets``.

The jets Table compiles ``jet_blocks`` (X, DX, dU, D2U and U, in that
order) once over the chart.  The check table is a composition on the
selection of X, DX, dU and D2U, the complex flows' stage tape one on the
selection of X and DX, ``gradient_map`` is the selection of U and
``gradient_jets`` that of U and dU (``Table.select``).  A cold op compiles
one tape over the chart per system; with U last, the check table's and
the stage tape's instructions are those of the tapes built from their own
jets Tables, slot numbers aside."""

import sys

import pytest

import cgsys
from cgsys.cli import main
from cgsys.dsl import builtin_names, load_builtin, loads
from cgsys.expr import Table, compile_exprs, diff
from cgsys.flow import _HolomorphicFrame
from cgsys.geometry import Composition, jet_blocks
from cgsys.verify import GradientSystem, _check_terms, sample_points

SYSTEMS = [n for n in builtin_names() if load_builtin(n).system is not None]
COMMANDS = (["verify", "model-k1", "--level-set", "0.3"],
            ["normal-form", "model-k1", "--grid", "3"],
            ["normal-form", "line"])


def assert_one_compile_over_the_chart(monkeypatch, argv):
    """A cold run of argv compiles one tape over the chart's names: the
    system's jets, all of them."""
    sys_ = load_builtin(argv[1]).system
    names, jets = sys_.chart.names, len(sys_.jets.exprs)
    loads.cache_clear()      # the op loads its text anew
    cgsys.geometry._plan.cache_clear()
    compiled = []
    inner = cgsys.expr.compile_exprs

    def counted(exprs, over):
        exprs = list(exprs)
        if tuple(over) == names:
            compiled.append(len(exprs))
        return inner(exprs, over)

    with monkeypatch.context() as patch:
        for module_name, module in list(sys.modules.items()):
            if (module_name.split(".")[0] == "cgsys"
                    and getattr(module, "compile_exprs", None) is inner):
                patch.setattr(module, "compile_exprs", counted)
        assert main(argv) == 0
    assert compiled == [jets], argv


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_a_cold_op_compiles_one_jets_tape_over_the_chart(argv, monkeypatch, capsys):
    assert_one_compile_over_the_chart(monkeypatch, argv)
    capsys.readouterr()


def test_a_frame_built_from_its_own_jets_fails_the_count(monkeypatch, capsys):
    # the negative control: the stage tape built the old way, from a jets
    # Table of its own, compiles X and DX a second time
    monkeypatch.setattr(GradientSystem, "frame",
                        property(lambda self: _HolomorphicFrame(list(self.fields))))
    with pytest.raises(AssertionError):
        assert_one_compile_over_the_chart(monkeypatch, COMMANDS[1])
    capsys.readouterr()


def ops(program):
    """The tape's instructions and outputs with every slot named by what it
    holds: an input by its column, a constant by its bits, a value by the
    position of the instruction that writes it."""
    base = len(program.names)
    held = {slot: ("input", slot) for slot in range(base)}
    held.update({slot: ("const", float(value).hex())
                 for slot, value in enumerate(program._registers, base) if value is not None})
    code = []
    for pos, (fn, dst, a, b, op) in enumerate(program.code):
        code.append((op, fn.__name__, held[a], None if b is None else held[b]))
        held[dst] = ("value", pos)
    return code, [held[slot] for slot in program.outputs]


@pytest.mark.parametrize("name", SYSTEMS)
def test_the_selected_tapes_are_the_ones_their_own_jets_give(name):
    sys_ = load_builtin(name).system
    names = sys_.chart.names
    own = Table(jet_blocks(sys_.grads, sys_.fields, sys_.chart)[:4], names)
    assert ops(sys_.table.program) == ops(Composition(own, _check_terms).program)
    assert ops(sys_.frame.program) == ops(_HolomorphicFrame(list(sys_.fields)).program)
    # U and U with dU: as many instructions as compiling them alone, in the
    # jets' order, and the same values bit for bit
    dU = [diff(g, x) for g in sys_.grads for x in names]
    pts = sample_points(sys_, 20, 3)
    for tape, exprs in ((sys_.gradient_map, sys_.grads),
                        (sys_.gradient_jets, [*sys_.grads, *dU])):
        alone = compile_exprs(exprs, names)
        assert len(tape) == len(alone)
        assert tape(pts).tobytes() == alone(pts).tobytes()
