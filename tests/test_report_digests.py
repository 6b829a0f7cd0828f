"""``report_digests.py`` gives one digest per command line, the same on
every run of one tree and on the warm pass of one run."""

import json
import shutil
from pathlib import Path

import pytest

from report_digests import (
    PARTS, HistoryError, _main, argv_list, digests, moved, parts_moved, passes,
)

SRC = Path(__file__).resolve().parents[1] / "src"
ARGVS = [["verify", "line"], ["cauchy", "line", "--grid", "3"],
         ["normal-form", "model-k1", "--grid", "3"]]


def test_two_runs_of_one_tree_give_equal_digests():
    first, second = digests(SRC, ARGVS), digests(SRC, ARGVS)
    assert list(first) == [" ".join(argv) for argv in ARGVS]
    assert first == second and not moved(first, second)
    assert all(list(digest) == list(PARTS) for digest in first.values())
    # the three commands write three reports and print three stdouts; none
    # warns, and all exit 0 with an empty stderr
    for part, distinct in zip(PARTS, (1, 3, 1, 1, 3)):
        assert len({digest[part] for digest in first.values()}) == distinct, part


def test_an_output_that_depends_on_the_process_history_is_refused(tmp_path):
    # the tree with a module-level counter of finished ops printed on the
    # verdict line: its warm pass prints other counts than its cold pass
    shutil.copytree(SRC / "cgsys", tmp_path / "cgsys",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "cgsys" / "cli.py"
    verdict = '    print("verdict:", doc["verdict"])\n'
    text = cli.read_text(encoding="utf-8")
    assert text.count(verdict) == 1
    cli.write_text(text.replace(verdict, "    global _FINISHED\n    _FINISHED += 1\n"
                                + verdict.replace(")", ", _FINISHED)")) + "\n_FINISHED = 0\n",
                   encoding="utf-8")
    with pytest.raises(HistoryError, match=f"^{len(ARGVS)} command lines"):
        digests(tmp_path, ARGVS)


def test_the_command_lines_are_distinct_and_name_their_generated_files():
    argvs, files = argv_list()
    assert len(argvs) == len({tuple(argv) for argv in argvs}) == 97
    named = {arg for argv in argvs for arg in argv if arg.endswith(".cgs")}
    assert named == set(files) and not any(name.startswith("bench") for name in files)


def test_moved_lists_changed_and_one_sided_command_lines():
    assert moved({"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "4", "d": "5"}) == [
        "b", "c", "d"]


def test_compare_names_the_parts_that_moved(tmp_path, capsys):
    same = dict.fromkeys(PARTS, "0")
    base = {"a": same, "b": same, "c": same}
    head = {"a": same, "b": dict(same, stderr="1", report="2"), "d": same}
    assert parts_moved(base["b"], head["b"]) == "stderr, report"
    for name, doc in (("base.json", base), ("head.json", head)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    assert _main(["--compare", str(tmp_path / "base.json"), str(tmp_path / "head.json")]) == 0
    assert capsys.readouterr().out == (
        "3 of 4 command lines moved\n- `b`: stderr, report\n- `c`: only in base\n"
        "- `d`: only in head\n")


def test_the_warm_pass_runs_the_command_lines_in_reverse_order():
    # a fake run whose output is the command line that ran just before,
    # the history a cache filled by whichever op ran first would keep
    orders, last = [], [None]

    def run(argvs):
        orders.append([" ".join(argv) for argv in argvs])
        out = {}
        for argv in argvs:
            out[" ".join(argv)], last[0] = last[0], " ".join(argv)
        return out

    argvs = [["cauchy", "a"], ["cauchy", "b"], ["verify", "c"]]
    cold, warm = passes(argvs, run)
    assert orders == [["cauchy a", "cauchy b", "verify c"], ["verify c", "cauchy b", "cauchy a"]]
    assert list(warm) == list(cold) == orders[0]
    # in the same order only the first line would follow another line;
    # reversed, every line does
    assert moved(cold, warm) == orders[0]
