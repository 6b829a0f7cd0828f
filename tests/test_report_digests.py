"""``report_digests.py`` gives one digest per command line, the same on
every run of one tree and on the warm pass of one run."""

import shutil
from pathlib import Path

import pytest

from report_digests import HistoryError, argv_list, digests, moved

SRC = Path(__file__).resolve().parents[1] / "src"
ARGVS = [["verify", "line"], ["cauchy", "line", "--grid", "3"],
         ["normal-form", "model-k1", "--grid", "3"]]


def test_two_runs_of_one_tree_give_equal_digests():
    first, second = digests(SRC, ARGVS), digests(SRC, ARGVS)
    assert list(first) == [" ".join(argv) for argv in ARGVS]
    assert first == second and not moved(first, second)
    assert len(set(first.values())) == len(ARGVS)


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
    assert len(argvs) == len({tuple(argv) for argv in argvs}) == 93
    named = {arg for argv in argvs for arg in argv if arg.endswith(".cgs")}
    assert named == set(files) and not any(name.startswith("bench") for name in files)


def test_moved_lists_changed_and_one_sided_command_lines():
    assert moved({"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "4", "d": "5"}) == [
        "b", "c", "d"]
