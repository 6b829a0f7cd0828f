"""``report_digests.py`` gives one digest per command line, the same on
every run of one tree."""

from pathlib import Path

from report_digests import argv_list, digests, moved

SRC = Path(__file__).resolve().parents[1] / "src"
ARGVS = [["verify", "line"], ["cauchy", "line", "--grid", "3"],
         ["normal-form", "model-k1", "--grid", "3"]]


def test_two_runs_of_one_tree_give_equal_digests():
    first, second = digests(SRC, ARGVS), digests(SRC, ARGVS)
    assert list(first) == [" ".join(argv) for argv in ARGVS]
    assert first == second and not moved(first, second)
    assert len(set(first.values())) == len(ARGVS)


def test_the_command_lines_are_distinct_and_name_their_generated_files():
    argvs, files = argv_list()
    assert len(argvs) == len({tuple(argv) for argv in argvs}) == 89
    named = {arg for argv in argvs for arg in argv if arg.endswith(".cgs")}
    assert named == set(files) and not any(name.startswith("bench") for name in files)


def test_moved_lists_changed_and_one_sided_command_lines():
    assert moved({"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "4", "d": "5"}) == [
        "b", "c", "d"]
