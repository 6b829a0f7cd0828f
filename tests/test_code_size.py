"""``tests/code_size.py`` counts a source's lines and its code lines: the
lines that hold code, not a comment alone, a blank or a docstring."""

from code_size import count, main

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment after code


# a comment alone
def f(x):
    """A function's docstring."""
    s = """a string that is no docstring,
    on two lines"""
    return s


class C:
    """A class's docstring."""

    def g(self):
        return (1,
                2)
'''


def test_the_fixture_has_nine_code_lines_of_twenty():
    # import, def f, the two lines of s, return s, class C, def g and the
    # two lines of its return
    assert count(FIXTURE) == (20, 9)


def test_a_source_tree_is_counted_per_file_and_in_all(tmp_path, capsys):
    (tmp_path / "cgsys").mkdir()
    (tmp_path / "cgsys" / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "cgsys" / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    20      9 a.py", "     3      1 b.py", "    23     10 total"]
