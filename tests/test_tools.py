"""tools/code_lines.py, the code-line counter of src/mindht."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""

        s = """a string that is
not a docstring"""
        return (x +
                1)
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks(tmp_path):
    # import, class, def, the two lines of s and the two of the return
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     7  a.py", "     1  b.py",
                                                   "     8  total", ""]
