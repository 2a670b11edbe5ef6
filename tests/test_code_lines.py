import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# 9 code lines: the import, the class and def lines, the three lines of the
# assigned string, the return, and the two lines of the bare string that is
# no docstring because it is not its module's first statement
SNIPPET = '''\
"""Module docstring
over two lines."""
import os  # a comment after code

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a multi-line
string # not a comment
expression"""
        return text


"""A multi-line string expression
later in the module."""
'''


def code_lines(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(root)], capture_output=True, text=True)


def test_counts_code_lines_per_module_and_in_total(tmp_path):
    (tmp_path / "snippet.py").write_text(SNIPPET)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    (tmp_path / "notes.txt").write_text("import os\n")
    done = code_lines(tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["     0  empty.py", "     9  snippet.py", "     9  total"]


def test_directory_without_modules_fails(tmp_path):
    done = code_lines(tmp_path)
    assert done.returncode == 1
    assert done.stderr == f"error: no Python modules in {tmp_path}\n"
