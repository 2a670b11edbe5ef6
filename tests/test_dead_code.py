"""Every function, class and method in ``src/hyspa`` is used somewhere.

A name counts as used when it appears in the code of ``src/hyspa/`` or
``perfbench/`` more often than it is defined there.  Code is every token
except comments and docstrings; string literals count, because perfbench
names the functions it wraps in strings, so this is a word search over code,
not a walk of the call graph.  ``src/hyspa/__init__.py`` is not searched: a
re-export in ``hyspa.__all__`` is no use, so each public name needs a reader
of its own.  No name is exempt: a reference that only tests read lives in
``tests/testutil.py``.

Every name a module of ``src/hyspa/`` or ``tests/`` imports is read in that
module.  The re-exports in ``hyspa.__all__`` count as read, and
``from __future__`` imports are exempt.  Every import in ``src/hyspa/`` is at
module level, so an import cycle between its modules fails at import time
instead of hiding inside a function.
"""
import ast
import io
import re
import tokenize
from pathlib import Path

import hyspa

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyspa"

def _definitions() -> dict[str, int]:
    """Each module-level function and class, and each non-dunder method, with its count of definitions."""
    counts: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                counts[node.name] = counts.get(node.name, 0) + 1
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        counts[item.name] = counts.get(item.name, 0) + 1
    return counts


def _code_words(source: str) -> list[str]:
    """The words of every token of ``source`` except comments and docstrings."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    words = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        words += re.findall(r"\w+", tok.string)
    return words


def test_no_unused_definitions():
    words: dict[str, int] = {}
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        if path != SRC / "__init__.py":
            for word in _code_words(path.read_text()):
                words[word] = words.get(word, 0) + 1
    unused = sorted(name for name, defined in _definitions().items() if words.get(name, 0) <= defined)
    assert unused == [], f"defined but never used outside their definition: {unused}"


def _unused_imports(source: str, exempt: set[str]) -> list[str]:
    """The names ``source`` imports but never reads, except ``exempt`` ones."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used | exempt)


def test_no_unused_imports():
    unused = {}
    for path in sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        exempt = set(hyspa.__all__) if path == SRC / "__init__.py" else set()
        names = _unused_imports(path.read_text(), exempt)
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}, f"imported but never used: {unused}"


def test_every_import_is_at_module_level():
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))}
        nested += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == [], f"imports below module level: {nested}"
