"""Every private module-level name of the package is read somewhere in the
package.

A private helper, constant or class (one leading underscore) that no
crowdtree module reads is dead code that an edit left behind: the tests
may still call it, but the program does not. This AST check stands beside
the unused-import check.
"""

import ast
from pathlib import Path

import crowdtree

PACKAGE = Path(crowdtree.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> dict[str, int]:
    """The private names a module's top level defines, with their lines."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [
                n.id for t in bound for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        names.update((name, node.lineno) for name in targets if _private(name))
    return names


def _read(tree: ast.Module) -> set[str]:
    """Every name a module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unread(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(_read, trees.values()))
    return [
        f"{name} line {line}: {helper}"
        for name, tree in trees.items()
        for helper, line in _defined(tree).items()
        if helper not in read
    ]


def test_unread_helper_check_sees_unread_names():
    sources = {
        "a.py": "_LIMIT = 3\n_spare: int = 0\nclass _Old:\n    pass\n"
        "def _used():\n    return _LIMIT\n__all__ = []\n_x, _y = 1, 2\n_TABLE = {}\n"
        "_TABLE[_x] = 0\n",
        "b.py": "from .a import _used\ndef _gone():\n    _gone = 1\n_used()\n",
    }
    assert _unread(sources) == [
        "a.py line 2: _spare", "a.py line 3: _Old", "a.py line 8: _y", "b.py line 2: _gone"
    ]


def test_package_reads_every_private_name_it_defines():
    sources = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    assert _unread(sources) == []
