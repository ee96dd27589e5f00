"""Every private module-level name of the package is read somewhere in the
package, and every module-level name of ``tests/support.py`` somewhere in
the tests.

A private helper, constant or class (one leading underscore) that no
crowdtree module reads is dead code that an edit left behind: the tests
may still call it, but the program does not. A reference helper in
``support.py`` that no test reads, outside its own definition, is dead
in the same way. These AST checks stand beside the unused-import check.
"""

import ast
from pathlib import Path

import crowdtree

PACKAGE = Path(crowdtree.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _bound(node: ast.stmt) -> list[str]:
    """The names a top-level definition or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        bound = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [
            n.id for t in bound for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        ]
    return []


def _defined(tree: ast.Module) -> dict[str, int]:
    """The private names a module's top level defines, with their lines."""
    return {name: node.lineno for node in tree.body for name in _bound(node) if _private(name)}


def _read(tree: ast.AST) -> set[str]:
    """Every name a module or statement reads, bare or as an attribute."""
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


def _unread_outside_definition(module: str, others: list[str]) -> list[str]:
    """The top-level names of ``module`` that neither the ``others`` nor
    another of its own top-level statements read."""
    body = ast.parse(module).body
    reads = [_read(node) for node in body]
    outside = set().union(*(_read(ast.parse(source)) for source in others))
    return [
        f"line {node.lineno}: {name}"
        for k, node in enumerate(body)
        for name in _bound(node)
        if name not in outside.union(*reads[:k], *reads[k + 1 :])
    ]


def test_unread_outside_definition_check_sees_unread_names():
    module = ("LIMIT = 3\ndef walk(n):\n    return walk(n - 1)\ndef used():\n    return LIMIT\n"
              "def spare():\n    return 0\n_x, _y = 1, 2\n")
    assert _unread_outside_definition(module, ["support.used(); print(_x)\n"]) == [
        "line 2: walk", "line 6: spare", "line 8: _y"
    ]


def test_tests_read_every_name_support_defines():
    tests = Path(__file__).parent
    others = [
        path.read_text(encoding="utf-8") for path in sorted(tests.rglob("*.py"))
        if path.name != "support.py"
    ]
    support = (tests / "support.py").read_text(encoding="utf-8")
    assert _unread_outside_definition(support, others) == []
