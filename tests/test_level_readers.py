"""The package reads tree levels from one place: the compiled form's
``levels`` record.

``model.level_trace`` builds every level's whole partitions, n blocks each,
so a reader that goes through it pays depth × classes on deep trees and
keeps a second view of the levels beside the record. It stays public for
callers outside the package; this AST check fails when a module other than
``model`` and the package's ``__init__`` names it or its ``LevelStep``.
"""

import ast
from pathlib import Path

import crowdtree

PACKAGE = Path(crowdtree.__file__).parent
TRACE_NAMES = {"level_trace", "LevelStep"}
OWNERS = {"model.py", "__init__.py"}


def _trace_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of each trace name a module imports or reads, bare or
    as an attribute, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += ((node.lineno, name) for name in names if name in TRACE_NAMES)
    return sorted(found)


def test_trace_read_check_sees_every_kind_of_read():
    source = (
        "from .model import LevelStep, level_trace as trace\n"
        "from . import model\n"
        "steps = model.level_trace(tree, table)\n"
        "def f(steps: list[LevelStep]):\n"
        "    return level_trace\n"
        "level_tracer = 1\n"
    )
    assert _trace_reads(source) == [
        (1, "LevelStep"), (1, "level_trace"), (3, "level_trace"), (4, "LevelStep"),
        (5, "level_trace"),
    ]


def test_only_model_reads_the_level_trace():
    reads = [
        (path.name, *read)
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in OWNERS
        for read in _trace_reads(path.read_text(encoding="utf-8"))
    ]
    assert reads == []
