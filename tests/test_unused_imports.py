"""Every name a crowdtree module or a test file imports is used in that
file.

No linter runs on the package or its tests, so this AST check stands in
for one. The package's ``__init__.py`` is left out: its imports are the
public re-exports.
"""

import ast
from pathlib import Path

import crowdtree

PACKAGE = Path(crowdtree.__file__).parent
TESTS = Path(__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_check_sees_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nos.sep\nd()\n"
    assert _unused_imports(source) == ["line 2: np", "line 3: c"]


def test_package_modules_use_every_name_they_import():
    unused = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_test_files_use_every_name_they_import():
    unused = {
        path.name: found
        for path in sorted(TESTS.glob("*.py"))
        if (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
