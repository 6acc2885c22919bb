"""Source hygiene: no module of the package imports a name it never
uses.  The package's ``__init__`` is exempt: its imports are its
exports."""

import ast
from pathlib import Path

import p3game

PACKAGE = Path(p3game.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["os", "b"]
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_module_imports_an_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) >= 7
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}
