"""Source hygiene: no module of the package imports a name it never
uses, and no private module-level helper outlives its callers.  The
package's ``__init__`` is exempt from the import check: its imports are
its exports."""

import ast
from collections import Counter
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


def _names(node) -> Counter:
    """Every name a subtree reads: bare names and attribute names."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """module:name of each module-level ``_private`` function or class
    that no code outside its own body refers to."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((_names(t) for t in trees.values()), Counter())
    return [
        "%s:%s" % (module, node.name)
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and everywhere[node.name] == _names(node)[node.name]]


def test_the_check_sees_an_unreferenced_private_helper():
    sources = {"a": "def _used():\n    pass\n\n"
                    "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                    "class _Old:\n    pass\n",
               "b": "import a\na._used()\n"}
    assert unreferenced_privates(sources) == ["a:_recursive", "a:_Old"]


def test_every_private_helper_has_a_caller():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []
