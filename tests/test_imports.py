"""Source hygiene: no module of the package imports a name it never
uses, no private module-level helper outlives its callers, and the
README names no function that is gone.  The package's ``__init__`` is
exempt from the import check: its imports are its exports, and
``__all__`` lists exactly those."""

import ast
import importlib
import re
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


def imported_public_names(source: str) -> list[str]:
    """The public names a module imports from its own package."""
    return [a.asname or a.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level
            for a in node.names if not (a.asname or a.name).startswith("_")]


def test_the_check_sees_the_package_imports():
    source = ("from __future__ import annotations\nimport os\n"
              "from .a import b, _c\nfrom .d import (e as f)\n")
    assert imported_public_names(source) == ["b", "f"]


def test_all_lists_exactly_the_imported_names():
    source = (PACKAGE / "__init__.py").read_text()
    names = imported_public_names(source)
    assert len(names) == len(set(names))
    assert sorted(p3game.__all__) == sorted(names)
    exported = {}
    exec("from p3game import *", exported)  # raises on a name that is gone
    assert set(names) <= set(exported)


def readme_names(text: str) -> set[str]:
    """The lowercase identifiers that open an inline code span of a
    Markdown text, outside fenced blocks, and contain ``_`` or open a
    call: the spans that name a function or a constant."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    names = set()
    for span in re.findall(r"`([^`]+)`", text):
        m = re.match(r"([a-z_][a-z0-9_]*)(\()?", span)
        if m and ("_" in m.group(1) or m.group(2)):
            names.add(m.group(1))
    return names


def test_the_check_sees_the_readme_names():
    text = ("`mask_of`, `bits`, `main(argv)`, `int.bit_count()`, `--max-n`\n"
            "`P3_BUDGET`, `tests/test_cli.py` and `old_name`\n"
            "```python\nfenced_name(1)\n```\n")
    assert readme_names(text) == {"mask_of", "main", "old_name"}


def test_readme_names_only_what_exists():
    modules = [p3game] + [importlib.import_module("p3game." + p.stem)
                          for p in sorted(PACKAGE.glob("*.py"))
                          if p.stem not in ("__init__", "__main__")]
    readme = Path(__file__).resolve().parent.parent / "README.md"
    names = readme_names(readme.read_text())
    assert len(names) >= 9
    assert [name for name in sorted(names)
            if not any(hasattr(m, name) for m in modules)] == []
