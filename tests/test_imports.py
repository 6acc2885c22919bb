"""Source hygiene: no module of the package, test or demo imports a
name it never uses, no private module-level helper outlives its
callers, no public function, class or method exists only for the
tests, no module of the package reads a private name of a library,
only the graph constructor sets a graph's ``n`` or ``adj``, and
the README names no function that is gone.  The package's
``__init__`` is exempt from the import and public-name checks: its
imports are its exports, and ``__all__`` lists exactly those."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import p3game

PACKAGE = Path(p3game.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


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


def test_no_test_or_demo_imports_an_unused_name():
    scripts = sorted(p for d in ("tests", "demos")
                     for p in (ROOT / d).glob("*.py"))
    assert len(scripts) >= 12
    found = {"%s/%s" % (p.parent.name, p.name): unused_imports(p.read_text())
             for p in scripts}
    assert {name: names for name, names in found.items() if names} == {}


def private_library_names(source: str) -> list[str]:
    """module.name of each ``_private`` (not ``__dunder__``) name a
    module takes from a module it imports absolutely: an attribute read
    on the imported name, or a name in a ``from`` import."""
    tree = ast.parse(source)
    modules = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            found += ["%s.%s" % (node.module, a.name) for a in node.names
                      if a.name.startswith("_")
                      and not a.name.startswith("__")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append("%s.%s" % (ast.unparse(node.value), node.attr))
    return found


def test_the_check_sees_a_private_library_name():
    source = ("from __future__ import annotations\nimport argparse\n"
              "import os.path as osp\nfrom json import _default_decoder\n"
              "from .graphs import _private_helper\n"
              "isinstance(a, argparse._SubParsersAction)\n"
              "osp.sep._x\nparser._actions\nargparse.__name__\n"
              "self._entries\n")
    assert sorted(private_library_names(source)) == \
        ["argparse._SubParsersAction", "json._default_decoder", "osp.sep._x"]


def test_no_module_reads_a_private_library_name():
    found = {p.name: private_library_names(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
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


def _public_definitions(tree):
    """(label, name, node) of each public module-level function or
    class of a module, and of each public method of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield "%s.%s" % (node.name, item.name), item.name, item


def _inline_code(text: str) -> list[str]:
    """The inline code spans of a Markdown text, outside fenced blocks."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    return re.findall(r"`([^`]+)`", text)


def unreferenced_publics(package: dict[str, str], readers: list[str],
                         readme: str) -> list[str]:
    """module:name (module:Class.method) of each public module-level
    function or class of ``package`` (module name -> source), and each
    public method, that nothing outside its own body refers to.  A
    reference is a bare or attribute name in a package module or in
    one of the ``readers`` (other Python sources that use the package),
    or an identifier in the inline code of ``readme``.

    Names are matched as identifiers, not resolved: any other binding
    of the same identifier counts as a reference, so ``Graph.degree``
    would escape through a local variable named ``degree``.  A name
    reached only by a string, such as ``getattr(obj, "name")``, counts
    as unreferenced."""
    trees = {name: ast.parse(text) for name, text in package.items()}
    everywhere = sum((_names(t) for t in trees.values()), Counter())
    everywhere += sum((_names(ast.parse(text)) for text in readers),
                      Counter())
    for span in _inline_code(readme):
        everywhere.update(re.findall(r"[A-Za-z_]\w*", span))
    return ["%s:%s" % (module, label)
            for module, tree in trees.items()
            for label, name, node in _public_definitions(tree)
            if everywhere[name] == _names(node)[name]]


def test_the_check_sees_an_unreferenced_public_name():
    package = {"a": "def used():\n    pass\n\n"
                    "def recursive(n):\n    return recursive(n - 1)\n\n"
                    "def _private():\n    pass\n\n"
                    "class Box:\n"
                    "    def get(self):\n        return self.get\n\n"
                    "    def put(self):\n        pass\n\n"
                    "    def __len__(self):\n        return 0\n",
               "b": "import a\na.used()\n"}
    assert unreferenced_publics(package, [], "") == \
        ["a:recursive", "a:Box", "a:Box.get", "a:Box.put"]
    readme = ("`recursive(n)` and `Box.get`\n"
              "```python\nBox().put()\n```\n")
    assert unreferenced_publics(package, [], readme) == ["a:Box.put"]
    assert unreferenced_publics(package, ["a.Box().put()\n"], readme) == []


def test_every_public_name_has_a_user_outside_the_tests():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    readers = [p.read_text() for d in ("bench", "demos")
               for p in sorted((ROOT / d).glob("*.py"))]
    assert len(package) >= 7 and len(readers) >= 2
    readme = (ROOT / "README.md").read_text()
    assert unreferenced_publics(package, readers, readme) == []


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
    names = set()
    for span in _inline_code(text):
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
    names = readme_names((ROOT / "README.md").read_text())
    assert len(names) >= 9
    assert [name for name in sorted(names)
            if not any(hasattr(m, name) for m in modules)] == []


def attribute_writes(source: str, attrs: set) -> list[str]:
    """Where a module assigns to or deletes an attribute named in
    ``attrs``, or sets one through ``setattr`` or ``__setattr__`` with a
    literal name: the dotted name of the enclosing class and function,
    or ``<module>``, once per write."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if isinstance(node, ast.Attribute):
            writes = node.attr in attrs and not isinstance(node.ctx, ast.Load)
        else:
            writes = (isinstance(node, ast.Call) and len(node.args) >= 2
                      and {"setattr", "__setattr__"} & set(_names(node.func))
                      and isinstance(node.args[1], ast.Constant)
                      and node.args[1].value in attrs)
        if writes:
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_check_sees_an_attribute_write():
    source = ("g.n = 1\n"
              "class A:\n"
              "    def f(self, x):\n"
              "        self.n, x.adj = x.adj, 2\n"
              "        del x.adj\n"
              "        x.n += len(x.adj)\n"
              "def h(x):\n"
              "    setattr(x, 'n', 0)\n"
              "    object.__setattr__(x, 'adj', 0)\n"
              "    setattr(x, 'm', x.n)\n")
    assert attribute_writes(source, {"n", "adj"}) == \
        ["<module>", "A.f", "A.f", "A.f", "A.f", "h", "h"]


def test_only_the_graph_constructor_sets_n_or_adj():
    found = {"%s:%s" % (p.name, where) for p in sorted(PACKAGE.glob("*.py"))
             for where in attribute_writes(p.read_text(), {"n", "adj"})}
    assert found == {"graphs.py:Graph.__init__"}
