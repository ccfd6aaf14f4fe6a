"""Source checks that need no import of the package."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pwesim"


def unused_imports(tree):
    """Names bound by an import anywhere in `tree` that no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unreferenced_defs(trees):
    """Module-level functions and classes, as "module.name", that no code
    outside their own definition reads by name. `trees` maps module name
    to its parsed source; an import alone is not a reference."""
    readers = defaultdict(set)     # name -> (module, top-level def) reading it
    defs = []
    for module, tree in trees.items():
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = top.name
                defs.append((module, top.name))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    readers[node.id].add((module, owner))
    return sorted(f"{module}.{name}" for module, name in defs
                  if not readers[name] - {(module, name)})


def unread_methods(trees):
    """Public methods and properties of module-level classes, as
    "module.Class.name", that no code outside their own definition reads as
    an attribute. `trees` maps module name to its parsed source."""
    readers = defaultdict(set)     # attribute name -> methods reading it (None: elsewhere)
    methods = []
    for module, tree in trees.items():
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            for item in members:
                owner = None
                if (isinstance(top, ast.ClassDef) and isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    owner = (module, top.name, item.name)
                    methods.append(owner)
                for node in ast.walk(item):
                    if isinstance(node, ast.Attribute):
                        readers[node.attr].add(owner)
    return sorted(".".join(m) for m in methods if not readers[m[2]] - {m})


def _src_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_unused_imports_are_found():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(os.sep, tau)\n")
    assert unused_imports(tree) == [(2, "pi")]


def test_no_unused_imports():
    found = [f"{module}.py:{line}: {name}"
             for module, tree in _src_trees().items()
             for line, name in unused_imports(tree)]
    assert not found, "unused imports: " + ", ".join(found)


def test_unreferenced_defs_are_found():
    trees = {
        "a": ast.parse("def used():\n    pass\n\n\ndef rec(n):\n    return rec(n - 1)\n\n\n"
                       "class Lone:\n    pass\n"),
        "b": ast.parse("from a import Lone, rec, used\n\nused()\n"),
    }
    assert unreferenced_defs(trees) == ["a.Lone", "a.rec"]


def test_every_def_is_referenced():
    # a name only the tests call belongs in tests/oracles.py, not in src/
    found = unreferenced_defs(_src_trees())
    assert not found, "defined but never referenced in src/: " + ", ".join(found)


def test_unread_methods_are_found():
    trees = {
        "a": ast.parse("class A:\n    def used(self):\n        return self._private()\n\n"
                       "    def rec(self):\n        return self.rec()\n\n"
                       "    @property\n    def lone(self):\n        return 1\n\n"
                       "    def _private(self):\n        pass\n"),
        "b": ast.parse("from a import A\n\nA().used()\n"),
    }
    assert unread_methods(trees) == ["a.A.lone", "a.A.rec"]


def test_every_method_is_read():
    # a method only the tests call belongs in tests/oracles.py, not in src/
    found = unread_methods(_src_trees())
    assert not found, "methods never read in src/: " + ", ".join(found)
