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


def unpassed_parameters(trees):
    """Defaulted parameters of module-level functions and of public methods
    of module-level classes, as "module.function(name)" or
    "module.Class.method(name)", that no call in `trees` passes by position
    or by keyword. A call is matched to a definition by the name it calls; a
    method's positions count from the parameter after self, and a `*` or
    `**` argument passes every position or every keyword."""
    defs = []     # (label, function node, leading parameters a call does not pass)
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defs.append((f"{module}.{top.name}", top, 0))
            elif isinstance(top, ast.ClassDef):
                defs.extend((f"{module}.{top.name}.{item.name}", item, 1) for item in top.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    calls = defaultdict(list)     # called name -> (positions passed, keywords passed)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                calls[name].append((float("inf") if starred else len(node.args),
                                    {kw.arg for kw in node.keywords}))
    found = []
    for label, fn, skip in defs:
        a = fn.args
        positional = [arg.arg for arg in a.posonlyargs + a.args]
        defaulted = [(i - skip, name) for i, name in enumerate(positional)
                     if i >= len(positional) - len(a.defaults)]
        defaulted += [(float("inf"), arg.arg) for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                      if default is not None]
        for index, name in defaulted:
            if not any(index < n or name in kws or None in kws for n, kws in calls[fn.name]):
                found.append(f"{label}({name})")
    return sorted(found)


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


def test_unpassed_parameters_are_found():
    trees = {
        "a": ast.parse("def f(x, y=1, z=2, *, w=3):\n    pass\n\n\n"
                       "class A:\n    def m(self, p=0, q=1):\n        pass\n\n"
                       "    def _hidden(self, r=0):\n        pass\n"),
        "b": ast.parse("from a import A, f\n\nf(0, 1)\nA().m(q=2)\n"),
    }
    assert unpassed_parameters(trees) == ["a.A.m(p)", "a.f(w)", "a.f(z)"]
    trees["b"] = ast.parse("from a import A, f\n\nf(*args, **kwargs)\nA().m(5, 6)\n")
    assert unpassed_parameters(trees) == []


def test_every_default_is_passed():
    # a default only the tests override belongs in the tests, not in src/;
    # cli.main's argv is the entry point's: `__main__` calls it bare, and
    # bench/worker.py and the tests pass it
    found = set(unpassed_parameters(_src_trees())) - {"cli.main(argv)"}
    assert not found, "defaulted parameters no src/ call passes: " + ", ".join(sorted(found))
