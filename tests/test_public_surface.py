"""Public-surface guard: no public symbol under ``src/repro`` is dead.

Every public module-level function and class, and every public method of
a module-level class, must be referenced somewhere in ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` other than by its own
definition.  A reference is a ``Name``, an ``Attribute``, an import
alias, or a string inside an ``__all__`` list; matching is by name, so a
method counts as used when any object's attribute of that name is read.
A class applied to reprolint's ``@register`` counts as referenced (the
registry is its caller); any other decorator, ``@dataclass`` included,
does not.  There is no allow-list: add the caller that justifies a
symbol, or delete the symbol.

``benchmarks/e2e/test_surface.py`` is excluded: its deletion ledger
*names* symbols precisely so the benchmark cannot lean on them.

A second, tighter guard holds module-level functions and classes to the
*production* trees: each must be referenced from ``src/``, ``benchmarks/``
or ``examples/``, and neither its own body, its package's ``__init__``
re-export nor an ``__all__`` string counts.  ``tests/`` is not a
reference tree there: a module-level definition that only a test calls is
not part of the reproduction.

These are tests rather than reprolint rules because each is a whole-tree
pass: reprolint's rules see one file at a time and its cache keys
findings on that file's content, so a cross-file rule would serve stale
findings.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "repro")
REFERENCE_TREES = ("src", "tests", "benchmarks", "examples")
PRODUCTION_TREES = ("src", "benchmarks", "examples")
EXCLUDED = {os.path.join(ROOT, "benchmarks", "e2e", "test_surface.py")}

#: Decorators that hand the definition to a registry that calls it.
REGISTERING = {"register"}


def python_files(top):
    for dirpath, _, filenames in os.walk(top):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def is_public(name):
    return not name.startswith("_")


def registered(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", None)
        if name in REGISTERING:
            return True
    return False


def definitions(methods=True):
    """(qualified name, bare name) of every public definition checked;
    ``methods=False`` keeps the module-level ones only."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in python_files(SOURCE):
        module = os.path.relpath(path, os.path.dirname(SOURCE))[:-3]
        module = module.replace(os.sep, ".")
        for node in parse(path).body:
            if not isinstance(node, kinds) or not is_public(node.name):
                continue
            if not registered(node):
                yield f"{module}.{node.name}", node.name
            if methods and isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds[:2]) \
                            and is_public(member.name):
                        yield (f"{module}.{node.name}.{member.name}",
                               member.name)


def references():
    names = set()
    for tree in REFERENCE_TREES:
        for path in python_files(os.path.join(ROOT, tree)):
            if path in EXCLUDED:
                continue
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                    if node.asname:
                        names.add(node.asname)
                elif isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "__all__"
                        for t in node.targets):
                    names.update(elt.value for elt in ast.walk(node.value)
                                 if isinstance(elt, ast.Constant)
                                 and isinstance(elt.value, str))
    return names


def test_every_public_symbol_has_a_reference():
    used = references()
    dead = sorted(qualified for qualified, name in definitions()
                  if name not in used)
    assert dead == [], (
        f"{len(dead)} public symbol(s) referenced by nothing but their own "
        "definition; delete them or add the caller that justifies them:\n  "
        + "\n  ".join(dead))


def production_references():
    """Names the production trees use, leaving out package re-exports,
    ``__all__`` strings and each definition's references to itself."""
    names = set()
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for tree in PRODUCTION_TREES:
        for path in python_files(os.path.join(ROOT, tree)):
            if path in EXCLUDED:
                continue
            package_init = os.path.basename(path) == "__init__.py"
            for statement in parse(path).body:
                if package_init and isinstance(statement, ast.ImportFrom) \
                        and statement.level > 0:
                    continue
                if isinstance(statement, ast.Assign) and any(
                        getattr(t, "id", None) == "__all__"
                        for t in statement.targets):
                    continue
                own = statement.name if isinstance(statement, kinds) \
                    else None
                found = set()
                for node in ast.walk(statement):
                    if isinstance(node, ast.Name):
                        found.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        found.add(node.attr)
                    elif isinstance(node, ast.alias):
                        found.update(node.name.split("."))
                        if node.asname:
                            found.add(node.asname)
                found.discard(own)
                names |= found
    return names


def test_every_module_level_definition_has_a_production_caller():
    used = production_references()
    dead = sorted(qualified for qualified, name
                  in definitions(methods=False) if name not in used)
    assert dead == [], (
        f"{len(dead)} public module-level definition(s) that only tests "
        "reach; give each a caller in src/, benchmarks/ or examples/, or "
        "delete it:\n  " + "\n  ".join(dead))
