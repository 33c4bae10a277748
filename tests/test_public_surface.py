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

A third guard holds *settings* to the same production trees: every
``__init__`` parameter whose default is not ``None``, and every defaulted
field of a ``@record`` (or ``@dataclass``) named ``*Config`` or ``*Slo``,
must be passed by some call in ``src/``, ``benchmarks/`` or
``examples/`` - by keyword, by position, or as a keyword of
``dataclasses.replace``.  A call matches by
the class's bare name.  A setting only tests vary is a module constant
that the test patches.  ``EXEMPT`` names the few that stay settings
anyway, each with its reason; every one but a seed must still be set by
some call, tests included, so an exemption cannot outlive its caller.

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


#: Settings no production call passes that stay settings, with the reason.
SEED = "seed: the replication knob of a paper experiment"
SIZE = "size: tier-1 shrinks or varies the run with it"
EXEMPT = {
    "repro.experiments.cups.CupsConfig.seed": SEED,
    "repro.experiments.fig5_cpu_util.Fig5Config.seed": SEED,
    "repro.experiments.fig6_attach_rate.Fig6Config.seed": SEED,
    "repro.experiments.cups.CupsConfig.attach_rate": SIZE,
    "repro.experiments.cups.CupsConfig.num_traffic_ues": SIZE,
    "repro.experiments.cups.CupsConfig.traffic_per_ue_mbps": SIZE,
    "repro.experiments.fig5_cpu_util.Fig5Config.num_ues": SIZE,
    "repro.experiments.fig5_cpu_util.Fig5Config.num_enbs": SIZE,
    "repro.experiments.fig5_cpu_util.Fig5Config.attach_rate": SIZE,
    "repro.experiments.fig6_attach_rate.Fig6Config.num_enbs": SIZE,
    "repro.experiments.fig6_attach_rate.Fig6Config.background_ues_per_enb":
        SIZE,
    "repro.experiments.fig6_attach_rate.Fig6Config.min_storm_ues": SIZE,
    "repro.workloads.diurnal.DiurnalConfig.weekend_uplift": SIZE,
    "repro.workloads.diurnal.DiurnalConfig.trough_fraction": SIZE,
    "repro.workloads.diurnal.DiurnalConfig.noise_sigma": SIZE,
    "repro.core.agw.context.AgwConfig.network_id":
        "deployment address: which tenant network a gateway joins",
    "repro.core.sync.digest.DigestIndex.fanout":
        "oracle sweep: tests/test_sync_digest_oracle.py varies the tree shape",
    "repro.core.sync.digest.DigestIndex.depth":
        "oracle sweep: tests/test_sync_digest_oracle.py varies the tree shape",
}


def is_dataclass_node(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", None)
        if name in ("dataclass", "record"):
            return True
    return False


def defaults_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def settings():
    """(qualified name, class, setting, position or None) of every setting
    in scope; the position counts the arguments a positional call fills."""
    for path in python_files(SOURCE):
        module = os.path.relpath(path, os.path.dirname(SOURCE))[:-3]
        module = module.replace(os.sep, ".")
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.ClassDef):
                continue
            prefix = f"{module}.{node.name}."
            if is_dataclass_node(node) \
                    and node.name.endswith(("Config", "Slo")):
                fields = [statement for statement in node.body
                          if isinstance(statement, ast.AnnAssign)
                          and isinstance(statement.target, ast.Name)
                          and "ClassVar" not in ast.dump(statement.annotation)]
                for position, field in enumerate(fields):
                    if field.value is not None:
                        name = field.target.id
                        yield prefix + name, node.name, name, position
            for member in node.body:
                if not isinstance(member, ast.FunctionDef) \
                        or member.name != "__init__":
                    continue
                args = member.args
                positional = args.posonlyargs + args.args
                padded = [None] * (len(positional) - len(args.defaults)) \
                    + list(args.defaults)
                for position, (arg, default) in enumerate(
                        zip(positional, padded)):
                    if default is not None and not defaults_none(default):
                        yield (prefix + arg.arg, node.name, arg.arg,
                               position - 1)    # ``self`` is not passed
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None and not defaults_none(default):
                        yield prefix + arg.arg, node.name, arg.arg, None


def calls(trees):
    """(callee's bare name, positional count, keyword names) of every call
    in ``trees``."""
    found = []
    for tree in trees:
        for path in python_files(os.path.join(ROOT, tree)):
            if path in EXCLUDED:
                continue
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) \
                        else getattr(func, "id", None)
                    found.append((name, len(node.args),
                                  {k.arg for k in node.keywords}))
    return found


def is_set(found, cls, setting, position):
    for name, positional, keywords in found:
        if name == cls and (setting in keywords or (
                position is not None and positional > position)):
            return True
        if name == "replace" and setting in keywords:
            return True
    return False


def test_every_setting_has_a_production_caller():
    production = calls(PRODUCTION_TREES)
    everywhere = production + calls(("tests",))
    scanned, unset, problems = set(), [], []
    for qualified, cls, setting, position in settings():
        scanned.add(qualified)
        in_production = is_set(production, cls, setting, position)
        reason = EXEMPT.get(qualified)
        if reason is None:
            if not in_production:
                unset.append(qualified)
        elif in_production:
            problems.append(f"{qualified}: exempt, but production sets it")
        elif reason != SEED and not is_set(everywhere, cls, setting,
                                           position):
            problems.append(f"{qualified}: exempt, but nothing sets it")
    problems += [f"{name}: exempt, but no such setting"
                 for name in sorted(set(EXEMPT) - scanned)]
    assert sorted(unset) == [], (
        f"{len(unset)} setting(s) that no call in src/, benchmarks/ or "
        "examples/ passes; make each a module constant (tests patch it) "
        "or give it that caller:\n  " + "\n  ".join(sorted(unset)))
    assert problems == [], "stale exemptions:\n  " + "\n  ".join(problems)
