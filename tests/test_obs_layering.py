"""The self-profiler has one seam: the kernel hook.

It is added to a simulator like any other ``Hook`` and charges each
callback to the module that owns it, so no module outside ``repro.obs``
has a reason to know it exists.  An import of it anywhere else is a
second seam - a hot-path scope that every run pays for with profiling
off - and fails here.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
PROFILER = "repro.obs.profiler"


def module_name(path):
    relative = os.path.relpath(path, SRC)[:-3]
    parts = relative.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts), os.path.basename(path) == "__init__.py"


def imported_modules(source, module, is_package):
    """Absolute names of every module (and ``from`` member) imported."""
    package = module.split(".") if is_package else module.split(".")[:-1]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[:len(package) - node.level + 1]
                prefix = ".".join(base + ([node.module] if node.module
                                          else []))
            else:
                prefix = node.module
            yield prefix
            for alias in node.names:
                yield f"{prefix}.{alias.name}"


def profiler_importers(root):
    found = []
    for folder, _dirs, files in os.walk(os.path.join(root, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            module, is_package = module_name(path)
            if module == "repro.obs" or module.startswith("repro.obs."):
                continue
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            for imported in imported_modules(source, module, is_package):
                if imported in (PROFILER, "repro.obs.Profiler"):
                    found.append(f"{module} imports {imported}")
    return found


def test_nothing_outside_obs_imports_the_profiler():
    assert profiler_importers(SRC) == []


def test_the_scan_resolves_every_import_form():
    forms = {
        "from ..obs import profiler as _profiler": "repro.net.rpc",
        "from ...obs import profiler": "repro.core.sync.digest",
        "from ...obs.profiler import Profiler": "repro.core.sync.digest",
        "from repro.obs import Profiler": "repro.net.rpc",
        "import repro.obs.profiler": "repro.net.rpc",
    }
    for source, module in forms.items():
        names = set(imported_modules(source, module, False))
        assert names & {PROFILER, "repro.obs.Profiler"}, source
    assert PROFILER not in set(imported_modules(
        "from ..obs import tracing", "repro.net.rpc", False))
