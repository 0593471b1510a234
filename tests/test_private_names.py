"""Every module of the package uses only the public names of the others: no
module imports, or reads as an attribute, a `_private` name of another
wenocad module.  And one module owns the choice between the worker thread
and inline work: no module but `wenocad.workers` reads its `CPUS`."""

import ast
from pathlib import Path

import wenocad

ROOT = Path(wenocad.__file__).resolve().parent


def module_name(path):
    parts = ("wenocad",) + path.relative_to(ROOT).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(p): p for p in sorted(ROOT.rglob("*.py"))}


def private(name):
    return name.startswith("_") and not name.endswith("__")


def imported_from(node, module):
    """The absolute name of the module a `from ... import` reads."""
    if node.level == 0:
        return node.module
    package = module if MODULES[module].name == "__init__.py" else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return ".".join(filter(None, [package, node.module]))


def private_uses(module):
    """(line, 'other.module._name') for every private name of another
    wenocad module that `module` imports or reads."""
    tree = ast.parse(MODULES[module].read_text())
    aliases = {}  # local name -> wenocad module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom):
            source = imported_from(node, module)
            for a in node.names:
                if f"{source}.{a.name}" in MODULES:
                    aliases[a.asname or a.name] = f"{source}.{a.name}"
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = imported_from(node, module)
            if source in MODULES and source != module:
                uses += [(node.lineno, f"{source}.{a.name}")
                         for a in node.names if private(a.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and private(node.attr)
              and aliases[node.value.id] != module):
            uses.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}"))
    return uses


def test_modules_are_found():
    assert {"wenocad.cli", "wenocad.solvers.driver", "wenocad.training.loop"} <= set(MODULES)


def test_private_use_is_detected(tmp_path, monkeypatch):
    """The check sees both forms of a private use."""
    path = tmp_path / "probe.py"
    path.write_text("from .training.loss import _terms\n"
                    "from .solvers import driver as drv\n"
                    "drv._flux_difference\n")
    monkeypatch.setitem(MODULES, "wenocad.probe", path)
    assert private_uses("wenocad.probe") == [
        (1, "wenocad.training.loss._terms"),
        (3, "wenocad.solvers.driver._flux_difference"),
    ]


def test_no_module_uses_another_modules_private_names():
    found = [f"{MODULES[m].relative_to(ROOT)}:{line}: {name}"
             for m in MODULES for line, name in private_uses(m)]
    assert found == []


def cpus_reads(module):
    """Lines of `module` that read `CPUS`: as a name, an attribute, an
    imported name or getattr's string."""
    tree = ast.parse(MODULES[module].read_text())
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "CPUS")
        or (isinstance(node, ast.Attribute) and node.attr == "CPUS")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "CPUS" for a in node.names))
        or (isinstance(node, ast.Constant) and node.value == "CPUS"))


def test_cpus_read_is_detected(tmp_path, monkeypatch):
    path = tmp_path / "probe.py"
    path.write_text("from . import workers\n"
                    "from .workers import CPUS\n"
                    "workers.CPUS < 2\n"
                    "getattr(workers, 'CPUS')\n")
    monkeypatch.setitem(MODULES, "wenocad.probe", path)
    assert cpus_reads("wenocad.probe") == [2, 3, 4]


def test_only_workers_reads_cpus():
    found = [f"{MODULES[m].relative_to(ROOT)}:{line}"
             for m in MODULES if m != "wenocad.workers" for line in cpus_reads(m)]
    assert found == []
    assert cpus_reads("wenocad.workers")
