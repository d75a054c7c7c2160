"""Every module under ``src/repro`` is reached from a user entry point.

A module stays only if ``import repro`` or ``python -m repro`` imports
it, directly or through other modules, or it is named below with the
reason it stays anyway. The walk is static: every ``import`` and
``from ... import`` in a module's body counts, function-local and
relative ones included (``src/`` has no ``importlib`` imports).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ROOTS = ("repro", "repro.__main__")

#: Modules no user path imports, each with the reason it stays.
UNREACHED_ON_PURPOSE = {
    "repro.sim.invariants": "the tests' oracle for simulated runs",
    "repro.harness.experiments_md": (
        "the paper-gap report; the ROADMAP's paper-gap item decides it"
    ),
}


def _modules():
    """Dotted module name -> source path, for every file under repro/."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported(name, path, modules):
    """Modules that importing ``name`` imports, parents included."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    targets = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            targets.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            targets.append(base)
            # ``from pkg import mod`` imports a submodule when one exists.
            targets.extend(f"{base}.{alias.name}" for alias in node.names)
    found = set()
    for target in targets:
        parts = target.split(".")
        for end in range(1, len(parts) + 1):
            prefix = ".".join(parts[:end])
            if prefix in modules:
                found.add(prefix)
    return found


def _reached(modules):
    reached = set()
    stack = list(ROOTS)
    while stack:
        name = stack.pop()
        if name not in reached:
            reached.add(name)
            stack.extend(_imported(name, modules[name], modules) - reached)
    return reached


def test_every_module_is_reached_from_a_user_entry_point():
    modules = _modules()
    reached = _reached(modules)
    listed = set(UNREACHED_ON_PURPOSE)
    unreached = set(modules) - reached - listed
    assert not unreached, (
        f"no CLI verb or package import reaches {sorted(unreached)}: "
        "give each a user path or delete it with its tests"
    )
    # The allowlist names only modules that exist and stay unreached.
    assert listed <= set(modules), sorted(listed - set(modules))
    assert not listed & reached, sorted(listed & reached)
