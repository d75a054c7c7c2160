"""Every module under ``src/repro`` is reached from a user entry point.

A module stays only if ``import repro`` or ``python -m repro`` imports
it, directly or through other modules, or it is named below with the
reason it stays anyway. The walk is static: every ``import`` and
``from ... import`` in a module's body counts, function-local and
relative ones included (``src/`` has no ``importlib`` imports).

Because the walk counts every import, an import the module never reads
could keep an orphan "reached"; a second test therefore requires every
module-level import to be read.

A reached module can still carry functions that only tests call. A
third test requires every public top-level function and method under
``src/repro`` to be named by code outside ``tests/``: in ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/``, as a loaded name or
attribute, an import, or an identifier string (perfbench wraps
``Planner.plan_for`` and others by string). The match is by bare name:
a local variable, another class's attribute or a string that spells
the same name counts, so the check can miss a dead function but does
not fail on one a user path names.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ROOTS = ("repro", "repro.__main__")

#: Modules no user path imports, each with the reason it stays.
UNREACHED_ON_PURPOSE = {
    "repro.sim.invariants": "the tests' oracle for simulated runs",
}

#: Trees whose code is a user of ``src/repro`` (their ``tests/`` aside).
USER_TREES = ("src", "benchmarks", "examples", "perfbench")

#: Methods a stdlib base class calls by name: ``ast.NodeVisitor`` and
#: ``http.server.BaseHTTPRequestHandler``.
DISPATCHED_BY_NAME = re.compile(r"visit_\w+|do_[A-Z]+|log_message")

#: Public functions and methods no user path names, each with the
#: reason it stays.
KEPT_ON_PURPOSE = {
    "repro.sim.events.EventQueue.check_invariants": (
        "the tests' oracle for the event heap"
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


def _module_level_imports(tree):
    """Import statements in a module's body, outside any def or class."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse)
            pending.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree):
    """Names a module reads: ``Name`` nodes, string annotations, ``__all__``."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_every_module_level_import_is_read():
    unused = []
    for name, path in sorted(_modules().items()):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        read = _names_read(tree)
        for node in _module_level_imports(tree):
            statement = lines[node.lineno - 1 : node.end_lineno]
            # Side-effect imports (the scenario catalog's) say so.
            if any("# noqa: F401" in line for line in statement):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read:
                    unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused, f"imported but never read: {unused}"


def _public_functions(modules):
    """Qualified name -> bare name of each public function and method.

    Top-level functions and the methods of top-level classes count;
    the modules in :data:`UNREACHED_ON_PURPOSE` do not.
    """
    found = {}
    for module, path in modules.items():
        if module in UNREACHED_ON_PURPOSE:
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            members, owner = [node], ""
            if isinstance(node, ast.ClassDef):
                members, owner = node.body, f"{node.name}."
            for item in members:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                    and not DISPATCHED_BY_NAME.fullmatch(item.name)
                ):
                    found[f"{module}.{owner}{item.name}"] = item.name
    return found


def _names_used_outside_tests():
    """Names that code in :data:`USER_TREES` loads, imports or spells."""
    root = SRC.parent
    names = set()
    for tree in USER_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()
                ):
                    names.add(node.value)
    return names


def test_every_public_function_is_named_outside_the_tests():
    used = _names_used_outside_tests()
    unnamed = {
        qualified
        for qualified, name in _public_functions(_modules()).items()
        if name not in used
    }
    listed = set(KEPT_ON_PURPOSE)
    assert not unnamed - listed, (
        f"only tests name {sorted(unnamed - listed)}: give each a user "
        "path, delete it with its tests, or keep it in KEPT_ON_PURPOSE "
        "with the reason"
    )
    # The allowlist names only functions that exist and stay unnamed.
    assert listed <= unnamed, sorted(listed - unnamed)
