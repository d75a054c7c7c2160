"""T-series: engine dispatch parity.

The reference and incremental engines must handle the same event
vocabulary. The contract spans two files — the :class:`EventKind`
enum and the engines' dispatch code — which is exactly what a runtime
test struggles to pin:

* T301 — a dispatch chain (an ``if``/``elif`` ladder testing ``kind is
  EventKind.X`` over two or more members, with no catch-all branch)
  that misses an :class:`EventKind` member. A missed member is a
  silently dropped event.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.checks.findings import Finding
from repro.checks.project import ParsedFile, Project, dotted_name


@dataclass(frozen=True)
class TierParityConfig:
    events_file: str = "sim/events.py"
    events_class: str = "EventKind"
    engine_files: Tuple[str, ...] = ("sim/engine.py",)


DEFAULT_CONFIG = TierParityConfig()


# -- EventKind extraction ---------------------------------------------


def _enum_members(pf: ParsedFile, class_name: str) -> List[str]:
    for node in ast.walk(pf.tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            members = []
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and target.id.isupper():
                            members.append(target.id)
            return members
    return []


def _module_aliases(pf: ParsedFile, class_name: str) -> Dict[str, str]:
    """``_TASK_FINISH = EventKind.TASK_FINISH`` style module aliases."""
    aliases: Dict[str, str] = {}
    for stmt in pf.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            name = dotted_name(stmt.value)
            if (
                isinstance(target, ast.Name)
                and name is not None
                and name.startswith(class_name + ".")
            ):
                aliases[target.id] = name.split(".", 1)[1]
    return aliases


# -- T301: dispatch-chain coverage ------------------------------------


def _test_members(
    test: ast.AST, members: Set[str], aliases: Dict[str, str], class_name: str
) -> Optional[Set[str]]:
    """Members a branch test selects; None if it is not a kind test."""
    if isinstance(test, ast.BoolOp):
        covered: Set[str] = set()
        for value in test.values:
            sub = _test_members(value, members, aliases, class_name)
            if sub is None:
                return None
            covered |= sub
        return covered
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.Eq))
    ):
        for side in (test.left, test.comparators[0]):
            name = dotted_name(side)
            if name is None:
                continue
            if name.startswith(class_name + "."):
                member = name.split(".", 1)[1]
                if member in members:
                    return {member}
            if name in aliases and aliases[name] in members:
                return {aliases[name]}
    return None


def _check_chain(
    node: ast.If,
    members: Set[str],
    aliases: Dict[str, str],
    class_name: str,
    pf: ParsedFile,
    func_name: str,
) -> Iterator[Finding]:
    covered: Set[str] = set()
    kind_tests = 0
    catch_all = False
    current: ast.stmt = node
    while isinstance(current, ast.If):
        branch = _test_members(current.test, members, aliases, class_name)
        if branch is None:
            # A non-kind test inside the ladder handles "everything
            # else" on some other criterion: treat as a catch-all.
            catch_all = True
        else:
            covered |= branch
            kind_tests += 1
        orelse = current.orelse
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            current = orelse[0]
        else:
            if orelse:
                catch_all = True
            break
    if kind_tests < 2 or catch_all:
        return
    for member in sorted(members - covered):
        yield Finding(
            code="T301",
            message=(
                f"dispatch chain in {func_name}() never handles "
                f"{class_name}.{member} and has no catch-all branch"
            ),
            file=pf.relpath,
            line=node.lineno,
            col=node.col_offset,
        )


def _check_dispatch(
    project: Project, config: TierParityConfig
) -> Iterator[Finding]:
    events = project.get(config.events_file)
    if events is None:
        return
    members = set(_enum_members(events, config.events_class))
    if not members:
        return
    for relpath in config.engine_files:
        pf = project.get(relpath)
        if pf is None:
            continue
        aliases = _module_aliases(pf, config.events_class)
        for func in ast.walk(pf.tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            elif_heads: Set[int] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.If):
                    orelse = node.orelse
                    if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                        elif_heads.add(id(orelse[0]))
            for node in ast.walk(func):
                if isinstance(node, ast.If) and id(node) not in elif_heads:
                    yield from _check_chain(
                        node, members, aliases, config.events_class, pf,
                        func.name,
                    )


def check_tierparity(
    project: Project, config: TierParityConfig = DEFAULT_CONFIG
) -> Iterator[Finding]:
    yield from _check_dispatch(project, config)
