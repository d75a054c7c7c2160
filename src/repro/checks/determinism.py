"""D-series: determinism lint.

Simulation, execution-cache, fleet, and scenario code must be a pure
function of (plan, config, seed). Wall-clock reads, the global RNG, and
unordered iteration are the three ways nondeterminism has historically
crept into cache keys and manifests, so they are banned outright in the
scoped packages:

* D101 — ``time.time()`` / ``time.monotonic()`` / ``time.perf_counter()``.
  Injected clocks (``self._clock()``) are the sanctioned pattern.
* D102 — ``datetime.now()`` / ``utcnow()`` / ``today()``.
* D103 — module-level ``random.*`` calls or an argless ``random.Random()``
  (unseeded RNG); seeded ``random.Random(seed)`` is fine.
* D104 — ``for``/comprehension iteration (or ``list()``/``tuple()``
  materialization) over a set literal, ``set()``/``frozenset()`` call,
  or set comprehension without a ``sorted()`` wrapper.
* D105 — ``os.listdir``/``Path.iterdir``/``glob`` results consumed
  without an immediate ``sorted()`` wrapper (directory order is
  filesystem-dependent).
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.checks.findings import Finding
from repro.checks.project import ParsedFile, Project, dotted_name

#: Package prefixes (relative to the scanned root) held to the
#: determinism contract. Tools/CLI layers may read clocks for display.
DEFAULT_SCOPE: Tuple[str, ...] = ("sim/", "exec/", "fleet/", "scenario/")

_CLOCK_CALLS = {
    "time.time",
    "time.monotonic",
    "time.perf_counter",
    "time.time_ns",
    "time.monotonic_ns",
}

_DATETIME_CALLS = {
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}

_LISTING_CALLS = {"os.listdir", "listdir", "os.scandir", "scandir"}
_LISTING_METHODS = {"iterdir", "glob", "rglob"}


def _is_sorted_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


def _is_listing_expr(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    if name in _LISTING_CALLS:
        return True
    if isinstance(node.func, ast.Attribute) and node.func.attr in _LISTING_METHODS:
        return True
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, pf: ParsedFile):
        self.pf = pf
        self.findings: list = []
        #: call nodes already blessed by an enclosing sorted().
        self._sorted_args: set = set()

    def _emit(self, code: str, message: str, node: ast.AST) -> None:
        self.findings.append(
            Finding(
                code=code,
                message=message,
                file=self.pf.relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
            )
        )

    # -- D101 / D102 / D103 / D105: call-shaped bans ------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in _CLOCK_CALLS:
            self._emit(
                "D101",
                f"{name}() in deterministic code; inject a clock instead",
                node,
            )
        elif name in _DATETIME_CALLS:
            self._emit(
                "D102",
                f"{name}() in deterministic code; timestamps must be inputs",
                node,
            )
        elif name is not None and name.startswith("random."):
            if name == "random.Random":
                if not node.args and not node.keywords:
                    self._emit(
                        "D103",
                        "random.Random() without a seed",
                        node,
                    )
            else:
                self._emit(
                    "D103",
                    f"{name}() uses the unseeded global RNG",
                    node,
                )
        if _is_sorted_call(node):
            for arg in node.args:
                self._sorted_args.add(id(arg))
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id in {"list", "tuple"}
            and len(node.args) == 1
        ):
            self._check_iter(node.args[0])
        elif _is_listing_expr(node) and id(node) not in self._sorted_args:
            self._emit(
                "D105",
                "directory listing consumed without sorted() "
                "(filesystem order is not deterministic)",
                node,
            )
        self.generic_visit(node)

    # -- D104: unordered-set iteration --------------------------------

    def _check_iter(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node) and id(iter_node) not in self._sorted_args:
            self._emit(
                "D104",
                "iteration over an unordered set; wrap in sorted()",
                iter_node,
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # A set comprehension's own output is unordered (flagged at the
        # point it is iterated); its generators still deserve the check.
        self._visit_comp(node)


class _SortedPrepass(ast.NodeVisitor):
    """Record call args wrapped in sorted() before the main walk.

    ``sorted(os.listdir(p))`` visits the inner call before the main
    visitor would mark it blessed if traversal order ran inside-out, so
    collect the blessed set in a prepass.
    """

    def __init__(self) -> None:
        self.blessed: set = set()

    def visit_Call(self, node: ast.Call) -> None:
        if _is_sorted_call(node):
            for arg in node.args:
                self.blessed.add(id(arg))
        self.generic_visit(node)


def check_determinism(
    project: Project, scope: Tuple[str, ...] = DEFAULT_SCOPE
) -> Iterator[Finding]:
    for pf in project.iter_files(scope):
        pre = _SortedPrepass()
        pre.visit(pf.tree)
        visitor = _Visitor(pf)
        visitor._sorted_args = pre.blessed
        visitor.visit(pf.tree)
        yield from visitor.findings
