"""W-series: coordinator/worker wire-contract consistency.

The fleet speaks ad-hoc JSON over HTTP; nothing at runtime checks that
both sides agree on endpoint paths and payload vocabulary until a
request 404s or a field silently reads as ``None``. This checker
cross-references the two sides lexically:

* W501 — a client references an endpoint path the server's route table
  does not handle.
* W502 — the server routes an endpoint no client ever references
  (dead surface, or a client lost its call site).
* W503 — a client sends a payload field (dict-literal key or
  ``body["k"] = ...`` store) no server handler reads.
* W504 — a server handler reads a request field no client ever sends.
* W505 — a client reads a response field that is outside the server's
  entire wire vocabulary (response keys plus request fields) — the
  typo detector.

Endpoint paths come from f-string literals passed to
``request_json(...)`` client-side and from the ``do_POST`` route table
plus ``do_GET`` path comparisons server-side; only the first path
segment is compared, so ``/status/{x}`` matches ``/status``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.checks.findings import Finding
from repro.checks.project import ParsedFile, Project


@dataclass(frozen=True)
class WireConfig:
    server_file: str = "fleet/coordinator.py"
    #: (file, class or None for whole module) scopes whose dict
    #: literals and const reads form the client field vocabulary.
    client_scopes: Tuple[Tuple[str, Optional[str]], ...] = (
        ("fleet/worker.py", None),
        ("exec/executors.py", "RemoteExecutor"),
    )
    #: Extra files scanned for endpoint references only (their dict
    #: literals are not wire payloads).
    extra_endpoint_files: Tuple[str, ...] = ("cli.py",)
    #: Name of the transport helper whose first argument is the URL.
    request_helper: str = "request_json"


DEFAULT_CONFIG = WireConfig()


def _first_segment(text: str) -> Optional[str]:
    slash = text.find("/")
    if slash < 0:
        return None
    rest = text[slash + 1:]
    segment = rest.split("/", 1)[0].split("?", 1)[0]
    return f"/{segment}" if segment else None


def _endpoint_of_call(call: ast.Call) -> Optional[Tuple[str, int]]:
    if not call.args:
        return None
    url = call.args[0]
    if isinstance(url, ast.JoinedStr):
        for piece in url.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                segment = _first_segment(piece.value)
                if segment is not None:
                    return segment, url.lineno
    elif isinstance(url, ast.Constant) and isinstance(url.value, str):
        # Absolute-literal URLs: take the path after the authority.
        text = url.value.split("//", 1)[-1]
        segment = _first_segment(text)
        if segment is not None:
            return segment, url.lineno
    return None


def _scope_nodes(pf: ParsedFile, class_name: Optional[str]) -> List[ast.AST]:
    if class_name is None:
        return [pf.tree]
    return [
        node
        for node in ast.walk(pf.tree)
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]


class _ClientHarvest:
    def __init__(self) -> None:
        #: path -> first (file, line) referencing it.
        self.endpoints: Dict[str, Tuple[str, int]] = {}
        #: field -> first (file, line) sending it.
        self.sent: Dict[str, Tuple[str, int]] = {}
        #: field -> first (file, line) reading it.
        self.reads: Dict[str, Tuple[str, int]] = {}

    def _note(
        self, table: Dict[str, Tuple[str, int]], key: str, pf: ParsedFile,
        line: int,
    ) -> None:
        table.setdefault(key, (pf.relpath, line))

    def harvest_endpoints(self, pf: ParsedFile, roots: List[ast.AST],
                          helper: str) -> None:
        for root in roots:
            for node in ast.walk(root):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == helper
                ):
                    endpoint = _endpoint_of_call(node)
                    if endpoint is not None:
                        self._note(self.endpoints, endpoint[0], pf, endpoint[1])

    def harvest_fields(self, pf: ParsedFile, roots: List[ast.AST]) -> None:
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, ast.Dict):
                    for key in node.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            self._note(self.sent, key.value, pf, node.lineno)
                elif isinstance(node, ast.Subscript):
                    key = node.slice
                    if not (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and isinstance(node.value, ast.Name)
                    ):
                        continue
                    if isinstance(node.ctx, ast.Store):
                        self._note(self.sent, key.value, pf, node.lineno)
                    else:
                        self._note(self.reads, key.value, pf, node.lineno)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and isinstance(node.func.value, ast.Name)
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    self._note(
                        self.reads, node.args[0].value, pf, node.lineno
                    )
                elif (
                    isinstance(node, ast.Compare)
                    and len(node.ops) == 1
                    and isinstance(node.ops[0], (ast.In, ast.NotIn))
                    and isinstance(node.left, ast.Constant)
                    and isinstance(node.left.value, str)
                    and isinstance(node.comparators[0], ast.Name)
                ):
                    self._note(self.reads, node.left.value, pf, node.lineno)


class _ServerHarvest:
    def __init__(self) -> None:
        #: path -> (file, line) of the route registration.
        self.routes: Dict[str, Tuple[str, int]] = {}
        #: request fields read by any handler.
        self.body_reads: Set[str] = set()
        #: every response/payload key the server can emit.
        self.vocabulary: Set[str] = set()

    def harvest(self, pf: ParsedFile) -> None:
        for node in ast.walk(pf.tree):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        if key.value.startswith("/"):
                            self.routes.setdefault(
                                key.value, (pf.relpath, node.lineno)
                            )
                        else:
                            self.vocabulary.add(key.value)
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                self.vocabulary.add(node.slice.value)
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                # do_GET style: self.path == "/status" /
                # self.path.startswith(...) is handled below.
                comparator = node.comparators[0]
                if (
                    isinstance(node.ops[0], ast.Eq)
                    and isinstance(comparator, ast.Constant)
                    and isinstance(comparator.value, str)
                    and comparator.value.startswith("/")
                ):
                    self.routes.setdefault(
                        comparator.value, (pf.relpath, node.lineno)
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "startswith"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and node.args[0].value.startswith("/")
            ):
                segment = _first_segment(node.args[0].value)
                if segment is not None:
                    self.routes.setdefault(
                        segment, (pf.relpath, node.lineno)
                    )
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not (
                node.name.startswith("handle") or node.name.startswith("_handle")
            ):
                continue
            params = [a.arg for a in node.args.args if a.arg != "self"]
            if not params:
                continue
            body_param = params[0]
            for name in _const_reads_on(node, body_param):
                self.body_reads.add(name)
        self.vocabulary |= self.body_reads


def _const_reads_on(root: ast.AST, param: str) -> Iterator[str]:
    for node in ast.walk(root):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == param
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.args[0].value
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            yield node.slice.value
        elif (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)
            and isinstance(node.comparators[0], ast.Name)
            and node.comparators[0].id == param
        ):
            yield node.left.value


def check_wire(
    project: Project, config: WireConfig = DEFAULT_CONFIG
) -> Iterator[Finding]:
    server_pf = project.get(config.server_file)
    if server_pf is None:
        return
    server = _ServerHarvest()
    server.harvest(server_pf)

    client = _ClientHarvest()
    client_files: List[ParsedFile] = []
    for relpath, class_name in config.client_scopes:
        pf = project.get(relpath)
        if pf is None:
            continue
        client_files.append(pf)
        roots = _scope_nodes(pf, class_name)
        client.harvest_endpoints(pf, roots, config.request_helper)
        client.harvest_fields(pf, roots)
    for relpath in config.extra_endpoint_files:
        pf = project.get(relpath)
        if pf is None:
            continue
        client.harvest_endpoints(pf, [pf.tree], config.request_helper)
    if not client_files:
        return

    for path, (relpath, line) in sorted(client.endpoints.items()):
        if path not in server.routes:
            yield Finding(
                code="W501",
                message=(
                    f"client references endpoint {path!r} but the "
                    f"coordinator routes "
                    f"{sorted(server.routes) or 'nothing'}"
                ),
                file=relpath,
                line=line,
            )
    for path, (relpath, line) in sorted(server.routes.items()):
        if path not in client.endpoints:
            yield Finding(
                code="W502",
                message=f"coordinator routes {path!r} but no client references it",
                file=relpath,
                line=line,
            )
    for name, (relpath, line) in sorted(client.sent.items()):
        if name not in server.body_reads:
            yield Finding(
                code="W503",
                message=(
                    f"client sends field {name!r} but no server handler "
                    f"reads it"
                ),
                file=relpath,
                line=line,
            )
    for name in sorted(server.body_reads - set(client.sent)):
        yield Finding(
            code="W504",
            message=(
                f"server handlers read field {name!r} but no client "
                f"sends it"
            ),
            file=server_pf.relpath,
            line=1,
        )
    for name, (relpath, line) in sorted(client.reads.items()):
        if name not in server.vocabulary:
            yield Finding(
                code="W505",
                message=(
                    f"client reads field {name!r}, which is outside the "
                    f"server's wire vocabulary"
                ),
                file=relpath,
                line=line,
            )
