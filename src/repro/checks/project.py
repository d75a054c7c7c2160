"""Source-tree abstraction the checkers walk.

A :class:`Project` is a parsed snapshot of one directory tree: every
``*.py`` file under the root, in sorted relative-path order, parsed to
an AST with its raw source lines kept for pragma scanning. Checkers
never import the code under inspection — fixture trees with intentional
violations parse fine even though they would not execute.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass
class ParsedFile:
    """One parsed source file."""

    relpath: str
    path: Path
    tree: ast.Module
    lines: Tuple[str, ...]


class Project:
    """A parsed source tree rooted at a package directory."""

    def __init__(self, root: Path, files: Dict[str, ParsedFile]):
        self.root = root
        self.files = files

    @classmethod
    def load(cls, root: Path, relpaths: Optional[Iterable[str]] = None) -> "Project":
        root = Path(root)
        if not root.is_dir():
            raise ConfigurationError(f"check root is not a directory: {root}")
        if relpaths is None:
            paths = sorted(
                p.relative_to(root).as_posix() for p in root.rglob("*.py")
            )
        else:
            paths = sorted(relpaths)
        files: Dict[str, ParsedFile] = {}
        for rel in paths:
            path = root / rel
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                raise ConfigurationError(
                    f"cannot parse {rel}: {exc}"
                ) from exc
            files[rel] = ParsedFile(
                relpath=rel,
                path=path,
                tree=tree,
                lines=tuple(source.splitlines()),
            )
        return cls(root=root, files=files)

    def get(self, relpath: str) -> Optional[ParsedFile]:
        return self.files.get(relpath)

    def iter_files(self, prefixes: Optional[Tuple[str, ...]] = None) -> Iterator[ParsedFile]:
        """Files in sorted order, optionally filtered by relpath prefix."""
        for rel in sorted(self.files):
            if prefixes is None or any(rel.startswith(p) for p in prefixes):
                yield self.files[rel]


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
