"""ModuleInfo: one parsed source file handed to every rule.

Bundles the parsed AST with everything rules repeatedly need — the
dotted module name (for package-scoped rules like REP002/REP007), the
raw source lines (for pragma checks and hints) and the repo-relative
path used in reports and baseline fingerprints.

The dotted name is derived from the file path: everything after the
last ``repro`` path component, so both an installed tree and the test
fixtures' ``tmp/.../repro/deflate/foo.py`` layouts resolve naturally.
Files outside a ``repro`` tree fall back to their stem, which keeps the
engine usable on arbitrary snippets (rules scoped to repro packages
simply never fire there unless the test asks for a specific name).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.pragmas import Pragma, extract_pragmas

__all__ = ["ModuleInfo", "load_module", "module_name_for_path"]


def module_name_for_path(path: Path) -> str:
    """Dotted module name for ``path`` (anchored at a ``repro`` component)."""
    parts = list(path.parts)
    stem = path.stem
    if "repro" in parts[:-1]:
        # Index of the LAST "repro" component before the filename.
        anchor = len(parts) - 2 - parts[:-1][::-1].index("repro")
        pkg = parts[anchor:-1]
        if stem != "__init__":
            pkg = pkg + [stem]
        return ".".join(pkg)
    if stem == "__init__":
        return parts[-2] if len(parts) >= 2 else stem
    return stem


@dataclass
class ModuleInfo:
    """A parsed module plus the metadata rules key their scopes on."""

    path: Path
    relpath: str                 # posix, as shown in findings
    name: str                    # dotted, e.g. "repro.deflate.bitio"
    source: str
    tree: ast.Module
    pragmas: dict[int, list[Pragma]] = field(default_factory=dict)

    @property
    def basename(self) -> str:
        """Last dotted component (``bitio`` for ``repro.deflate.bitio``)."""
        return self.name.rpartition(".")[2]

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"

    def in_package(self, *packages: str) -> bool:
        """True if this module lives under any of the dotted ``packages``."""
        return any(
            self.name == pkg or self.name.startswith(pkg + ".")
            for pkg in packages
        )

    @property
    def source_hash(self) -> str:
        """SHA-1 of the source text (summary-store cache key component)."""
        import hashlib

        return hashlib.sha1(self.source.encode()).hexdigest()


def load_module(path: Path, root: Path | None = None) -> ModuleInfo:
    """Parse ``path`` into a :class:`ModuleInfo`.

    Raises ``SyntaxError`` / ``OSError`` to the caller — the engine
    converts those into internal errors (CLI exit code 2) rather than
    findings, since an unparseable tree means no rule ran at all.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    if root is not None:
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
    else:
        rel = path.as_posix()
    return ModuleInfo(
        path=path,
        relpath=rel,
        name=module_name_for_path(path),
        source=source,
        tree=tree,
        pragmas=extract_pragmas(source),
    )
