"""Suppression pragmas: ``# lint: allow-<slug>(<reason>)``.

A finding is suppressed when the physical line its node starts on
carries a pragma whose slug matches the rule that produced it, e.g.::

    except Exception:  # lint: allow-broad-except(campaign isolates every case)

The reason is mandatory — an empty ``allow-broad-except()`` does not
suppress anything, so every exemption is self-documenting at the site.
Several pragmas may share one line, each an ``allow-<slug>(<reason>)``
after the line's one ``# lint:`` marker.
"""

from __future__ import annotations

import re

__all__ = ["Pragma", "extract_pragmas", "line_allows"]

_PRAGMA_COMMENT = re.compile(r"#\s*lint:\s*(.+)$")
_ALLOW = re.compile(r"allow-([a-z0-9][a-z0-9-]*)\(([^()]*)\)")


class Pragma:
    """One ``allow-<slug>(<reason>)`` annotation on a source line."""

    __slots__ = ("slug", "reason", "line")

    def __init__(self, slug: str, reason: str, line: int) -> None:
        self.slug = slug
        self.reason = reason.strip()
        self.line = line

    @property
    def valid(self) -> bool:
        """Pragmas must carry a non-empty justification."""
        return bool(self.reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pragma({self.slug!r}, {self.reason!r}, line={self.line})"


def extract_pragmas(source: str) -> dict[int, list[Pragma]]:
    """Map 1-based line number -> pragmas declared on that line."""
    out: dict[int, list[Pragma]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _PRAGMA_COMMENT.search(text)
        if not m:
            continue
        pragmas = [
            Pragma(slug, reason, lineno)
            for slug, reason in _ALLOW.findall(m.group(1))
        ]
        if pragmas:
            out[lineno] = pragmas
    return out


def line_allows(pragmas: dict[int, list[Pragma]], line: int, slug: str) -> bool:
    """True if ``line`` carries a valid pragma for ``slug``."""
    return any(p.slug == slug and p.valid for p in pragmas.get(line, ()))
