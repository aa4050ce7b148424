"""REP012 — suppression pragmas must carry a reason and a known slug.

``# lint: allow-<slug>()`` never suppressed anything (the engine
requires :attr:`~repro.lint.pragmas.Pragma.valid`), but until now it
failed *silently*: the author believed the finding was waived while the
linter kept reporting it — or worse, the underlying finding had been
fixed meanwhile and the stale empty pragma lingered as dead weight.
A pragma whose slug no registered rule carries (a typo, or the slug of
a retired rule) suppresses nothing either.  This rule turns both into
findings of their own, so the contract "every exemption is
self-documenting" is enforced rather than implied.  Every registered
rule's slug counts as known, whichever rules ``--select`` picked.

Escape hatch: none on purpose — write the reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo
from repro.lint.registry import Rule, all_rules, register

__all__ = ["PragmaReasonRule"]


class _Anchor(ast.AST):
    """Location-only stand-in: pragmas live on lines, not AST nodes."""

    def __init__(self, line: int, col: int) -> None:
        super().__init__()
        self.lineno = line
        self.col_offset = col


@register
class PragmaReasonRule(Rule):
    rule_id = "REP012"
    slug = "pragma-reason"
    summary = (
        "suppression pragmas need a non-empty reason and a registered "
        "slug: allow-<slug>() is a finding, not a waiver"
    )
    # The examples are assembled from fragments so the pragma scanner —
    # which matches physical source lines — does not see them as real
    # pragmas inside this very file.
    example_bad = (
        "except Exception:  # lint"
        ": allow-broad-except()\n"
        "    pass\n"
    )
    example_good = (
        "except Exception:  # lint"
        ": allow-broad-except(fault campaign isolates every failure class)\n"
        "    pass\n"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        known = {cls.slug for cls in all_rules()}
        for line, pragmas in sorted(module.pragmas.items()):
            for pragma in pragmas:
                if not pragma.valid:
                    message = (
                        f"empty reason in 'allow-{pragma.slug}()' — this "
                        "pragma suppresses nothing"
                    )
                    hint = (
                        "state why the finding is acceptable: "
                        f"# lint: allow-{pragma.slug}(<reason>)"
                    )
                elif pragma.slug not in known:
                    message = (
                        f"unknown slug in 'allow-{pragma.slug}(...)' — no "
                        "registered rule has it, so this pragma suppresses "
                        "nothing"
                    )
                    hint = (
                        "use the slug of the rule whose finding this waives "
                        "(the pragma-slug table of docs/STATIC_ANALYSIS.md), "
                        "or delete the pragma"
                    )
                else:
                    continue
                yield self.finding(module, _Anchor(line, 0), message, hint=hint)
