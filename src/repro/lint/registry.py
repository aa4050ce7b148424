"""Rule base class and the global rule registry.

Rules are small visitor-style classes registered with :func:`register`;
the engine instantiates each selected rule once per run and calls
:meth:`Rule.check` per module.  Registration keys on the rule id
(``REP001``...) and enforces uniqueness, so a typo'd duplicate id fails
loudly at import time instead of silently shadowing a rule.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.errors import ReproError
from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo

__all__ = [
    "Rule",
    "ProjectRule",
    "LintConfigError",
    "register",
    "all_rules",
    "resolve_rules",
]


class LintConfigError(ReproError):
    """The analyzer itself was misconfigured (unknown rule id, bad path).

    Distinct from findings: configuration errors map to CLI exit code 2.
    """


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding :class:`Finding` objects.  Pragma suppression is handled
    centrally by the engine (matching on :attr:`slug`), so rules report
    every violation they see.
    """

    rule_id: str = ""        # "REP001"
    slug: str = ""           # pragma slug: # lint: allow-<slug>(reason)
    severity: str = "error"
    summary: str = ""        # one-line description for --list / docs

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        hint: str = "",
        witness: str = "",
    ) -> Finding:
        """Build a finding anchored at ``node``'s location.

        ``witness`` carries the interval the engine computed for the
        offending expression (numeric rules only); it surfaces in text
        output and as ``properties.interval`` in SARIF.
        """
        return Finding(
            rule_id=self.rule_id,
            slug=self.slug,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=hint,
            severity=self.severity,
            witness=witness,
        )


class ProjectRule(Rule):
    """A rule that analyses the *whole project* at once.

    The interprocedural rules (REP014–REP016, REP018–REP020) need the
    call graph and function summaries spanning every module of the run,
    so the engine
    calls :meth:`check_project` exactly once per run — after all files
    parse — instead of :meth:`check` per module.  Findings are still
    anchored at a concrete ``(path, line)``, so pragma suppression and
    baseline matching work unchanged.
    """

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        """Project rules do not run per module."""
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        """Yield findings over a :class:`repro.lint.callgraph.Project`."""
        raise NotImplementedError


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding ``cls`` to the global registry."""
    if not cls.rule_id or not cls.slug:
        raise LintConfigError(
            f"rule {cls.__name__} must define rule_id and slug", stage="lint"
        )
    if cls.rule_id in _REGISTRY:
        raise LintConfigError(
            f"duplicate rule id {cls.rule_id}", stage="lint"
        )
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> list[type[Rule]]:
    """Every registered rule class, ordered by id."""
    import repro.lint.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def resolve_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """Instantiate the requested subset of rules.

    ``select`` keeps only the listed ids; ``ignore`` then removes ids.
    Unknown ids in either list raise :class:`LintConfigError`.
    """
    classes = all_rules()
    known = {c.rule_id for c in classes}
    for requested in (select or ()), (ignore or ()):
        unknown = set(requested) - known
        if unknown:
            raise LintConfigError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}",
                stage="lint",
            )
    if select:
        wanted = set(select)
        classes = [c for c in classes if c.rule_id in wanted]
    if ignore:
        dropped = set(ignore)
        classes = [c for c in classes if c.rule_id not in dropped]
    return [c() for c in classes]
