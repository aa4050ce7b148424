"""``repro.lint`` — AST-based invariant checker for this codebase.

A domain-specific static-analysis pass enforcing the contracts the
repository's correctness story depends on but ordinary linters cannot
see: structured error context at every ``ReproError`` raise site
(REP001), no broad exception handlers in the decode path (REP002),
seeded-only randomness (REP004), no mutable default arguments (REP006),
no module-level mutable state in fork-sensitive packages (REP007),
``__all__``/export agreement in package ``__init__`` files (REP008),
the flow-sensitive marker-escape analysis (REP011), pragma hygiene and
bounded retries (REP012–REP013), and the interprocedural call-graph
rules — bit/byte unit confusion, decode-value taint, executor
race/fork/pickle safety (REP014–REP016) — plus the interval abstract
interpretation layer (:mod:`repro.lint.intervals`): proved shift widths
and ``<<`` result widths (REP018), proved index bounds (REP019),
budget-or-proved allocations (REP020) and spec-literal provenance
(REP021), built on :mod:`repro.lint.callgraph` and
:mod:`repro.lint.summaries`.  REP003, REP005, REP009, REP010 and REP017
are retired into REP016, REP018, REP014, REP015 and REP020.

Three front doors:

* ``repro lint src/repro`` — the CLI subcommand (see :mod:`repro.lint.runner`);
* ``make lint`` — the same run with the repo baseline, part of ``make check``;
* ``tests/lint/test_self_clean.py`` — tier-1 pytest gate.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue, the pragma
syntax (``# lint: allow-<slug>(<reason>)``) and the baseline workflow.
"""

from repro.lint.baseline import Baseline
from repro.lint.engine import (
    Linter,
    LintResult,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.lint.findings import Finding
from repro.lint.registry import (
    LintConfigError,
    ProjectRule,
    Rule,
    all_rules,
    resolve_rules,
)
from repro.lint.runner import run_lint

__all__ = [
    "Baseline",
    "Finding",
    "LintConfigError",
    "LintResult",
    "Linter",
    "ProjectRule",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "resolve_rules",
    "run_lint",
]
