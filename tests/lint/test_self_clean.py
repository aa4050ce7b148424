"""Tier-1 gate: the full rule set over ``src/repro`` must stay clean.

This is the enforcement half of the analyzer: any non-baselined finding
in the shipped tree fails the default test run, so the contracts the
rules encode (error context, decode-path exception hygiene, seeded
randomness, fork-safe module state, export sync, bit/byte units,
decode-value taint, executor pickle safety, proved shift widths)
cannot silently rot.  The shipped ``lint-baseline.json``
is empty — every rule is fully satisfied; keep it that way, or justify
any new baseline entry in docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.lint import Baseline, Linter, resolve_rules

pytestmark = pytest.mark.lint

SRC = Path(repro.__file__).parent
REPO_ROOT = SRC.parent.parent
BASELINE = REPO_ROOT / "lint-baseline.json"


def test_source_tree_is_lint_clean():
    baseline = Baseline.load(BASELINE) if BASELINE.exists() else None
    result = Linter(rules=resolve_rules(), baseline=baseline,
                    root=REPO_ROOT).run([SRC])
    assert not result.internal_errors, result.internal_errors
    assert result.files_checked > 50  # the whole package was scanned
    details = "\n".join(f.format_text() for f in result.findings)
    assert not result.findings, f"new lint findings:\n{details}"


def test_shipped_baseline_is_small_and_justified():
    # Acceptance contract: empty, or at most 5 entries (each of which
    # must be justified in docs/STATIC_ANALYSIS.md).
    if not BASELINE.exists():
        pytest.skip("no baseline shipped (tree is clean without one)")
    baseline = Baseline.load(BASELINE)
    assert len(baseline) <= 5
