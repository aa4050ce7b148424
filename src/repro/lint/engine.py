"""The analyzer engine: discover files, run rules, apply suppressions.

The engine is deliberately dumb about *what* the rules check — it owns
the mechanics every rule shares: file discovery, parsing, central
pragma suppression (a finding whose anchor line carries a valid
``# lint: allow-<slug>(reason)`` pragma is dropped before reporting)
and baseline splitting.  Parse failures are collected as *internal
errors*, not findings: a file that will not parse ran zero rules, and
pretending otherwise would let real violations hide behind a stray
syntax error.

A run has two rule phases:

* **per-module** — every plain :class:`Rule` sees one
  :class:`ModuleInfo` at a time.  This phase is embarrassingly
  parallel, so ``jobs > 1`` fans the *files* out over
  :func:`repro.parallel.make_executor`'s process pool (each worker
  re-parses its file — ASTs never cross the pickle boundary);
* **project** — every :class:`ProjectRule` runs once over a
  :class:`~repro.lint.callgraph.Project` spanning all parsed modules.
  This phase stays serial: the call graph and the bottom-up summary
  computation are shared state, and determinism of summary iteration
  order is part of the summary-store contract.

A parse failure excludes only the broken file from the project — the
interprocedural rules still run over everything that parsed, alongside
the internal error (exit code 2) for the file that did not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo, load_module
from repro.lint.pragmas import line_allows
from repro.lint.registry import ProjectRule, Rule, resolve_rules

__all__ = ["LintResult", "Linter", "lint_paths", "lint_source", "lint_sources"]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: list[Finding] = field(default_factory=list)       # new (blocking)
    baselined: list[Finding] = field(default_factory=list)      # suppressed
    internal_errors: list[str] = field(default_factory=list)    # parse/config
    files_checked: int = 0
    #: Wall-clock seconds spent in :meth:`Linter.run` (reports/timing line).
    duration: float = 0.0
    #: Worker count the per-module phase actually used.
    jobs: int = 1

    @property
    def clean(self) -> bool:
        return not self.findings and not self.internal_errors

    def exit_code(self) -> int:
        """CLI contract: 0 clean, 1 findings, 2 internal error."""
        if self.internal_errors:
            return 2
        return 1 if self.findings else 0


def _lint_batch_task(task: tuple[tuple[str, ...], str, tuple[str, ...]]) -> list[Finding]:
    """Process-pool worker: re-load a batch of files, run per-module rules.

    Takes ``(paths, root, rule_ids)`` as plain strings — the parent
    already parsed each file successfully, so workers ship back only
    pickled :class:`Finding` lists, never ASTs.  One batch per worker
    (not one per file) keeps pool overhead amortised over the whole
    slice.  Module level and closure-free on purpose (the analyzer
    must pass its own REP016).
    """
    paths, root, rule_ids = task
    rules = [
        r for r in resolve_rules(select=rule_ids)
        if not isinstance(r, ProjectRule)
    ]
    linter = Linter(rules=rules)
    out: list[Finding] = []
    for path in paths:
        out.extend(linter.check_module(load_module(Path(path), root=Path(root))))
    return out


class Linter:
    """Run a set of rules over modules, with pragma + baseline filtering."""

    def __init__(
        self,
        rules: list[Rule] | None = None,
        baseline: Baseline | None = None,
        root: Path | None = None,
        jobs: int = 1,
        summary_store: Path | None = None,
    ) -> None:
        self.rules = rules if rules is not None else resolve_rules()
        self.baseline = baseline
        self.root = root or Path.cwd()
        self.jobs = max(1, int(jobs))
        self.summary_store = summary_store

    @property
    def module_rules(self) -> list[Rule]:
        return [r for r in self.rules if not isinstance(r, ProjectRule)]

    @property
    def project_rules(self) -> list[ProjectRule]:
        return [r for r in self.rules if isinstance(r, ProjectRule)]

    # -- discovery ----------------------------------------------------------

    @staticmethod
    def iter_python_files(paths: list[Path]):
        for path in paths:
            if path.is_file():
                if path.suffix == ".py":
                    yield path
            elif path.is_dir():
                for sub in sorted(path.rglob("*.py")):
                    if not any(part in _SKIP_DIRS for part in sub.parts):
                        yield sub

    # -- execution ----------------------------------------------------------

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        """All non-suppressed per-module findings for one parsed module."""
        out: list[Finding] = []
        for rule in self.module_rules:
            for finding in rule.check(module):
                if line_allows(module.pragmas, finding.line, finding.slug):
                    continue
                out.append(finding)
        return out

    def check_project(self, modules: list[ModuleInfo]) -> list[Finding]:
        """Run the interprocedural rules once over all parsed modules."""
        if not self.project_rules or not modules:
            return []
        from repro.lint.callgraph import Project

        project = Project(modules)
        self._apply_summary_store(project)
        out: list[Finding] = []
        for rule in self.project_rules:
            for finding in rule.check_project(project):
                module = project.modules_by_relpath.get(finding.path)
                pragmas = module.pragmas if module is not None else {}
                if line_allows(pragmas, finding.line, finding.slug):
                    continue
                out.append(finding)
        self._save_summary_store(project)
        return out

    def _apply_summary_store(self, project) -> None:
        if self.summary_store is None:
            return
        from repro.lint.summaries import SummaryStore

        cached = SummaryStore(self.summary_store).load(project.source_hash())
        if cached is not None:
            project.set_summaries(cached)

    def _save_summary_store(self, project) -> None:
        # Save only when the run actually computed summaries (a cache
        # hit or a summary-free rule set leaves nothing new to persist).
        if self.summary_store is None or project._summaries is None:
            return
        from repro.lint.summaries import SummaryStore

        try:
            SummaryStore(self.summary_store).save(
                project.source_hash(), project.summaries()
            )
        except OSError:
            pass  # the store is an accelerator; failing to save is not an error

    def _run_module_phase(
        self, modules: list[ModuleInfo]
    ) -> tuple[list[Finding], int]:
        """Per-module findings and the worker count actually used."""
        if not self.module_rules:
            return [], 1
        rule_ids = tuple(sorted(r.rule_id for r in self.module_rules))
        if self.jobs > 1 and len(modules) > 1:
            from repro.parallel import make_executor

            paths = [str(m.path) for m in modules]
            step = -(-len(paths) // self.jobs)
            tasks = [
                (tuple(paths[i:i + step]), str(self.root), rule_ids)
                for i in range(0, len(paths), step)
            ]
            with make_executor("process", self.jobs) as executor:
                per_batch = executor.map(_lint_batch_task, tasks)
            return [f for batch in per_batch for f in batch], self.jobs
        out: list[Finding] = []
        for module in modules:
            out.extend(self.check_module(module))
        return out, 1

    def run(self, paths: list[Path]) -> LintResult:
        import time

        start = time.perf_counter()
        result = LintResult()
        modules: list[ModuleInfo] = []
        seen: set[Path] = set()
        any_input = False
        for path in self.iter_python_files(paths):
            any_input = True
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            try:
                modules.append(load_module(path, root=self.root))
            except (SyntaxError, OSError, UnicodeDecodeError) as exc:
                result.internal_errors.append(f"{path}: {exc}")
                continue
            result.files_checked += 1
        if not any_input:
            result.internal_errors.append(
                "no Python files found in: "
                + ", ".join(str(p) for p in paths)
            )
        raw, result.jobs = self._run_module_phase(modules)
        raw.extend(self.check_project(modules))
        if self.baseline is not None:
            new, old = self.baseline.split(raw)
            result.findings = new
            result.baselined = old
        else:
            result.findings = sorted(raw, key=Finding.sort_key)
        result.duration = time.perf_counter() - start
        return result


def lint_paths(
    paths: list[Path],
    *,
    rules: list[Rule] | None = None,
    baseline: Baseline | None = None,
    root: Path | None = None,
    jobs: int = 1,
    summary_store: Path | None = None,
) -> LintResult:
    """Convenience wrapper: run the (selected) rule set over ``paths``."""
    return Linter(
        rules=rules,
        baseline=baseline,
        root=root,
        jobs=jobs,
        summary_store=summary_store,
    ).run(paths)


def _module_name_for(relpath: str) -> str:
    parts = Path(relpath).with_suffix("").parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "snippet"


def lint_sources(
    sources: dict[str, str],
    *,
    rules: list[Rule] | None = None,
) -> list[Finding]:
    """Lint a set of in-memory modules (the interprocedural fixture hook).

    ``sources`` maps relpath to source text; module names derive from
    the relpaths (``pkg/worker.py`` -> ``pkg.worker``), so imports
    between fixture modules resolve exactly as they would on disk.
    Both rule phases run — per-module rules on each file, project
    rules over the combined project — with pragma suppression applied.
    """
    import ast

    from repro.lint.pragmas import extract_pragmas

    modules = []
    for relpath, source in sources.items():
        modules.append(ModuleInfo(
            path=Path(relpath),
            relpath=relpath,
            name=_module_name_for(relpath),
            source=source,
            tree=ast.parse(source),
            pragmas=extract_pragmas(source),
        ))
    linter = Linter(rules=rules)
    findings = []
    for module in modules:
        findings.extend(linter.check_module(module))
    findings.extend(linter.check_project(modules))
    return sorted(findings, key=Finding.sort_key)


def lint_source(
    source: str,
    *,
    module_name: str = "snippet",
    relpath: str = "snippet.py",
    rules: list[Rule] | None = None,
) -> list[Finding]:
    """Lint an in-memory snippet (the fixture-test workhorse).

    ``module_name`` controls package-scoped rules: pass e.g.
    ``"repro.deflate.bitio"`` to exercise scope-limited checks.
    Project rules run over the one-module project, so single-file
    interprocedural fixtures work here too.
    """
    import ast

    from repro.lint.pragmas import extract_pragmas

    module = ModuleInfo(
        path=Path(relpath),
        relpath=relpath,
        name=module_name,
        source=source,
        tree=ast.parse(source),
        pragmas=extract_pragmas(source),
    )
    linter = Linter(rules=rules)
    findings = linter.check_module(module)
    findings.extend(linter.check_project([module]))
    return sorted(findings, key=Finding.sort_key)
