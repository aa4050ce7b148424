"""REP016 — static race/fork-safety detector for executor callables.

Everything submitted to an :class:`~repro.parallel.executor.Executor`
runs concurrently — thread pools share the interpreter, process pools
fork/spawn and pickle.  This rule checks the submitted callable itself
and walks the call graph from every submission site to check
everything **transitively reachable**:

* **module-state races** — a reachable function mutates module-level
  state (appends to a module list, writes a module dict, rebinds a
  ``global``).  Under threads that is a data race; under processes the
  mutation silently diverges per worker — the process-pool analogue of
  a racy write;
* **lock-across-call** — a reachable function holds a non-reentrant
  lock (``threading.Lock``-shaped; ``RLock`` is exempt) across a
  function call: if any callee ever takes the same lock, the pool
  deadlocks, and a preempted worker holding it stalls every sibling;
* **unpicklable callables** — the submitted callable is, directly or
  through a local alias, a lambda, a ``self.``/``cls.`` bound method or
  a nested function (a closure over enclosing-scope names, or merely
  defined inside another function): pickling fails only when the
  ``process`` backend is selected, the classic works-on-my-machine
  bug.

Findings anchor at the submission site — that is where the parallel
region begins and where the fix (or the pragma, with its documented
invariant) belongs.

Escape hatch: ``# lint: allow-exec-unsafe(<reason>)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import Project, SubmissionSite
from repro.lint.findings import Finding
from repro.lint.registry import ProjectRule, register

__all__ = ["ExecSafetyRule"]

_HINT = (
    "make worker functions pure: pass state through the items list and "
    "return results; move locks out of worker code paths; hoist "
    "submitted callables to module level"
)


@register
class ExecSafetyRule(ProjectRule):
    rule_id = "REP016"
    slug = "exec-unsafe"
    summary = (
        "executor-submitted callables must be transitively free of "
        "module-state mutation, lock-across-call, and closures"
    )
    example_bad = (
        "_seen = {}\n"
        "\n"
        "def _record(chunk):\n"
        "    _seen[chunk.index] = chunk.crc    # shared dict, no lock\n"
        "\n"
        "def _work(chunk):\n"
        "    _record(chunk)                    # reachable from the pool\n"
        "    return chunk.decode()\n"
        "\n"
        "def run(executor, chunks):\n"
        "    return executor.map_outcomes(_work, chunks)\n"
    )
    example_good = (
        "def _work(chunk):\n"
        "    return (chunk.index, chunk.crc, chunk.decode())\n"
        "\n"
        "def run(executor, chunks):\n"
        "    outcomes = executor.map_outcomes(_work, chunks)\n"
        "    seen = {i: crc for i, crc, _ in (o.value for o in outcomes)}\n"
        "    return seen\n"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = project.call_graph()
        summaries = project.summaries()
        for site in graph.submissions:
            yield from self._check_closure(project, site)
            if site.callee is None:
                continue
            for reached in graph.reachable_from(site.callee):
                summary = summaries.get(reached)
                if summary is None:
                    continue
                for s in summary.mutates_module_state:
                    yield self.finding(
                        site.module,
                        site.node,
                        f"{site.method}() callable {site.callee} reaches "
                        f"{reached}(), which {s.detail} — a data race "
                        "across pool workers",
                        hint=_HINT,
                    )
                for s in summary.lock_across_call:
                    yield self.finding(
                        site.module,
                        site.node,
                        f"{site.method}() callable {site.callee} reaches "
                        f"{reached}(), which {s.detail}",
                        hint=_HINT,
                    )

    def _check_closure(
        self, project: Project, site: SubmissionSite
    ) -> Iterator[Finding]:
        """Lambdas, bound methods and nested functions, direct or aliased."""
        fn = site.resolved_expr or site.callable_expr
        problem = None
        if isinstance(fn, ast.Lambda):
            problem = "is a lambda"
        elif (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name)
            and fn.value.id in ("self", "cls")
        ):
            problem = (
                f"is the bound method {fn.value.id}.{fn.attr}, which drags "
                "its instance through pickle"
            )
        elif site.callee is not None:
            info = project.function(site.callee)
            if info is not None and info.is_closure:
                names = ", ".join(sorted(info.closure_names))
                problem = (
                    f"{site.callee} is a closure over enclosing-scope state "
                    f"({names}); pickling drags that state across the fork "
                    "— or fails outright"
                )
            elif info is not None and info.is_nested:
                problem = (
                    f"{site.callee} is a nested function, which pickle "
                    "cannot look up by name"
                )
        if problem is not None:
            yield self.finding(
                site.module,
                site.node,
                f"{site.method}() callable {problem}; process pools need "
                "picklable module-level functions",
                hint=_HINT,
            )
