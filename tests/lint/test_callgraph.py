"""Unit tests for the project call graph (:mod:`repro.lint.callgraph`).

Everything runs over a small synthetic package built in memory — the
resolution rules (import tables, attribute chains, self/cls methods,
the unique-method fallback with its common-name stoplist, one-level
local aliases) and the structures derived from the graph (SCC order,
reachability, executor submission sites) are exercised without
touching the real source tree, so these tests stay stable as the repo
grows.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint.callgraph import (
    MODULE_UNIT,
    Project,
    strongly_connected_components,
)
from repro.lint.module import ModuleInfo

pytestmark = pytest.mark.lint


def make_module(name: str, source: str) -> ModuleInfo:
    relpath = name.replace(".", "/") + ".py"
    return ModuleInfo(
        path=Path("/syn/" + relpath),
        relpath=relpath,
        name=name,
        source=source,
        tree=ast.parse(source),
        pragmas={},
    )


def project(**sources: str) -> Project:
    return Project(
        make_module(name.replace("__", "."), src)
        for name, src in sources.items()
    )


def edge_set(proj: Project) -> set[tuple[str, str]]:
    graph = proj.call_graph()
    return {
        (site.caller, site.callee)
        for sites in graph.edges.values()
        for site in sites
    }


# ---------------------------------------------------------------------------
# function indexing
# ---------------------------------------------------------------------------


class TestIndexing:
    def test_functions_methods_and_nested(self):
        proj = project(pkg__a="""
def top():
    def inner():
        pass
    return inner

class Worker:
    def run(self):
        pass
""")
        assert set(proj.functions) == {
            "pkg.a.top", "pkg.a.top.inner", "pkg.a.Worker.run",
        }
        assert proj.functions["pkg.a.Worker.run"].is_method
        assert proj.functions["pkg.a.top.inner"].is_nested

    def test_defs_inside_compound_statements(self):
        proj = project(pkg__a="""
try:
    def fast():
        pass
except ImportError:
    pass

def run(verbose):
    if verbose:
        def report(case):
            print(case)
""")
        assert {"pkg.a.fast", "pkg.a.run.report"} <= set(proj.functions)
        assert proj.functions["pkg.a.run.report"].is_nested

    def test_closure_detection(self):
        proj = project(pkg__a="""
def outer(items):
    total = []
    def closes():
        total.append(1)
    def clean(x):
        return x + 1
    return closes, clean
""")
        assert proj.functions["pkg.a.outer.closes"].is_closure
        assert proj.functions["pkg.a.outer.closes"].closure_names == {"total"}
        assert not proj.functions["pkg.a.outer.clean"].is_closure

    def test_params_strip_self_and_cls(self):
        proj = project(pkg__a="""
class C:
    def m(self, n):
        pass
    @classmethod
    def k(cls, n):
        pass
""")
        assert [a.arg for a in proj.functions["pkg.a.C.m"].params()] == ["n"]
        assert [a.arg for a in proj.functions["pkg.a.C.k"].params()] == ["n"]

    def test_iter_units_includes_module_top_level(self):
        proj = project(pkg__a="def f():\n    pass\nX = f()\n")
        names = {q for q, _, _, _ in proj.iter_units()}
        assert f"pkg.a.{MODULE_UNIT}" in names
        assert "pkg.a.f" in names


# ---------------------------------------------------------------------------
# call resolution
# ---------------------------------------------------------------------------


class TestResolution:
    def test_same_module_name_call(self):
        proj = project(pkg__a="""
def helper():
    pass

def caller():
    helper()
""")
        assert ("pkg.a.caller", "pkg.a.helper") in edge_set(proj)

    def test_from_import(self):
        proj = project(
            pkg__a="def helper():\n    pass\n",
            pkg__b="from pkg.a import helper\n\ndef caller():\n    helper()\n",
        )
        assert ("pkg.b.caller", "pkg.a.helper") in edge_set(proj)

    def test_from_import_with_alias(self):
        proj = project(
            pkg__a="def helper():\n    pass\n",
            pkg__b="from pkg.a import helper as h\n\ndef caller():\n    h()\n",
        )
        assert ("pkg.b.caller", "pkg.a.helper") in edge_set(proj)

    def test_module_attribute_chain(self):
        proj = project(
            pkg__a="def helper():\n    pass\n",
            pkg__b="import pkg.a\n\ndef caller():\n    pkg.a.helper()\n",
        )
        assert ("pkg.b.caller", "pkg.a.helper") in edge_set(proj)

    def test_import_as_attribute_chain(self):
        proj = project(
            pkg__a="def helper():\n    pass\n",
            pkg__b="import pkg.a as mod\n\ndef caller():\n    mod.helper()\n",
        )
        assert ("pkg.b.caller", "pkg.a.helper") in edge_set(proj)

    def test_relative_import(self):
        proj = project(
            pkg__a="def helper():\n    pass\n",
            pkg__b="from .a import helper\n\ndef caller():\n    helper()\n",
        )
        assert ("pkg.b.caller", "pkg.a.helper") in edge_set(proj)

    def test_self_method_call(self):
        proj = project(pkg__a="""
class C:
    def step(self):
        pass
    def run(self):
        self.step()
""")
        assert ("pkg.a.C.run", "pkg.a.C.step") in edge_set(proj)

    def test_unique_method_fallback(self):
        proj = project(
            pkg__a="""
class Decoder:
    def decode_symbol(self):
        pass
""",
            pkg__b="""
def drive(dec):
    dec.decode_symbol()
""",
        )
        assert ("pkg.b.drive", "pkg.a.Decoder.decode_symbol") in edge_set(proj)

    def test_common_method_names_never_fallback(self):
        # A unique project `def read` must not swallow `fh.read()`.
        proj = project(
            pkg__a="""
class Reader:
    def read(self):
        pass
""",
            pkg__b="""
def drive(fh):
    fh.read()
""",
        )
        assert ("pkg.b.drive", "pkg.a.Reader.read") not in edge_set(proj)

    def test_ambiguous_method_stays_unresolved(self):
        proj = project(
            pkg__a="class A:\n    def decode_symbol(self):\n        pass\n",
            pkg__b="class B:\n    def decode_symbol(self):\n        pass\n",
            pkg__c="def drive(x):\n    x.decode_symbol()\n",
        )
        callees = {c for _, c in edge_set(proj)}
        assert "pkg.a.A.decode_symbol" not in callees
        assert "pkg.b.B.decode_symbol" not in callees

    def test_local_alias_one_level(self):
        proj = project(pkg__a="""
def worker():
    pass

def caller():
    fn = worker
    fn()
""")
        assert ("pkg.a.caller", "pkg.a.worker") in edge_set(proj)


# ---------------------------------------------------------------------------
# submission sites
# ---------------------------------------------------------------------------


class TestSubmissions:
    def test_executor_map_collects_site_and_edge(self):
        proj = project(pkg__a="""
def work(item):
    return item

def run(executor, items):
    return executor.map_outcomes(work, items)
""")
        graph = proj.call_graph()
        (site,) = graph.submissions
        assert site.caller == "pkg.a.run"
        assert site.method == "map_outcomes"
        assert site.callee == "pkg.a.work"
        assert ("pkg.a.run", "pkg.a.work") in edge_set(proj)

    def test_supervised_map_outcomes_fn_position(self):
        proj = project(pkg__a="""
def work(item):
    return item

def run(executor, items, policy):
    return supervised_map_outcomes(executor, work, items, policy)
""")
        (site,) = proj.call_graph().submissions
        assert site.callee == "pkg.a.work"

    def test_aliased_lambda_submission_resolves_expr(self):
        proj = project(pkg__a="""
def run(executor, items):
    fn = lambda item: item * 2
    return executor.map(fn, items)
""")
        (site,) = proj.call_graph().submissions
        assert isinstance(site.resolved_expr, ast.Lambda)

    def test_non_executor_receiver_ignored(self):
        proj = project(pkg__a="""
def run(values, items):
    return values.map(str, items)
""")
        assert proj.call_graph().submissions == []


# ---------------------------------------------------------------------------
# graph structure: SCCs + reachability
# ---------------------------------------------------------------------------


class TestStructure:
    def test_scc_order_bottom_up(self):
        proj = project(pkg__a="""
def leaf():
    pass

def mid():
    leaf()

def top():
    mid()
""")
        order = proj.scc_order()
        pos = {q: i for i, scc in enumerate(order) for q in scc}
        assert pos["pkg.a.leaf"] < pos["pkg.a.mid"] < pos["pkg.a.top"]

    def test_mutual_recursion_shares_scc(self):
        proj = project(pkg__a="""
def even(n):
    return n == 0 or odd(n - 1)

def odd(n):
    return n != 0 and even(n - 1)
""")
        sccs = [set(s) for s in proj.scc_order()]
        assert {"pkg.a.even", "pkg.a.odd"} in sccs

    def test_reachable_from(self):
        proj = project(pkg__a="""
def a():
    b()

def b():
    c()

def c():
    pass

def unrelated():
    pass
""")
        reached = set(proj.call_graph().reachable_from("pkg.a.a"))
        assert {"pkg.a.a", "pkg.a.b", "pkg.a.c"} <= reached
        assert "pkg.a.unrelated" not in reached

    def test_tarjan_handles_deep_chains_iteratively(self):
        # 2000-deep chain: a recursive Tarjan would blow the stack.
        n = 2000
        nodes = [f"f{i}" for i in range(n)]
        succs = {f"f{i}": [f"f{i + 1}"] for i in range(n - 1)}
        order = strongly_connected_components(nodes, succs)
        assert len(order) == n
        assert order[0] == [f"f{n - 1}"]  # callees first

    def test_source_hash_changes_with_content(self):
        p1 = project(pkg__a="def f():\n    pass\n")
        p2 = project(pkg__a="def f():\n    return 1\n")
        p3 = project(pkg__a="def f():\n    pass\n")
        assert p1.source_hash() != p2.source_hash()
        assert p1.source_hash() == p3.source_hash()
