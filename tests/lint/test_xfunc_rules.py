"""Fixture tests for the interprocedural rules (REP014–REP016, REP020).

Every rule gets violation/compliant twins, a call-depth ≥ 2 case (the
whole point of the summary layer) and a recursion/SCC case proving the
bottom-up fixpoint converges rather than looping or crashing.  The
multi-module cases go through :func:`repro.lint.lint_sources`, which
builds the same :class:`~repro.lint.callgraph.Project` the engine
uses on disk.
"""

from __future__ import annotations

import pytest

from repro.lint import lint_source, lint_sources, resolve_rules
from repro.lint.summaries import compute_summaries

pytestmark = pytest.mark.lint


def findings_for(source, rule_id, module_name="repro.somemod", relpath="m.py"):
    return lint_source(
        source,
        module_name=module_name,
        relpath=relpath,
        rules=resolve_rules(select=[rule_id]),
    )


def findings_for_tree(sources, rule_id):
    return lint_sources(sources, rules=resolve_rules(select=[rule_id]))


# ---------------------------------------------------------------------------
# REP014 — cross-function unit confusion
# ---------------------------------------------------------------------------


class TestCrossUnitConfusion:
    def test_bit_value_into_byte_parameter(self):
        (f,) = findings_for("""
def split_chunk(start_byte):
    return start_byte // 2

def plan(reader):
    return split_chunk(reader.tell_bits())
""", "REP014")
        assert "bit-valued" in f.message
        assert "start_byte" in f.message

    def test_annotation_beats_name(self):
        (f,) = findings_for("""
from repro.units import ByteOffset

def advance(pos: ByteOffset):
    return pos + 1

def plan(reader):
    return advance(reader.tell_bits())
""", "REP014")
        assert "'pos'" in f.message

    def test_depth_two_through_helper_return(self):
        # The bit unit flows out of helper() via its summary's return
        # unit, then into the byte parameter — two resolved hops.
        (f,) = findings_for("""
def helper(reader):
    return reader.tell_bits()

def split_chunk(start_byte):
    return start_byte // 2

def plan(reader):
    return split_chunk(helper(reader))
""", "REP014")
        assert "split_chunk" in f.message

    def test_cross_module(self):
        (f,) = findings_for_tree({
            "pkg/low.py": """
def split_chunk(start_byte):
    return start_byte // 2
""",
            "pkg/high.py": """
from pkg.low import split_chunk

def plan(reader):
    return split_chunk(reader.tell_bits())
""",
        }, "REP014")
        assert f.path == "pkg/high.py"

    def test_converted_argument_is_clean(self):
        assert findings_for("""
def split_chunk(start_byte):
    return start_byte // 2

def plan(reader):
    return split_chunk(reader.tell_bits() >> 3)
""", "REP014") == []

    def test_matching_units_are_clean(self):
        assert findings_for("""
def resync(start_bit):
    return start_bit + 1

def plan(reader):
    return resync(reader.tell_bits())
""", "REP014") == []

    def test_recursive_helper_converges(self):
        (f,) = findings_for("""
def descend(start_bit, depth):
    if depth == 0:
        return start_bit
    return descend(start_bit, depth - 1)

def consume(nbytes):
    return nbytes * 2

def plan(reader):
    return consume(descend(reader.tell_bits(), 3))
""", "REP014")
        assert "nbytes" in f.message

    def test_pragma_suppresses(self):
        assert findings_for("""
def split_chunk(start_byte):
    return start_byte // 2

def plan(reader):
    return split_chunk(reader.tell_bits())  # lint: allow-cross-unit-confusion(legacy bit-addressed API)
""", "REP014") == []


# ---------------------------------------------------------------------------
# REP015 — cross-function decode taint
# ---------------------------------------------------------------------------


class TestCrossDecodeTaint:
    def test_taint_down_into_callee_sink(self):
        (f,) = findings_for("""
def expand(table, count):
    return table[count]

def decode(reader, table):
    n = reader.read(7)
    return expand(table, n)
""", "REP015")
        assert "'count'" in f.message
        assert "expand" in f.message

    def test_taint_down_depth_two(self):
        (f,) = findings_for("""
def inner(table, count):
    return table[count]

def middle(table, count):
    return inner(table, count)

def decode(reader, table):
    n = reader.read(7)
    return middle(table, n)
""", "REP015")
        assert "middle" in f.message  # reported at the boundary crossed

    def test_taint_up_from_helper_return(self):
        (f,) = findings_for("""
def read_count(reader):
    return reader.read(7)

def decode(reader, table):
    n = read_count(reader)
    return table[n]
""", "REP015")
        assert "read_count" in f.message

    def test_callee_validation_is_clean(self):
        assert findings_for("""
def expand(table, count):
    if count >= len(table):
        raise ValueError(count)
    return table[count]

def decode(reader, table):
    n = reader.read(7)
    return expand(table, n)
""", "REP015") == []

    def test_caller_validation_is_clean(self):
        assert findings_for("""
def expand(table, count):
    return table[count]

def decode(reader, table):
    n = reader.read(7)
    if n > 29:
        raise ValueError(n)
    return expand(table, n)
""", "REP015") == []

    def test_mask_sanitizes_across_return(self):
        assert findings_for("""
def read_count(reader):
    return reader.read(7) & 0x1F

def decode(reader, table):
    return table[read_count(reader)]
""", "REP015") == []

    def test_direct_local_sink_is_reported_once(self):
        # Read-then-sink in one function: one finding at the sink.
        (f,) = findings_for("""
def decode(reader, table):
    n = reader.read(7)
    return table[n]
""", "REP015")
        assert f.line == 4
        assert "raw decode value used as an index" in f.message

    def test_cross_module(self):
        (f,) = findings_for_tree({
            "pkg/tables.py": """
def expand(table, count):
    return table[count]
""",
            "pkg/decoder.py": """
from pkg.tables import expand

def decode(reader, table):
    n = reader.read(7)
    return expand(table, n)
""",
        }, "REP015")
        assert f.path == "pkg/decoder.py"

    def test_mutual_recursion_converges(self):
        (f,) = findings_for("""
def walk(table, count, depth):
    if depth:
        return descend(table, count, depth - 1)
    return table[count]

def descend(table, count, depth):
    return walk(table, count, depth)

def decode(reader, table):
    n = reader.read(9)
    return walk(table, n, 2)
""", "REP015")
        assert "walk" in f.message


# ---------------------------------------------------------------------------
# REP016 — executor race/fork-safety
# ---------------------------------------------------------------------------


class TestExecSafety:
    def test_module_state_mutation_depth_two(self):
        (f,) = findings_for("""
_seen = {}

def _record(chunk):
    _seen[chunk] = 1

def _work(chunk):
    _record(chunk)
    return chunk

def run(executor, chunks):
    return executor.map_outcomes(_work, chunks)
""", "REP016")
        assert "_record" in f.message
        assert "_seen" in f.message

    def test_pure_worker_is_clean(self):
        assert findings_for("""
def _work(chunk):
    return chunk * 2

def run(executor, chunks):
    return executor.map_outcomes(_work, chunks)
""", "REP016") == []

    def test_lock_across_call(self):
        (f,) = findings_for("""
import threading

_lock = threading.Lock()

def _flush(batch):
    pass

def _work(batch):
    with _lock:
        _flush(batch)

def run(executor, batches):
    return executor.map(_work, batches)
""", "REP016")
        assert "lock" in f.message.lower()

    def test_aliased_lambda_submission(self):
        (f,) = findings_for("""
def run(executor, items):
    fn = lambda item: item * 2
    return executor.map(fn, items)
""", "REP016")
        assert "lambda" in f.message

    def test_supervised_lambda_submission(self):
        (f,) = findings_for("""
from repro.parallel.supervision import supervised_map_outcomes

def run(executor, items, policy):
    return supervised_map_outcomes(executor, lambda item: item * 2, items, policy)
""", "REP016")
        assert "lambda" in f.message

    def test_closure_submission(self):
        (f,) = findings_for("""
def run(executor, items, scale):
    def work(item):
        return item * scale
    return executor.map(work, items)
""", "REP016")
        assert "scale" in f.message

    def test_nested_function_submission(self):
        # No closure, but pickle still cannot look up ``run.<locals>.work``.
        (f,) = findings_for("""
def run(executor, items):
    def work(item):
        return item * 2
    return executor.map(work, items)
""", "REP016")
        assert "nested function" in f.message

    def test_cross_module_worker(self):
        (f,) = findings_for_tree({
            "pkg/state.py": """
_cache = []

def remember(x):
    _cache.append(x)
""",
            "pkg/work.py": """
from pkg.state import remember

def work(item):
    remember(item)
    return item
""",
            "pkg/drive.py": """
from pkg.work import work

def run(executor, items):
    return executor.map_outcomes(work, items)
""",
        }, "REP016")
        assert f.path == "pkg/drive.py"  # anchored at the submission site
        assert "remember" in f.message

    def test_pragma_suppresses(self):
        assert findings_for("""
_seen = {}

def _work(chunk):
    _seen[chunk] = 1
    return chunk

def run(executor, chunks):
    return executor.map_outcomes(_work, chunks)  # lint: allow-exec-unsafe(serial executor only in this path)
""", "REP016") == []


# ---------------------------------------------------------------------------
# REP020 — unbudgeted allocation (formerly REP017; now interval-aware)
# ---------------------------------------------------------------------------


class TestUnbudgetedAlloc:
    def test_in_loop_alloc_depth_two(self):
        (f,) = findings_for("""
def _emit(length):
    out = bytearray()
    while length > 0:
        out += bytes(length)
        length -= 1
    return out

def inflate_block(reader, length):
    return _emit(length)
""", "REP020")
        assert "bytes() with computed size" in f.message
        assert f.line == 5  # anchored at the allocation, not the call

    def test_budget_check_in_callee_is_clean(self):
        assert findings_for("""
def _emit(length, budget):
    out = bytearray()
    while length > 0:
        budget.check_output(length)
        out += bytes(length)
        length -= 1
    return out

def inflate_block(reader, length, budget):
    return _emit(length, budget)
""", "REP020") == []

    def test_budget_check_in_caller_absorbs_callee(self):
        assert findings_for("""
def _emit(length):
    out = bytearray()
    while length > 0:
        out += bytes(length)
        length -= 1
    return out

def inflate_block(reader, length, budget):
    budget.check_block(length)
    return _emit(length)
""", "REP020") == []

    def test_optional_budget_idiom_is_clean(self):
        # `if budget is not None:` marks both arms checked by design.
        assert findings_for("""
def inflate(reader, length, budget=None):
    out = bytearray()
    while length > 0:
        if budget is not None:
            budget.check_output(length)
        out += bytes(length)
        length -= 1
    return out
""", "REP020") == []

    def test_constant_size_is_clean(self):
        assert findings_for("""
def fill(n):
    out = []
    for _ in range(n):
        out.append(bytes(65536))
    return out
""", "REP020") == []

    def test_alloc_outside_loop_is_clean(self):
        assert findings_for("""
def make(n):
    return bytes(n)
""", "REP020") == []

    def test_sequence_repeat_counts(self):
        (f,) = findings_for("""
def pad(reader, n):
    out = bytearray()
    while n > 0:
        out += b"?" * n
        n -= 1
    return out
""", "REP020")
        assert "sequence repeat" in f.message

    def test_recursive_alloc_converges(self):
        (f,) = findings_for("""
def grow(n):
    out = bytearray()
    while n:
        out += bytes(n)
        n = shrink(n)
    return out

def shrink(n):
    if n > 2:
        return grow(n - 1) and 0
    return 0
""", "REP020")
        assert "bytes() with computed size" in f.message

    def test_pragma_suppresses(self):
        assert findings_for("""
def pad(n):
    out = bytearray()
    while n > 0:
        out += bytes(n)  # lint: allow-unbudgeted-alloc(n is <= 258 by the caller's contract)
        n -= 1
    return out
""", "REP020") == []


# ---------------------------------------------------------------------------
# summary stability (the summary-store soundness contract)
# ---------------------------------------------------------------------------


class TestSummaryStability:
    SOURCES = {
        "pkg/low.py": """
def read_count(reader):
    return reader.read(7)

def expand(table, count):
    return table[count]
""",
        "pkg/high.py": """
from pkg.low import expand, read_count

def decode(reader, table):
    return expand(table, read_count(reader))

def even(n):
    return n == 0 or odd(n - 1)

def odd(n):
    return n != 0 and even(n - 1)
""",
    }

    def _project(self):
        import ast
        from pathlib import Path

        from repro.lint.callgraph import Project
        from repro.lint.module import ModuleInfo

        return Project(
            ModuleInfo(
                path=Path("/syn/" + rel),
                relpath=rel,
                name=rel[:-3].replace("/", "."),
                source=src,
                tree=ast.parse(src),
                pragmas={},
            )
            for rel, src in self.SOURCES.items()
        )

    def test_recomputation_is_deterministic(self):
        a = compute_summaries(self._project())
        b = compute_summaries(self._project())
        assert {q: s.to_dict() for q, s in a.items()} == \
               {q: s.to_dict() for q, s in b.items()}

    def test_summary_facts(self):
        summaries = compute_summaries(self._project())
        low = summaries["pkg.low.read_count"]
        assert low.returns_fresh_taint
        sink = summaries["pkg.low.expand"]
        assert "count" in sink.taint_sink_params

    def test_store_round_trip(self, tmp_path):
        from repro.lint.summaries import SummaryStore

        project = self._project()
        summaries = compute_summaries(project)
        store = SummaryStore(tmp_path / "summaries.json")
        store.save(project.source_hash(), summaries)
        loaded = store.load(project.source_hash())
        assert loaded is not None
        assert {q: s.to_dict() for q, s in loaded.items()} == \
               {q: s.to_dict() for q, s in summaries.items()}
        assert store.load("0" * 40) is None  # stale hash misses
