"""Fixture tests for the interval-proof rules (REP018–REP021).

Each rule gets violation/compliant twins exercising the proof forms the
DEFLATE hot paths actually use (seeded names, masks, clamps, branch
guards), plus scope and pragma-suppression checks.  The
``--prove-pragmas`` workflow is pinned end to end: a fixture tree with
two provable ``allow-unbudgeted-alloc`` pragmas must report both as
discharged — the acceptance bar for retiring hand-written pragma prose
in favour of machine-checked bounds.
"""

from __future__ import annotations

import ast
import io
from pathlib import Path

import pytest

from repro.lint import lint_source, lint_sources, resolve_rules
from repro.lint.callgraph import Project
from repro.lint.module import ModuleInfo
from repro.lint.pragmas import extract_pragmas
from repro.lint.rules.proven_alloc import (
    discharge_report,
    format_discharge_report,
)
from repro.lint.runner import prove_pragmas

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


def project_for(sources):
    """Build the Project lint_sources would, pragmas included."""
    modules = []
    for relpath, source in sources.items():
        name = ".".join(Path(relpath).with_suffix("").parts)
        modules.append(ModuleInfo(
            path=Path(relpath),
            relpath=relpath,
            name=name,
            source=source,
            tree=ast.parse(source),
            pragmas=extract_pragmas(source),
        ))
    return Project(modules)


# ---------------------------------------------------------------------------
# REP018 — unproved shift width
# ---------------------------------------------------------------------------


class TestShiftWidth:
    def test_unbounded_amount_flagged(self):
        (f,) = findings_for("""
def refill(bitbuf, n):
    return bitbuf | (0xFF << (8 * n))
""", "REP018", module_name="repro.deflate.bitio", relpath="bitio.py")
        assert "no proved bound" in f.message
        assert "8 * n" in f.message

    def test_seeded_protocol_names_prove_the_bound(self):
        assert findings_for("""
def take(bitbuf, nbits):
    return (bitbuf >> nbits) | (1 << nbits)
""", "REP018", module_name="repro.deflate.bitio", relpath="bitio.py") == []

    def test_guard_discharges_via_branch_refinement(self):
        assert findings_for("""
def shift(x, n):
    if n > 64:
        raise ValueError("amount exceeds the refill word")
    return x << n
""", "REP018", module_name="repro.deflate.bitio", relpath="bitio.py") == []

    def test_mask_discharges(self):
        assert findings_for("""
def shift(x, n):
    return x << (n & 63)
""", "REP018", module_name="repro.deflate.crc32", relpath="crc32.py") == []

    @pytest.mark.parametrize("body", [
        "self._buf = x << 8",
        "self.table[0] = x << 8",
        "return x == x << 8",
        "x <<= 8",
    ])
    def test_persisting_result_needs_a_bound(self, body):
        # The amount is proved; the result of an unbounded operand is not.
        (f,) = findings_for(
            f"def f(self, x):\n    {body}\n",
            "REP018", module_name="repro.deflate.crc32", relpath="crc32.py",
        )
        assert "left-shift result" in f.message
        assert "2**64" in f.message

    def test_bounded_operand_proves_the_result(self):
        assert findings_for("""
def f(self, x):
    x &= 0xFF
    self._buf = x << 8
    return x << 56 == self._buf
""", "REP018", module_name="repro.deflate.crc32", relpath="crc32.py") == []

    def test_out_of_scope_module_is_skipped(self):
        assert findings_for("""
def refill(bitbuf, n):
    return bitbuf | (0xFF << (8 * n))
""", "REP018", module_name="repro.core.pugz", relpath="pugz.py") == []

    def test_pragma_suppresses(self):
        assert findings_for("""
def refill(bitbuf, n):
    return bitbuf | (0xFF << (8 * n))  # lint: allow-unproved-shift(fixture)
""", "REP018", module_name="repro.deflate.bitio", relpath="bitio.py") == []


# ---------------------------------------------------------------------------
# REP019 — unproved index bounds
# ---------------------------------------------------------------------------


class TestIndexBounds:
    def test_positive_backref_arithmetic_flagged(self):
        (f,) = findings_for("""
def emit(out, distance, length):
    for _ in range(length):
        out.append(out[len(out) - distance])
""", "REP019", module_name="repro.deflate.inflate", relpath="inflate.py")
        assert "out" in f.message

    def test_guarded_negative_backref_is_proved(self):
        assert findings_for("""
def emit(out, distance, length):
    if distance > 32768:
        raise ValueError("beyond window")
    if distance < 1:
        raise ValueError("zero distance")
    for _ in range(length):
        out.append(out[-distance])
""", "REP019", module_name="repro.deflate.inflate", relpath="inflate.py") == []

    def test_masked_table_lookup_is_proved(self):
        assert findings_for("""
def decode(table, bitbuf):
    nbits, sym = table[bitbuf & 32767]
    return nbits, sym
""", "REP019", module_name="repro.deflate.inflate", relpath="inflate.py") == []

    def test_unmasked_table_lookup_flagged(self):
        (f,) = findings_for("""
def decode(table, bitbuf):
    nbits, sym = table[bitbuf]
    return nbits, sym
""", "REP019", module_name="repro.deflate.inflate", relpath="inflate.py")
        assert "table" in f.message

    def test_out_of_scope_module_is_skipped(self):
        assert findings_for("""
def decode(table, bitbuf):
    return table[bitbuf]
""", "REP019", module_name="repro.core.sync", relpath="sync.py") == []

    def test_pragma_suppresses(self):
        assert findings_for("""
def decode(table, bitbuf):
    return table[bitbuf]  # lint: allow-unproved-index(fixture)
""", "REP019", module_name="repro.deflate.lz77", relpath="lz77.py") == []


# ---------------------------------------------------------------------------
# REP020 — the proved-bound arm (budget arm is covered in
# test_xfunc_rules.py, inherited from REP017)
# ---------------------------------------------------------------------------


class TestProvenAllocArm:
    def test_unproved_unchecked_alloc_flagged(self):
        (f,) = findings_for("""
def emit(length):
    out = bytearray()
    while length > 0:
        out += bytes(length)
        length -= 1
    return out
""", "REP020")
        assert "no proved spec-constant size bound" in f.message

    def test_defs_sharing_a_name_are_each_judged_once(self):
        """Each branch's def has its own summary: both sites are
        reported, each once."""
        findings = findings_for("""
try:
    def emit(length):
        out = bytearray()
        while length > 0:
            out += bytes(length)
            length -= 1
        return out
except ImportError:
    def emit(length):
        out = bytearray()
        while length > 1:
            out += bytes(length)
            length -= 2
        return out

def caller(n):
    return emit(n)
""", "REP020")
        assert [f.line for f in findings] == [6, 13]

    def test_clamp_to_spec_constant_proves_the_site(self):
        assert findings_for("""
def emit(length):
    out = bytearray()
    while length > 0:
        chunk = min(length, 258)
        out += b"?" * chunk
        length -= chunk
    return out
""", "REP020") == []

    def test_mask_proves_the_site(self):
        assert findings_for("""
def fill(n, reps):
    out = bytearray()
    for _ in range(reps):
        out += b"\\x00" * (n & 32767)
    return out
""", "REP020") == []


# ---------------------------------------------------------------------------
# --prove-pragmas: the discharge workflow
# ---------------------------------------------------------------------------

# Two provable pragma sites (the clamp and the mask), one genuinely
# required pragma, one stale pragma.
_DISCHARGE_TREE = {
    "fix/salvage.py": """\
def salvage(length):
    out = bytearray()
    while length > 0:
        unknown = min(length, 258)
        out += b"?" * unknown  # lint: allow-unbudgeted-alloc(spec caps match length at MAX_MATCH)
        length -= unknown
    return out
""",
    "fix/tables.py": """\
def build(sizes):
    tables = []
    for size in sizes:
        n = size & 32767
        tables.append([0] * n)  # lint: allow-unbudgeted-alloc(window-sized fill)
    return tables


def copy_unbounded(n, reps):
    out = bytearray()
    for _ in range(reps):
        out += bytes(n)  # lint: allow-unbudgeted-alloc(caller bounds n)
    total = 0  # lint: allow-unbudgeted-alloc(left over from a refactor)
    return out, total
""",
}


class TestDischargeReport:
    def test_two_provable_pragmas_are_discharged(self):
        # The acceptance bar for the pragma-retirement workflow: the
        # prover must discharge (at least) the two hand-written
        # spec-bound pragmas so they can be deleted from source.
        report = discharge_report(project_for(_DISCHARGE_TREE))
        assert len(report["discharged"]) >= 2
        paths = {path for path, _line, _detail in report["discharged"]}
        assert paths == {"fix/salvage.py", "fix/tables.py"}
        # Each discharged entry carries its interval witness.
        for _path, _line, detail in report["discharged"]:
            assert "[" in detail and "]" in detail

    def test_required_and_stale_are_distinguished(self):
        report = discharge_report(project_for(_DISCHARGE_TREE))
        assert [(p, d) for p, _l, d in report["required"]] == [
            ("fix/tables.py", "caller bounds n"),
        ]
        (stale,) = report["stale"]
        assert stale[0] == "fix/tables.py"
        assert "no in-loop computed-size allocation" in stale[2]

    def test_proved_sites_listed_even_without_pragmas(self):
        source = {"fix/clean.py": """\
def emit(length):
    out = bytearray()
    while length > 0:
        chunk = min(length, 258)
        out += b"?" * chunk
        length -= chunk
    return out
"""}
        report = discharge_report(project_for(source))
        assert report["discharged"] == []
        assert report["required"] == []
        assert report["stale"] == []
        assert len(report["proved"]) == 1

    def test_format_renders_all_sections(self):
        text = format_discharge_report(
            discharge_report(project_for(_DISCHARGE_TREE))
        )
        assert "DISCHARGES" in text
        assert "REQUIRED" in text
        assert "STALE" in text
        assert "proved allocation bounds" in text

    def test_runner_smoke(self, tmp_path):
        (tmp_path / "salvage.py").write_text(_DISCHARGE_TREE["fix/salvage.py"])
        out = io.StringIO()
        assert prove_pragmas([str(tmp_path)], out=out) == 0
        text = out.getvalue()
        assert "DISCHARGES" in text
        assert "salvage.py" in text

    def test_runner_no_files_is_an_error(self, tmp_path):
        out = io.StringIO()
        assert prove_pragmas([str(tmp_path / "missing")], out=out) == 2


# ---------------------------------------------------------------------------
# REP021 — spec-literal provenance
# ---------------------------------------------------------------------------


class TestSpecLiterals:
    def test_distinctive_values_flagged_anywhere(self):
        findings = findings_for("""
WINDOW = 32768

def f():
    return 258
""", "REP021")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 2
        assert "WINDOW_SIZE" in messages
        assert "MAX_MATCH" in messages

    def test_gzip_magic_bytes_flagged(self):
        (f,) = findings_for("""
def is_gzip(data):
    return data[:3] == b"\\x1f\\x8b\\x08"
""", "REP021")
        assert "GZIP_MAGIC" in f.message

    def test_ambiguous_value_flagged_only_in_spec_comparison(self):
        (f,) = findings_for("""
def check(hlit):
    if hlit > 286:
        raise ValueError("bad hlit")
""", "REP021")
        assert "286" in f.message and "MAX_HLIT" in f.message

    def test_ambiguous_value_elsewhere_is_clean(self):
        assert findings_for("""
def f(items):
    x = 286
    for i in range(30):
        x += 15
    return x + 32
""", "REP021") == []

    def test_constants_module_is_exempt(self):
        assert findings_for(
            "WINDOW_SIZE = 32768\nMAX_MATCH = 258\n",
            "REP021",
            module_name="repro.deflate.constants",
            relpath="constants.py",
        ) == []

    def test_lint_package_is_exempt(self):
        assert findings_for(
            "_TABLE_RANGE = (0, 32768)\n",
            "REP021",
            module_name="repro.lint.intervals",
            relpath="intervals.py",
        ) == []

    def test_pragma_suppresses(self):
        assert findings_for("""
WINDOW = 32768  # lint: allow-magic-spec-literal(fixture)
""", "REP021") == []
