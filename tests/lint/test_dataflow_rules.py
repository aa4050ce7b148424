"""Good/bad fixture pairs for the flow-sensitive rules REP009–REP012.

Each rule proves three things here:

1. it fires on a violation only a *flow-sensitive* analysis can see —
   source and sink in different statements, connected through an
   intermediate variable whose name carries no unit/taint evidence;
2. it stays quiet on the compliant twin (explicit conversion, dominating
   bounds check, resolution through the sanctioned API);
3. its suppression pragma works end to end.
"""

from __future__ import annotations

import pytest

from repro.lint import lint_source, resolve_rules

pytestmark = pytest.mark.lint


def findings_for(source, rule_id, module_name="repro.somemod", relpath="m.py"):
    return lint_source(
        source,
        module_name=module_name,
        relpath=relpath,
        rules=resolve_rules(select=[rule_id]),
    )


# ---------------------------------------------------------------------------
# REP009 — bit/byte unit confusion
# ---------------------------------------------------------------------------


class TestREP009UnitConfusion:
    def test_bit_value_reaching_seek_through_plain_name(self):
        # ``pos`` has no unit tokens: only the dataflow binding from
        # tell_bits() can classify it. A purely syntactic rule is blind
        # to this.
        bad = (
            "def f(reader, fh):\n"
            "    pos = reader.tell_bits()\n"
            "    fh.seek(pos)\n"
        )
        (f,) = findings_for(bad, "REP009")
        assert f.line == 3
        assert "seek" in f.message

    def test_quiet_after_explicit_conversion(self):
        good = (
            "def f(reader, fh):\n"
            "    pos = reader.tell_bits() >> 3\n"
            "    fh.seek(pos)\n"
        )
        assert findings_for(good, "REP009") == []

    def test_bit_value_indexing_byte_buffer(self):
        bad = (
            "def f(data, reader):\n"
            "    where = reader.tell_bits()\n"
            "    return data[where]\n"
        )
        (f,) = findings_for(bad, "REP009")
        assert "byte buffer" in f.message

    def test_byte_value_flowing_to_bit_kwarg(self):
        bad = (
            "def f(data, fh):\n"
            "    off = fh.tell()\n"
            "    pos = off\n"
            "    return inflate(data, start_bit=pos)\n"
        )
        (f,) = findings_for(bad, "REP009")
        assert "start_bit=" in f.message

    def test_quiet_when_byte_value_lifted_to_bits(self):
        good = (
            "def f(data, fh):\n"
            "    off = fh.tell()\n"
            "    return inflate(data, start_bit=off * 8)\n"
        )
        assert findings_for(good, "REP009") == []

    def test_newtype_annotation_seeds_the_unit(self):
        bad = (
            "from repro.units import ByteOffset\n"
            "def f(data, pos: ByteOffset):\n"
            "    x = pos\n"
            "    return inflate(data, start_bit=x)\n"
        )
        (f,) = findings_for(bad, "REP009")
        assert f.line == 4

    def test_byte_value_as_screen_start_bit(self):
        bad = (
            "def f(data, fh):\n"
            "    off = fh.tell()\n"
            "    return screen_candidates(data, off, 8 * len(data))\n"
        )
        (f,) = findings_for(bad, "REP009")
        assert "screen_candidates" in f.message
        good = bad.replace("data, off,", "data, 8 * off,")
        assert findings_for(good, "REP009") == []

    def test_bit_value_compared_to_buffer_len(self):
        bad = (
            "def f(reader, data):\n"
            "    pos = reader.tell_bits()\n"
            "    return pos >= len(data)\n"
        )
        (f,) = findings_for(bad, "REP009")
        assert "len()" in f.message

    def test_double_conversion_is_silent(self):
        # ``(bit >> 3) >> 3`` joins to bit_or_byte: suspicious but
        # ambiguous, and the lattice never reports ambiguity.
        quiet = (
            "def f(reader, fh):\n"
            "    pos = reader.tell_bits() >> 3 >> 3\n"
            "    fh.seek(pos)\n"
        )
        assert findings_for(quiet, "REP009") == []

    def test_branches_joining_different_units_are_silent(self):
        quiet = (
            "def f(reader, fh, fast):\n"
            "    if fast:\n"
            "        pos = reader.tell_bits()\n"
            "    else:\n"
            "        pos = fh.tell()\n"
            "    fh.seek(pos)\n"
        )
        assert findings_for(quiet, "REP009") == []

    def test_pragma_suppresses(self):
        ok = (
            "def f(reader, fh):\n"
            "    pos = reader.tell_bits()\n"
            "    fh.seek(pos)  # lint: allow-unit-confusion(intentional bit-domain file)\n"
        )
        assert findings_for(ok, "REP009") == []


# ---------------------------------------------------------------------------
# REP010 — unvalidated decoded values
# ---------------------------------------------------------------------------


class TestREP010UnvalidatedDecode:
    def test_taint_survives_arithmetic_into_index(self):
        # The sink uses ``v``, one assignment away from the read — a
        # line-local pattern match cannot connect the two.
        bad = (
            "def f(reader, table):\n"
            "    sym = reader.read(5)\n"
            "    v = sym + 1\n"
            "    return table[v]\n"
        )
        (f,) = findings_for(bad, "REP010")
        assert f.line == 4
        assert "index" in f.message

    def test_dominating_guard_validates(self):
        good = (
            "def f(reader, table):\n"
            "    sym = reader.read(5)\n"
            "    if sym >= len(table):\n"
            "        raise ValueError\n"
            "    return table[sym]\n"
        )
        assert findings_for(good, "REP010") == []

    def test_shift_amount_sink(self):
        bad = (
            "def f(reader):\n"
            "    extra = reader.read(7)\n"
            "    return 1 << extra\n"
        )
        (f,) = findings_for(bad, "REP010")
        assert "shift" in f.message

    def test_mask_sanitizes(self):
        good = (
            "def f(reader):\n"
            "    extra = reader.read(7) & 0x1F\n"
            "    return 1 << extra\n"
        )
        assert findings_for(good, "REP010") == []

    def test_min_sanitizes(self):
        good = (
            "def f(reader, table):\n"
            "    sym = min(reader.read(5), len(table) - 1)\n"
            "    return table[sym]\n"
        )
        assert findings_for(good, "REP010") == []

    def test_allocation_size_sink(self):
        bad = (
            "def f(reader):\n"
            "    n = reader.read(16)\n"
            "    return bytearray(n)\n"
        )
        (f,) = findings_for(bad, "REP010")
        assert "allocation" in f.message

    def test_sequence_repeat_sink(self):
        bad = (
            "def f(reader):\n"
            "    n = reader.read(16)\n"
            "    return b'\\x00' * n\n"
        )
        (f,) = findings_for(bad, "REP010")
        assert "repeat" in f.message

    def test_slices_clamp_and_stay_quiet(self):
        good = (
            "def f(reader, data):\n"
            "    n = reader.read(16)\n"
            "    return data[:n]\n"
        )
        assert findings_for(good, "REP010") == []

    def test_guard_on_one_path_only_still_fires(self):
        # Flow-sensitivity the other way: the unguarded else-path
        # reaches the sink, so the joined state stays tainted.
        bad = (
            "def f(reader, table, strict):\n"
            "    sym = reader.read(5)\n"
            "    if strict:\n"
            "        if sym >= len(table):\n"
            "            raise ValueError\n"
            "        x = 1\n"
            "    return table[sym]\n"
        )
        # The inner guard validates sym on both arms of *its* branch,
        # but the ``strict`` False path never ran the comparison.
        assert [f.line for f in findings_for(bad, "REP010")] == [7]

    def test_pragma_suppresses(self):
        ok = (
            "def f(reader, table):\n"
            "    sym = reader.read(5)\n"
            "    return table[sym]  # lint: allow-unvalidated-decode(table spans the full 5-bit range)\n"
        )
        assert findings_for(ok, "REP010") == []


# ---------------------------------------------------------------------------
# REP011 — marker symbols escaping the symbol domain
# ---------------------------------------------------------------------------


class TestREP011MarkerEscape:
    def test_marker_sequence_reaching_bytes_via_alias(self):
        # ``x`` is a plain alias: only the flow binding knows it holds
        # marker symbols.
        bad = (
            "from repro.core.marker import undetermined_window\n"
            "def f(n):\n"
            "    syms = undetermined_window(n)\n"
            "    x = syms\n"
            "    return bytes(x)\n"
        )
        (f,) = findings_for(bad, "REP011")
        assert f.line == 5
        assert "bytes()" in f.message

    def test_quiet_through_to_bytes(self):
        good = (
            "from repro.core.marker import to_bytes, resolve\n"
            "def f(syms, window):\n"
            "    return to_bytes(resolve(syms, window))\n"
        )
        assert findings_for(good, "REP011") == []

    def test_marker_scalar_reaching_chr(self):
        bad = (
            "from repro.core.marker import MARKER_BASE\n"
            "def f(j):\n"
            "    code = MARKER_BASE + j\n"
            "    c = code\n"
            "    return chr(c)\n"
        )
        (f,) = findings_for(bad, "REP011")
        assert "chr()" in f.message

    def test_boundary_compare_clears_taint(self):
        good = (
            "from repro.core.marker import MARKER_BASE\n"
            "def f(syms):\n"
            "    for sym in syms:\n"
            "        if sym < MARKER_BASE:\n"
            "            yield chr(sym)\n"
        )
        assert findings_for(good, "REP011") == []

    def test_subtracting_marker_base_resolves(self):
        good = (
            "from repro.core.marker import MARKER_BASE\n"
            "def f(code, window):\n"
            "    byte = window[code - MARKER_BASE]\n"
            "    return chr(byte)\n"
        )
        assert findings_for(good, "REP011") == []

    def test_iteration_element_is_marker_tainted(self):
        bad = (
            "from repro.core.marker import undetermined_window\n"
            "def f(n):\n"
            "    out = []\n"
            "    for sym in undetermined_window(n):\n"
            "        out.append(chr(sym))\n"
            "    return out\n"
        )
        (f,) = findings_for(bad, "REP011")
        assert f.line == 5

    def test_translate_module_is_exempt(self):
        bad = (
            "from repro.core.marker import undetermined_window\n"
            "def f(n):\n"
            "    return bytes(undetermined_window(n))\n"
        )
        assert (
            findings_for(
                bad, "REP011",
                module_name="repro.core.translate",
                relpath="src/repro/core/translate.py",
            )
            == []
        )

    def test_pragma_suppresses(self):
        ok = (
            "from repro.core.marker import undetermined_window\n"
            "def f(n):\n"
            "    return bytes(undetermined_window(n))  # lint: allow-marker-escape(test fixture wants the ValueError)\n"
        )
        assert findings_for(ok, "REP011") == []

    # -- PR 9: vectorized sinks and take() propagation ----------------------

    def test_astype_uint8_on_marker_array_is_a_sink(self):
        bad = (
            "import numpy as np\n"
            "from repro.core.marker import undetermined_window\n"
            "def f(n):\n"
            "    syms = undetermined_window(n)\n"
            "    return syms.astype(np.uint8)\n"
        )
        (f,) = findings_for(bad, "REP011")
        assert f.line == 5
        assert "astype(uint8)" in f.message

    def test_astype_uint8_on_clean_array_is_quiet(self):
        good = (
            "import numpy as np\n"
            "def f(values):\n"
            "    arr = np.asarray(values)\n"
            "    return arr.astype(np.uint8)\n"
        )
        assert findings_for(good, "REP011") == []

    def test_astype_uint8_tobytes_reports_once(self):
        # The cast is the reported sink; its (already corrupted) result
        # is byte-shaped, so the trailing tobytes() must not double-fire.
        bad = (
            "import numpy as np\n"
            "from repro.core.marker import undetermined_window\n"
            "def f(n):\n"
            "    return undetermined_window(n).astype(np.uint8).tobytes()\n"
        )
        (f,) = findings_for(bad, "REP011")
        assert "astype(uint8)" in f.message

    def test_take_propagates_source_taint(self):
        bad = (
            "import numpy as np\n"
            "from repro.core.marker import undetermined_window\n"
            "def f(n, idx):\n"
            "    gathered = np.take(undetermined_window(n), idx)\n"
            "    return bytes(gathered)\n"
        )
        (f,) = findings_for(bad, "REP011")
        assert f.line == 5
        assert "bytes()" in f.message

    def test_take_method_propagates_source_taint(self):
        bad = (
            "from repro.core.marker import undetermined_window\n"
            "def f(n, idx):\n"
            "    syms = undetermined_window(n)\n"
            "    return bytes(syms.take(idx))\n"
        )
        (f,) = findings_for(bad, "REP011")
        assert "bytes()" in f.message

    def test_take_indices_do_not_launder_or_taint(self):
        # Clean source + tainted indices: the gather result carries the
        # *source's* domain, so this is byte-safe.
        good = (
            "import numpy as np\n"
            "from repro.core.marker import MARKER_BASE, undetermined_window\n"
            "def f(lut, n):\n"
            "    positions = undetermined_window(n) - MARKER_BASE\n"
            "    return bytes(np.take(lut, positions))\n"
        )
        assert findings_for(good, "REP011") == []

    def test_marker_module_is_exempt(self):
        bad = (
            "import numpy as np\n"
            "from repro.core.marker import undetermined_window\n"
            "def f(n):\n"
            "    return undetermined_window(n).astype(np.uint8)\n"
        )
        assert (
            findings_for(
                bad, "REP011",
                module_name="repro.core.marker",
                relpath="src/repro/core/marker.py",
            )
            == []
        )


# ---------------------------------------------------------------------------
# REP012 — pragmas must carry a reason
# ---------------------------------------------------------------------------


class TestREP012PragmaReason:
    def test_empty_reason_is_a_finding(self):
        bad = "x = eval('1')  # lint" ": allow-no-eval()\n"
        (f,) = findings_for(bad, "REP012")
        assert f.line == 1
        assert "allow-no-eval()" in f.message

    def test_reasoned_pragma_is_quiet(self):
        good = "x = 1  # lint" ": allow-no-eval(constant fold fixture)\n"
        assert findings_for(good, "REP012") == []

    def test_empty_pragma_does_not_suppress_its_rule_either(self):
        # The empty pragma yields REP012 *and* leaves the original
        # finding unsuppressed — both must surface.
        bad = (
            "def f(reader, table):\n"
            "    sym = reader.read(5)\n"
            "    return table[sym]  # lint"
            ": allow-unvalidated-decode()\n"
        )
        rep010 = findings_for(bad, "REP010")
        rep012 = findings_for(bad, "REP012")
        assert len(rep010) == 1 and len(rep012) == 1
