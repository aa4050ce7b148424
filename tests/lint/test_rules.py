"""Fixture-driven good/bad snippet pairs for every lint rule.

Each rule gets at least one snippet it must fire on and one it must
stay quiet on; scope-limited rules additionally prove they ignore the
same code outside their scope.  Snippets are linted in memory via
:func:`repro.lint.engine.lint_source` with an explicit module name, so
no temporary package trees are needed.
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
# REP001 — ReproError raise sites carry stage= (and location kwargs)
# ---------------------------------------------------------------------------


class TestREP001ErrorContext:
    def test_fires_on_missing_stage(self):
        bad = (
            "from repro.errors import GzipFormatError\n"
            "def f():\n"
            "    raise GzipFormatError('bad magic')\n"
        )
        (f,) = findings_for(bad, "REP001")
        assert f.rule_id == "REP001"
        assert "stage=" in f.message
        assert f.line == 3

    def test_quiet_with_stage(self):
        good = (
            "from repro.errors import GzipFormatError\n"
            "def f():\n"
            "    raise GzipFormatError('bad magic', stage='container')\n"
        )
        assert findings_for(good, "REP001") == []

    def test_local_subclass_is_covered(self):
        bad = (
            "from repro.errors import ReproError\n"
            "class MyError(ReproError):\n"
            "    pass\n"
            "def f():\n"
            "    raise MyError('oops')\n"
        )
        (f,) = findings_for(bad, "REP001")
        assert "MyError" in f.message

    def test_non_repro_errors_ignored(self):
        good = "def f():\n    raise ValueError('not ours')\n"
        assert findings_for(good, "REP001") == []

    def test_reraise_and_exception_values_ignored(self):
        good = (
            "from repro.errors import SyncError\n"
            "def f(err):\n"
            "    try:\n"
            "        g()\n"
            "    except SyncError:\n"
            "        raise\n"
            "    raise err\n"
        )
        assert findings_for(good, "REP001") == []

    def test_bitio_also_requires_bit_offset(self):
        bad = (
            "from repro.errors import BitstreamError\n"
            "def f():\n"
            "    raise BitstreamError('eof', stage='bitio')\n"
        )
        (f,) = findings_for(bad, "REP001", module_name="repro.deflate.bitio")
        assert "bit_offset=" in f.message
        good = (
            "from repro.errors import BitstreamError\n"
            "def f():\n"
            "    raise BitstreamError('eof', stage='bitio', bit_offset=8)\n"
        )
        assert findings_for(good, "REP001", module_name="repro.deflate.bitio") == []

    def test_pugz_accepts_chunk_index_as_location(self):
        good = (
            "from repro.errors import ReproError\n"
            "def f():\n"
            "    raise ReproError('lost', stage='pass1', chunk_index=3)\n"
        )
        assert findings_for(good, "REP001", module_name="repro.core.pugz") == []
        bad = (
            "from repro.errors import ReproError\n"
            "def f():\n"
            "    raise ReproError('lost', stage='pass1')\n"
        )
        (f,) = findings_for(bad, "REP001", module_name="repro.core.pugz")
        assert "chunk_index" in f.message

    def test_kwargs_spread_is_skipped(self):
        good = (
            "from repro.errors import SyncError\n"
            "def f(ctx):\n"
            "    raise SyncError('no block', **ctx)\n"
        )
        assert findings_for(good, "REP001") == []


# ---------------------------------------------------------------------------
# REP002 — no broad except in repro.deflate / repro.core
# ---------------------------------------------------------------------------


_BROAD = (
    "def f():\n"
    "    try:\n"
    "        g()\n"
    "    except Exception:\n"
    "        return None\n"
)


class TestREP002BroadExcept:
    def test_fires_in_deflate(self):
        (f,) = findings_for(_BROAD, "REP002", module_name="repro.deflate.streaming")
        assert "except Exception" in f.message
        assert f.line == 4

    def test_fires_on_bare_except_and_tuple(self):
        bad = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        pass\n"
            "    try:\n"
            "        g()\n"
            "    except (ValueError, BaseException):\n"
            "        pass\n"
        )
        found = findings_for(bad, "REP002", module_name="repro.core.pugz")
        assert len(found) == 2

    def test_out_of_scope_module_quiet(self):
        assert findings_for(_BROAD, "REP002", module_name="repro.robustness.campaign") == []

    def test_reraise_exempts(self):
        good = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception as exc:\n"
            "        raise RuntimeError('wrapped') from exc\n"
        )
        assert findings_for(good, "REP002", module_name="repro.deflate.inflate") == []

    def test_pragma_exempts(self):
        good = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:  # lint: allow-broad-except(outcome capture)\n"
            "        return None\n"
        )
        assert findings_for(good, "REP002", module_name="repro.deflate.inflate") == []

    def test_pragma_without_reason_does_not_exempt(self):
        bad = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:  # lint: allow-broad-except()\n"
            "        return None\n"
        )
        assert len(findings_for(bad, "REP002", module_name="repro.deflate.inflate")) == 1

    def test_narrow_except_quiet(self):
        good = (
            "from repro.errors import DeflateError\n"
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except DeflateError:\n"
            "        return None\n"
        )
        assert findings_for(good, "REP002", module_name="repro.deflate.inflate") == []


# ---------------------------------------------------------------------------
# REP003 fixtures — executor-bound callables, now reported by REP016
# ---------------------------------------------------------------------------


class TestREP003PickleSafety:
    """The retired REP003's fixtures as inputs to its successor REP016."""

    def test_fires_on_lambda(self):
        bad = "def f(executor, items):\n    return executor.map(lambda x: x + 1, items)\n"
        (f,) = findings_for(bad, "REP016")
        assert "lambda" in f.message

    def test_fires_on_constructor_receiver(self):
        bad = (
            "from repro.parallel import ProcessExecutor\n"
            "def f(items):\n"
            "    return ProcessExecutor(2).map_outcomes(lambda x: x, items)\n"
        )
        assert len(findings_for(bad, "REP016")) == 1

    def test_fires_on_closure(self):
        bad = (
            "def f(executor, items, k):\n"
            "    def add_k(x):\n"
            "        return x + k\n"
            "    return executor.map(add_k, items)\n"
        )
        (f,) = findings_for(bad, "REP016")
        assert "closure" in f.message

    def test_fires_on_bound_method(self):
        bad = (
            "class Driver:\n"
            "    def decode(self, x):\n"
            "        return x\n"
            "    def run(self, pool, items):\n"
            "        return pool.map(self.decode, items)\n"
        )
        (f,) = findings_for(bad, "REP016")
        assert "bound method" in f.message

    def test_quiet_on_module_level_function(self):
        good = (
            "def work(x):\n"
            "    return x * 2\n"
            "def f(executor, items):\n"
            "    return executor.map(work, items)\n"
        )
        assert findings_for(good, "REP016") == []

    def test_sort_key_lambdas_out_of_scope(self):
        # The documented scope boundary: key functions never cross a
        # process boundary (e.g. a longest-first sort key).
        good = "def f(costs):\n    return sorted(range(len(costs)), key=lambda i: -costs[i])\n"
        assert findings_for(good, "REP016") == []

    def test_hypothesis_strategy_map_out_of_scope(self):
        good = "def strat(st):\n    return st.lists(st.text()).map(lambda xs: ''.join(xs))\n"
        assert findings_for(good, "REP016") == []


# ---------------------------------------------------------------------------
# REP004 — no unseeded randomness
# ---------------------------------------------------------------------------


class TestREP004UnseededRandom:
    def test_fires_on_global_random(self):
        bad = "import random\ndef f():\n    return random.random()\n"
        (f,) = findings_for(bad, "REP004")
        assert "global" in f.message.lower()

    def test_fires_on_seedless_constructors(self):
        bad = (
            "import random\n"
            "import numpy as np\n"
            "def f():\n"
            "    a = random.Random()\n"
            "    b = np.random.default_rng()\n"
            "    return a, b\n"
        )
        assert len(findings_for(bad, "REP004")) == 2

    def test_fires_on_numpy_global_state(self):
        bad = "import numpy as np\ndef f(xs):\n    np.random.shuffle(xs)\n"
        assert len(findings_for(bad, "REP004")) == 1

    def test_quiet_on_seeded_instances(self):
        good = (
            "import random\n"
            "import numpy as np\n"
            "def f(seed):\n"
            "    rng = random.Random(seed)\n"
            "    gen = np.random.default_rng(seed)\n"
            "    return rng.random() + gen.random()\n"
        )
        assert findings_for(good, "REP004") == []

    def test_randomness_module_exempt(self):
        bad = "import random\ndef f():\n    return random.random()\n"
        assert findings_for(bad, "REP004", module_name="repro.data.randomness") == []


# ---------------------------------------------------------------------------
# REP005 fixtures — width of << results, now proved by REP018
# ---------------------------------------------------------------------------


class TestREP005UnmaskedWidth:
    """The retired REP005's fixtures as inputs to its successor REP018."""

    def test_fires_on_inplace_shift(self):
        bad = "def f(row):\n    row <<= 1\n    return row\n"
        (f,) = findings_for(bad, "REP018", module_name="repro.deflate.crc32")
        assert "<<=" in f.message

    def test_fires_on_compare_and_return(self):
        bad = (
            "def f(a, b, n):\n"
            "    if a == b << n:\n"
            "        return b << n\n"
        )
        assert len(findings_for(bad, "REP018", module_name="repro.deflate.bitio")) == 2

    def test_fires_on_attribute_store(self):
        bad = "def f(self, x, n):\n    self._buf = x << n\n"
        assert len(findings_for(bad, "REP018", module_name="repro.deflate.huffman")) == 1

    def test_quiet_when_masked_or_width_constant(self):
        good = (
            "def f(self, x, n):\n"
            "    n &= 31\n"
            "    self._buf = (x << n) & 0xFFFFFFFF\n"
            "    if x == (1 << n):\n"
            "        return (x << 1) & 0xFF\n"
            "    return 1 << n\n"
        )
        assert findings_for(good, "REP018", module_name="repro.deflate.bitio") == []

    def test_out_of_scope_module_quiet(self):
        bad = "def f(row):\n    row <<= 1\n    return row\n"
        assert findings_for(bad, "REP018", module_name="repro.core.pugz") == []


# ---------------------------------------------------------------------------
# REP006 — no mutable default arguments
# ---------------------------------------------------------------------------


class TestREP006MutableDefault:
    def test_fires_on_literal_and_constructor(self):
        bad = (
            "def f(out=[], cache={}, pool=set(), buf=bytearray()):\n"
            "    return out, cache, pool, buf\n"
        )
        assert len(findings_for(bad, "REP006")) == 4

    def test_fires_on_kwonly_default(self):
        bad = "def f(*, acc=[]):\n    return acc\n"
        assert len(findings_for(bad, "REP006")) == 1

    def test_quiet_on_none_and_immutables(self):
        good = (
            "def f(out=None, names=(), k=0, label=''):\n"
            "    return out or []\n"
        )
        assert findings_for(good, "REP006") == []


# ---------------------------------------------------------------------------
# REP007 — no module-level mutable state in parallel/robustness
# ---------------------------------------------------------------------------


class TestREP007ModuleState:
    def test_fires_on_dict_and_list(self):
        bad = "REGISTRY = {}\nQUEUE = []\n"
        found = findings_for(bad, "REP007", module_name="repro.parallel.executor")
        assert len(found) == 2

    def test_fires_on_star_built_list(self):
        bad = "SLOTS = [0] * 8\n"
        assert len(findings_for(bad, "REP007", module_name="repro.robustness.campaign")) == 1

    def test_quiet_on_immutable_and_proxy(self):
        good = (
            "from types import MappingProxyType\n"
            "NAMES = ('a', 'b')\n"
            "TABLE = MappingProxyType({'a': 1})\n"
            "LIMIT = 42\n"
            "__all__ = ['NAMES', 'TABLE', 'LIMIT']\n"
        )
        assert findings_for(good, "REP007", module_name="repro.robustness.injectors") == []

    def test_out_of_scope_package_quiet(self):
        bad = "REGISTRY = {}\n"
        assert findings_for(bad, "REP007", module_name="repro.deflate.huffman") == []

    def test_function_local_state_quiet(self):
        good = "def f():\n    acc = {}\n    return acc\n"
        assert findings_for(good, "REP007", module_name="repro.parallel.executor") == []


# ---------------------------------------------------------------------------
# REP008 — __init__ exports match __all__
# ---------------------------------------------------------------------------


class TestREP008ExportSync:
    def test_fires_on_missing_all_entry(self):
        bad = (
            "from repro.deflate.bitio import BitReader\n"
            "def helper():\n"
            "    pass\n"
            "__all__ = ['BitReader']\n"
        )
        (f,) = findings_for(bad, "REP008", module_name="repro.deflate",
                            relpath="repro/deflate/__init__.py")
        assert "helper" in f.message

    def test_fires_on_stale_all_entry(self):
        bad = "__all__ = ['gone']\n"
        (f,) = findings_for(bad, "REP008", module_name="repro.deflate",
                            relpath="repro/deflate/__init__.py")
        assert "gone" in f.message

    def test_fires_on_missing_all(self):
        bad = "from repro.deflate.bitio import BitReader\n"
        (f,) = findings_for(bad, "REP008", module_name="repro.deflate",
                            relpath="repro/deflate/__init__.py")
        assert "__all__" in f.message

    def test_quiet_when_in_sync(self):
        good = (
            "from repro.deflate.bitio import BitReader\n"
            "from repro._version import __version__\n"
            "_INTERNAL = 1\n"
            "__all__ = ['BitReader', '__version__']\n"
        )
        assert findings_for(good, "REP008", module_name="repro.deflate",
                            relpath="repro/deflate/__init__.py") == []

    def test_non_init_modules_ignored(self):
        bad = "def public_helper():\n    pass\n"
        assert findings_for(bad, "REP008", module_name="repro.deflate.bitio",
                            relpath="repro/deflate/bitio.py") == []


# ---------------------------------------------------------------------------
# REP013 — retry loops in the supervision layer must be bounded
# ---------------------------------------------------------------------------


class TestREP013BoundedRetry:
    BAD = (
        "def f(pool, fn, item):\n"
        "    while True:\n"
        "        try:\n"
        "            return pool.submit(fn, item).result()\n"
        "        except OSError:\n"
        "            pool = rebuild()\n"
    )

    def test_fires_on_unbounded_while_retry(self):
        (f,) = findings_for(self.BAD, "REP013", module_name="repro.parallel.foo")
        assert f.rule_id == "REP013"
        assert "attempt bound" in f.message
        assert f.line == 2

    def test_fires_in_robustness_package_too(self):
        (f,) = findings_for(self.BAD, "REP013", module_name="repro.robustness.foo")
        assert f.rule_id == "REP013"

    def test_quiet_when_budget_bounds_the_loop(self):
        good = (
            "def f(pool, fn, todo, submission_budget):\n"
            "    while todo and submission_budget > 0:\n"
            "        submission_budget -= 1\n"
            "        try:\n"
            "            return pool.submit(fn, todo[0]).result()\n"
            "        except OSError:\n"
            "            pool = rebuild()\n"
        )
        assert findings_for(good, "REP013", module_name="repro.parallel.foo") == []

    def test_quiet_when_attempt_compared_in_body(self):
        good = (
            "def f(call, max_retries):\n"
            "    attempt = 0\n"
            "    while True:\n"
            "        try:\n"
            "            return call()\n"
            "        except OSError:\n"
            "            attempt += 1\n"
            "            if attempt > max_retries:\n"
            "                break\n"
        )
        assert findings_for(good, "REP013", module_name="repro.parallel.foo") == []

    def test_for_loops_are_inherently_bounded(self):
        good = (
            "def f(call, n):\n"
            "    for _ in range(n):\n"
            "        try:\n"
            "            return call()\n"
            "        except OSError:\n"
            "            pass\n"
        )
        assert findings_for(good, "REP013", module_name="repro.parallel.foo") == []

    def test_reraising_handler_is_not_a_retry(self):
        good = (
            "def f(call):\n"
            "    while True:\n"
            "        try:\n"
            "            return call()\n"
            "        except OSError as exc:\n"
            "            raise RuntimeError('fatal') from exc\n"
        )
        assert findings_for(good, "REP013", module_name="repro.parallel.foo") == []

    def test_handler_in_nested_function_does_not_count(self):
        good = (
            "def f(call, flag):\n"
            "    while flag:\n"
            "        def helper():\n"
            "            try:\n"
            "                return call()\n"
            "            except OSError:\n"
            "                return None\n"
            "        flag = helper()\n"
        )
        assert findings_for(good, "REP013", module_name="repro.parallel.foo") == []

    def test_out_of_scope_packages_ignored(self):
        assert findings_for(self.BAD, "REP013", module_name="repro.deflate.foo") == []

    def test_pragma_suppresses_with_reason(self):
        waived = self.BAD.replace(
            "while True:",
            "while True:  # lint: allow-unbounded-retry(bounded by caller)",
        )
        assert findings_for(waived, "REP013", module_name="repro.parallel.foo") == []


# ---------------------------------------------------------------------------
# Cross-cutting: every rule has id/slug/summary and registers exactly once
# ---------------------------------------------------------------------------


def test_registry_is_complete():
    from repro.lint import all_rules

    ids = [cls.rule_id for cls in all_rules()]
    # Retired into a successor: REP003 -> REP016, REP005 -> REP018,
    # REP009 -> REP014, REP010 -> REP015, REP017 -> REP020.
    retired = {3, 5, 9, 10, 17}
    expected = [f"REP{i:03d}" for i in range(1, 22) if i not in retired]
    assert ids == expected
    assert len({cls.slug for cls in all_rules()}) == len(expected)
    assert all(cls.summary for cls in all_rules())


def test_docs_agree_with_registry():
    """The rule catalogue and the CLI examples name only real rules."""
    import re
    from pathlib import Path

    from repro.lint import all_rules

    docs = Path(__file__).resolve().parents[2] / "docs"
    registered = {cls.rule_id for cls in all_rules()}
    catalogue = {}
    for line in (docs / "STATIC_ANALYSIS.md").read_text().splitlines():
        row = re.match(r"\| (REP\d{3}) \| (.+?) \| (.+) \|$", line)
        if row:
            catalogue.setdefault(row.group(1), (row.group(2), row.group(3)))
    assert registered <= set(catalogue)
    for rule_id, (scope, contract) in catalogue.items():
        if rule_id in registered:
            assert scope != "*(retired)*", rule_id
            continue
        assert scope == "*(retired)*", rule_id
        successor = re.match(r"Superseded by (REP\d{3})\b", contract)
        assert successor and successor.group(1) in registered, rule_id
    for doc in ("CLI.md", "STATIC_ANALYSIS.md"):
        text = (docs / doc).read_text()
        for flag in re.finditer(r"--(?:select|ignore|explain)\s+([A-Z0-9,]+)", text):
            for rule_id in re.findall(r"REP\d{3}", flag.group(1)):
                assert rule_id in registered, (doc, flag.group(0))


def test_select_and_ignore_subset():
    rules = resolve_rules(select=["REP001", "REP002"], ignore=["REP002"])
    assert [r.rule_id for r in rules] == ["REP001"]
