"""REP015 — decoded bit values must be bounds-checked before risky use.

Every value produced by ``BitReader.read()``/``peek()`` (or a
``read_bits``/``peek_bits`` helper) comes straight from attacker- or
corruption-controlled input: the fault-injection campaign showed that
unchecked decode values turn flipped bits into hangs and memory
blow-ups instead of clean :class:`~repro.errors.DeflateError` failures.
This rule taints raw decode results and reports them reaching a sink
that amplifies a bad value:

* shift amounts — ``1 << v`` allocates unbounded big-ints;
* plain list/table indexing — ``table[v]`` (slices clamp in Python and
  are deliberately *not* sinks);
* allocation sizes — ``bytes(v)``, ``bytearray(v)``, ``seq * v``.

Corrupt-input amplification does not respect function boundaries, so
besides the direct read-then-sink in one function the rule follows the
two cross-function shapes:

* **taint down** — a fresh, unvalidated decode value is passed as an
  argument to a project function whose summary says that parameter
  reaches a sink unsanitized (at any depth: sink parameters propagate
  transitively through the bottom-up summary computation);
* **taint up** — a helper *returns* a raw decode value
  (``returns_fresh_taint`` in its summary) and the caller sinks the
  helper's result locally.

Sanitizers clear the taint, in caller or callee: a mask (``v & 0x1F``),
a modulo, a ``min()``/``max()`` against a clean bound, or a
*dominating* comparison — any branch whose test compares ``v`` marks it
validated on both arms (the guard idiom here is ``if v > LIMIT:
raise``; accepting every comparison as a bounds check is a documented
imprecision, favouring silence over noise).  Each sink is reported
once.

Escape hatch: ``# lint: allow-cross-decode-taint(<reason>)``.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.callgraph import MODULE_UNIT, Project
from repro.lint.findings import Finding
from repro.lint.registry import ProjectRule, register
from repro.lint.summaries import (
    FRESH,
    RET_PREFIX,
    run_taint,
    unit_resolver,
)

__all__ = ["CrossDecodeTaintRule"]

_HINT = (
    "bounds-check the decoded value first (if v > LIMIT: raise ...), "
    "sanitize it with a mask/min(), or validate the parameter inside the "
    "callee before it reaches the sink"
)

_SINK_LABELS = {
    "shift": "a shift amount",
    "index": "an index",
    "alloc": "an allocation size",
    "repeat": "a sequence repeat count",
}


@register
class CrossDecodeTaintRule(ProjectRule):
    rule_id = "REP015"
    slug = "cross-decode-taint"
    summary = (
        "raw BitReader.read()/peek() values need a dominating bounds check "
        "before a shift/index/allocation sink, locally or across a call"
    )
    example_bad = (
        "def expand(count, table):\n"
        "    return table[count]            # sink, no validation\n"
        "\n"
        "def decode(reader, table):\n"
        "    n = reader.read(7)             # raw decode value\n"
        "    return expand(n, table)        # crosses the boundary tainted\n"
    )
    example_good = (
        "def expand(count, table):\n"
        "    if count >= len(table):\n"
        "        raise DeflateError('bad count', stage='inflate')\n"
        "    return table[count]\n"
        "\n"
        "def decode(reader, table):\n"
        "    n = reader.read(7)\n"
        "    return expand(n, table)        # callee validates before use\n"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = project.summaries()
        resolver_factory = unit_resolver(project, summaries)
        for qualname, module, body, func in project.iter_units():
            resolve = resolver_factory(module, func, body)
            events, _labels, _fresh = run_taint(func, body, resolve)
            where = qualname.rsplit(".", 1)[-1]
            where = "module level" if where == MODULE_UNIT else f"{where}()"
            for event in events:
                fresh = FRESH in event.labels
                via_return = sorted(
                    lbl[len(RET_PREFIX):]
                    for lbl in event.labels
                    if lbl.startswith(RET_PREFIX)
                )
                if not fresh and not via_return:
                    continue  # parameter labels are summary facts, not findings
                origin = (
                    f"decode value returned by {via_return[0]}()"
                    if via_return and not fresh
                    else "raw decode value"
                )
                if event.kind == "call-arg":
                    message = (
                        f"unvalidated {origin} passed to parameter "
                        f"{event.param!r} of {event.callee}(), which uses "
                        f"it in a taint sink ({where})"
                    )
                else:
                    message = (
                        f"unvalidated {origin} used as "
                        f"{_SINK_LABELS.get(event.kind, 'a sink')} in {where}"
                    )
                yield self.finding(module, event.node, message, hint=_HINT)
