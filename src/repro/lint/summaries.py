"""Per-function summaries, computed bottom-up over call-graph SCCs.

A :class:`FunctionSummary` is the interface a function exposes to its
callers in the interprocedural rules (REP014–REP016, REP018–REP020):
which parameters carry a definite bit/byte unit, what unit and numeric
interval the return value has, which parameters flow — unsanitized —
into a decode-taint sink, whether the function mutates module-level
state, holds a non-reentrant lock across a call, or allocates inside a
decode loop without a dominating
:class:`~repro.robustness.limits.ResourceBudget` check or a proved
spec-constant size bound.

Summaries are computed in reverse-topological SCC order (callees before
callers) with a worklist inside each SCC: every fact is monotone over a
finite lattice, so re-summarising members until nothing changes
terminates.  Recursion therefore converges instead of recursing — a
self-recursive decode helper whose parameter reaches a sink still
reports that parameter, one fixpoint round later.

The taint summary uses *label sets*: each parameter is seeded with its
own name as a label and fresh decode values carry ``"*"`` (or a
``ret:<qualname>`` label once they crossed a return boundary).  One
dataflow pass then yields every summary fact at once — which labels
reach sinks, which reach the return value — and the REP015 rule replays
the same analysis to turn ``*``-labelled sinks and boundary crossings
into findings.

The :class:`SummaryStore` persists a computed summary table as JSON
keyed on the *project-wide* source hash: cross-module facts make
per-module reuse unsound, so the cache is all-or-nothing (exactly what
a CI cache keyed on ``hashFiles('src/**/*.py')`` wants).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.lint.callgraph import (
    FunctionInfo,
    Project,
    _local_aliases,
)
from repro.lint.cfg import build_cfg, stmt_expressions, walk_own_expressions
from repro.lint.dataflow import (
    Env,
    ForwardAnalysis,
    join_must_flag,
    replay_blocks,
    solve,
)
from repro.lint.intervals import (
    BytesVal,
    Interval,
    IntervalRun,
    SeqVal,
    fmt_interval,
    module_constant_env,
    run_intervals,
    spec_cap_for,
)
from repro.lint.units import (
    Unit,
    UnitEvaluator,
    join_units,
    unit_from_annotation,
    unit_of_name,
)

__all__ = [
    "Site",
    "FunctionSummary",
    "SummaryStore",
    "compute_summaries",
    "SummaryUnitEvaluator",
    "UnitsSummaryAnalysis",
    "LabelTaintAnalysis",
    "BudgetAnalysis",
    "FRESH",
    "unit_resolver",
    "interval_context",
    "alloc_prover",
]

#: Taint label for a fresh, unvalidated BitReader decode value.
FRESH = "*"
#: Prefix for taint that crossed a return boundary (REP015 evidence).
RET_PREFIX = "ret:"

_STABILIZE_LIMIT = 20  # SCC fixpoint safety valve; monotone facts converge fast


@dataclass(frozen=True)
class Site:
    """One source location attached to a summary fact."""

    path: str
    line: int
    detail: str

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "detail": self.detail}

    @classmethod
    def from_dict(cls, d: dict) -> "Site":
        return cls(d["path"], d["line"], d["detail"])


@dataclass
class FunctionSummary:
    """What one function exposes to interprocedural callers."""

    qualname: str
    param_names: tuple[str, ...] = ()
    #: param name -> "bit" / "byte" (definite units only)
    param_units: dict[str, str] = field(default_factory=dict)
    return_unit: str = Unit.UNKNOWN.value
    #: Parameters that reach a taint-amplifying sink unsanitized —
    #: locally, or transitively through a callee's sink parameter.
    taint_sink_params: tuple[str, ...] = ()
    #: Parameters whose taint flows through to the return value.
    taint_through_params: tuple[str, ...] = ()
    #: The return value carries a raw, unvalidated decode read.
    returns_fresh_taint: bool = False
    #: Module-level state mutated by this function (race hazard).
    mutates_module_state: tuple[Site, ...] = ()
    #: Non-reentrant lock held across a function call.
    lock_across_call: tuple[Site, ...] = ()
    #: In-loop allocation sites with no dominating budget check on some
    #: path from this function (transitive through unguarded calls).
    unbudgeted_allocs: tuple[Site, ...] = ()
    #: Contains a ResourceBudget.check_* call itself.
    performs_budget_check: bool = False
    #: Raises at least one error carrying structured context kwargs.
    raises_with_context: bool = False
    #: Resolved project callees (dedup'd, sorted).
    calls: tuple[str, ...] = ()
    #: Interval of the return value, ``(lo, hi)`` with None = ±∞, or
    #: ``None`` when the analysis makes no claim (propagated to callers
    #: by the interval rules REP018–REP020).
    return_interval: tuple | None = None
    #: In-loop allocation sites whose size the interval engine proved
    #: ≤ a spec constant (the witness lives in ``detail``); these are
    #: *excluded* from ``unbudgeted_allocs`` and surfaced by
    #: ``--prove-pragmas``.
    proved_allocs: tuple[Site, ...] = ()

    # -- serialization (summary store + stability test) ----------------------

    def to_dict(self) -> dict:
        return {
            "qualname": self.qualname,
            "param_names": list(self.param_names),
            "param_units": dict(sorted(self.param_units.items())),
            "return_unit": self.return_unit,
            "taint_sink_params": sorted(self.taint_sink_params),
            "taint_through_params": sorted(self.taint_through_params),
            "returns_fresh_taint": self.returns_fresh_taint,
            "mutates_module_state": [s.to_dict() for s in self.mutates_module_state],
            "lock_across_call": [s.to_dict() for s in self.lock_across_call],
            "unbudgeted_allocs": [s.to_dict() for s in self.unbudgeted_allocs],
            "performs_budget_check": self.performs_budget_check,
            "raises_with_context": self.raises_with_context,
            "calls": sorted(self.calls),
            "return_interval": (
                None if self.return_interval is None
                else list(self.return_interval)
            ),
            "proved_allocs": [s.to_dict() for s in self.proved_allocs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionSummary":
        return cls(
            qualname=d["qualname"],
            param_names=tuple(d["param_names"]),
            param_units=dict(d["param_units"]),
            return_unit=d["return_unit"],
            taint_sink_params=tuple(d["taint_sink_params"]),
            taint_through_params=tuple(d["taint_through_params"]),
            returns_fresh_taint=d["returns_fresh_taint"],
            mutates_module_state=tuple(Site.from_dict(s) for s in d["mutates_module_state"]),
            lock_across_call=tuple(Site.from_dict(s) for s in d["lock_across_call"]),
            unbudgeted_allocs=tuple(Site.from_dict(s) for s in d["unbudgeted_allocs"]),
            performs_budget_check=d["performs_budget_check"],
            raises_with_context=d["raises_with_context"],
            calls=tuple(d["calls"]),
            return_interval=(
                None if d.get("return_interval") is None
                else tuple(d["return_interval"])
            ),
            proved_allocs=tuple(
                Site.from_dict(s) for s in d.get("proved_allocs", ())
            ),
        )

    def key_facts(self) -> tuple:
        """The facts the SCC worklist watches for convergence."""
        return (
            self.return_unit,
            frozenset(self.taint_sink_params),
            frozenset(self.taint_through_params),
            self.returns_fresh_taint,
            frozenset(self.unbudgeted_allocs),
            self.performs_budget_check,
            self.return_interval,
            frozenset(self.proved_allocs),
        )


# ---------------------------------------------------------------------------
# call resolution shared by every analysis


def _call_resolver(
    project: Project,
    summaries: dict[str, FunctionSummary],
    module,
    caller: FunctionInfo | None,
    body: list[ast.stmt],
) -> Callable[[ast.Call], tuple[FunctionInfo, FunctionSummary] | None]:
    """Bind a unit's context into a ``Call -> (info, summary)`` lookup."""
    aliases = _local_aliases(body)

    def resolve(call: ast.Call):
        info = project.resolve_callable(module, call.func, caller, aliases)
        if info is None:
            return None
        summary = summaries.get(info.qualname)
        if summary is None:
            return None
        return info, summary

    return resolve


def unit_resolver(project: Project, summaries: dict[str, FunctionSummary]):
    """Resolver factory for one analysis unit (used by the REP014/15 rules)."""

    def for_unit(module, func: ast.FunctionDef | None, body: list[ast.stmt]):
        caller = project.function_for_node(func) if func is not None else None
        return _call_resolver(project, summaries, module, caller, body)

    return for_unit


def _interval_of_call(resolve):
    """Wrap a ``(info, summary)`` resolver into a return-interval lookup."""

    def resolve_interval(call: ast.Call) -> Interval | None:
        hit = resolve(call)
        if hit is None or hit[1].return_interval is None:
            return None
        lo, hi = hit[1].return_interval
        return Interval(lo, hi)

    return resolve_interval


def interval_context(project: Project, summaries: dict[str, FunctionSummary]):
    """Per-unit ``(module_env, resolve_interval)`` factory.

    The interval rules (REP018/REP019) and the summary builder share
    this so intraprocedural runs see the same module-level constant
    bindings and the same summary-backed callee return intervals.
    """
    module_envs: dict[str, Env] = {}

    def for_unit(module, func: ast.FunctionDef | None, body: list[ast.stmt]):
        if module.name not in module_envs:
            module_envs[module.name] = module_constant_env(module.tree)
        caller = project.function_for_node(func) if func is not None else None
        resolve = _call_resolver(project, summaries, module, caller, body)
        return module_envs[module.name], _interval_of_call(resolve)

    return for_unit


def alloc_prover(irun: IntervalRun):
    """Bind an interval run into REP020's allocation-size prover.

    Returns ``prove(alloc_expr, stmt) -> witness | None``: the witness
    string names the proved size interval and the tightest spec
    constant dominating it.  ``stmt`` must be one of the AST statement
    objects the run's CFG was built from — environments are keyed on
    object identity, which :func:`run_budget` guarantees by building
    its CFG from the same body.
    """
    envs: dict[int, Env] | None = None

    def prove(alloc: ast.AST, stmt: ast.stmt) -> str | None:
        nonlocal envs
        if envs is None:
            envs = irun.stmt_envs()
        env = envs.get(id(stmt))
        if env is None:
            return None
        value = irun.analysis.eval(alloc, env)
        if not isinstance(value, (BytesVal, SeqVal)):
            return None
        length = value.length
        if length.hi is None:
            return None
        cap = spec_cap_for(length.hi)
        if cap is None:
            return None
        cap_name, cap_value = cap
        return f"size ∈ {fmt_interval(length)} ≤ {cap_name} ({cap_value})"

    return prove


# ---------------------------------------------------------------------------
# units: return-unit summary + interprocedural evaluator


class SummaryUnitEvaluator(UnitEvaluator):
    """Unit evaluator that also knows resolved callees' return units."""

    def __init__(self, env: Env, resolve) -> None:
        super().__init__(env)
        self._resolve = resolve

    def _unit_of_call(self, node: ast.Call) -> Unit:
        hit = self._resolve(node)
        if hit is not None:
            unit = Unit(hit[1].return_unit)
            if unit in (Unit.BIT, Unit.BYTE):
                return unit
        return super()._unit_of_call(node)


class UnitsSummaryAnalysis(ForwardAnalysis):
    """Bit/byte units transfer functions with the summary-aware evaluator.

    The dataflow half of REP014 (its sinks live in the rule) and of the
    return-unit summaries: every expression is classified by
    :class:`SummaryUnitEvaluator`, so a resolved callee's return unit
    flows into the caller's bindings.
    """

    def __init__(self, func: ast.FunctionDef | None, resolve) -> None:
        self.func = func
        self.resolve = resolve

    def evaluator(self, env: Env) -> SummaryUnitEvaluator:
        return SummaryUnitEvaluator(env, self.resolve)

    def initial_env(self) -> Env:
        env: Env = {}
        if self.func is not None:
            args = self.func.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                unit = unit_from_annotation(arg.annotation)
                if unit is not Unit.UNKNOWN:
                    env[arg.arg] = unit
        return env

    def join_values(self, a, b):
        return join_units(a, b)

    def transfer_stmt(self, stmt: ast.stmt, env: Env) -> None:
        ev = self.evaluator(env)
        if isinstance(stmt, ast.Assign):
            self._bind_targets(stmt.targets, stmt.value, ev, env)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            unit = unit_from_annotation(stmt.annotation)
            if unit is Unit.UNKNOWN and stmt.value is not None:
                unit = ev.unit_of(stmt.value)
            env[stmt.target.id] = unit
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            synthetic = ast.BinOp(
                left=ast.Name(id=stmt.target.id, ctx=ast.Load()),
                op=stmt.op,
                right=stmt.value,
            )
            env[stmt.target.id] = ev.unit_of(synthetic)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Header form: bind the loop target from the iterable's
            # element unit (a name like ``block_start_bits`` carries it).
            element = Unit.UNKNOWN
            if isinstance(stmt.iter, ast.Name):
                element = unit_of_name(stmt.iter.id)
            elif isinstance(stmt.iter, ast.Attribute):
                element = unit_of_name(stmt.iter.attr)
            for name in _target_names(stmt.target):
                env[name] = element
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    for name in _target_names(item.optional_vars):
                        env.pop(name, None)

    @staticmethod
    def _bind_targets(targets, value, ev: UnitEvaluator, env: Env) -> None:
        unit = ev.unit_of(value)
        for target in targets:
            if isinstance(target, ast.Name):
                env[target.id] = unit
            elif isinstance(target, (ast.Tuple, ast.List)):
                elts = target.elts
                values = (
                    value.elts
                    if isinstance(value, (ast.Tuple, ast.List))
                    and len(value.elts) == len(elts)
                    else None
                )
                for i, elt in enumerate(elts):
                    if isinstance(elt, ast.Name):
                        env[elt.id] = (
                            ev.unit_of(values[i]) if values is not None else Unit.UNKNOWN
                        )


def _target_names(target: ast.expr) -> list[str]:
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


def _return_unit(info: FunctionInfo, resolve) -> Unit:
    """Join of every ``return`` expression's unit (plus the name's own)."""
    analysis = UnitsSummaryAnalysis(info.node, resolve)
    cfg = build_cfg(info.node.body)
    envs_in = solve(cfg, analysis)
    joined: Unit | None = Unit.UNKNOWN
    for kind, node, env in replay_blocks(cfg, analysis, envs_in):
        if kind == "stmt" and isinstance(node, ast.Return) and node.value is not None:
            joined = join_units(joined, analysis.evaluator(env).unit_of(node.value))
    unit = joined or Unit.UNKNOWN
    if unit is Unit.UNKNOWN:
        unit = unit_of_name(info.name)
    if unit is Unit.BIT_OR_BYTE:
        unit = Unit.UNKNOWN  # conflicting evidence: stay silent
    return unit


def _param_units(info: FunctionInfo) -> dict[str, str]:
    out: dict[str, str] = {}
    for arg in info.params():
        unit = unit_from_annotation(arg.annotation)
        if unit is Unit.UNKNOWN:
            unit = unit_of_name(arg.arg)
        if unit in (Unit.BIT, Unit.BYTE):
            out[arg.arg] = unit.value
    return out


# ---------------------------------------------------------------------------
# taint: label-set dataflow


_SOURCE_METHODS = {"read", "peek", "read_bits", "peek_bits"}
_SOURCE_FUNCTIONS = {"read_bits", "peek_bits"}
_READER_NAMES = {"reader", "br", "bitreader", "bit_reader"}
_READER = "__reader__"

_CMP_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@dataclass(frozen=True)
class TaintEvent:
    """A labelled value reaching a sink during replay."""

    node: ast.AST
    labels: frozenset
    kind: str          # "shift" / "index" / "alloc" / "repeat" / "call-arg"
    callee: str = ""   # qualname, for call-arg events
    param: str = ""    # sink parameter name, for call-arg events


class LabelTaintAnalysis(ForwardAnalysis):
    """Label-set decode-taint analysis over one unit's CFG.

    Values are frozensets of labels (parameter names, :data:`FRESH`,
    ``ret:<qualname>``) or the :data:`_READER` marker.  Sanitization is
    the decode-value contract REP015 enforces: masks, modulo,
    ``min``/``max`` against clean bounds, and any dominating comparison
    clear a name's labels.
    """

    def __init__(self, func: ast.FunctionDef | None, resolve) -> None:
        self.func = func
        self.resolve = resolve
        self.events: list[TaintEvent] = []

    # -- environment ---------------------------------------------------------

    def initial_env(self) -> Env:
        env: Env = {}
        if self.func is not None:
            args = self.func.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            for arg in params:
                if arg.arg in ("self", "cls"):
                    continue
                env[arg.arg] = frozenset({arg.arg})
        return env

    def join_values(self, a, b):
        if isinstance(a, frozenset) and isinstance(b, frozenset):
            return a | b
        if a == b:
            return a
        if a is None:
            return b
        if b is None:
            return a
        return None

    # -- evaluation ----------------------------------------------------------

    def _is_reader(self, node: ast.expr, env: Env) -> bool:
        if isinstance(node, ast.Name):
            return env.get(node.id) == _READER or node.id in _READER_NAMES
        if isinstance(node, ast.Attribute):
            return "reader" in node.attr.lower()
        return False

    def _is_source(self, node: ast.Call, env: Env) -> bool:
        if isinstance(node.func, ast.Attribute):
            return (
                node.func.attr in _SOURCE_METHODS
                and self._is_reader(node.func.value, env)
            )
        if isinstance(node.func, ast.Name):
            return node.func.id in _SOURCE_FUNCTIONS
        return False

    def labels_of(self, node: ast.expr, env: Env) -> frozenset:
        """The label set carried by ``node`` (empty = clean)."""
        if isinstance(node, ast.Name):
            value = env.get(node.id)
            return value if isinstance(value, frozenset) else frozenset()
        if isinstance(node, ast.Call):
            return self._labels_of_call(node, env)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.BitAnd, ast.Mod)):
                return frozenset()  # masked / wrapped: sanitized
            return self.labels_of(node.left, env) | self.labels_of(node.right, env)
        if isinstance(node, ast.UnaryOp):
            return self.labels_of(node.operand, env)
        if isinstance(node, ast.IfExp):
            return self.labels_of(node.body, env) | self.labels_of(node.orelse, env)
        if isinstance(node, ast.NamedExpr):
            return self.labels_of(node.value, env)
        return frozenset()

    def _labels_of_call(self, node: ast.Call, env: Env) -> frozenset:
        if self._is_source(node, env):
            return frozenset({FRESH})
        name = _call_name(node.func)
        if name in ("min", "max"):
            arg_labels = [self.labels_of(a, env) for a in node.args]
            if arg_labels and all(arg_labels):
                return frozenset().union(*arg_labels)
            return frozenset()  # bounded by a clean operand
        if name in ("int", "abs") and len(node.args) == 1:
            return self.labels_of(node.args[0], env)
        hit = self.resolve(node)
        if hit is not None:
            info, summary = hit
            out: set = set()
            if summary.returns_fresh_taint:
                out.add(RET_PREFIX + summary.qualname)
            through = set(summary.taint_through_params)
            for param, arg in _map_args(info, summary, node):
                if param in through:
                    out |= self.labels_of(arg, env)
            return frozenset(out)
        return frozenset()

    # -- transfer ------------------------------------------------------------

    def transfer_stmt(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._value_of(stmt.value, env)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self._bind(target.id, value, env)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            env.pop(elt.id, None)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            value = (
                self._value_of(stmt.value, env) if stmt.value is not None else None
            )
            self._bind(stmt.target.id, value, env)
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            if isinstance(stmt.op, (ast.BitAnd, ast.Mod)):
                env.pop(stmt.target.id, None)  # x &= mask sanitizes
            else:
                labels = self.labels_of(stmt.value, env)
                existing = env.get(stmt.target.id)
                existing = existing if isinstance(existing, frozenset) else frozenset()
                merged = labels | existing
                if merged:
                    env[stmt.target.id] = merged
        elif isinstance(stmt, ast.Assert):
            self._validate_compared_names(stmt.test, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for node in ast.walk(stmt.target):
                if isinstance(node, ast.Name):
                    env.pop(node.id, None)

    def _value_of(self, node: ast.expr, env: Env):
        if isinstance(node, ast.Call) and _call_name(node.func) == "BitReader":
            return _READER
        if isinstance(node, ast.Name) and env.get(node.id) == _READER:
            return _READER
        labels = self.labels_of(node, env)
        return labels if labels else None

    @staticmethod
    def _bind(name: str, value, env: Env) -> None:
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value

    def refine_edge(self, test: ast.expr, label: str, env: Env) -> None:
        self._validate_compared_names(test, env)

    @staticmethod
    def _validate_compared_names(test: ast.expr, env: Env) -> None:
        """Any compared name counts as bounds-checked (documented imprecision)."""
        for node in ast.walk(test):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, _CMP_OPS) for op in node.ops):
                continue
            for side in [node.left, *node.comparators]:
                for name in ast.walk(side):
                    if isinstance(name, ast.Name) and isinstance(
                        env.get(name.id), frozenset
                    ):
                        env.pop(name.id, None)

    # -- sinks ---------------------------------------------------------------

    def scan(self, nodes, env: Env) -> Iterator[TaintEvent]:
        for node in nodes:
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.LShift, ast.RShift)
            ):
                labels = self.labels_of(node.right, env)
                if labels:
                    yield TaintEvent(node, labels, "shift")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                labels = self._repeat_labels(node, env)
                if labels:
                    yield TaintEvent(node, labels, "repeat")
            elif isinstance(node, ast.Subscript) and not isinstance(
                node.slice, ast.Slice
            ):
                labels = self.labels_of(node.slice, env)
                if labels:
                    yield TaintEvent(node, labels, "index")
            elif isinstance(node, ast.Call):
                name = _call_name(node.func)
                if name in ("bytes", "bytearray") and len(node.args) == 1:
                    labels = self.labels_of(node.args[0], env)
                    if labels:
                        yield TaintEvent(node, labels, "alloc")
                hit = self.resolve(node)
                if hit is not None:
                    info, summary = hit
                    sink_params = set(summary.taint_sink_params)
                    for param, arg in _map_args(info, summary, node):
                        if param not in sink_params:
                            continue
                        labels = self.labels_of(arg, env)
                        if labels:
                            yield TaintEvent(
                                node, labels, "call-arg",
                                callee=summary.qualname, param=param,
                            )

    def _repeat_labels(self, node: ast.BinOp, env: Env) -> frozenset:
        for seq, count in ((node.left, node.right), (node.right, node.left)):
            seq_like = isinstance(seq, (ast.List, ast.Tuple)) or (
                isinstance(seq, ast.Constant) and isinstance(seq.value, (bytes, str))
            )
            if seq_like:
                labels = self.labels_of(count, env)
                if labels:
                    return labels
        return frozenset()


def _map_args(
    info: FunctionInfo, summary: FunctionSummary, call: ast.Call
) -> Iterator[tuple[str, ast.expr]]:
    """Pair a call's arguments with the callee's parameter names."""
    params = summary.param_names
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if i < len(params):
            yield params[i], arg
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in params:
            yield kw.arg, kw.value


def run_taint(
    func: ast.FunctionDef | None, body: list[ast.stmt], resolve
) -> tuple[list[TaintEvent], frozenset, bool]:
    """Solve + replay the taint analysis over one unit.

    Returns ``(sink events, labels reaching the return value,
    reader-fresh flag is folded into the labels as FRESH/ret:)``.
    """
    analysis = LabelTaintAnalysis(func, resolve)
    cfg = build_cfg(body)
    envs_in = solve(cfg, analysis)
    events: list[TaintEvent] = []
    return_labels: set = set()
    for kind, node, env in replay_blocks(cfg, analysis, envs_in):
        if kind == "stmt":
            events.extend(analysis.scan(walk_own_expressions(node), env))
            if isinstance(node, ast.Return) and node.value is not None:
                return_labels |= analysis.labels_of(node.value, env)
        else:
            events.extend(analysis.scan(ast.walk(node), env))
    fresh_return = any(
        lbl == FRESH or lbl.startswith(RET_PREFIX) for lbl in return_labels
    )
    return events, frozenset(return_labels), fresh_return


# ---------------------------------------------------------------------------
# budget: must-dominance of ResourceBudget checks over in-loop allocations


_BUDGET_KEY = "$budget_checked"
_BUDGET_METHODS = ("check_block", "check_match", "raise_output_cap", "check_")


def _is_budget_check(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if not (
        func.attr.startswith("check_") or func.attr == "raise_output_cap"
    ):
        return False
    recv = func.value
    name = recv.id if isinstance(recv, ast.Name) else (
        recv.attr if isinstance(recv, ast.Attribute) else ""
    )
    return "budget" in name.lower()


def _mentions_budget(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and "budget" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and "budget" in node.attr.lower():
            return True
    return False


class BudgetAnalysis(ForwardAnalysis):
    """All-paths "a budget check dominates this point" flag.

    Known imprecision (documented in docs/STATIC_ANALYSIS.md): *any*
    branch test mentioning a budget-ish name marks both arms checked —
    the ``if budget is not None: budget.check_block(...)`` idiom leaves
    the ``None`` arm legitimately unchecked (no budget = unlimited by
    caller's choice), and distinguishing the arms statically is not
    worth the noise.
    """

    def __init__(self, resolve) -> None:
        self.resolve = resolve

    def join_values(self, a, b):
        return join_must_flag(a, b)

    def transfer_stmt(self, stmt: ast.stmt, env: Env) -> None:
        for expr in stmt_expressions(stmt):
            for node in ast.walk(expr):
                if not isinstance(node, ast.Call):
                    continue
                if _is_budget_check(node):
                    env[_BUDGET_KEY] = True
                    continue
                hit = self.resolve(node)
                if hit is not None and hit[1].performs_budget_check:
                    env[_BUDGET_KEY] = True

    def refine_edge(self, test: ast.expr, label: str, env: Env) -> None:
        if _mentions_budget(test):
            env[_BUDGET_KEY] = True


def _loop_stmt_ids(body: list[ast.stmt]) -> set[int]:
    """ids of statements nested inside a loop (nested defs excluded)."""
    out: set[int] = set()

    def mark(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, ast.stmt):
                out.add(id(child))
            mark(child)

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                mark(child)
            else:
                walk(child)

    root = ast.Module(body=body, type_ignores=[])
    walk(root)
    return out


def _alloc_site(expr: ast.AST) -> str | None:
    """Non-constant-size allocation expressions (the REP017 sinks)."""
    if isinstance(expr, ast.Call):
        name = _call_name(expr.func)
        if (
            name in ("bytes", "bytearray")
            and len(expr.args) == 1
            and not isinstance(expr.args[0], ast.Constant)
        ):
            return f"{name}() with computed size"
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mult):
        for seq, count in ((expr.left, expr.right), (expr.right, expr.left)):
            seq_like = isinstance(seq, (ast.List, ast.Tuple)) or (
                isinstance(seq, ast.Constant) and isinstance(seq.value, (bytes, str))
            )
            if seq_like and not isinstance(count, ast.Constant):
                return "sequence repeat with computed count"
    return None


def run_budget(
    module, func: ast.FunctionDef | None, body: list[ast.stmt], resolve,
    prover=None,
) -> tuple[list[Site], list[Site], bool]:
    """(unbudgeted in-loop alloc sites, proved sites, performs-check flag).

    ``prover`` (from :func:`alloc_prover`) discharges an allocation
    whose size interval is provably ≤ a spec constant: the site moves
    to the *proved* list with its witness instead of propagating as
    unbudgeted — the REP020 upgrade over the purely must-flag REP017.
    """
    analysis = BudgetAnalysis(resolve)
    cfg = build_cfg(body)
    envs_in = solve(cfg, analysis)
    in_loop = _loop_stmt_ids(body)
    sites: list[Site] = []
    proved: list[Site] = []
    seen: set[tuple[str, int, str]] = set()
    performs_check = False
    for kind, node, env in replay_blocks(cfg, analysis, envs_in):
        if kind != "stmt":
            continue
        checked = env.get(_BUDGET_KEY) is True
        for expr in stmt_expressions(node):
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Call) and _is_budget_check(sub):
                    performs_check = True
                if checked:
                    continue
                if id(node) in in_loop:
                    detail = _alloc_site(sub)
                    if detail is not None:
                        line = getattr(sub, "lineno", node.lineno)
                        key = (module.relpath, line, detail)
                        if key in seen:
                            continue
                        seen.add(key)
                        witness = (
                            prover(sub, node) if prover is not None else None
                        )
                        if witness is not None:
                            proved.append(Site(
                                module.relpath, line, f"{detail}: {witness}"
                            ))
                        else:
                            sites.append(Site(module.relpath, line, detail))
                if isinstance(sub, ast.Call):
                    hit = resolve(sub)
                    if hit is not None:
                        for inherited in hit[1].unbudgeted_allocs:
                            key = (inherited.path, inherited.line, inherited.detail)
                            if key not in seen:
                                seen.add(key)
                                sites.append(inherited)
    return sites, proved, performs_check


# ---------------------------------------------------------------------------
# syntactic facts: module state, locks, error context


_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
})

_TRIVIAL_CALLS = frozenset({
    "len", "min", "max", "int", "float", "str", "bytes", "bool",
    "isinstance", "range", "getattr", "hasattr", "repr", "format",
    "abs", "ord", "chr", "tuple", "frozenset", "enumerate", "zip",
    "sorted", "id", "hash", "print", "sum", "any", "all", "next",
    "iter", "divmod", "round",
})


def _module_level_mutables(module) -> set[str]:
    """Names bound at module top level to (potentially) mutable objects."""
    names: set[str] = set()
    for node in module.tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        value = node.value
        if value is None:
            continue
        # Immutable scalars/tuples and read-only proxies are not race
        # targets; everything else (lists, dicts, class instances,
        # constructor calls) conservatively is.
        if isinstance(value, ast.Constant):
            continue
        if isinstance(value, ast.Tuple) and all(
            isinstance(e, ast.Constant) for e in value.elts
        ):
            continue
        if isinstance(value, ast.Call) and _call_name(value.func) in (
            "MappingProxyType", "frozenset", "namedtuple",
        ):
            continue
        for t in targets:
            if isinstance(t, ast.Name) and not (
                t.id.startswith("__") and t.id.endswith("__")
            ):
                names.add(t.id)
    return names


def _scan_module_state(
    info: FunctionInfo, mutables: set[str]
) -> list[Site]:
    """Sites where ``info`` mutates module-level state."""
    sites: list[Site] = []
    declared_global: set[str] = set()
    relpath = info.module.relpath
    for node in _own_nodes(info.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in _own_nodes(info.node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if node.id in declared_global:
                sites.append(Site(
                    relpath, node.lineno,
                    f"rebinds module global {node.id!r}",
                ))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            recv = node.func.value
            if (
                isinstance(recv, ast.Name)
                and recv.id in mutables
                and node.func.attr in _MUTATING_METHODS
            ):
                sites.append(Site(
                    relpath, node.lineno,
                    f"mutates module-level {recv.id!r} via .{node.func.attr}()",
                ))
        elif isinstance(node, (ast.Subscript,)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            target = node.value
            if isinstance(target, ast.Name) and target.id in mutables:
                sites.append(Site(
                    relpath, node.lineno,
                    f"writes into module-level {target.id!r} by subscript",
                ))
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ) and target.value.id in mutables:
                sites.append(Site(
                    relpath, node.lineno,
                    f"writes into module-level {target.value.id!r} by subscript",
                ))
    return sites


def _is_lockish(expr: ast.expr) -> bool:
    """Names/attrs that look like a non-reentrant lock (RLock exempt)."""
    name = ""
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Call):
        ctor = _call_name(expr.func)
        return ctor == "Lock"
    lowered = name.lower()
    return "lock" in lowered and "rlock" not in lowered


def _scan_lock_across_call(info: FunctionInfo) -> list[Site]:
    sites: list[Site] = []
    relpath = info.module.relpath
    for node in _own_nodes(info.node):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        if not any(_is_lockish(item.context_expr) for item in node.items):
            continue
        # First non-trivial call inside the locked region (nested defs
        # excluded): one site per ``with`` is enough evidence.
        stack: list[ast.AST] = list(node.body)
        while stack:
            inner = stack.pop(0)
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(inner, ast.Call):
                name = _call_name(inner.func)
                if name not in _TRIVIAL_CALLS:
                    sites.append(Site(
                        relpath, inner.lineno,
                        f"calls {name or '<expr>'}() while holding a "
                        "non-reentrant lock",
                    ))
                    break
            stack.extend(ast.iter_child_nodes(inner))
    return sites


def _raises_with_context(info: FunctionInfo) -> bool:
    for node in _own_nodes(info.node):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            kwargs = {kw.arg for kw in node.exc.keywords if kw.arg}
            if kwargs & {"stage", "bit_offset", "chunk_index"}:
                return True
    return False


def _own_nodes(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Every node of ``func`` excluding nested def/class bodies."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# bottom-up driver


def _summarize(
    project: Project,
    info: FunctionInfo,
    summaries: dict[str, FunctionSummary],
    mutables_cache: dict[str, set[str]],
    module_envs: dict[str, Env],
) -> FunctionSummary:
    module = info.module
    resolve = _call_resolver(project, summaries, module, info, info.node.body)
    param_names = tuple(a.arg for a in info.params())

    return_unit = _return_unit(info, resolve)
    events, return_labels, fresh_return = run_taint(info.node, info.node.body, resolve)
    params = set(param_names)
    sink_params: set[str] = set()
    for event in events:
        sink_params |= event.labels & params
    through = {lbl for lbl in return_labels if lbl in params}

    # One interval solve per unit feeds both the return-interval fact
    # and the allocation-size prover (REP020).
    if module.name not in module_envs:
        module_envs[module.name] = module_constant_env(module.tree)
    irun = run_intervals(
        info.node,
        info.node.body,
        module_env=module_envs[module.name],
        resolve_interval=_interval_of_call(resolve),
    )
    ret_iv = irun.return_interval()
    return_interval = None
    if ret_iv is not None and not ret_iv.is_empty and (
        ret_iv.lo is not None or ret_iv.hi is not None
    ):
        return_interval = (ret_iv.lo, ret_iv.hi)

    allocs, proved, performs_check = run_budget(
        module, info.node, info.node.body, resolve, prover=alloc_prover(irun)
    )

    if module.name not in mutables_cache:
        mutables_cache[module.name] = _module_level_mutables(module)
    mutations = _scan_module_state(info, mutables_cache[module.name])

    graph = project.call_graph()
    calls = tuple(sorted({s.callee for s in graph.callees_of(info.qualname)}))

    return FunctionSummary(
        qualname=info.qualname,
        param_names=param_names,
        param_units=_param_units(info),
        return_unit=return_unit.value,
        taint_sink_params=tuple(sorted(sink_params)),
        taint_through_params=tuple(sorted(through)),
        returns_fresh_taint=fresh_return,
        mutates_module_state=tuple(mutations),
        lock_across_call=tuple(_scan_lock_across_call(info)),
        unbudgeted_allocs=tuple(allocs),
        performs_budget_check=performs_check,
        raises_with_context=_raises_with_context(info),
        calls=calls,
        return_interval=return_interval,
        proved_allocs=tuple(proved),
    )


def compute_summaries(project: Project) -> dict[str, FunctionSummary]:
    """Summaries for every project function, bottom-up over SCCs.

    Deterministic: SCC order is fixed by the (sorted) call graph, and
    each SCC is iterated to a fixpoint before its callers are visited,
    so re-running over identical sources yields identical summaries.
    """
    summaries: dict[str, FunctionSummary] = {}
    mutables_cache: dict[str, set[str]] = {}
    module_envs: dict[str, Env] = {}
    graph = project.call_graph()
    for scc in project.scc_order():
        members = [q for q in sorted(scc) if q in project.functions]
        if not members:
            continue
        # A singleton SCC with no self-edge cannot refine its own facts
        # by re-running — its callees are already final — so one round
        # suffices (halves the cost of the common non-recursive case).
        recursive = len(members) > 1 or any(
            site.callee == members[0] for site in graph.callees_of(members[0])
        )
        rounds = _STABILIZE_LIMIT if recursive else 1
        for _round in range(rounds):
            changed = False
            for qualname in members:
                info = project.functions[qualname]
                new = _summarize(
                    project, info, summaries, mutables_cache, module_envs
                )
                old = summaries.get(qualname)
                if old is None or old.key_facts() != new.key_facts():
                    changed = True
                summaries[qualname] = new
            if not changed:
                break
    return summaries


# ---------------------------------------------------------------------------
# the summary store (CI cache)


class SummaryStore:
    """Load/save a computed summary table keyed on the project hash.

    The key covers *every* module source in the run: summaries encode
    cross-module facts, so a partial reuse would be unsound.  A miss
    simply recomputes — the store is a CI accelerator, never a source
    of truth.
    """

    #: v2: summaries gained ``return_interval`` + ``proved_allocs``
    #: (the interval domain); v3: functions defined inside ``if``/
    #: ``try``/loop bodies are summarised too; v4: a def that shares
    #: its qualname with an earlier one is keyed ``name#2`` (``#3``,
    #: ...).  Older caches are recomputed, not migrated.
    VERSION = 4

    def __init__(self, path: Path) -> None:
        self.path = Path(path)

    def load(self, project_hash: str) -> dict[str, FunctionSummary] | None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            raw.get("version") != self.VERSION
            or raw.get("project_hash") != project_hash
        ):
            return None
        try:
            return {
                q: FunctionSummary.from_dict(d)
                for q, d in raw["summaries"].items()
            }
        except (KeyError, TypeError):
            return None

    def save(
        self, project_hash: str, summaries: dict[str, FunctionSummary]
    ) -> None:
        payload = {
            "version": self.VERSION,
            "project_hash": project_hash,
            "summaries": {
                q: summaries[q].to_dict() for q in sorted(summaries)
            },
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)
