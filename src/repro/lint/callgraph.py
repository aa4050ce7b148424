"""Project-wide call graph over the repro source tree.

The intraprocedural rules (REP001–REP013) go dark the moment a value
crosses a function boundary; the interprocedural layer starts here.
:class:`Project` indexes every function/method of a set of parsed
modules under a stable *qualified name* (``repro.core.sync.
find_block_start``, ``repro.deflate.bitio.BitReader.read``), resolves
call expressions against per-module import tables, and materialises a
:class:`CallGraph` whose strongly connected components feed the
bottom-up summary computation in :mod:`repro.lint.summaries`.

Resolution rules (documented imprecision — this is a lint, not a
compiler):

* ``f(...)`` — a name resolves to the enclosing module's own ``def``,
  then to the import table (``from m import f`` / ``import m as f``).
* ``m.f(...)`` / ``a.b.f(...)`` — attribute chains are flattened and
  the head looked up as a module alias; ``self.m(...)`` / ``cls.m(...)``
  resolve inside the caller's own class.
* ``obj.m(...)`` — an unqualified method call resolves only when ``m``
  names exactly **one** method project-wide *and* is not a common
  stdlib method name (``read``, ``get``, ``close``, ...); anything
  ambiguous stays unresolved rather than guessing.
* Local aliases one level deep (``fn = worker; executor.map(fn, ...)``)
  are followed, both for ordinary calls and for executor submissions.

Executor submission sites — calls shaped like
``<executor>.map/map_outcomes/submit(fn, ...)`` or
``supervised_map_outcomes(executor, fn, ...)`` — are collected
separately: they are the roots of the parallel region REP016 walks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lint.module import ModuleInfo

__all__ = [
    "FunctionInfo",
    "CallSite",
    "SubmissionSite",
    "CallGraph",
    "Project",
    "strongly_connected_components",
    "MODULE_UNIT",
]

#: Pseudo-function name for a module's top-level statements.
MODULE_UNIT = "<module>"

#: Method names too generic to resolve by bare-name uniqueness: file
#: objects, dicts, lists and queues all have them, so a unique project
#: ``def read`` must not swallow every ``fh.read(...)`` in sight.
_COMMON_METHOD_NAMES = frozenset({
    "read", "write", "seek", "tell", "close", "flush", "get", "put",
    "append", "extend", "pop", "update", "copy", "join", "split",
    "map", "submit", "add", "remove", "clear", "items", "keys",
    "values", "decode", "encode", "index", "count", "insert", "send",
    "open", "run", "start", "stop", "next",
})

_EXECUTOR_METHODS = frozenset({"map", "map_outcomes", "submit"})
_EXECUTOR_RECEIVER_TOKENS = ("executor", "pool")
_EXECUTOR_CONSTRUCTORS = frozenset({
    "SerialExecutor", "ThreadExecutor", "ProcessExecutor",
    "ProcessPoolExecutor", "ThreadPoolExecutor", "make_executor",
})


@dataclass
class FunctionInfo:
    """One function/method definition known to the project."""

    qualname: str                    # "repro.core.sync.find_block_start"
    module: ModuleInfo
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None    # enclosing class, if a method
    enclosing: str | None = None     # qualname of enclosing function, if nested
    #: Names this function reads that are bound in an enclosing
    #: *function* scope — a true closure (pickle hazard).
    closure_names: frozenset[str] = frozenset()

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def is_nested(self) -> bool:
        return self.enclosing is not None

    @property
    def is_closure(self) -> bool:
        return self.is_nested and bool(self.closure_names)

    def params(self) -> list[ast.arg]:
        a = self.node.args
        out = [*a.posonlyargs, *a.args]
        if self.is_method and out and out[0].arg in ("self", "cls"):
            out = out[1:]
        return [*out, *a.kwonlyargs]


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge: ``caller`` invokes ``callee`` at ``node``."""

    caller: str
    callee: str
    node: ast.Call
    module: ModuleInfo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CallSite({self.caller} -> {self.callee} @{self.node.lineno})"


@dataclass(frozen=True)
class SubmissionSite:
    """An executor-submission call: the root of a parallel region.

    ``callee`` is the resolved qualname of the submitted callable (or
    ``None`` when it cannot be resolved); ``callable_expr`` is the raw
    argument expression and ``resolved_expr`` what a local alias named
    by it stands for.  REP016 classifies lambdas and ``self.``/``cls.``
    bound methods from ``resolved_expr or callable_expr``, so direct
    and aliased submissions are judged alike, resolved or not.
    """

    caller: str
    module: ModuleInfo
    node: ast.Call
    method: str                      # "map" / "map_outcomes" / "submit"
    callable_expr: ast.expr
    callee: str | None
    #: What a local alias resolved to (``fn = lambda ...`` -> the Lambda),
    #: when the raw expression was an aliased name.
    resolved_expr: ast.expr | None = None


class CallGraph:
    """Directed call graph plus the executor submission roots."""

    def __init__(self) -> None:
        self.edges: dict[str, list[CallSite]] = {}
        self.callers: dict[str, list[CallSite]] = {}
        self.submissions: list[SubmissionSite] = []

    def add(self, site: CallSite) -> None:
        self.edges.setdefault(site.caller, []).append(site)
        self.callers.setdefault(site.callee, []).append(site)

    def callees_of(self, qualname: str) -> list[CallSite]:
        return self.edges.get(qualname, [])

    def callers_of(self, qualname: str) -> list[CallSite]:
        return self.callers.get(qualname, [])

    def reachable_from(self, root: str) -> list[str]:
        """Qualnames transitively reachable from ``root`` (root included)."""
        seen: list[str] = []
        seen_set: set[str] = set()
        stack = [root]
        while stack:
            cur = stack.pop()
            if cur in seen_set:
                continue
            seen_set.add(cur)
            seen.append(cur)
            for site in self.callees_of(cur):
                if site.callee not in seen_set:
                    stack.append(site.callee)
        return seen


def strongly_connected_components(
    nodes: Iterable[str], succs: dict[str, list[str]]
) -> list[list[str]]:
    """Tarjan's SCCs, returned in *reverse topological* order.

    Reverse topological means callees come before callers — exactly the
    order a bottom-up summary computation wants.  Iterative (explicit
    stack), since decode helpers recurse deeply in fixtures.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            children = succs.get(node, [])
            advanced = False
            while child_i < len(children):
                child = children[child_i]
                child_i += 1
                if child not in index:
                    work[-1] = (node, child_i)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                scc: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


# ---------------------------------------------------------------------------
# import tables


def _relative_base(module_name: str, level: int, is_package: bool) -> str:
    """Resolve the ``from ...`` anchor package for a relative import."""
    parts = module_name.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[:-drop] if drop < len(parts) else []
    return ".".join(parts)


def _import_table(module: ModuleInfo) -> dict[str, str]:
    """Local name -> dotted target for a module's top-level imports."""
    table: dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``; the chain resolver
                    # re-assembles the full dotted path from attributes.
                    head = alias.name.split(".")[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(
                    module.name, node.level, module.is_package_init
                )
            else:
                base = node.module or ""
            if node.module and node.level:
                base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                table[alias.asname or alias.name] = target
    return table


def _dotted_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _is_executor_receiver(node: ast.expr) -> bool:
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name and any(tok in name.lower() for tok in _EXECUTOR_RECEIVER_TOKENS):
        return True
    if isinstance(node, ast.Call):
        chain = _dotted_chain(node.func)
        return bool(chain) and chain[-1] in _EXECUTOR_CONSTRUCTORS
    return False


# ---------------------------------------------------------------------------
# the project index


class Project:
    """All parsed modules of one lint run, indexed for resolution."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.modules_by_relpath: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: bare function/method name -> every definition carrying it
        self._by_name: dict[str, list[FunctionInfo]] = {}
        #: id(ast node) -> FunctionInfo, for unit -> info lookups
        self._by_node: dict[int, FunctionInfo] = {}
        self._imports: dict[str, dict[str, str]] = {}
        self._graph: CallGraph | None = None
        self._summaries = None
        for module in modules:
            self.add_module(module)

    # -- construction --------------------------------------------------------

    def add_module(self, module: ModuleInfo) -> None:
        self.modules[module.name] = module
        self.modules_by_relpath[module.relpath] = module
        self._imports[module.name] = _import_table(module)
        self._index_functions(module)
        self._graph = None

    def _index_functions(self, module: ModuleInfo) -> None:
        def visit(body, prefix: str, class_name: str | None,
                  enclosing: str | None, outer_scopes: list[set[str]]):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{node.name}"
                    # A def that shares its scope and name with an
                    # earlier one (``if``/``else`` or ``try``/``except``
                    # branches) is its own unit: ``g#2`` for the second.
                    # Calls by name resolve to the first.
                    k = 2
                    while qualname in self.functions:
                        qualname = f"{prefix}.{node.name}#{k}"
                        k += 1
                    closure = frozenset(
                        n for scope in outer_scopes
                        for n in _free_names(node) & scope
                    )
                    info = FunctionInfo(
                        qualname=qualname,
                        module=module,
                        node=node,
                        class_name=class_name,
                        enclosing=enclosing,
                        closure_names=closure,
                    )
                    self.functions[qualname] = info
                    self._by_name.setdefault(node.name, []).append(info)
                    self._by_node[id(node)] = info
                    visit(
                        node.body, qualname, None, qualname,
                        outer_scopes + [_bound_names(node)],
                    )
                elif isinstance(node, ast.ClassDef):
                    visit(
                        node.body, f"{prefix}.{node.name}", node.name,
                        enclosing, outer_scopes,
                    )
                else:
                    # ``if``/``try``/``with``/loop bodies define in the
                    # enclosing scope.
                    visit(
                        [
                            child for child in ast.iter_child_nodes(node)
                            if isinstance(
                                child, (ast.stmt, ast.excepthandler, ast.match_case)
                            )
                        ],
                        prefix, class_name, enclosing, outer_scopes,
                    )

        visit(module.tree.body, module.name, None, None, [])

    # -- lookups -------------------------------------------------------------

    def function(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def function_for_node(self, node: ast.AST) -> FunctionInfo | None:
        return self._by_node.get(id(node))

    def imports_of(self, module: ModuleInfo) -> dict[str, str]:
        return self._imports.get(module.name, {})

    def iter_units(self) -> Iterator[tuple[str, ModuleInfo, list[ast.stmt], ast.FunctionDef | None]]:
        """Every analysis unit: each function plus each module top level."""
        for module in self.modules.values():
            yield f"{module.name}.{MODULE_UNIT}", module, module.tree.body, None
        for info in self.functions.values():
            yield info.qualname, info.module, info.node.body, info.node

    def source_hash(self) -> str:
        """Stable hash over every module's source (summary-store key)."""
        import hashlib

        digest = hashlib.sha1()
        for name in sorted(self.modules):
            digest.update(name.encode())
            digest.update(b"\0")
            digest.update(self.modules[name].source.encode())
            digest.update(b"\0")
        return digest.hexdigest()

    # -- call resolution -----------------------------------------------------

    def resolve_callable(
        self,
        module: ModuleInfo,
        expr: ast.expr,
        caller: FunctionInfo | None = None,
        aliases: dict[str, ast.expr] | None = None,
        _depth: int = 0,
    ) -> FunctionInfo | None:
        """Resolve a callable *expression* to a project function."""
        if _depth > 4 or expr is None:
            return None
        if aliases and isinstance(expr, ast.Name) and expr.id in aliases:
            target = aliases[expr.id]
            if target is not expr:
                resolved = self.resolve_callable(
                    module, target, caller, None, _depth + 1
                )
                if resolved is not None:
                    return resolved
        chain = _dotted_chain(expr)
        if chain is None:
            return None
        return self._resolve_chain(module, chain, caller)

    def _resolve_chain(
        self, module: ModuleInfo, chain: list[str], caller: FunctionInfo | None
    ) -> FunctionInfo | None:
        head, rest = chain[0], chain[1:]
        # self.method / cls.method inside a class body.
        if head in ("self", "cls") and len(rest) == 1 and caller is not None:
            if caller.class_name is not None:
                prefix = caller.qualname.rsplit(".", 2)[0]
                return self.functions.get(f"{prefix}.{caller.class_name}.{rest[0]}")
            return None
        if not rest:
            # Bare name: nested def in the caller, module-level def,
            # then the import table.
            if caller is not None:
                info = self.functions.get(f"{caller.qualname}.{head}")
                if info is not None:
                    return info
            info = self.functions.get(f"{module.name}.{head}")
            if info is not None:
                return info
            target = self.imports_of(module).get(head)
            if target is not None:
                return self.functions.get(target)
            return None
        # Qualified chain: head must be a module alias (or package path).
        target = self.imports_of(module).get(head)
        candidates = []
        if target is not None:
            candidates.append(".".join([target, *rest]))
        candidates.append(".".join(chain))
        for cand in candidates:
            info = self.functions.get(cand)
            if info is not None:
                return info
        # ``obj.method`` fallback: unique, distinctive method name.
        method = chain[-1]
        if method not in _COMMON_METHOD_NAMES and not method.startswith("__"):
            owners = [f for f in self._by_name.get(method, ()) if f.is_method]
            if len(owners) == 1:
                return owners[0]
        return None

    # -- the graph -----------------------------------------------------------

    def call_graph(self) -> CallGraph:
        if self._graph is None:
            self._graph = self._build_graph()
        return self._graph

    def summaries(self):
        """Function summaries, computed on first use (or injected).

        Lazy so per-module-only runs never pay for the interprocedural
        phase; the engine injects a summary-store hit here to skip the
        computation entirely.
        """
        if self._summaries is None:
            from repro.lint.summaries import compute_summaries

            self._summaries = compute_summaries(self)
        return self._summaries

    def set_summaries(self, summaries) -> None:
        self._summaries = summaries

    def _build_graph(self) -> CallGraph:
        graph = CallGraph()
        for qualname, module, body, func in self.iter_units():
            caller_info = self.functions.get(qualname) if func is not None else None
            aliases = _local_aliases(body)
            for call in _own_calls(body):
                self._record_call(
                    graph, qualname, module, call, caller_info, aliases
                )
        return graph

    def _record_call(
        self,
        graph: CallGraph,
        caller: str,
        module: ModuleInfo,
        call: ast.Call,
        caller_info: FunctionInfo | None,
        aliases: dict[str, ast.expr],
    ) -> None:
        submitted = _submission_callable(call)
        if submitted is not None:
            method, fn_expr = submitted
            resolved = self.resolve_callable(module, fn_expr, caller_info, aliases)
            resolved_expr = None
            if isinstance(fn_expr, ast.Name) and fn_expr.id in aliases:
                resolved_expr = aliases[fn_expr.id]
            graph.submissions.append(SubmissionSite(
                caller=caller,
                module=module,
                node=call,
                method=method,
                callable_expr=fn_expr,
                callee=resolved.qualname if resolved else None,
                resolved_expr=resolved_expr,
            ))
            if resolved is not None:
                graph.add(CallSite(caller, resolved.qualname, call, module))
        target = self.resolve_callable(module, call.func, caller_info, aliases)
        if target is not None:
            graph.add(CallSite(caller, target.qualname, call, module))

    def scc_order(self) -> list[list[str]]:
        """SCCs of the call graph, callees before callers."""
        graph = self.call_graph()
        succs = {
            caller: sorted({s.callee for s in sites})
            for caller, sites in graph.edges.items()
        }
        nodes = sorted(set(self.functions) | set(succs))
        return strongly_connected_components(nodes, succs)


# ---------------------------------------------------------------------------
# helpers


def _own_calls(body: list[ast.stmt]) -> Iterator[ast.Call]:
    """Every Call in ``body``, excluding nested def/class bodies."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Decorators and defaults evaluate in *this* scope.
            stack.extend(getattr(node, "decorator_list", []))
            args = getattr(node, "args", None)
            if args is not None:
                stack.extend(args.defaults)
                stack.extend(d for d in args.kw_defaults if d is not None)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _local_aliases(body: list[ast.stmt]) -> dict[str, ast.expr]:
    """``fn = worker`` one-level callable aliases in a statement list.

    Flow-insensitive: a name assigned more than once (to different
    shapes) is dropped rather than guessed.
    """
    aliases: dict[str, ast.expr] = {}
    dropped: set[str] = set()
    for node in body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(node.value, (ast.Name, ast.Attribute, ast.Lambda)):
            if target.id in aliases or target.id in dropped:
                dropped.add(target.id)
                aliases.pop(target.id, None)
            else:
                aliases[target.id] = node.value
    return aliases


def _submission_callable(call: ast.Call) -> tuple[str, ast.expr] | None:
    """(method, submitted callable expr) for executor submission calls."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _EXECUTOR_METHODS
        and call.args
        and _is_executor_receiver(func.value)
    ):
        return func.attr, call.args[0]
    chain = _dotted_chain(func)
    if chain and chain[-1] == "supervised_map_outcomes" and len(call.args) >= 2:
        return "map_outcomes", call.args[1]
    return None


def _bound_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound in ``func``'s own scope (params + assignments)."""
    args = func.args
    bound = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not func:
                bound.add(node.name)
    return bound


def _free_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names ``func`` loads but does not bind itself (closure candidates)."""
    bound = _bound_names(func)
    free: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            free.add(node.id)
        elif isinstance(node, ast.Global):
            bound.update(node.names)
    return free - bound
