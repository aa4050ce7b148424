"""REP011 — marker symbols must not escape into the byte domain.

The marker alphabet (Section VI-C of the paper) extends bytes with
codes ``>= 256``: ``MARKER_BASE + j`` means "whatever byte sits at
window position ``j``".  The whole design depends on those codes being
*resolved* (``repro.core.marker.resolve`` / ``to_bytes``) or translated
(``repro.core.translate``) before anything byte-shaped consumes them —
``bytes()`` over a symbol list raises ``ValueError`` on the first
marker if you are lucky, and ``ndarray.tobytes()`` silently emits
4-bytes-per-symbol garbage if you are not.

The rule taints values originating from the marker domain —
``MARKER_BASE``/``NUM_SYMBOLS`` arithmetic, ``undetermined_window()``,
``marker_inflate(...).symbols``, ``resolve(...)`` results (resolution
against a partially-resolved window keeps markers), elements and
iteration over tainted arrays — and reports them reaching a byte sink:
``bytes(x)``, ``bytearray(x)``, ``chr(x)``, ``x.decode(...)``,
``x.tobytes()``, and the *vectorized* narrowing ``x.astype(np.uint8)``
(which silently truncates every code >= 256 to its low byte — the
hardest escape to notice, because the result looks like plausible
data).  Taint follows vectorized gathers: ``x.take(idx)`` /
``np.take(x, idx)`` propagate the *source array's* domain to the
gathered result (the indices never launder the values), matching how
the two-stage decode kernel replays LZ77 copies.

Taint clears at the documented escape points: ``to_bytes(x)``,
``x - MARKER_BASE`` (marker code -> window position), a byte mask, or
a dominating comparison against ``MARKER_BASE``/256 (the ``if sym <
256`` guard idiom).

``repro/core/translate.py`` and ``repro/core/marker.py`` — the modules
whose *job* is crossing the boundary — are exempt.  Escape hatch:
``# lint: allow-marker-escape(<reason>)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.cfg import build_cfg, walk_own_expressions
from repro.lint.dataflow import Env, ForwardAnalysis, replay_blocks, solve
from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo
from repro.lint.registry import Rule, register

__all__ = ["MarkerEscapeRule"]

_MARKER = "marker"        # scalar that may be >= 256
_MARKER_SEQ = "markerseq"  # container of such scalars
_RESULT = "markerresult"   # MarkerInflateResult object

_MARKER_CONSTANTS = {"MARKER_BASE", "NUM_SYMBOLS"}
#: Callables returning symbol containers (markers possibly present).
_SEQ_PRODUCERS = {
    "undetermined_window",
    "resolve",
    "_seed_window",
}
_RESULT_PRODUCERS = {"marker_inflate"}
#: Names conventionally bound to symbol arrays; seed when unbound.
_SEQ_NAMES = {"symbols", "syms"}

_HINT = (
    "resolve first: marker.to_bytes(symbols) / resolve(symbols, window), "
    "or mask scalars below MARKER_BASE before byte conversion"
)


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_uint8_astype(node: ast.Call) -> bool:
    """``x.astype(np.uint8)`` — a silent low-byte truncation of markers."""
    if not (isinstance(node.func, ast.Attribute) and node.func.attr == "astype"):
        return False
    for arg in node.args:
        name = arg.attr if isinstance(arg, ast.Attribute) else (
            arg.id if isinstance(arg, ast.Name) else ""
        )
        if name == "uint8":
            return True
        if isinstance(arg, ast.Constant) and arg.value == "uint8":
            return True
    return False


def _mentions_marker_base(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _MARKER_CONSTANTS:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _MARKER_CONSTANTS:
            return True
        if isinstance(sub, ast.Constant) and sub.value == 256:
            return True
    return False


class _MarkerTaintAnalysis(ForwardAnalysis):
    # -- taint evaluation ----------------------------------------------------

    def taint_of(self, node: ast.expr, env: Env) -> str | None:
        if isinstance(node, ast.Name):
            bound = env.get(node.id)
            if bound in (_MARKER, _MARKER_SEQ, _RESULT):
                return bound
            if node.id in _MARKER_CONSTANTS:
                return _MARKER
            if node.id in _SEQ_NAMES and node.id not in env:
                return _MARKER_SEQ
            return None
        if isinstance(node, ast.Attribute):
            if node.attr in _MARKER_CONSTANTS:
                return _MARKER
            if (
                node.attr == "symbols"
                and isinstance(node.value, ast.Name)
                and env.get(node.value.id) == _RESULT
            ):
                return _MARKER_SEQ
            if isinstance(node.value, ast.Call) and (
                _call_name(node.value.func) in _RESULT_PRODUCERS
            ):
                return _MARKER_SEQ if node.attr == "symbols" else None
            return None
        if isinstance(node, ast.Call):
            return self._taint_of_call(node, env)
        if isinstance(node, ast.Subscript):
            value_taint = self.taint_of(node.value, env)
            if value_taint in (_MARKER_SEQ, _MARKER):
                # Element access; a fancy/boolean index of an ndarray
                # yields another tainted array, a plain index a scalar —
                # both stay in the marker domain.
                return _MARKER
            return None
        if isinstance(node, ast.BinOp):
            # ``x - MARKER_BASE`` converts a code to a window position.
            if isinstance(node.op, ast.Sub) and _mentions_marker_base(node.right):
                return None
            if isinstance(node.op, (ast.BitAnd, ast.Mod)):
                return None  # masked into byte range
            left = self.taint_of(node.left, env)
            right = self.taint_of(node.right, env)
            for taint in (_MARKER_SEQ, _MARKER):
                if taint in (left, right):
                    return taint
            return None
        if isinstance(node, ast.IfExp):
            for taint in (_MARKER_SEQ, _MARKER):
                if taint in (
                    self.taint_of(node.body, env),
                    self.taint_of(node.orelse, env),
                ):
                    return taint
            return None
        if isinstance(node, (ast.List, ast.Tuple)):
            if any(self.taint_of(e, env) for e in node.elts):
                return _MARKER_SEQ
            return None
        if isinstance(node, ast.NamedExpr):
            return self.taint_of(node.value, env)
        return None

    def _taint_of_call(self, node: ast.Call, env: Env) -> str | None:
        name = _call_name(node.func)
        if name in _SEQ_PRODUCERS:
            return _MARKER_SEQ
        if name in _RESULT_PRODUCERS:
            return _RESULT
        if name == "to_bytes" or name == "from_bytes":
            return None  # the sanctioned boundary crossings
        if _is_uint8_astype(node):
            # Reported as a sink in ``_scan``; the (corrupted) result
            # is byte-shaped, so downstream sinks don't double-report.
            return None
        if name == "take":
            # Vectorized gather: the result lives in the *source*
            # array's domain; the index operand never launders it.
            # ``np.take(x, idx)`` reads the source from the first
            # argument, ``x.take(idx)`` from the receiver.
            source: ast.expr | None = None
            if isinstance(node.func, ast.Attribute):
                base = node.func.value
                if isinstance(base, ast.Name) and base.id in ("np", "numpy"):
                    source = node.args[0] if node.args else None
                else:
                    source = base
            elif node.args:
                source = node.args[0]
            if source is not None and self.taint_of(source, env) in (
                _MARKER, _MARKER_SEQ,
            ):
                return _MARKER_SEQ
            return None
        if name in ("asarray", "array", "copy", "astype", "tobytes", "list",
                    "tolist", "concatenate"):
            # Domain-preserving transforms: tainted in -> tainted out.
            candidates: list[ast.expr] = list(node.args)
            if isinstance(node.func, ast.Attribute):
                candidates.append(node.func.value)
            for cand in candidates:
                taint = self.taint_of(cand, env)
                if taint in (_MARKER_SEQ, _MARKER):
                    return _MARKER_SEQ
            return None
        if name in ("int", "min", "max", "abs"):
            for arg in node.args:
                if self.taint_of(arg, env) in (_MARKER, _MARKER_SEQ):
                    return _MARKER
            return None
        return None

    # -- dataflow ------------------------------------------------------------

    def join_values(self, a, b):
        if a == b:
            return a
        if a is None:
            return b
        if b is None:
            return a
        if _MARKER_SEQ in (a, b):
            return _MARKER_SEQ
        return _MARKER

    def transfer_stmt(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self.taint_of(stmt.value, env)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self._bind(target.id, taint, env)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            env.pop(elt.id, None)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            taint = self.taint_of(stmt.value, env) if stmt.value is not None else None
            self._bind(stmt.target.id, taint, env)
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            synthetic = ast.BinOp(
                left=ast.Name(id=stmt.target.id, ctx=ast.Load()),
                op=stmt.op,
                right=stmt.value,
            )
            self._bind(stmt.target.id, self.taint_of(synthetic, env), env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Header form: iterating a symbol container binds marker
            # scalars; anything else binds clean.
            element = (
                _MARKER
                if self.taint_of(stmt.iter, env) in (_MARKER_SEQ, _MARKER)
                else None
            )
            for sub in ast.walk(stmt.target):
                if isinstance(sub, ast.Name):
                    self._bind(sub.id, element, env)

    @staticmethod
    def _bind(name: str, taint: str | None, env: Env) -> None:
        if taint is None:
            # An explicit clean binding shadows the name-based seed
            # (absence would fall back to it for names like "symbols").
            env[name] = "clean"
        else:
            env[name] = taint

    def refine_edge(self, test: ast.expr, label: str, env: Env) -> None:
        # ``if sym < MARKER_BASE: ...`` — comparing a tainted scalar
        # against the marker boundary counts as a domain check on both
        # arms (documented imprecision, mirroring REP015's guards).
        for node in ast.walk(test):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            if not any(_mentions_marker_base(s) for s in sides):
                continue
            for side in sides:
                if isinstance(side, ast.Name) and env.get(side.id) == _MARKER:
                    env[side.id] = "clean"

    # -- sinks ---------------------------------------------------------------

    def _comprehension_env(self, stmt: ast.stmt, env: Env) -> Env:
        """Extend ``env`` with comprehension targets bound to elements."""
        extended = None
        for expr in walk_own_expressions(stmt):
            if isinstance(expr, ast.comprehension):
                element = (
                    _MARKER
                    if self.taint_of(expr.iter, env) in (_MARKER_SEQ, _MARKER)
                    else None
                )
                if element is not None:
                    if extended is None:
                        extended = dict(env)
                    for sub in ast.walk(expr.target):
                        if isinstance(sub, ast.Name):
                            extended[sub.id] = element
        return extended if extended is not None else env

    def check_stmt(self, stmt, env: Env):
        yield from self._scan(
            walk_own_expressions(stmt), self._comprehension_env(stmt, env)
        )

    def check_test(self, test, env: Env):
        yield from self._scan(ast.walk(test), env)

    def _scan(self, nodes, env: Env) -> Iterator[tuple[ast.AST, str, str]]:
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name in ("bytes", "bytearray") and len(node.args) >= 1:
                taint = self.taint_of(node.args[0], env)
                if taint in (_MARKER, _MARKER_SEQ):
                    yield (
                        node,
                        f"marker-domain symbols passed to {name}() — codes "
                        ">= 256 are not bytes",
                        _HINT,
                    )
            elif name == "chr" and node.args:
                if self.taint_of(node.args[0], env) == _MARKER:
                    yield (
                        node,
                        "marker symbol passed to chr() without resolving "
                        "it to a byte",
                        _HINT,
                    )
            elif name == "decode" and isinstance(node.func, ast.Attribute):
                if self.taint_of(node.func.value, env) in (_MARKER, _MARKER_SEQ):
                    yield (
                        node,
                        "marker-domain buffer .decode()d without resolving "
                        "markers",
                        _HINT,
                    )
            elif name == "tobytes" and isinstance(node.func, ast.Attribute):
                if self.taint_of(node.func.value, env) in (_MARKER, _MARKER_SEQ):
                    yield (
                        node,
                        "tobytes() on a marker-domain array emits raw int32 "
                        "storage, not text",
                        _HINT,
                    )
            elif (
                name == "astype"
                and _is_uint8_astype(node)
                and isinstance(node.func, ast.Attribute)
            ):
                if self.taint_of(node.func.value, env) in (_MARKER, _MARKER_SEQ):
                    yield (
                        node,
                        "astype(uint8) on a marker-domain array silently "
                        "truncates codes >= 256 to their low byte",
                        _HINT,
                    )


@register
class MarkerEscapeRule(Rule):
    rule_id = "REP011"
    slug = "marker-escape"
    summary = (
        "marker symbols (codes >= 256) must be resolved before bytes()/"
        "chr()/.decode()/tobytes()/astype(uint8) outside core/translate.py "
        "and core/marker.py; take() gathers inherit the source's domain"
    )
    example_bad = (
        "from repro.core.marker import MARKER_BASE\n"
        "def render(j):\n"
        "    code = MARKER_BASE + j     # marker symbol, >= 256\n"
        "    return chr(code)           # escapes into the text domain\n"
    )
    example_good = (
        "from repro.core.marker import MARKER_BASE\n"
        "def render(code, window):\n"
        "    byte = window[code - MARKER_BASE]   # resolve to a byte first\n"
        "    return chr(byte)\n"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.name in ("repro.core.translate", "repro.core.marker"):
            return
        # One analysis unit per function body plus the module top level
        # (nested ``def`` bodies are units of their own).
        bodies = [module.tree.body] + [
            node.body
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for body in bodies:
            analysis = _MarkerTaintAnalysis()
            cfg = build_cfg(body)
            envs_in = solve(cfg, analysis)
            for kind, node, env in replay_blocks(cfg, analysis, envs_in):
                checker = analysis.check_stmt if kind == "stmt" else analysis.check_test
                for hit, message, hint in checker(node, env):
                    yield self.finding(module, hit, message, hint=hint)
