"""REP004 — no unseeded randomness outside :mod:`repro.data.randomness`.

Every stochastic artefact in this reproduction (synthetic corpora,
fault-injection campaigns, Monte-Carlo models, supervision backoff) is seeded
so runs are replayable bit-for-bit; a single call to the *global* RNG
(`random.random()`, ``np.random.shuffle`` ...) silently breaks that for
the whole process.  The rule flags:

* module-level ``random.<fn>(...)`` calls that use the hidden global
  ``Random`` instance (``random.random``, ``random.randint``,
  ``random.shuffle``, ``random.seed`` ...);
* ``random.Random()`` / ``np.random.default_rng()`` /
  ``np.random.RandomState()`` constructed with **no seed argument**;
* any other ``np.random.<fn>(...)`` global-state call
  (``np.random.rand``, ``np.random.shuffle`` ...).

Allowed everywhere: ``random.Random(seed)``,
``np.random.default_rng(seed)``, ``np.random.RandomState(seed)``, and
methods on an *instance* (``rng.random()`` — the instance was
constructed seeded, which this rule enforced at the construction site).
``repro.data.randomness`` itself is exempt: it is the one module whose
job is to own seeding policy.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo
from repro.lint.registry import Rule, register

__all__ = ["UnseededRandomnessRule"]

_EXEMPT_MODULE = "repro.data.randomness"

# Functions on the `random` module that hit the hidden global instance.
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed", "setstate", "binomialvariate",
}
# Constructors that are fine *with* a seed argument.
_SEEDABLE_CTORS = {"Random", "default_rng", "RandomState", "SystemRandom"}
# numpy.random attribute accesses that are types/helpers, not RNG calls.
_NP_NEUTRAL = {"Generator", "BitGenerator", "SeedSequence", "Philox", "PCG64"}


def _attr_chain(node: ast.expr) -> list[str]:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


@register
class UnseededRandomnessRule(Rule):
    rule_id = "REP004"
    slug = "unseeded-random"
    summary = (
        "no global-RNG calls or seedless RNG construction outside "
        "repro.data.randomness"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.name == _EXEMPT_MODULE:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) < 2:
                continue
            dotted = ".".join(chain)
            tail = chain[-1]
            is_random_mod = chain[:-1] == ["random"]
            is_np_random = (
                len(chain) >= 3
                and chain[0] in {"np", "numpy"}
                and chain[-2] == "random"
            )
            if is_random_mod and tail in _GLOBAL_RANDOM_FNS:
                yield self.finding(
                    module,
                    node,
                    f"{dotted}() uses the process-global RNG",
                    hint=(
                        "construct random.Random(seed) and call the method "
                        "on the instance"
                    ),
                )
            elif tail in _SEEDABLE_CTORS and (is_random_mod or is_np_random):
                if not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        f"{dotted}() constructed without an explicit seed",
                        hint="pass a seed (or a SeedSequence) explicitly",
                    )
            elif is_np_random and tail not in _NP_NEUTRAL:
                yield self.finding(
                    module,
                    node,
                    f"{dotted}() uses numpy's global RNG state",
                    hint=(
                        "use np.random.default_rng(seed) and call the "
                        "method on the Generator"
                    ),
                )
