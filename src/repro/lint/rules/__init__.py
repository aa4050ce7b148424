"""Domain rule registry: importing this package registers every rule.

Each module holds one rule; the import side effect (the ``@register``
decorator) is what :func:`repro.lint.registry.all_rules` relies on.
"""

from repro.lint.rules.bounded_retry import BoundedRetryRule
from repro.lint.rules.context import ErrorContextRule
from repro.lint.rules.defaults import MutableDefaultRule
from repro.lint.rules.excepts import BroadExceptRule
from repro.lint.rules.exec_safety import ExecSafetyRule
from repro.lint.rules.exports import ExportSyncRule
from repro.lint.rules.index_bounds import IndexBoundsRule
from repro.lint.rules.marker_escape import MarkerEscapeRule
from repro.lint.rules.modstate import ModuleStateRule
from repro.lint.rules.pragma_reason import PragmaReasonRule
from repro.lint.rules.proven_alloc import ProvenAllocRule
from repro.lint.rules.randomness import UnseededRandomnessRule
from repro.lint.rules.shift_width import ShiftWidthRule
from repro.lint.rules.spec_literals import SpecLiteralRule
from repro.lint.rules.xfunc_taint import CrossDecodeTaintRule
from repro.lint.rules.xfunc_units import CrossUnitConfusionRule

__all__ = [
    "BoundedRetryRule",
    "ErrorContextRule",
    "MutableDefaultRule",
    "BroadExceptRule",
    "ExportSyncRule",
    "ModuleStateRule",
    "UnseededRandomnessRule",
    "MarkerEscapeRule",
    "PragmaReasonRule",
    "CrossUnitConfusionRule",
    "CrossDecodeTaintRule",
    "ExecSafetyRule",
    "ShiftWidthRule",
    "IndexBoundsRule",
    "ProvenAllocRule",
    "SpecLiteralRule",
]
