"""Similarity classes of 2x2 and 3x3 matrices over finite chain rings.

Everything is exact: rings are Z/p^m or F_p[t]/(t^m), matrices carry
their ring context, and all decisions (canonical form, similarity,
centralizer order, class counts) are computed with integer arithmetic
and cross-checkable against a brute-force orbit oracle.

The package binds the functions canon2 and canon3 under the names of
their submodules, so ``simclass.canon3`` (and ``import simclass.canon3
as c3``) is the function; the module itself is reached with
``importlib.import_module("simclass.canon3")``.

The names of simclass.census (counts, enumeration, the generating
function), simclass.modsolve (is_similar and the group and centralizer
orders) and simclass.oracle (orbit_census, verify_counts, ...) are
resolved on first access; the core that canon needs (errors, ring,
matrix, canon2, canon3) loads with the package.  A process without a
bytecode cache compiles every module it imports, so a command loads
only the code it runs: only the oracle imports numpy, and only the
generating function imports fractions.
"""

from .canon2 import (
    CanonicalForm,
    CyclicBody,
    ScalarBody,
    canon2,
)
from .canon3 import HardBody, SplitBody, canon3, hard_family
from .errors import (
    BadDescriptor,
    BadLevel,
    BadParams,
    BudgetExceeded,
    CtxMismatch,
    NonIntegralDivision,
    NonUnit,
    NotInvertible,
    SearchBudgetExceeded,
    SimclassError,
    VerificationFailed,
)
from .matrix import (
    Mat,
    diag,
    e_matrix,
    elementary,
    identity,
    scalar,
    zero,
)
from .ring import RingCtx, parse_ring, ring_ctx

__version__ = "0.1.0"

# name -> the submodule that defines it, imported on first use of one of
# its names; the oracle brings numpy with it
_LAZY = {
    **dict.fromkeys(
        ("CountVector", "count2", "count3", "enumerate3", "gf_coeffs", "type_histogram"),
        "census",
    ),
    **dict.fromkeys(("centralizer_order", "group_order", "is_similar"), "modsolve"),
    **dict.fromkeys(("OrbitCensus", "orbit_census", "orbit_of", "verify_counts"), "oracle"),
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        module = import_module(f"{__name__}.{_LAZY[name]}")
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BadDescriptor",
    "BadLevel",
    "BadParams",
    "BudgetExceeded",
    "CanonicalForm",
    "CountVector",
    "CtxMismatch",
    "CyclicBody",
    "HardBody",
    "Mat",
    "NonIntegralDivision",
    "NonUnit",
    "NotInvertible",
    "OrbitCensus",
    "RingCtx",
    "ScalarBody",
    "SearchBudgetExceeded",
    "SimclassError",
    "SplitBody",
    "VerificationFailed",
    "canon2",
    "canon3",
    "centralizer_order",
    "count2",
    "count3",
    "diag",
    "e_matrix",
    "elementary",
    "enumerate3",
    "gf_coeffs",
    "group_order",
    "hard_family",
    "identity",
    "is_similar",
    "orbit_census",
    "orbit_of",
    "parse_ring",
    "ring_ctx",
    "scalar",
    "type_histogram",
    "verify_counts",
    "zero",
]
