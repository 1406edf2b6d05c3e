"""Exact construction, verification and search of x^4 + y^4 = z^2 near-misses.

The family satisfying x^4 + y^4 - 8 = z^2 is generated by integer
recurrences, re-derived from closed forms over Q(sqrt(577)), proven
equal via exact coefficient identities, and rediscovered by exhaustive
scanning.  Everything is exact; no tolerance appears anywhere.
"""

from .exactmath import DiscriminantMismatchError, QuadElem
from .identities import (
    ExpansionTable,
    IdentityCheck,
    expand_lhs,
    expand_rhs,
    five_identities,
    report_as_json,
    tables_equal,
    verify_five_identities,
    verify_root_identities,
)
from .search import SearchConfig, SearchHit, scan, verify_hit
from .sequences import (
    INITIAL_TRIPLETS,
    CancellationError,
    ClosedFormConstants,
    Triplet,
    canonical_constants,
    closed_form_xy,
    closed_form_z,
    gen_recurrence,
    residual,
)

__version__ = "0.1.0"

__all__ = [
    "CancellationError",
    "ClosedFormConstants",
    "DiscriminantMismatchError",
    "ExpansionTable",
    "INITIAL_TRIPLETS",
    "IdentityCheck",
    "QuadElem",
    "SearchConfig",
    "SearchHit",
    "Triplet",
    "canonical_constants",
    "closed_form_xy",
    "closed_form_z",
    "expand_lhs",
    "expand_rhs",
    "five_identities",
    "gen_recurrence",
    "report_as_json",
    "residual",
    "scan",
    "tables_equal",
    "verify_five_identities",
    "verify_hit",
    "verify_root_identities",
]
