"""skewbench: a workbench for finite skew lattices and skew Heyting algebras.

Algebras are operation tables over dense integer carriers; everything else
(orders, Green's relations, the derived implication) is computed from the
tables.  All values are immutable and all operations are pure functions.
"""

from . import errors, models
from .core import (
    Algebra,
    CheckOutcome,
    HomMap,
    Partition,
    direct_product,
    find_isomorphism,
    greens,
    is_congruence,
    isomorphism_key,
    leq_matrix,
    make_algebra,
    natural_orders,
    preceq_matrix,
    pullback_check,
    quotient,
    subalgebra,
    vertical_dual,
)
from .heyting import (
    ArrowResult,
    DiffResult,
    adjunction_failure,
    check_heyting_axioms,
    dual_gb_diff,
    generalized_heyting_arrow,
    heyting_arrow,
)
from .properties import (
    PropertyReport,
    binormal_factorization,
    check_costrong_equivalence,
    check_dual_skew_boolean,
    check_skew_boolean,
    check_skew_lattice,
    classify,
    cover_in_class,
)
from .skew_heyting import (
    DeriveResult,
    check_arrow_congruences,
    check_imp_or,
    check_lifting,
    check_sh_axioms,
    check_sha,
    derive_arrow,
    special_case_arrows,
    upset_at,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "ArrowResult",
    "CheckOutcome",
    "DeriveResult",
    "DiffResult",
    "HomMap",
    "Partition",
    "PropertyReport",
    "adjunction_failure",
    "binormal_factorization",
    "check_arrow_congruences",
    "check_costrong_equivalence",
    "check_dual_skew_boolean",
    "check_heyting_axioms",
    "check_imp_or",
    "check_lifting",
    "check_sh_axioms",
    "check_sha",
    "check_skew_boolean",
    "check_skew_lattice",
    "classify",
    "cover_in_class",
    "derive_arrow",
    "direct_product",
    "dual_gb_diff",
    "errors",
    "find_isomorphism",
    "generalized_heyting_arrow",
    "greens",
    "heyting_arrow",
    "is_congruence",
    "isomorphism_key",
    "leq_matrix",
    "make_algebra",
    "models",
    "natural_orders",
    "preceq_matrix",
    "pullback_check",
    "quotient",
    "special_case_arrows",
    "subalgebra",
    "upset_at",
    "vertical_dual",
]
