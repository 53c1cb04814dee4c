"""The names of the properties :mod:`skewbench.properties` classifies.

They live apart from the checks, in a module that imports nothing, so that
the CLI can refuse an unknown property name before it loads numpy.
"""

SKEW_AXIOMS = (
    "meet-idempotent",
    "join-idempotent",
    "meet-associative",
    "join-associative",
    "absorption",
)

PROPERTY_NAMES = SKEW_AXIOMS + (
    "skew-lattice",
    "equivalence-pair",
    "regular",
    "rectangular",
    "strongly-distributive",
    "co-strongly-distributive",
    "distributive",
    "symmetric",
    "conormal",
    "normal",
    "quasi-distributive",
)
