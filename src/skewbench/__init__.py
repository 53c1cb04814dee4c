"""skewbench: a workbench for finite skew lattices and skew Heyting algebras.

Algebras are operation tables over dense integer carriers; everything else
(orders, Green's relations, the derived implication) is computed from the
tables.  All values are immutable and all operations are pure functions.

The public names below are resolved on first use (PEP 562), so importing
the package, or the CLI that refuses a bad input, loads no numeric layer.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; a submodule maps to itself
_HOMES = {
    "Algebra": "core",
    "CheckResult": "core",
    "PropertyReport": "properties",
    "adjunction_failure": "heyting",
    "binormal_factorization": "properties",
    "check_arrow_congruences": "skew_heyting",
    "check_costrong_equivalence": "properties",
    "check_dual_skew_boolean": "properties",
    "check_heyting_axioms": "skew_heyting",
    "check_imp_or": "skew_heyting",
    "check_lifting": "skew_heyting",
    "check_sh_axioms": "skew_heyting",
    "check_sha": "skew_heyting",
    "check_skew_boolean": "properties",
    "classify": "properties",
    "cover_in_class": "properties",
    "d_partition": "core",
    "derive_arrow": "skew_heyting",
    "direct_product": "core",
    "dual_gb_diff": "heyting",
    "errors": "errors",
    "find_isomorphism": "core",
    "generalized_heyting_arrow": "heyting",
    "greens": "core",
    "is_congruence": "core",
    "isomorphism_key": "core",
    "lattice_image": "core",
    "leq_matrix": "core",
    "make_algebra": "core",
    "models": "models",
    "natural_orders": "core",
    "partition_of": "core",
    "preceq_matrix": "core",
    "pullback_check": "core",
    "quotient": "core",
    "special_case_arrows": "skew_heyting",
    "subalgebra": "core",
    "upset_at": "skew_heyting",
    "vertical_dual": "core",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value  # resolve once, as an eager import would
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
