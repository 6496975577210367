"""Exact-arithmetic toolkit for admissible filtrations on block-chain
Frobenius modules: canonical summand ordering, slope chain checks, the
shuffle valuation condition, Frobenius modification, transverse filtration
construction, and brute-force admissibility verification."""

__version__ = "0.1.0"

from .model import (
    Config,
    Family,
    GoodSubobject,
    ModuleSpec,
    SpecError,
    Summand,
    WeightProfile,
    spec_violations,
    t_n,
    validate_spec,
)
from .ordering import canonical_order, check_not_precede, group_and_order
from .slopes import check_all_block_orders, check_slope_chain
from .frobenius import build_modified_frobenius, hom_dim, realize_matrices
from .subobjects import enumerate_concrete_subobjects
from .filtration import build_transverse_filtration, check_admissible, t_h
from .emerton import check_emerton_condition

__all__ = [
    "Config",
    "Family",
    "Summand",
    "ModuleSpec",
    "WeightProfile",
    "GoodSubobject",
    "SpecError",
    "validate_spec",
    "spec_violations",
    "t_n",
    "canonical_order",
    "group_and_order",
    "check_not_precede",
    "check_slope_chain",
    "check_all_block_orders",
    "hom_dim",
    "build_modified_frobenius",
    "realize_matrices",
    "enumerate_concrete_subobjects",
    "build_transverse_filtration",
    "t_h",
    "check_admissible",
    "check_emerton_condition",
]
