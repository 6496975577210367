"""Every exported name resolves, so a removal cannot leave a dangling
entry in an `__all__`, and the package's public surface is pinned."""

import importlib
import pkgutil
import types

import pytest

import filtadm
import filtadm.emerton
import filtadm.filtration
import filtadm.frobenius
import filtadm.linalg
import filtadm.model
import filtadm.pairs
import filtadm.subobjects

MODULES = sorted(m.name for m in pkgutil.iter_modules(filtadm.__path__))


def test_package_exports_resolve():
    missing = [name for name in filtadm.__all__ if not hasattr(filtadm, name)]
    assert not missing
    assert len(set(filtadm.__all__)) == len(filtadm.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"filtadm.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing
    assert len(set(exported)) == len(exported)


PUBLIC = [
    "Config", "Family", "GoodSubobject", "ModuleSpec", "SpecError",
    "Summand", "WeightProfile",
    "build_modified_frobenius", "build_transverse_filtration",
    "canonical_order", "check_admissible", "check_all_block_orders",
    "check_emerton_condition", "check_not_precede", "check_slope_chain",
    "enumerate_concrete_subobjects",
    "group_and_order", "hom_dim", "realize_matrices",
    "spec_violations", "t_h", "t_n", "validate_spec",
]

# the special-pair module keeps its integer core, private, and the fuzzer;
# the weighted comparison on given (m, n) and its HypothesisError are
# oracles
PAIRS = ["fuzz_special_pairs"]

# the flag layer of the weighted-sum lemma: the verdict never builds a
# flag, so these live with the test oracles
FLAG_LAYER = [
    "greedy_flag", "flag_chain", "omega_from_flag", "special_pair_from_flag",
    "GoodFlag", "SpecialPairViolation", "good_profile",
]


def test_public_surface_pinned():
    assert sorted(filtadm.__all__) == PUBLIC
    assert filtadm.pairs.__all__ == PAIRS


@pytest.mark.parametrize("name", FLAG_LAYER)
def test_flag_layer_not_in_package(name):
    assert not hasattr(filtadm, name)
    assert not hasattr(filtadm.subobjects, name)


# second implementations of jobs the library does once: the Fraction
# shuffle candidates, the good coordinates, the dense coupling and the
# Fraction special-pair samplers live with the test oracles; t_N of a
# stable subspace is `StableLattice.scaled_t_n` over the denominator of
# `level_slopes`.  A subspace is held as canonical integer rows only: the
# Fraction row forms, their marker and the second t_H entry are gone, and
# so are helpers no library code called (`spec.goods` lists the goods).
# The Fraction special-pair API, its pair record and the assembly of index
# sets live with the oracles too; t_N of a good is `oracles.good_t_n`.
# The filtration bases are fixed by theorem, so the sampler, its budget,
# the run-time transversality check and its scaled reduced form are gone
# (the transversality minors live with the oracles).  The class list is
# complete for single vectors by the merge lemma, so its random audit, the
# search's random rounds and the per-level chain flags it read are gone
# (the rounds live with the oracles)
MOVED = [
    (filtadm.emerton, "GammaBlock"),
    (filtadm.emerton, "Candidate"),
    (filtadm.emerton, "gamma_blocks"),
    (filtadm.emerton, "enumerate_candidates"),
    (filtadm.subobjects, "good_coords"),
    (filtadm.frobenius.ConcreteRealization, "coupling"),
    (filtadm.frobenius.ConcreteRealization, "level_t_n"),
    (filtadm.pairs, "random_special_pair"),
    (filtadm.pairs, "random_weight_pair"),
    (filtadm.linalg, "rref"),
    (filtadm.linalg, "fraction_rows"),
    (filtadm.linalg, "CanonicalBasis"),
    (filtadm.linalg, "integral"),
    (filtadm.linalg.Echelon, "add_integral"),
    (filtadm.linalg.Echelon, "rows"),
    (filtadm.subobjects.StableLattice, "rows"),
    (filtadm.subobjects.StableLattice, "t_n"),
    (filtadm.filtration.Filtration, "int_bases"),
    (filtadm.filtration, "_t_h"),
    (filtadm.model.GoodSubobject, "contains"),
    (filtadm.model.Block, "size"),
    (filtadm.model.Block, "t_n"),
    (filtadm.subobjects, "enumerate_good_subobjects"),
    (filtadm.pairs, "SpecialPair"),
    (filtadm.pairs, "is_special"),
    (filtadm.pairs, "solve_t"),
    (filtadm.pairs, "omega_of_pair"),
    (filtadm.pairs, "WeightedResult"),
    (filtadm.pairs, "check_weighted_inequality"),
    (filtadm.pairs, "GlobalEntry"),
    (filtadm.pairs, "assemble_global"),
    (filtadm.pairs, "_common_scale"),
    (filtadm.pairs, "HypothesisError"),
    (filtadm.pairs, "_weighted"),
    (filtadm.pairs, "_draw_weights"),
    (filtadm.model, "profile_to_dict"),
    (filtadm.model.ScaledSlopes, "bottom"),
    (filtadm.frobenius.ConcreteRealization, "p"),
    (filtadm.filtration, "TransversalityError"),
    (filtadm.filtration, "SAMPLE_BOX"),
    (filtadm.filtration, "MAX_ATTEMPTS"),
    (filtadm.filtration, "SINGULAR"),
    (filtadm.filtration, "_violation"),
    (filtadm.filtration, "_vector_violations"),
    (filtadm.filtration.Filtration, "transverse"),
    (filtadm.linalg, "ScaledReducedForm"),
    (filtadm.linalg, "_nonsingular"),
    (filtadm.subobjects, "random_round_subobjects"),
    (filtadm.subobjects, "RANDOM_ROUNDS"),
    (filtadm.subobjects, "_NONZERO_DIGITS"),
    (filtadm.subobjects, "_audit"),
    (filtadm.subobjects, "_round_levels"),
    (filtadm.frobenius.ConcreteRealization, "chain_levels"),
]


@pytest.mark.parametrize(
    "owner, name", MOVED, ids=[f"{o.__name__}.{n}" for o, n in MOVED]
)
def test_moved_twins_not_in_package(owner, name):
    assert not hasattr(owner, name)
    # a module-level name is gone from the package too; a method name may
    # be another object's there (`filtadm.t_n` is `model.t_n`)
    if isinstance(owner, types.ModuleType):
        assert not hasattr(filtadm, name)
