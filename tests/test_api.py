"""Every exported name resolves, so a removal cannot leave a dangling
entry in an `__all__`, and the package's public surface is pinned."""

import importlib
import pkgutil

import pytest

import filtadm
import filtadm.emerton
import filtadm.frobenius
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
    "SpecialPair", "Summand", "WeightProfile", "assemble_global",
    "build_modified_frobenius", "build_transverse_filtration",
    "canonical_order", "check_admissible", "check_all_block_orders",
    "check_emerton_condition", "check_not_precede", "check_slope_chain",
    "check_weighted_inequality", "enumerate_concrete_subobjects", "enumerate_good_subobjects",
    "group_and_order", "hom_dim", "is_special", "realize_matrices",
    "solve_t", "spec_violations", "t_h", "t_n", "validate_spec",
]

# the flag layer of the weighted-sum lemma: the verdict never builds a
# flag, so these live with the test oracles
FLAG_LAYER = [
    "greedy_flag", "flag_chain", "omega_from_flag", "special_pair_from_flag",
    "GoodFlag", "SpecialPairViolation", "good_profile",
]


def test_public_surface_pinned():
    assert sorted(filtadm.__all__) == PUBLIC


@pytest.mark.parametrize("name", FLAG_LAYER)
def test_flag_layer_not_in_package(name):
    assert not hasattr(filtadm, name)
    assert not hasattr(filtadm.subobjects, name)


# second implementations of jobs the library does once: the Fraction
# shuffle candidates, the good coordinates, the dense coupling and the
# Fraction special-pair samplers live with the test oracles; t_N of a
# stable subspace is `StableLattice.t_n`
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
]


@pytest.mark.parametrize(
    "owner, name", MOVED, ids=[f"{o.__name__}.{n}" for o, n in MOVED]
)
def test_moved_twins_not_in_package(owner, name):
    assert not hasattr(filtadm, name)
    assert not hasattr(owner, name)
