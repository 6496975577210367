import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from filtadm.emerton import candidate_table, check_emerton_condition
from filtadm.frobenius import build_modified_frobenius
from filtadm.model import Config, Family, ModuleSpec, Summand
from filtadm.ordering import (
    canonical_order,
    check_not_precede,
    group_and_order,
    is_canonical,
    type_components,
)
from filtadm.slopes import check_all_block_orders, check_slope_chain
from helpers import equal_total_stream, instance_stream, mixed_slope_stream, random_spec

CFG = Config(p=2)
F = Family("F", 1, Fraction(0))


def test_reorder_by_length():
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 2), Summand("F", 0, 1)))
    ordered, _, perm = canonical_order(spec)
    assert perm == (1, 0)
    assert [(s.l, s.b) for s in ordered.summands] == [(0, 1), (0, 2)]


def test_group_slope_order():
    g = Family("G", 1, Fraction(1))
    h = Family("H", 1, Fraction(0))
    spec = ModuleSpec(CFG, (g, h), (Summand("G", 0, 1), Summand("H", 0, 1)))
    ordered, part, _ = canonical_order(spec)
    assert ordered.summands[0].family == "H"          # slope 0 group first
    assert part.avg_slopes == (Fraction(0), Fraction(1))


def test_single_summand_identity():
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 2),))
    _, perm = group_and_order(spec)
    assert perm == (0,)


def test_same_family_disjoint_ranges_split():
    # no chain maps across a twist gap, so the summands sit in two groups
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 1), Summand("F", 5, 1)))
    comps = type_components(spec)
    assert sorted(map(tuple, comps)) == [(0,), (1,)]
    ordered, part, _ = canonical_order(spec)
    assert len(part.groups) == 2
    assert [s.l for s in ordered.summands] == [0, 5]


def test_overlap_chain_single_group(ex3):
    assert len(type_components(ex3)) == 1


def test_not_precede_examples(ex1b):
    assert check_not_precede(ex1b) == (True, None)
    rev = ModuleSpec(CFG, (F,), (Summand("F", 1, 1), Summand("F", 0, 2)))
    assert check_not_precede(rev) == (False, (0, 1))
    two_fams = ModuleSpec(
        CFG,
        (F, Family("G", 1, Fraction(0))),
        (Summand("G", 1, 1), Summand("F", 0, 2)),
    )
    assert check_not_precede(two_fams)[0] is True


def test_not_precede_matches_exhaustive_scan():
    # oracle: violation iff some shift l >= 0 satisfies the twist relation;
    # every pair of segments with l <= 6 and 1 <= b <= 6
    box = [Summand("F", l, b) for l in range(7) for b in range(1, 7)]
    violations = 0
    for si, sj in itertools.product(box, repeat=2):
        spec = ModuleSpec(CFG, (F,), (si, sj))
        expected = any(
            l + sj.b > si.b and si.l == sj.l + (l + sj.b - si.b)
            for l in range(0, 20)
        )
        assert check_not_precede(spec)[0] == (not expected), (si, sj)
        violations += expected
    assert 0 < violations < len(box) ** 2


def test_canonical_always_not_precede():
    rng = random.Random(1)
    done = 0
    while done < 200:
        spec = random_spec(rng)
        if spec is None:
            continue
        ok, witness = check_not_precede(spec)
        assert ok, (spec.summands, witness)
        done += 1


def test_order_deterministic_and_permutation_invariant():
    spec = ModuleSpec(
        CFG,
        (F, Family("G", 1, Fraction(1, 2))),
        (
            Summand("F", 0, 2),
            Summand("G", 0, 1),
            Summand("F", 1, 1),
            Summand("F", 0, 1),
        ),
    )
    base, _, _ = canonical_order(spec)
    for perm in itertools.permutations(range(4)):
        shuffled = spec.with_summands([spec.summands[i] for i in perm])
        ordered, _, _ = canonical_order(shuffled)
        assert ordered.summands == base.summands
    assert is_canonical(base)
    again, _, perm = canonical_order(base)
    assert again.summands == base.summands and perm == tuple(range(4))


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), min_size=1, max_size=4))
def test_within_group_l_then_b_nondecreasing(lbs):
    spec = ModuleSpec(CFG, (F,), tuple(Summand("F", l, b) for l, b in lbs))
    ordered, part, _ = canonical_order(spec)
    for group in part.groups:
        pairs = [(ordered.summands[i].l, ordered.summands[i].b) for i in group]
        assert pairs == sorted(pairs)


def _shuffled_stream_specs():
    """The specs of the seeded streams, each also with its summands
    shuffled, so that most of them are not in canonical order."""
    rng = random.Random(29)
    specs = [spec for spec, _ in equal_total_stream(1, 40, max_dim=8, min_summands=3)]
    specs += [spec for spec, _ in instance_stream(42, 200)]
    specs += [spec for spec, _ in mixed_slope_stream(7, 80)]
    out = []
    for spec in specs:
        summands = list(spec.summands)
        rng.shuffle(summands)
        out += [spec, spec.with_summands(summands)]
    return out


def test_canonical_order_is_idempotent_and_marks_its_result():
    # the verify path trusts the mark instead of ordering a second time,
    # which is sound because ordering an ordered spec changes nothing
    reordered = 0
    for spec in _shuffled_stream_specs():
        ordered, partition, perm = canonical_order(spec)
        assert ordered.canonical and is_canonical(ordered)
        again, partition2, perm2 = canonical_order(ordered)
        assert perm2 == tuple(range(len(spec.summands)))
        assert again == ordered and partition2 == partition
        # the mark is outside equality, hashing and repr
        copy = spec.with_summands(ordered.summands)
        assert not copy.canonical
        assert copy == ordered and hash(copy) == hash(ordered)
        assert repr(copy) == repr(ordered)
        reordered += perm != tuple(range(len(perm)))
    assert reordered >= 100


def test_unmarked_copies_are_checked_in_full():
    checked = 0
    for spec in _shuffled_stream_specs():
        ordered = canonical_order(spec)[0]
        flipped = ordered.with_summands(ordered.summands[::-1])
        replaced = dataclasses.replace(ordered, summands=ordered.summands[::-1])
        assert not flipped.canonical and not replaced.canonical
        # an unmarked copy in canonical order passes the full check
        build_modified_frobenius(ordered.with_summands(ordered.summands))
        if is_canonical(flipped):
            continue
        for copy in (flipped, replaced):
            with pytest.raises(ValueError, match="not in canonical order"):
                build_modified_frobenius(copy)
        checked += 1
    assert checked >= 200


def test_criteria_never_read_the_mark():
    # a forged mark on a spec out of order: the modification trusts it,
    # every criterion still orders the spec itself and refuses it
    forged = 0
    for spec, profile in instance_stream(43, 120):
        flipped = canonical_order(spec)[0]
        flipped = flipped.with_summands(flipped.summands[::-1])
        if is_canonical(flipped):
            continue
        object.__setattr__(flipped, "canonical", True)
        build_modified_frobenius(flipped)
        for check in (
            check_slope_chain, check_all_block_orders, check_emerton_condition,
            candidate_table,
        ):
            with pytest.raises(ValueError, match="not in canonical order"):
                check(flipped, profile)
        forged += 1
    assert forged >= 30
