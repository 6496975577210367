import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from filtadm.model import Config, Family, ModuleSpec, Summand
from filtadm.ordering import (
    canonical_order,
    check_not_precede,
    group_and_order,
    is_canonical,
    type_components,
)
from helpers import random_spec

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
