"""The echelon kernel and the level-wise realization against their oracles.

Every test draws its inputs from a fixed seed, so a failure reproduces.
"""

import random
from fractions import Fraction

from filtadm import linalg
from filtadm.frobenius import build_modified_frobenius, realize_matrices
from filtadm.subobjects import (
    Subobject,
    _pattern_vectors,
    _saturate,
    enumerate_concrete_subobjects,
    good_span,
    stable_good_subobjects,
)
from helpers import random_single_component_spec, random_spec
import oracles


def _vector(rng, n, density):
    return tuple(
        Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if rng.random() < density else Fraction(0)
        for _ in range(n)
    )


def _matrix(rng, max_rows=7, max_cols=7):
    n = rng.randint(1, max_cols)
    density = rng.choice((0.3, 0.7, 1.0))
    return n, tuple(_vector(rng, n, density) for _ in range(rng.randint(1, max_rows)))


def _realizations(seed, count, max_dim=6):
    """(rng, realization) pairs on random specs, with and without edges."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        spec = random_spec(rng, max_dim=max_dim)
        if spec is None:
            continue
        edges = build_modified_frobenius(spec) if len(out) % 3 else ()
        out.append(realize_matrices(spec, edges))
    return rng, out


def test_rref_matches_gauss_jordan():
    rng = random.Random(101)
    for _ in range(300):
        _, rows = _matrix(rng)
        assert linalg.rref(rows) == oracles.rref(rows)


def test_span_sum_matches_stacked_rref():
    rng = random.Random(102)
    for _ in range(300):
        n, rows = _matrix(rng)
        a = oracles.rref(rows[: len(rows) // 2])
        b = rows[len(rows) // 2:]
        got = linalg.span_sum(a, b)
        assert got == oracles.rref(a + b)
        if len(got) == len(a):
            assert got is a


def test_intersect_coords_matches_null_space_oracle():
    rng = random.Random(103)
    for _ in range(300):
        n, b = _matrix(rng)
        coords = sorted(rng.sample(range(n), rng.randint(0, n)))
        got = linalg.intersect_coords(coords, b)
        want = oracles.intersect_basis(oracles.coordinate_rows(coords, n), b)
        assert got == want
        assert len(got) == linalg.dim_intersection_coords(coords, b, n)


def test_closure_matches_rerref_oracle():
    rng, reals = _realizations(104, 40)
    for real in reals:
        n = real.dimension
        ops = (real.phi, real.nmat)
        levels = list(real.eigen_levels().values())
        for density in (0.4, 1.0):
            v = _vector(rng, n, density)
            want = oracles.closure_under((v,), ops)
            assert real.closure((v,)) == want
            assert linalg.closure_under((v,), ops) == want
        level = rng.choice(levels)
        v = tuple(
            x if i in level else Fraction(0)
            for i, x in enumerate(_vector(rng, n, 1.0))
        )
        assert real.closure((v,)) == oracles.closure_under((v,), ops)


def test_eigen_multiplicities_match_matrix_power_oracle():
    _, reals = _realizations(105, 25)
    for real in reals:
        for sub in enumerate_concrete_subobjects(real, rounds=1):
            want = oracles.eigen_multiplicities(real, sub.rows)
            assert real.eigen_multiplicities(sub.rows) == want
            assert real.t_n_concrete(sub.rows) == real.t_n_from_levels(want)


def test_generator_saturation_matches_all_pairs():
    # one same-type component puts several chains on each level, which is
    # where sums of atoms give new subspaces; random_spec draws rarely do
    rng = random.Random(106)
    grown = 0
    for k in range(20):
        spec = None
        while spec is None:
            spec = random_single_component_spec(rng)
        real = realize_matrices(spec, build_modified_frobenius(spec) if k % 2 else ())
        start = {(): Subobject(())}
        for g in stable_good_subobjects(spec, real.edges):
            rows = linalg.rref(good_span(spec, g))
            start.setdefault(rows, Subobject(rows))
        for level in real.eigen_levels().values():
            for v in _pattern_vectors(real.dimension, level):
                rows = real.closure((v,))
                start.setdefault(rows, Subobject(rows))
        got = set(_saturate(dict(start)))
        assert got == oracles.saturate_all_pairs(start)
        grown += len(got) > len(start)
    assert grown >= 3
