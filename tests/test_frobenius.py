import random
import re
from fractions import Fraction

import pytest

from filtadm.frobenius import (
    ModificationEdge,
    _check_commutation,
    build_modified_frobenius,
    hom_dim,
    realize_matrices,
)
from filtadm.model import Config, Family, ModuleSpec, Summand, spec_violations
from filtadm.ordering import canonical_order
from filtadm.subobjects import StableLattice, stable_good_subobjects
from helpers import random_spec, t_n_of
import oracles
from oracles import good_span

CFG = Config(p=2)
F = Family("F", 1, Fraction(0))


def test_hom_dim_examples():
    assert hom_dim(Summand("F", 0, 1), Summand("F", 0, 2)) == 1
    assert hom_dim(Summand("F", 0, 3), Summand("F", 1, 1)) == 0
    assert hom_dim(Summand("F", 0, 1), Summand("G", 0, 2)) == 0
    # negative alignment never admits a chain map
    assert hom_dim(Summand("F", 2, 2), Summand("F", 0, 4)) == 0


def test_edges_examples(ex1a, ex2, ex3):
    assert build_modified_frobenius(ex1a) == (ModificationEdge(0, 1, 0),)
    assert build_modified_frobenius(ex2) == ()
    assert build_modified_frobenius(ex3) == ()


def test_realize_ex1a_matrices(ex1a):
    real = realize_matrices(ex1a, build_modified_frobenius(ex1a))
    assert real.phi == ((1, 0, 0), (1, 1, 0), (0, 0, 2))
    assert real.nmat == ((0, 0, 0), (0, 0, 1), (0, 0, 0))
    assert all(type(x) is int for m in (real.phi, real.nmat) for row in m for x in row)


def test_realize_ex2_matrices(ex2):
    real = realize_matrices(ex2, build_modified_frobenius(ex2))
    diag = [real.phi[i][i] for i in range(4)]
    assert diag == [1, 2, 2, 4]
    assert real.nmat[0][1] == 1 and real.nmat[2][3] == 1
    assert sum(1 for row in real.nmat for x in row if x != 0) == 2


def test_realize_single_block():
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 1), Summand("F", 0, 1)))
    real = realize_matrices(spec, ())
    assert real.phi == ((1, 0), (0, 1))
    assert all(x == 0 for row in real.nmat for x in row)


def test_realize_rejects_h2():
    spec = ModuleSpec(CFG, (Family("F", 2, Fraction(0)),), (Summand("F", 0, 1),))
    with pytest.raises(ValueError, match="h=1"):
        realize_matrices(spec, ())


def test_realize_rejects_negative_twist():
    # validate_spec refuses l < 0; the realization refuses it too, naming
    # the summand, where it would build the eigenvalue 2^-1
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 1), Summand("F", -1, 2)))
    assert "summands[1].l: must be >= 0" in spec_violations(spec)
    with pytest.raises(ValueError, match=r"summands\[1\] has the negative twist -1"):
        realize_matrices(spec, ())


def test_phi_invertible_n_nilpotent():
    rng = random.Random(6)
    done = 0
    while done < 20:
        spec = random_spec(rng)
        if spec is None:
            continue
        real = realize_matrices(spec, build_modified_frobenius(spec))
        assert oracles.det(real.phi) != 0
        n = spec.dimension
        assert oracles.mat_pow(real.nmat, n) == oracles.zeros(n, n)
        done += 1


def test_commutation_and_det_valuation_random():
    rng = random.Random(12)
    done = 0
    while done < 60:
        spec = random_spec(rng)
        if spec is None:
            continue
        edges = build_modified_frobenius(spec)
        real = realize_matrices(spec, edges)
        p = Fraction(spec.config.p)
        lhs = oracles.mat_mul(real.nmat, real.phi)
        rhs = oracles.mat_scale(p, oracles.mat_mul(real.phi, real.nmat))
        assert lhs == rhs
        # the seeds are units at p, so the valuation is the sum of the twists
        want = sum(blk.twist for blk in real.basis)
        assert oracles.p_valuation(oracles.det(real.phi), spec.config.p) == want
        done += 1


def _add_entry(cols, i, j, x):
    """Sparse columns with x added at (row i, column j)."""
    col = dict(cols[j])
    col[i] = col.get(i, 0) + x
    return cols[:j] + (tuple(sorted(col.items())),) + cols[j + 1:]


def _dense(n, cols, scales=None):
    """The dense matrix of sparse columns, column j scaled by scales[j] and
    scales on the diagonal when given (Phi = lambda_j (1 + E) by column)."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for j, col in enumerate(cols):
        lam = 1
        if scales is not None:
            lam = scales[j]
            out[j][j] += lam
        for i, a in col:
            out[i][j] += lam * a
    return tuple(map(tuple, out))


def test_commutation_check_rejects_corrupted_matrices():
    # one entry of the sparse N, E or eigenvalues moved: the sparse check
    # raises exactly when the dense products disagree
    rng = random.Random(17)
    raised = done = 0
    while done < 60:
        spec = random_spec(rng)
        if spec is None or spec.dimension < 2:
            continue
        real = realize_matrices(spec, build_modified_frobenius(spec))
        p = spec.config.p
        lams, e_cols, n_cols = list(real.eigenvalues), real.e_cols, real.n_cols
        _check_commutation(lams, e_cols, n_cols, p)
        n = spec.dimension
        i, j = rng.randrange(n), rng.randrange(n)
        x = rng.choice((1, -1, Fraction(1, 2)))
        # N three times in four, Phi otherwise: its diagonal through the
        # eigenvalue, an entry off it through E
        if done % 4 != 3:
            n_cols = _add_entry(n_cols, i, j, x)
        elif i == j:
            lams[j] += x
        else:
            e_cols = _add_entry(e_cols, i, j, x)
        phi, nmat = _dense(n, e_cols, lams), _dense(n, n_cols)
        lhs = oracles.mat_mul(nmat, phi)
        rhs = oracles.mat_scale(Fraction(p), oracles.mat_mul(phi, nmat))
        if lhs != rhs:
            with pytest.raises(RuntimeError, match="N\\*Phi = p\\*Phi\\*N"):
                _check_commutation(lams, e_cols, n_cols, p)
            raised += 1
        else:
            _check_commutation(lams, e_cols, n_cols, p)
        done += 1
    assert raised >= 40


def test_sparse_realization_matches_dense_oracle(ex1a, ex1b, ex2, ex3):
    # the dense matrices and level operators of the sparse realization are
    # those of the entry-by-entry Fraction build, in integers, modified and
    # not, on the worked examples and on seeded draws
    specs = [canonical_order(s)[0] for s in (ex1a, ex1b, ex2, ex3)]
    rng = random.Random(29)
    while len(specs) < 60:
        spec = random_spec(rng, max_dim=7)
        if spec is not None:
            specs.append(spec)
    for spec in specs:
        for edges in ((), build_modified_frobenius(spec)):
            phi, nmat, coupling = oracles.dense_realization(spec, edges)
            real = realize_matrices(spec, edges)
            assert (real.phi, real.nmat) == (phi, nmat)
            for m in (real.phi, real.nmat):
                assert all(type(x) is int for row in m for x in row)
            assert real.level_operators == oracles.dense_level_operators(
                real.levels, coupling, nmat
            )


def test_char_poly_independent_of_edges(ex1a):
    rng = random.Random(3)
    done = 0
    while done < 30:
        spec = random_spec(rng, max_dim=5)
        if spec is None:
            continue
        edges = build_modified_frobenius(spec)
        with_edges = realize_matrices(spec, edges)
        without = realize_matrices(spec, ())
        assert oracles.char_poly(with_edges.phi) == oracles.char_poly(without.phi)
        done += 1


def test_t_n_concrete_matches_combinatorial():
    rng = random.Random(21)
    done = 0
    while done < 40:
        spec = random_spec(rng)
        if spec is None:
            continue
        edges = build_modified_frobenius(spec)
        real = realize_matrices(spec, edges)
        lattice = StableLattice(real)
        assert lattice.goods == stable_good_subobjects(spec, edges)
        for good, key in zip(lattice.goods, lattice.good_keys):
            want = oracles.good_t_n(spec, good)
            assert t_n_of(lattice, key) == want
            assert oracles.newton_slope(real, good_span(spec, good)) == want
        done += 1


def test_t_n_concrete_det_oracle(ex1a):
    # with default prime seeds, t_N equals the p-adic valuation of the
    # restricted determinant plus the family base contributions
    from filtadm.ordering import canonical_order

    spec = ModuleSpec(
        Config(p=2),
        (Family("F", 1, Fraction(1, 2)), Family("G", 1, Fraction(-1))),
        (Summand("F", 0, 2), Summand("G", 1, 1)),
    )
    spec = canonical_order(spec)[0]
    edges = build_modified_frobenius(spec)
    real = realize_matrices(spec, edges)
    lattice = StableLattice(real)
    for good, key in zip(lattice.goods, lattice.good_keys):
        rows = oracles.rref(good_span(spec, good))
        if not rows:
            continue
        restr = oracles.restriction(real, rows)
        det = oracles.det(restr)
        val_p = oracles.p_valuation(det, 2)
        counts = {}
        for fam in spec.families:
            q = int(real.seeds[fam.id])
            counts[fam.id] = oracles.p_valuation(det, q) if q != 1 else None
        expected = Fraction(val_p) * spec.config.deg_K_Qp
        for fam in spec.families:
            c = counts[fam.id]
            assert c is not None
            expected += c * fam.t_base
        assert t_n_of(lattice, key) == expected


def test_realize_rejects_shared_eigenvalue():
    # seeds 1 and 2 would give F at twist 1 and G at twist 0 the eigenvalue
    # 2, one level, where one line would read the other's t_N; the default
    # seeds 3 and 5 keep them apart, so each line reads its own
    spec = ModuleSpec(
        Config(p=2),
        (Family("F", 1, Fraction(1, 2)), Family("G", 1, Fraction(-1))),
        (Summand("F", 1, 1), Summand("G", 0, 1)),
    )
    spec = canonical_order(spec)[0]
    real = realize_matrices(spec, ())
    assert real.seeds == {"F": 3, "G": 5} and len(real.levels) == 2
    lattice = StableLattice(real)
    key = dict(zip((g.counts for g in lattice.goods), lattice.good_keys))
    slopes = {
        blk.family.id: t_n_of(lattice, key[tuple(int(j == blk.summand) for j in range(2))])
        for blk in real.basis
    }
    assert slopes == {"F": Fraction(3, 2), "G": Fraction(-1)}


def test_realize_rejects_edge_across_levels(ex2):
    # alignment 0 where the offsets differ by 1 couples twist 0 to twist 1
    with pytest.raises(ValueError, match="different eigenvalues"):
        realize_matrices(ex2, (ModificationEdge(0, 1, 0),))


def test_realize_refuses_edges_that_name_no_block():
    # on F(0)^2 + F(0)^1: a negative alignment, a dst and a src that are no
    # summand index each name the edge in the refusal
    spec = ModuleSpec(CFG, (F,), (Summand("F", 0, 2), Summand("F", 0, 1)))
    for src, dst, alignment in ((0, 1, -1), (0, 5, 0), (5, 0, 0)):
        edge = ModificationEdge(src, dst, alignment)
        with pytest.raises(ValueError, match=rf"edge {re.escape(str(edge))} names no block"):
            realize_matrices(spec, (edge,))


def test_default_seeds_for_any_number_of_families():
    # successive primes != p, as many as there are families; up to 14
    # families these are the first primes up to 47 without p
    first = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    for p in (2, 3, 5, 7):
        for count in (2, 14, 16, 17):
            fams = tuple(Family(f"F{i}", 1, Fraction(0)) for i in range(count))
            spec = ModuleSpec(
                Config(p=p), fams, tuple(Summand(f.id, 0, 1) for f in fams)
            )
            real = realize_matrices(spec)
            want = [q for q in first if q != p][:count]
            assert [real.seeds[f.id] for f in fams] == want


def test_default_seeds_are_units_at_p_and_keep_levels_apart():
    # on random specs, p in {2, 3}, modified and not: one eigenvalue per
    # level, distinct ones on distinct levels, and the seeds are 1 for one
    # family and otherwise the first primes other than p, in family order
    rng = random.Random(43)
    two = 0
    while two < 50:
        spec = random_spec(rng)
        if spec is None:
            continue
        p = spec.config.p
        fams = [f.id for f in spec.families]
        want = [1] if len(fams) == 1 else [q for q in (2, 3, 5) if q != p][:2]
        two += len(fams) == 2
        for edges in ((), build_modified_frobenius(spec)):
            real = realize_matrices(spec, edges)
            assert real.seeds == dict(zip(fams, want))
            assert all(type(q) is int for q in real.seeds.values())
            assert all(type(lam) is int for lam in real.eigenvalues)
            assert [oracles.p_valuation(lam, p) for lam in real.eigenvalues] == [
                blk.twist for blk in real.basis
            ]
            lams = [{real.eigenvalues[i] for i in coords} for coords in real.levels]
            assert all(len(lam) == 1 for lam in lams)
            assert len(set().union(*lams)) == len(lams)
