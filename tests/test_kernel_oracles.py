"""The echelon kernel and the level-wise realization against their oracles.

Every test draws its inputs from a fixed seed, so a failure reproduces.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from filtadm import filtration, linalg, subobjects
from filtadm.filtration import (
    Filtration,
    _aligned_candidates,
    _good_layout,
    _tail_dims,
    _violation,
    build_transverse_filtration,
)
from filtadm.frobenius import build_modified_frobenius, realize_matrices
from filtadm.model import CapExceededError, Config, Family, ModuleSpec, Summand
from filtadm.subobjects import (
    StableLattice,
    Subobject,
    _pattern_vectors,
    _saturate,
    enumerate_concrete_subobjects,
    random_round_subobjects,
    stable_good_subobjects,
)
from helpers import (
    closure_rows,
    level_vectors,
    random_profile,
    random_single_component_spec,
    random_spec,
    t_n_of,
)
import oracles
from oracles import good_coords, good_span

CFG = Config(p=2)
FAM = Family("F", 1, Fraction(0))


def _vector(rng, n, density):
    return tuple(
        Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if rng.random() < density else Fraction(0)
        for _ in range(n)
    )


def _matrix(rng, max_rows=7, max_cols=7, n=None):
    n = n or rng.randint(1, max_cols)
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


def _echelon_rows(rows, n):
    """The canonical rows `Echelon` reads out after taking `rows` one by one."""
    ech = linalg.Echelon(n)
    for row in rows:
        ech.add(list(row))
    return ech.int_rows()


def test_rref_matches_gauss_jordan():
    # rational rows scaled to integers: the canonical rows are the
    # Gauss-Jordan rows scaled to integers
    rng = random.Random(101)
    for _ in range(300):
        n, rows = _matrix(rng)
        assert _echelon_rows(oracles.int_rows(rows), n) == oracles.canonical(rows)


def test_rref_returns_canonical_input_unchanged():
    rng = random.Random(113)
    for _ in range(300):
        n, rows = _matrix(rng)
        canonical = oracles.canonical(rows)
        assert _echelon_rows(canonical, n) == canonical
    # almost canonical input is reduced, not trusted
    for rows, want in (
        (((2, 0),), ((1, 0),)),                     # not primitive
        (((-1, 2),), ((1, -2),)),                   # negative pivot
        (((1, 1), (0, 1)), ((1, 0), (0, 1))),       # pivot column nonzero above
        (((0, 1), (1, 0)), ((1, 0), (0, 1))),       # pivots not increasing
        (((1, 0), (0, 0)), ((1, 0),)),              # zero row
        ([[1, 0], [0, 1]], ((1, 0), (0, 1))),       # lists
    ):
        got = _echelon_rows(rows, 2)
        assert got == want == oracles.canonical(rows)
        assert all(type(row) is tuple for row in got)


def _mixed_entry(rng, box):
    """An int, or a Fraction with denominator 1 to 4, of size up to `box`."""
    den = rng.randint(1, 4)
    x = rng.randint(-box, box)
    return x if den == 1 and rng.random() < 0.5 else Fraction(x, den)


def _mixed_rows(rng, n, count, box=10**6):
    """Rows of int and Fraction entries; about a third of them are
    combinations of earlier rows, so that some lie in the span."""
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.35:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in rows]
            v = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(n)]
            rows.append(tuple(
                x.numerator if x.denominator == 1 and rng.random() < 0.5 else x
                for x in v
            ))
        else:
            density = rng.choice((0.3, 0.7, 1.0))
            rows.append(tuple(
                _mixed_entry(rng, box) if rng.random() < density else 0
                for _ in range(n)
            ))
    return rows


def _pivot(row):
    return next(j for j, x in enumerate(row) if x)


def _assert_stored_row(row, n):
    """A stored row: n ints, primitive, with a positive pivot."""
    assert len(row) == n and all(type(x) is int for x in row)
    assert row[_pivot(row)] > 0 and math.gcd(*row) == 1


def test_integer_echelon_matches_gauss_jordan_on_mixed_input():
    rng = random.Random(131)
    in_span = 0
    for _ in range(150):
        n = rng.randint(1, 8)
        ech = linalg.Echelon(n)
        seen: list = []
        want = ()
        for v in _mixed_rows(rng, n, rng.randint(1, 9)):
            grown = oracles.rref(seen + [v])
            # the same row scaled to integers, as the echelon takes it
            got = ech.add(list(oracles.int_rows([v])[0]))
            # None exactly when v lies in the span so far
            assert (got is None) == (len(grown) == len(want))
            if got is None:
                in_span += 1
            else:
                _assert_stored_row(got, n)
                assert oracles.rref(seen + [v, got]) == grown
            seen.append(v)
            want = grown
            assert len(ech) == len(want)
        assert ech.int_rows() == oracles.int_rows(want)
        assert linalg.rank(oracles.int_rows(seen)) == len(want)
    assert in_span >= 100


def test_echelon_seeded_with_a_canonical_basis_matches_gauss_jordan():
    rng = random.Random(132)
    for _ in range(150):
        n = rng.randint(1, 8)
        a = oracles.rref(_mixed_rows(rng, n, rng.randint(0, 5)))
        b = oracles.int_rows(_mixed_rows(rng, n, rng.randint(1, 4)))
        ints = oracles.int_rows(a)
        ech = linalg.Echelon(n, ints)
        assert len(ech) == len(a)
        for v in b:
            ech.add(list(v))
        want = oracles.canonical(a + b)
        assert ech.int_rows() == want
        got = linalg.span_sum(ints, b)
        assert got == want
        assert (got is ints) == (len(got) == len(a))


def test_level_closures_match_dense_closure_oracle():
    # mixed-level vectors with rational entries scaled to integers, grown
    # through nested groups, on one- and two-family specs up to dimension
    # 8, with and without edges, against the dense closure under Phi and N
    rng = random.Random(133)
    checked = reused = mixed = families = top = 0
    for _ in range(60):
        spec = None
        while spec is None:
            spec = random_spec(rng, max_dim=8, max_summands=4)
        for edges in ((), build_modified_frobenius(spec)):
            real = realize_matrices(spec, edges)
            n = real.dimension
            top = max(top, n)
            groups = [
                oracles.int_rows(
                    _vector(rng, n, rng.choice((0.3, 0.7, 1.0))) for _ in range(rng.randint(0, 2))
                )
                for _ in range(rng.randint(1, 4))
            ]
            lattice = StableLattice(real)
            keys = lattice.closures(level_vectors(real, group) for group in groups)
            vectors: list = []
            for k, (group, key) in enumerate(zip(groups, keys)):
                vectors += group
                want = oracles.closure_under(tuple(vectors), (real.phi, real.nmat))
                got = lattice.int_rows(key)
                assert got == oracles.int_rows(want)
                # the class key and t_N read off the pieces are those of
                # the dense rows
                assert (len(got), lattice.good_dims(key)) == oracles.class_key(real, want)
                assert t_n_of(lattice, key) == oracles.newton_slope(real, want)
                if k and not group:
                    assert key == keys[k - 1]
                    reused += 1
                checked += 1
            mixed += any(len(level_vectors(real, (v,))) >= 2 for v in vectors)
            families += len(spec.families) == 2
    assert checked >= 250 and reused >= 20 and mixed >= 60 and families >= 30
    assert top == 8


def test_every_subobject_holds_canonical_integer_rows():
    rng, triples = _filtered(135, 18)
    count = 0
    for spec, real, filt in triples:
        lattice = StableLattice(real)
        subs = list(enumerate_concrete_subobjects(real, lattice=lattice))
        keys = random_round_subobjects(lattice, rng) + _aligned_candidates(lattice, filt)
        subs += [Subobject(lattice.int_rows(key), key) for key in keys]
        for sub in subs:
            assert all(type(x) is int for row in sub.rows for x in row)
            assert sub.rows == oracles.canonical(sub.rows)
            # the class key a subspace was born with is that of its rows
            key = (sub.rank, lattice.good_dims(sub.key))
            assert key == oracles.class_key(real, sub.rows)
            count += 1
    assert count >= 300


def test_span_sum_matches_stacked_rref():
    rng = random.Random(102)
    for _ in range(300):
        n, rows = _matrix(rng)
        a = oracles.rref(rows[: len(rows) // 2])
        b = rows[len(rows) // 2:]
        ints = oracles.int_rows(a)
        got = linalg.span_sum(ints, oracles.int_rows(b))
        # primitive integer rows, positive at the pivot
        for row in got:
            _assert_stored_row(row, n)
        assert got == oracles.canonical(a + b)
        if len(got) == len(a):
            assert got is ints


def test_closure_matches_rerref_oracle():
    rng, reals = _realizations(104, 40)
    for real in reals:
        n = real.dimension
        ops = (real.phi, real.nmat)
        levels = list(oracles.eigen_levels(real).values())
        for density in (0.4, 1.0):
            v = _vector(rng, n, density)
            want = oracles.int_rows(oracles.closure_under((v,), ops))
            assert closure_rows(real, oracles.int_rows((v,))) == want
        level = rng.choice(levels)
        v = tuple(
            x if i in level else Fraction(0)
            for i, x in enumerate(_vector(rng, n, 1.0))
        )
        want = oracles.int_rows(oracles.closure_under((v,), ops))
        assert closure_rows(real, oracles.int_rows((v,))) == want


def test_eigen_multiplicities_match_matrix_power_oracle():
    _, reals = _realizations(105, 25)
    for real in reals:
        lattice = StableLattice(real)
        for sub in enumerate_concrete_subobjects(real, lattice=lattice):
            rows = oracles.rref(sub.rows)
            want = oracles.eigen_multiplicities(real, rows)
            got = [
                (real.basis[level[0]].family.id, real.basis[level[0]].twist, dim)
                for level, dim in zip(real.levels, lattice.level_dims(sub.key)) if dim
            ]
            assert got == want
            assert t_n_of(lattice, sub.key) == oracles.newton_slope(real, rows)
            n = real.dimension
            for level, (coords, pid) in enumerate(zip(real.levels, sub.key)):
                inter = oracles.intersect_basis(oracles.coordinate_rows(coords, n), rows)
                piece = oracles.rref(lattice.piece(level, pid))
                assert piece == tuple(tuple(row[i] for i in coords) for row in inter)


def _tampered(real, name, entries):
    """`real` with the sparse columns `name` of an operator set to 1 at the
    (row, column) entries."""
    cols = [dict(col) for col in getattr(real, name)]
    for i, j in entries:
        cols[j][i] = 1
    return dataclasses.replace(
        real, **{name: tuple(tuple(sorted(col.items())) for col in cols)}
    )


def test_operators_leaving_the_level_split_raise_on_the_first_closure():
    _, reals = _realizations(118, 40)
    tried = 0
    for real in reals:
        levels = real.levels
        if len(levels) < 3:
            continue
        j = levels[0][0]
        atom = [(0, [1] + [0] * (len(levels[0]) - 1))]
        for name, entries in (
            ("n_cols", [(levels[1][0], j), (levels[2][0], j)]),    # two levels
            ("e_cols", [(levels[0][-1], j), (levels[1][0], j)]),   # two levels
            ("e_cols", [(levels[2][0], j)]),                       # another level
        ):
            bad = _tampered(real, name, entries)
            with pytest.raises(RuntimeError, match="sends level 0 into levels"):
                StableLattice(bad).closures([atom])
            with pytest.raises(RuntimeError, match="sends level 0 into levels"):
                enumerate_concrete_subobjects(bad)
        # untampered, the same atom closes
        assert any(StableLattice(real).closures([atom])[0])
        tried += 1
    assert tried >= 10


def _stable_subspaces(real, rng, lattice=None):
    """Enumerated classes, random rounds and closures of dense vectors,
    each with its piece ids in `lattice`."""
    lattice = lattice or StableLattice(real)
    subs = list(enumerate_concrete_subobjects(real, lattice=lattice))
    keys = random_round_subobjects(lattice, rng)
    for _ in range(3):
        v = _vector(rng, real.dimension, 0.6)
        keys += lattice.closures([level_vectors(real, oracles.int_rows((v,)))])
    return subs + [Subobject(lattice.int_rows(key), key) for key in keys]


def test_class_keys_match_per_good_intersections():
    rng, reals = _realizations(107, 25)
    single = random.Random(109)
    while len(reals) < 40:
        spec = random_single_component_spec(single)
        if spec is not None:
            edges = build_modified_frobenius(spec) if len(reals) % 2 else ()
            reals.append(realize_matrices(spec, edges))
    keys = 0
    for real in reals:
        lattice = StableLattice(real)
        for sub in _stable_subspaces(real, rng, lattice):
            key = (sub.rank, lattice.good_dims(sub.key))
            assert key == oracles.class_key(real, sub.rows)
            profile = lattice.profile(sub.key)
            assert profile == oracles.intersection_profile(real.spec, sub.rows, real.edges)
            assert profile[lattice.goods[-1]] == sub.rank
            keys += 1
    assert keys >= 300


def _filtered(seed, count, max_dim=5):
    """(spec, realization, filtration) triples on random specs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        spec = random_spec(rng, max_dim=max_dim)
        if spec is None:
            continue
        edges = build_modified_frobenius(spec) if len(out) % 2 else ()
        real = realize_matrices(spec, edges)
        filt = build_transverse_filtration(
            spec, random_profile(rng, spec), real, seed=len(out)
        )
        out.append((spec, real, filt))
    return rng, out


def _small_box_basis(rng, n):
    return tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))


def _small_box_filtration(rng, spec, filt):
    """Bases with entries in [-3, 3]: they meet goods in non-generic
    dimensions and are sometimes singular."""
    bases = tuple(
        _small_box_basis(rng, spec.dimension) for _ in range(spec.config.embeddings)
    )
    return Filtration(filt.weights, bases, 0, 1)


def test_tail_dims_match_stacked_rank():
    rng, triples = _filtered(110, 20)
    for spec, real, filt in triples:
        n = spec.dimension
        small = _small_box_filtration(rng, spec, filt)
        subspaces = [sub.rows for sub in _stable_subspaces(real, rng)]
        # any integer rows spanning a subspace, not only canonical ones
        subspaces += [oracles.int_rows(_matrix(rng, max_rows=n, n=n)[1]) for _ in range(5)]
        for rows in subspaces:
            for f in (filt, small):
                for sigma in range(spec.config.embeddings):
                    assert _tail_dims(f, sigma, rows) == oracles.tail_dims(f, sigma, rows)


def test_violation_matches_all_tails_on_small_box_bases():
    rng = random.Random(111)
    checked = failed = singular = 0
    while checked < 300:
        spec = random_spec(rng, max_dim=6)
        if spec is None:
            continue
        goods = spec.goods
        for _ in range(5):
            basis = _small_box_basis(rng, spec.dimension)
            got = _violation(basis, _good_layout(spec, goods))
            assert got == oracles.violation(spec, basis, goods)
            checked += 1
            failed += got is not None
            singular += len(oracles.rref(basis)) < spec.dimension
    # failures well beyond the singular bases, and passes too
    assert failed - singular >= 60 and checked - failed >= 60


def test_one_echelon_violation_matches_per_good_minors():
    rng = random.Random(114)
    dims = set()
    for _ in range(60):
        spec = None
        while spec is None or spec.dimension < 3:
            spec = random_spec(rng, max_dim=8, max_summands=4)
        n = spec.dimension
        dims.add(n)
        layout = _good_layout(spec, spec.goods)
        for _ in range(4):
            basis = tuple(
                tuple(rng.randint(-10**6, 10**6) for _ in range(n)) for _ in range(n)
            )
            assert _violation(basis, layout) == oracles.violation_minors(basis, layout)
    assert dims == set(range(3, 9))
    # small entries: singular bases, and goods met in non-generic dimensions
    checked = singular = failed = 0
    while checked < 600:
        spec = random_spec(rng, max_dim=8, max_summands=4)
        if spec is None:
            continue
        layout = _good_layout(spec, spec.goods)
        for _ in range(6):
            n = spec.dimension
            basis = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
            want = oracles.violation_minors(basis, layout)
            assert _violation(basis, layout) == want
            checked += 1
            singular += want == filtration.SINGULAR
            failed += want not in (None, filtration.SINGULAR)
    assert singular >= 15 and failed >= 150 and checked - singular - failed >= 150


def _compositions(n):
    """Every tuple of positive summand lengths adding up to n."""
    if n == 0:
        return [()]
    return [(b, *rest) for b in range(1, n + 1) for rest in _compositions(n - b)]


def test_scaled_form_violation_matches_echelon_oracle_on_every_layout_shape():
    # every summand-length layout of dimensions 2-8 (254 goods strictly
    # inside at (1,) * 8) and the long single chains (12,) and (20,): the
    # scaled reduced form picks the same first good, in layout order, or
    # SINGULAR, as the echelon that read out canonical rows after each row
    rng = random.Random(131)
    shapes = [shape for n in range(2, 9) for shape in _compositions(n)]
    shapes += [(12,), (20,)]
    outcomes = {"ok": 0, "singular": 0, "good": 0}
    for shape in shapes:
        spec = ModuleSpec(CFG, (FAM,), tuple(Summand("F", 0, b) for b in shape))
        n = spec.dimension
        layout = _good_layout(spec, spec.goods)
        seeded = [
            tuple(tuple(rng.randint(-10**6, 10**6) for _ in range(n)) for _ in range(n))
            for _ in range(2)
        ]
        small = [
            tuple(tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n))
            for _ in range(6)
        ]
        for basis in seeded + small:
            want = oracles.echelon_violation(basis, layout)
            assert _violation(basis, layout) == want, (shape, basis)
            outcomes[
                "ok" if want is None else "singular" if want == filtration.SINGULAR
                else "good"
            ] += 1
    assert len(shapes) == 256
    # the small box fails often, both ways, and passes too
    assert min(outcomes.values()) >= 100, outcomes


def test_scaled_reduced_form_is_the_rref_times_the_pivot_minor():
    rng = random.Random(132)
    for _ in range(200):
        n = rng.randint(1, 7)
        box = rng.choice((1, 3, 10**6))
        form = linalg.ScaledReducedForm()
        taken = []
        for _ in range(rng.randint(1, n + 2)):
            v = tuple(rng.randint(-box, box) for _ in range(n))
            grew = form.add(v)
            assert grew == (linalg.rank(taken + [v]) > len(taken))
            if grew:
                taken.append(v)
            assert len(form._rows) == len(taken)
            if not taken:
                continue
            # every kept row is det times the Gauss-Jordan row of its pivot,
            # and det is the minor of the rows taken on the pivot columns
            rows = form._rows
            reduced = oracles.rref(taken)
            pivots = sorted(rows)
            for row in reduced:
                p = next(c for c, x in enumerate(row) if x)
                assert list(rows[p]) == [form.det * x for x in row]
            minor = [[v[c] for c in pivots] for v in taken]
            assert abs(oracles.det(minor)) == abs(form.det)
            cols = sorted(rng.sample(range(n), len(taken)))
            on_cols = [[v[c] for c in cols] for v in taken]
            assert form.full_rank_on(cols) == (linalg.rank(on_cols) == len(taken))


def test_fraction_free_determinant_decides_singularity():
    # small entries, so that singular matrices and zero leading entries,
    # which need a row swap, are common
    rng = random.Random(133)
    singular = 0
    for _ in range(600):
        t = rng.randint(1, 6)
        a = [[rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(t)] for _ in range(t)]
        want = oracles.det(a) != 0
        assert linalg._nonsingular([row[:] for row in a]) == want
        singular += not want
    assert 100 <= singular <= 500


def test_good_layout_reads_summand_offsets():
    rng = random.Random(115)
    for _ in range(40):
        spec = random_spec(rng, max_dim=8, max_summands=4)
        if spec is None:
            continue
        n = spec.dimension
        goods = spec.goods
        want = [
            (g, g.dimension(spec), [c for c in range(n) if c not in good_coords(spec, g)])
            for g in goods if 0 < g.dimension(spec) < n
        ]
        assert _good_layout(spec, goods) == want
    spec = random_spec(random.Random(3), h_choices=(2,))
    with pytest.raises(ValueError, match="coordinate layout requires h=1"):
        _good_layout(spec, spec.goods)


def test_sampled_bases_replay_the_randint_draws():
    # the bases and attempts of build_transverse_filtration are those of
    # randint draws checked by the per-good minors
    rng, triples = _filtered(116, 20, max_dim=7)
    for k, (spec, real, filt) in enumerate(triples):
        n = spec.dimension
        layout = _good_layout(spec, spec.goods)
        replay = random.Random(k)
        bases, attempts = [], 0
        for _ in range(spec.config.embeddings):
            while True:
                attempts += 1
                basis = tuple(
                    tuple(replay.randint(-10**6, 10**6) for _ in range(n))
                    for _ in range(n)
                )
                if oracles.violation_minors(basis, layout) is None:
                    bases.append(basis)
                    break
        assert filt.attempts == attempts
        assert filt.vectors == tuple(bases)
        assert filt.bases == tuple(
            tuple(tuple(map(Fraction, row)) for row in b) for b in bases
        )


def test_aligned_candidates_match_per_tail_intersections():
    rng, triples = _filtered(112, 20)
    for spec, real, filt in triples:
        lattice = StableLattice(real)
        want = oracles.aligned_candidates(spec, real, filt)
        got = [lattice.int_rows(key) for key in _aligned_candidates(lattice, filt)]
        assert got == [oracles.int_rows(rows) for rows in want]
        small = _small_box_filtration(rng, spec, filt)
        got = [lattice.int_rows(key) for key in _aligned_candidates(lattice, small)]
        assert got == [oracles.int_rows(rows) for rows in oracles.aligned_candidates(spec, real, small)]


def _start_rows(real):
    """Canonical bases of zero, the stable good spans and the dense
    closures of the pattern atoms: where the lattice enumeration starts."""
    spec = real.spec
    start = [()]
    start += [
        oracles.rref(good_span(spec, g))
        for g in stable_good_subobjects(spec, real.edges)
    ]
    for level in real.levels:
        for local in _pattern_vectors(len(level)):
            v = [0] * real.dimension
            for i, x in zip(level, local):
                v[i] = x
            start.append(oracles.closure_under((v,), (real.phi, real.nmat)))
    return start


def _start_keys(lattice):
    """Piece ids of zero, the stable good spans and the closures of the
    pattern atoms, as the lattice enumeration starts from them."""
    born = [lattice.zero, *lattice.good_keys]
    for level, coords in enumerate(lattice.realization.levels):
        born += [
            lattice.closures([[(level, v)]])[0] for v in _pattern_vectors(len(coords))
        ]
    return born


def test_start_keys_are_born_as_the_split_of_their_rows():
    # the good spans as unit pieces and the atoms closed on the level path
    # against the dense start rows, with the class keys of those rows
    rng = random.Random(117)
    for k in range(16):
        spec = None
        while spec is None:
            spec = random_spec(rng) if k % 2 else random_single_component_spec(rng)
        real = realize_matrices(spec, build_modified_frobenius(spec) if k % 4 > 1 else ())
        lattice = StableLattice(real)
        born = _start_keys(lattice)
        start = _start_rows(real)
        assert [lattice.int_rows(key) for key in born] == [oracles.int_rows(r) for r in start]
        for key, rows in zip(born, start):
            assert (lattice.dim(key), lattice.good_dims(key)) == oracles.class_key(real, rows)


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
        start = _start_rows(real)
        lattice = StableLattice(real)
        keys = _saturate(lattice, _start_keys(lattice))
        got = {oracles.rref(lattice.int_rows(key)) for key in keys}
        assert got == oracles.saturate_all_pairs(start)
        grown += len(got) > len(set(start))
    assert grown >= 3


def test_piece_saturation_matches_all_pairs_with_and_without_edges():
    rng, single = random.Random(114), random.Random(115)
    specs = []
    while len(specs) < 24:
        spec = random_spec(rng) if len(specs) % 2 else random_single_component_spec(single)
        if spec is not None:
            specs.append(spec)
    grown = 0
    for spec in specs:
        for edges in ((), build_modified_frobenius(spec)):
            real = realize_matrices(spec, edges)
            start = _start_rows(real)
            lattice = StableLattice(real)
            keys = _saturate(lattice, _start_keys(lattice))
            spaces = [lattice.int_rows(key) for key in keys]
            assert set(map(oracles.rref, spaces)) == oracles.saturate_all_pairs(start)
            assert len(set(spaces)) == len(keys)
            for key, rows in zip(keys, spaces):
                # assembled rows are canonical as they stand
                assert oracles.canonical(rows) == rows
                assert (len(rows), lattice.good_dims(key)) == oracles.class_key(real, rows)
            grown += len(spaces) > len(set(start))
    assert grown >= 6


def test_lowered_lattice_guard_raises(monkeypatch):
    rng = random.Random(106)
    while True:
        spec = random_single_component_spec(rng)
        if spec is None:
            continue
        real = realize_matrices(spec, build_modified_frobenius(spec))
        lattice = StableLattice(real)
        start = list(dict.fromkeys(_start_keys(lattice)))
        full = _saturate(lattice, start)
        if len(full) >= len(start) + 2:
            break
    monkeypatch.setattr(subobjects, "_LATTICE_GUARD", len(start))
    with pytest.raises(CapExceededError, match=f"guard size of {len(start)} subspaces"):
        _saturate(lattice, start)
    with pytest.raises(CapExceededError, match="guard"):
        enumerate_concrete_subobjects(real)
    monkeypatch.setattr(subobjects, "_LATTICE_GUARD", len(full))
    assert enumerate_concrete_subobjects(real)


def test_nested_closures_match_closures_alone():
    # E cap T_m, ..., E cap T_2 grow, and so do their closures: each one
    # grown incrementally equals the closure computed alone
    rng, triples = _filtered(116, 20)
    steps = reused = 0
    for spec, real, filt in triples:
        ops = (real.phi, real.nmat)
        for f in (filt, _small_box_filtration(rng, spec, filt)):
            for good in spec.goods:
                coords = good_coords(spec, good)
                m = len(coords)
                for basis in f.bases:
                    inters = [
                        oracles.intersect_basis(
                            oracles.coordinate_rows(coords, spec.dimension), basis[j - 1:]
                        )
                        for j in range(m, 1, -1)
                    ]
                    lattice = StableLattice(real)
                    inters = [oracles.int_rows(inter) for inter in inters]
                    keys = lattice.closures(level_vectors(real, inter) for inter in inters)
                    prev = None
                    for inter, key in zip(inters, keys):
                        rows = lattice.int_rows(key)
                        assert rows == closure_rows(real, inter)
                        assert rows == oracles.int_rows(oracles.closure_under(inter, ops))
                        reused += key == prev
                        prev = key
                        steps += 1
    assert steps >= 400 and reused >= 100
