from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from filtadm import linalg
from filtadm.frobenius import realize_matrices
from filtadm.model import Config, Family, ModuleSpec, Summand
from filtadm.subobjects import StableLattice
from helpers import closure_rows, level_vectors
from oracles import identity, mat
import oracles

frac = st.fractions(
    min_value=-5, max_value=5, max_denominator=3
)


def _canonical(rows, ncols):
    ech = linalg.Echelon(ncols)
    for row in rows:
        ech.add(list(row))
    return ech.int_rows()


def test_rref_canonical():
    # one basis per subspace: primitive integer rows in reduced echelon form
    # with positive pivots
    assert _canonical([[2, 4], [1, 2]], 2) == _canonical([[-3, -6]], 2) == ((1, 2),)
    assert _canonical([[2, 1, 1], [0, 2, 1]], 3) == ((4, 0, 1), (0, 2, 1))


def test_rank_and_intersection():
    a = mat([[1, 0, 0], [0, 1, 0]])
    b = mat([[0, 1, 0], [0, 0, 1]])
    ia, ib = oracles.int_rows(a), oracles.int_rows(b)
    assert linalg.rank(ia) == 2
    assert oracles.dim_intersection(a, b) == 1
    assert linalg.rank(ia) + linalg.rank(ib) - linalg.rank(ia + ib) == 1
    inter = oracles.intersect_basis(a, b)
    assert inter == ((Fraction(0), Fraction(1), Fraction(0)),)
    assert oracles.intersect_basis(oracles.coordinate_rows((0, 1), 3), b) == inter


def test_kernel_basis():
    m = mat([[1, 2, 3]])
    ker = oracles.kernel_basis(m)
    assert len(ker) == 2
    for v in ker:
        assert oracles.mat_vec(m, v) == (Fraction(0),)


def test_char_poly_and_det():
    m = mat([[2, 1], [0, 3]])
    # det(xI - m) = x^2 - 5x + 6
    assert oracles.char_poly(m) == (Fraction(1), Fraction(-5), Fraction(6))
    assert oracles.det(m) == 6
    m3 = mat([[0, 1, 0], [0, 0, 1], [6, -11, 6]])
    coeffs = oracles.char_poly(m3)
    # constant term is (-1)^n det
    assert coeffs[-1] == (-1) ** 3 * oracles.det(m3)


def test_closure_idempotent():
    # one chain F(0) + F(1) + F(2): N sends e3 -> e2 -> e1 -> 0, and every
    # block is a level of its own
    spec = ModuleSpec(Config(p=2), (Family("F", 1, Fraction(0)),), (Summand("F", 0, 3),))
    real = realize_matrices(spec)
    e = oracles.int_rows(identity(3))
    closed = closure_rows(real, (e[2],))
    assert len(closed) == 3
    assert closure_rows(real, closed) == closed
    assert oracles.is_stable(closed, [real.phi, real.nmat])
    # nested groups: one closure per group, the same piece ids when a
    # group adds nothing
    lattice = StableLattice(real)
    groups = [(e[0],), (e[1],), (), (e[2],), (e[1],)]
    nested = lattice.closures(level_vectors(real, group) for group in groups)
    assert [lattice.dim(key) for key in nested] == [1, 2, 2, 3, 3]
    assert nested[2] == nested[1] and nested[4] == nested[3]
    assert lattice.int_rows(nested[4]) == closed


def test_p_valuation():
    assert oracles.p_valuation(Fraction(12), 2) == 2
    assert oracles.p_valuation(Fraction(3, 8), 2) == -3
    assert oracles.p_valuation(Fraction(5), 3) == 0
    with pytest.raises(ZeroDivisionError):
        oracles.p_valuation(Fraction(0), 2)


@settings(max_examples=40)
@given(st.lists(st.lists(frac, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_agrees_with_rref(rows):
    m = mat(rows)
    assert linalg.rank(oracles.int_rows(m)) == len(oracles.rref(m))


@settings(max_examples=30)
@given(
    st.lists(st.lists(frac, min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(st.lists(frac, min_size=4, max_size=4), min_size=1, max_size=3),
)
def test_intersection_dim_formula(a_rows, b_rows):
    a, b = mat(a_rows), mat(b_rows)
    inter = oracles.intersect_basis(a, b)
    assert len(inter) == oracles.dim_intersection(a, b)
    ia, ib = oracles.int_rows(a), oracles.int_rows(b)
    assert len(inter) == linalg.rank(ia) + linalg.rank(ib) - linalg.rank(ia + ib)
    for v in inter:
        assert oracles.in_span(oracles.rref(a), v)
        assert oracles.in_span(oracles.rref(b), v)
