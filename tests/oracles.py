"""Reference implementations the check suites compare the library against.

These are the direct, unoptimized forms of what the library computes with
its incremental echelon kernel and the eigen-level structure: full
Gauss-Jordan elimination, closure by re-reducing the whole stack for every
new vector, intersection through a left null space, generalized eigenspace
ranks via matrix powers, and saturation under all pairwise sums.  They
share no elimination code with `filtadm.linalg`, except the two earlier
forms of the transversality check, `violation_minors` and
`echelon_violation`, which run on its `Echelon`.  `emerton_scan` decides
the shuffle valuation condition by walking every top selection, where the
library solves a min-mass knapsack, and `candidate_table_fractions`
builds the report table of the shuffle condition from `Fraction`
valuations candidate by candidate, over the candidates of
`enumerate_candidates` (`gamma_blocks` with every shuffle and cut), where
the library sums scaled integer slopes over each shuffle's intervals.  `slope_chain`, `all_block_orders`
and `min_slope_per_dim` are the slope criteria in `Fraction` arithmetic,
block by block and through a block-by-dimension subset DP, where the
library scales the slopes to integers; all three oracles add up the
`block_slope` Fractions and never call `model.t_n` or `scaled_slopes`;
so does `good_t_n`, the t_N of one good subobject.

The intersection dimensions of the verify path are asked here once per
pair, on the coordinates of each good (`good_coords`), where the library
reads them off one echelon pass or its lattice of level pieces (and the
columns outside each good off the summand offsets): intersection
profiles and class keys good by good, from any rows, transversality tail
by tail (by one minor per good, the form before the one-echelon check,
and by that one-echelon check, `echelon_violation`, the form before the
scaled reduced form), tail dimensions by stacking, and aligned candidates by one
intersection per tail.  `class_subobjects` chooses and sorts the class
list on `Fraction` rows, where the library compares integer rows.
`lattice_route_report` is the ok verdict as it stood before all-chains
realizations were read off the good scan: the class list of the lattice
and one chain bound per class, on every realization.
`rref` gives the `Fraction` rows of a subspace, from any spanning rows;
`int_rows` scales rows to integers, and `canonical` gives the canonical
integer rows the library holds, as `int_rows` of the `rref` rows.
Hand-written subspaces reach the greedy flags through
`intersection_profile`.

The special-pair oracles are the `Fraction` forms of the clause check, the
weight solver, the index set and the pair generator, on the pair record
`SpecialPair`, where the library's integer core (`pairs._clause`,
`_solve`, `_omega` and `_draw_pair`) computes each over one integer
scale for the fuzzer.  `common_scale` puts rationals over that one
scale, so tests feed the same data to both.  The weighted comparison
`check_weighted_inequality` on given (m, n), which raises
`HypothesisError` on (m, n) outside its hypotheses, and the weight
generator `random_weight_pair` are the reference the library's exact
step test `pairs._step` is checked against.  The library has no
`Fraction` pair API.

The flag layer of the paper's weighted-sum lemma (greedy flags of stable
goods, their index sets and the special pairs read off them) lives here
as well: the library's verdict bounds t_H by chain certificates and never
builds a flag.  It checks and solves its pairs with the `Fraction`
oracles above.

The dense realization (`dense_realization`, `check_commutation_dense`,
`dense_level_operators`) builds Phi, N and the edge coupling E as
`Fraction` matrices entry by entry, checks N * Phi = p * Phi * N on them
and reads the level operators off them, where the library keeps sparse
integer columns and builds dense matrices only when read.

The determinant, characteristic polynomial, p-adic valuation, stability
test and dimension formulas check the realizations from outside: the
library itself never needs them.

The helpers at the end (induced jumps, the intersection-gain ratio, the
structural flag conditions, the level decomposition and the per-component
flag analysis with its index sets assembled over components) are not oracles but tools
only the tests use; they run on the library's kernel and the flag layer.
The per-component analysis restricts the full intersection profile to
each component's goods instead of splitting rows.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from filtadm import linalg
from filtadm.emerton import CANDIDATE_CAP, EmertonVerdict, _shuffles
from filtadm.filtration import (
    SINGULAR,
    AdmissibilityReport,
    Filtration,
    _chain_bound,
    _chain_steps,
    _class_row,
    _tail_dims,
)
from filtadm.frobenius import ConcreteRealization, ModificationEdge, _seeds
from filtadm.model import (
    CapExceededError,
    GoodSubobject,
    InternalConsistencyError,
    ModuleSpec,
    WeightProfile,
    fraction_to_str,
    validate_spec,
)
from filtadm.ordering import require_canonical, type_components
from filtadm.slopes import ChainVerdict
from filtadm.subobjects import (
    DEFAULT_CAP,
    RANDOM_ROUNDS,
    StableLattice,
    Subobject,
    _class_keys,
    _full,
    _pattern_vectors,
    _saturate,
    check_cap,
    random_round_subobjects,
    smallest_enclosing_good,
    stable_good_subobjects,
)

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)


def rref(rows: Iterable[Sequence[Fraction]]) -> Mat:
    """Gauss-Jordan reduced row echelon form with zero rows dropped."""
    work = [list(map(Fraction, r)) for r in rows]
    work = [r for r in work if any(x != 0 for x in r)]
    if not work:
        return ()
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c]
        if inv != 1:
            work[r] = [x / inv for x in work[r]]
        prow = work[r]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        r += 1
        if r == len(work):
            break
    work = [row for row in work if any(x != 0 for x in row)]
    return tuple(tuple(row) for row in work)


def int_rows(rows: Iterable[Sequence]) -> tuple[tuple[int, ...], ...]:
    """Each row times the lcm of its denominators, as ints: the same span.
    On `rref` rows this gives the canonical integer rows, primitive with
    positive pivots."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        out.append(tuple(int(x * scale) for x in row))
    return tuple(out)


def canonical(rows: Iterable[Sequence]) -> tuple[tuple[int, ...], ...]:
    """The canonical integer rows of the span of any rows: `rref`, scaled
    by `int_rows`."""
    return int_rows(rref(rows))


def block_slope(blk, config) -> Fraction:
    """The Newton slope F.t_base + twist * [K:Qp] of one block."""
    return blk.family.t_base + blk.twist * config.deg_K_Qp


def contains(g: GoodSubobject, f: GoodSubobject) -> bool:
    """Whether the good `g` contains the good `f`."""
    return all(a >= b for a, b in zip(g.counts, f.counts))


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zeros(n: int, m: int) -> Mat:
    return tuple(tuple(ZERO for _ in range(m)) for _ in range(n))


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1) if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in m)


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Fraction, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt) for row in a
    )


def in_span(basis: Mat, v: Vec) -> bool:
    """v lies in the row space of the canonical `basis`."""
    return len(rref(basis + (tuple(v),))) == len(basis)


def dim_sum(a: Mat, b: Mat) -> int:
    return len(rref(tuple(a) + tuple(b)))


def dim_intersection(a: Mat, b: Mat) -> int:
    """dim(rowspace(a) ∩ rowspace(b)); a and b need not be reduced."""
    return len(rref(a)) + len(rref(b)) - dim_sum(a, b)


def is_stable(basis: Mat, operators: Sequence[Mat]) -> bool:
    basis = rref(basis)
    return all(in_span(basis, mat_vec(op, v)) for op in operators for v in basis)


def det(a: Mat) -> Fraction:
    """Determinant by Gaussian elimination with row swaps, of a matrix of
    ints or Fractions."""
    n = len(a)
    work = [list(map(Fraction, row)) for row in a]
    sign = 1
    out = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            return ZERO
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            sign = -sign
        p = work[c][c]
        out *= p
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] / p
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return out * sign


def trace(a: Mat) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), ZERO)


def char_poly(a: Mat) -> tuple[Fraction, ...]:
    """Coefficients (c_0 .. c_n) of det(xI - a) = c_0 x^n + ... + c_n.

    Faddeev-LeVerrier recursion; exact over Fraction.
    """
    n = len(a)
    coeffs = [Fraction(1)]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = -trace(am) / k
        coeffs.append(c)
        m = tuple(
            tuple(am[i][j] + (c if i == j else ZERO) for j in range(n))
            for i in range(n)
        )
    return tuple(coeffs)


def p_valuation(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ZeroDivisionError("valuation of zero")
    v = 0
    num = abs(x.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def closure_under(vectors: Iterable[Vec], operators: Sequence[Mat]) -> Mat:
    """Smallest subspace containing `vectors` stable under every operator."""
    basis = rref(tuple(vectors))
    queue = list(basis)
    while queue:
        v = queue.pop()
        for op in operators:
            w = mat_vec(op, v)
            if not in_span(basis, w):
                basis = rref(basis + (w,))
                queue.append(w)
    return basis


def kernel_basis(m: Mat) -> Mat:
    """Basis (rows) of the right null space {x : m x = 0}."""
    if not m:
        return ()
    ncols = len(m[0])
    red = rref(m)
    pivots = []
    for row in red:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = Fraction(1)
        for i, pj in enumerate(pivots):
            v[pj] = -red[i][f]
        out.append(tuple(v))
    return tuple(out)


def intersect_basis(a: Mat, b: Mat) -> Mat:
    """Canonical basis of rowspace(a) ∩ rowspace(b), via the left null
    space of the stacked rows."""
    if not a or not b:
        return ()
    stacked = a + b
    combos = kernel_basis(tuple(zip(*stacked)))
    rows = []
    for z in combos:
        v = [ZERO] * len(a[0])
        for i in range(len(a)):
            if z[i] != 0:
                v = [x + z[i] * y for x, y in zip(v, a[i])]
        if any(x != 0 for x in v):
            rows.append(tuple(v))
    return rref(rows)


def coordinate_rows(coords: Sequence[int], n: int) -> Mat:
    return tuple(
        tuple(Fraction(1) if j == c else ZERO for j in range(n)) for c in coords
    )


def mat_pow(a: Mat, k: int) -> Mat:
    out = identity(len(a))
    base = a
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def dense_realization(
    spec: ModuleSpec, edges: tuple[ModificationEdge, ...] = ()
) -> tuple[Mat, Mat, Mat]:
    """(Phi, N, E) of `realize_matrices` as dense Fraction matrices, on the
    same family seeds, built entry by entry with the same refusals and
    checked by `check_commutation_dense`."""
    for fam in spec.families:
        if fam.h != 1:
            raise ValueError("concrete layer requires h=1")
    seeds = _seeds(spec)
    basis = tuple(spec.blocks())
    n = len(basis)
    p = spec.config.p
    lams = [seeds[blk.family.id] * Fraction(p) ** blk.twist for blk in basis]
    index = {(blk.summand, blk.k): i for i, blk in enumerate(basis)}
    phi = [[Fraction(0)] * n for _ in range(n)]
    nmat = [[Fraction(0)] * n for _ in range(n)]
    coupling = [[Fraction(0)] * n for _ in range(n)]
    edge_by_src = {e.src: e for e in edges}
    for j, blk in enumerate(basis):
        lam = lams[j]
        phi[j][j] = lam
        e = edge_by_src.get(blk.summand)
        if e is not None and blk.k >= e.alignment:
            tgt = index[(e.dst, blk.k - e.alignment)]
            if lams[tgt] != lam:
                raise ValueError(f"edge {e} couples blocks of different eigenvalues")
            phi[tgt][j] = lam
            coupling[tgt][j] = Fraction(1)
        if blk.k > 0:
            below = index[(blk.summand, blk.k - 1)]
            nmat[below][j] = Fraction(1)
    phi_m = tuple(tuple(row) for row in phi)
    nmat_m = tuple(tuple(row) for row in nmat)
    check_commutation_dense(phi_m, nmat_m, p)
    return phi_m, nmat_m, tuple(tuple(row) for row in coupling)


def check_commutation_dense(phi: Mat, nmat: Mat, p: int) -> None:
    """Raise RuntimeError unless N * Phi = p * Phi * N, column by column,
    with each product applied through the nonzero entries only."""
    n = len(phi)
    phi_cols = sparse_columns(phi)
    n_cols = sparse_columns(nmat)
    scale = Fraction(p)
    for j in range(n):
        lhs = apply_columns(n_cols, [row[j] for row in phi])
        rhs = apply_columns(phi_cols, [row[j] for row in nmat])
        for x, y in zip(lhs, rhs):
            if (x or y) and x != scale * y:
                raise RuntimeError("realization violates N*Phi = p*Phi*N")


def sparse_columns(op: Mat) -> list[list[tuple[int, int | Fraction]]]:
    """Nonzero entries of each column of `op`, as (row, value) pairs; an
    integral value is held as an int."""
    cols: list[list[tuple[int, int | Fraction]]] = [[] for _ in op[0]] if op else []
    for i, row in enumerate(op):
        for j, a in enumerate(row):
            if a:
                if type(a) is not int and a.denominator == 1:
                    a = a.numerator
                cols[j].append((i, a))
    return cols


def apply_columns(cols: list[list[tuple[int, int | Fraction]]], v: Sequence) -> list:
    """The product of the operator given by `sparse_columns` with `v`."""
    w = [0] * len(cols)
    for j, x in enumerate(v):
        if x:
            for i, a in cols[j]:
                w[i] += a * x
    return w


def dense_level_operators(levels, coupling: Mat, nmat: Mat) -> tuple:
    """`ConcreteRealization.level_operators` read off dense E and N: per
    level, each operator as (target level, integer columns in level
    coordinates), or None where zero, with the same refusals."""
    level_of = [(0, 0)] * len(coupling)
    for k, coords in enumerate(levels):
        for pos, i in enumerate(coords):
            level_of[i] = (k, pos)
    ops = [(name, sparse_columns(mat)) for name, mat in (("coupling", coupling), ("N", nmat))]
    out = []
    for level, coords in enumerate(levels):
        pair = []
        for name, cols in ops:
            block = [cols[j] for j in coords]
            targets = {level_of[i][0] for col in block for i, _ in col}
            if len(targets) > 1 or (name == "coupling" and targets - {level}):
                raise RuntimeError(
                    f"{name} sends level {level} into levels {sorted(targets)}"
                )
            local = tuple(
                tuple((level_of[i][1], a) for i, a in col) for col in block
            )
            pair.append((targets.pop(), local) if targets else None)
        out.append(tuple(pair))
    return tuple(out)


def restriction(realization, rows: Mat) -> Mat:
    """Matrix of Phi on a Phi-stable row space given by an RREF basis."""
    pivots = []
    for row in rows:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    images = tuple(mat_vec(realization.phi, v) for v in rows)
    return tuple(tuple(img[j] for j in pivots) for img in images)


def eigenvalue(realization, blk) -> Fraction:
    """The Phi-eigenvalue a_F * p^twist of a block."""
    return realization.seeds[blk.family.id] * Fraction(realization.spec.config.p) ** blk.twist


def eigen_levels(realization) -> dict[Fraction, list[int]]:
    """Generalized-eigenvalue classes as basis index groups, in basis
    order."""
    return {
        eigenvalue(realization, realization.basis[g[0]]): list(g)
        for g in realization.levels
    }


def eigen_multiplicities(realization, rows: Mat) -> list[tuple[str, int, int]]:
    """(family id, twist, multiplicity) from the ranks of
    (Phi|W - lambda)^r, over the distinct eigenvalues in basis order."""
    rows = rref(rows)
    r = len(rows)
    if r == 0:
        return []
    restr = restriction(realization, rows)
    out = []
    seen = set()
    for blk in realization.basis:
        lam = eigenvalue(realization, blk)
        if lam in seen:
            continue
        seen.add(lam)
        shifted = mat_sub(restr, mat_scale(lam, identity(r)))
        mult = r - len(rref(mat_pow(shifted, r)))
        if mult:
            out.append((blk.family.id, blk.twist, mult))
    if sum(m for _, _, m in out) != r:
        raise RuntimeError("eigenvalue multiplicities do not fill the subspace")
    return out


def newton_slope(realization, rows: Mat) -> Fraction:
    """t_N of a stable subspace from its generalized eigenspace
    multiplicities: each counts the slope of a block at its twist."""
    spec = realization.spec
    return sum(
        (mult * (spec.family(fid).t_base + twist * spec.config.deg_K_Qp)
         for fid, twist, mult in eigen_multiplicities(realization, rows)),
        Fraction(0),
    )


def saturate_all_pairs(rows: Iterable[Mat]) -> set[Mat]:
    """Closure of a set of canonical bases under sums of every two members."""
    subs = set(rows)
    queue = list(subs)
    while queue:
        x = queue.pop()
        for y in list(subs):
            s = rref(x + y)
            if s not in subs:
                subs.add(s)
                queue.append(s)
    return subs


def block_slope_sum(spec: ModuleSpec, blocks=None) -> Fraction:
    """t_N as the Fraction sum of `block_slope` over `blocks` (all blocks
    of the spec by default)."""
    blocks = spec.blocks() if blocks is None else blocks
    return sum((block_slope(blk, spec.config) for blk in blocks), Fraction(0))


def good_t_n(spec: ModuleSpec, good: GoodSubobject) -> Fraction:
    """t_N of a good subobject: `block_slope_sum` over the bottom
    good.counts[i] blocks of each summand i."""
    return block_slope_sum(spec, [b for b in spec.blocks() if b.k < good.counts[b.summand]])


def chain_verdict(
    spec: ModuleSpec,
    profile: WeightProfile,
    points: list[tuple[int, int, Fraction]],
) -> ChainVerdict:
    """Verdict from (prefix key, dimension, slope sum) points, one per
    proper prefix: each slack is the slope sum minus [K:L] times the
    lowest-dimension weight sum, and the first negative one fails."""
    k_l = spec.config.deg_K_L
    slacks = []
    first_fail = None
    for key, dim, slope_sum in points:
        slack = slope_sum - k_l * profile.prefix_sum(dim)
        slacks.append((key, slack))
        if slack < 0 and first_fail is None:
            first_fail = key
    gap = block_slope_sum(spec) - k_l * profile.total
    if first_fail is not None:
        return ChainVerdict(False, "prefix", first_fail, tuple(slacks), gap)
    if gap != 0:
        return ChainVerdict(False, "equality", None, tuple(slacks), gap)
    return ChainVerdict(True, None, None, tuple(slacks), gap)


def slope_chain(spec: ModuleSpec, profile: WeightProfile) -> ChainVerdict:
    """`slopes.check_slope_chain` in Fraction arithmetic."""
    validate_spec(spec, profile)
    require_canonical(spec)
    blocks = spec.blocks()
    points = []
    dim = 0
    slope_sum = Fraction(0)
    for k in range(1, len(spec.summands)):
        dim += spec.summands[k - 1].b * spec.family_of(k - 1).h
        slope_sum += block_slope_sum(spec, [b for b in blocks if b.summand == k - 1])
        points.append((k, dim, slope_sum))
    return chain_verdict(spec, profile, points)


def min_slope_per_dim(spec: ModuleSpec) -> dict[int, Fraction]:
    """For each achievable block-subset dimension, the minimal total slope,
    by a DP over the blocks and the reachable dimensions."""
    best: dict[int, Fraction] = {0: Fraction(0)}
    for blk in spec.blocks():
        step = block_slope(blk, spec.config)
        size = blk.family.h
        for d in sorted(best, reverse=True):
            cand = best[d] + step
            cur = best.get(d + size)
            if cur is None or cand < cur:
                best[d + size] = cand
    return best


def all_block_orders(spec: ModuleSpec, profile: WeightProfile) -> ChainVerdict:
    """`slopes.check_all_block_orders` in Fraction arithmetic."""
    validate_spec(spec, profile)
    require_canonical(spec)
    best = min_slope_per_dim(spec)
    points = [(m, m, best[m]) for m in sorted(best) if 0 < m < spec.dimension]
    return chain_verdict(spec, profile, points)


@dataclass(frozen=True)
class GammaBlock:
    origin: int          # summand index
    j: int               # position inside the summand, 0-based
    size: int            # dimension h of the underlying family
    v: Fraction          # valuation of the block's central character at p


@dataclass(frozen=True)
class Candidate:
    order: tuple[GammaBlock, ...]
    group_sizes: tuple[int, ...]    # blocks per group, sums to len(order)

    @property
    def beta(self) -> tuple[int, ...]:
        dims = []
        pos = 0
        for g in self.group_sizes:
            dims.append(sum(b.size for b in self.order[pos : pos + g]))
            pos += g
        return tuple(dims)

    def groups(self) -> list[tuple[GammaBlock, ...]]:
        out = []
        pos = 0
        for g in self.group_sizes:
            out.append(self.order[pos : pos + g])
            pos += g
        return out


def gamma_blocks(spec: ModuleSpec) -> list[tuple[GammaBlock, ...]]:
    """Per summand, the descending gamma-block sequence."""
    cfg = spec.config
    out = []
    for i, s in enumerate(spec.summands):
        fam = spec.family_of(i)
        seq = []
        for j in range(s.b):
            twist = s.l + s.b - 1 - j
            tn_block = fam.t_base + twist * cfg.deg_K_Qp
            seq.append(GammaBlock(i, j, fam.h, tn_block / cfg.deg_K_L))
        out.append(tuple(seq))
    return out


def _candidates(spec: ModuleSpec, dedup: bool):
    """Candidates in enumeration order, generated lazily; the canonical
    order and the cap are checked before the first one."""
    require_canonical(spec)
    seqs = gamma_blocks(spec)
    b = sum(len(s) for s in seqs)
    if b > CANDIDATE_CAP:
        raise CapExceededError(f"{b} blocks exceed the candidate cap {CANDIDATE_CAP}")
    seen = set()
    for order in _shuffles(seqs):
        for cut_mask in itertools.product((False, True), repeat=b - 1):
            sizes = []
            run = 1
            for cut in cut_mask:
                if cut:
                    sizes.append(run)
                    run = 1
                else:
                    run += 1
            sizes.append(run)
            cand = Candidate(order, tuple(sizes))
            if dedup:
                key = tuple(
                    tuple(sorted((blk.v, blk.size) for blk in grp))
                    for grp in cand.groups()
                )
                if key in seen:
                    continue
                seen.add(key)
            yield cand


def enumerate_candidates(
    spec: ModuleSpec, dedup: bool = True
) -> list[Candidate]:
    """All shuffles of the summand sequences with all contiguous cuts.

    Duplicates agreeing in group-size sequence and per-group block multiset
    are removed unless dedup is False.  Capped at 10 total blocks.
    """
    return list(_candidates(spec, dedup))


def emerton_scan(spec: ModuleSpec, profile: WeightProfile) -> EmertonVerdict:
    """Unitarity plus prefix domination over every candidate.

    A candidate prefix takes the top j_i gamma blocks of each summand, so
    the scan runs over the selections (j_1, ..., j_s) in lexicographic
    order and reports the first violating one.
    """
    validate_spec(spec, profile)
    require_canonical(spec)
    cfg = spec.config
    gap = block_slope_sum(spec) - Fraction(cfg.deg_K_L * profile.total)
    if gap != 0:
        return EmertonVerdict(False, "unitarity", None, None, gap)
    seqs = gamma_blocks(spec)
    prefix_v = []
    for seq in seqs:
        acc = [Fraction(0)]
        for blk in seq:
            acc.append(acc[-1] + blk.v)
        prefix_v.append(acc)
    sizes = [spec.family_of(i).h for i in range(len(spec.summands))]
    ranges = [range(len(seq) + 1) for seq in seqs]
    for selection in itertools.product(*ranges):
        total_blocks = sum(selection)
        if total_blocks == 0 or total_blocks == sum(len(s) for s in seqs):
            continue
        weight_count = sum(j * sz for j, sz in zip(selection, sizes))
        lhs = sum(
            (prefix_v[i][j] for i, j in enumerate(selection)), Fraction(0)
        )
        slack = lhs - profile.prefix_sum(weight_count)
        if slack < 0:
            return EmertonVerdict(False, "prefix", tuple(selection), slack, gap)
    return EmertonVerdict(True, None, None, None, gap)


def candidate_table_fractions(
    spec: ModuleSpec, profile: WeightProfile, limit: int = 50
) -> list[dict]:
    """Per-candidate minimal prefix slack, for reporting."""
    rows = []
    for cand in _candidates(spec, dedup=True):
        if len(rows) >= limit:
            break
        acc_v = Fraction(0)
        acc_w = 0
        min_slack = None
        pos = 0
        for g in cand.group_sizes[:-1]:
            grp = cand.order[pos : pos + g]
            pos += g
            acc_v += sum((b.v for b in grp), Fraction(0))
            acc_w += sum(b.size for b in grp)
            slack = acc_v - profile.prefix_sum(acc_w)
            if min_slack is None or slack < min_slack:
                min_slack = slack
        rows.append(
            {
                "beta": list(cand.beta),
                "order": [[b.origin, b.j] for b in cand.order],
                "minSlack": fraction_to_str(min_slack)
                if min_slack is not None
                else None,
            }
        )
    return rows


def good_coords(spec: ModuleSpec, good: GoodSubobject) -> tuple[int, ...]:
    """Basis indices of the included blocks (h = 1 block layout)."""
    coords = []
    pos = 0
    for i, s in enumerate(spec.summands):
        h = spec.family_of(i).h
        if h != 1:
            raise ValueError("coordinate layout requires h=1")
        coords.extend(range(pos, pos + good.counts[i]))
        pos += s.b
    return tuple(coords)


def dim_intersection_coords(coords: Sequence[int], b: Mat, n: int) -> int:
    """dim(span(e_i : i in coords) ∩ rowspace(b)) as rank b minus the rank
    of its projection onto the other coordinates."""
    others = [j for j in range(n) if j not in set(coords)]
    proj = tuple(tuple(row[j] for j in others) for row in b)
    return len(rref(b)) - len(rref(proj))


def intersection_profile(spec: ModuleSpec, rows: Mat, edges=()) -> dict:
    """dim(E ∩ W) keyed by every stable good E, one intersection each."""
    n = spec.dimension
    return {
        g: dim_intersection_coords(good_coords(spec, g), rows, n)
        for g in stable_good_subobjects(spec, edges)
    }


def class_key(realization, rows: Mat) -> tuple:
    """(rank, dim(E ∩ W) for every stable good E), one intersection each."""
    profile = intersection_profile(realization.spec, rows, realization.edges)
    return len(rref(rows)), tuple(profile.values())


def violation(spec: ModuleSpec, basis: Mat, goods):
    """The first good some tail meets in a non-generic dimension, or
    `filtration.SINGULAR` for a basis not of full rank."""
    n = spec.dimension
    if len(rref(basis)) != n:
        return SINGULAR
    for good in goods:
        m = good.dimension(spec)
        if m in (0, n):
            continue
        coords = good_coords(spec, good)
        for j in range(2, n + 1):
            if dim_intersection_coords(coords, basis[j - 1:], n) != max(0, m - j + 1):
                return good
    return None


def violation_minors(basis: Mat, layout) -> GoodSubobject | str | None:
    """The first good of `layout` (from `filtration._good_layout`) the basis
    is not transverse to, SINGULAR when the basis is not of full rank, or
    None: one full-rank check of rows m+1..n on the columns outside each
    good, a separate elimination per good.  This is the per-good form of
    `filtration._violation`, which reads every minor off one scaled
    reduced form; its ranks run on the library's `Echelon`, on the minors
    themselves."""
    n = len(basis)
    if linalg.rank(basis) != n:
        return SINGULAR
    for good, m, outside in layout:
        minor = tuple(tuple(row[c] for c in outside) for row in basis[m:])
        if linalg.rank(minor) != n - m:
            return good
    return None


def echelon_violation(
    basis, layout: list[tuple[GoodSubobject, int, list[int]]]
) -> GoodSubobject | str | None:
    """The first good of `layout` (from `_good_layout`) the integer basis is
    not transverse to, SINGULAR when the basis is not of full rank, or
    None.

    The one-echelon form `filtration._violation` had before it read the
    minors off a scaled reduced form: it reads out the canonical rows
    and their pivots after every row of the basis.

    A good of dimension m is transverse iff R = RREF(rows m+1..n) has full
    rank on the columns outside it, which one t x t matrix decides (see
    the `filtration` module docstring).
    """
    n = len(basis)
    ech = linalg.Echelon(n)
    # pivots[m] and reduced[m]: RREF(rows m+1..n), for 0 < m < n
    pivots: list = [()] * n
    reduced: list = [()] * n
    for m in range(n - 1, -1, -1):
        if ech.add(list(basis[m])) is None:
            return SINGULAR
        if m:
            reduced[m] = ech.int_rows()
            pivots[m] = tuple(next(c for c, x in enumerate(r) if x) for r in reduced[m])
    for good, m, outside in layout:
        piv = pivots[m]
        rows = [row for p, row in zip(piv, reduced[m]) if p not in outside]
        if not rows:
            continue
        cols = [c for c in outside if c not in piv]
        if len(cols) == 1:
            ok = rows[0][cols[0]] != 0
        elif len(cols) == 2:
            (a, b), (c, d) = ([row[k] for k in cols] for row in rows)
            ok = a * d != b * c
        else:
            ok = linalg.rank([[row[k] for k in cols] for row in rows]) == len(cols)
        if not ok:
            return good
    return None


def class_subobjects(
    realization: ConcreteRealization,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    lattice: StableLattice | None = None,
) -> tuple[Subobject, ...]:
    """The class list of `enumerate_concrete_subobjects`, chosen and sorted
    on `Fraction` rows: the canonical rows of every saturated key are
    built, sorted by (rank, negative entries, rows), the first of each
    class is kept and the kept ones are sorted by (rank, rows), where the
    library groups the keys by class first and compares integer rows."""
    check_cap(realization.dimension, cap)
    lattice = lattice or StableLattice(realization)
    keys = [lattice.zero, *lattice.good_keys]
    for level, coords in enumerate(realization.levels):
        keys += [lattice.closure(level, v) for v in _pattern_vectors(len(coords))]
    base = [Subobject(lattice.int_rows(key), key) for key in _saturate(lattice, keys)]
    # one representative per relative-position class, preferring bases
    # without negative entries, then the smallest canonical basis
    def rep_key(s: Subobject):
        negatives = sum(
            x < 0 for level, pid in enumerate(s.key)
            for row in lattice.piece(level, pid) for x in row
        )
        return (s.rank, negatives, rref(s.rows))

    by_class: dict[tuple, Subobject] = {}
    for sub in sorted(base, key=rep_key):
        by_class.setdefault((sub.rank, lattice.good_dims(sub.key)), sub)
    result = sorted(by_class.values(), key=lambda s: (s.rank, rref(s.rows)))
    rng = random.Random(seed)
    for _ in range(RANDOM_ROUNDS):
        for key in random_round_subobjects(lattice, rng):
            if (lattice.dim(key), lattice.good_dims(key)) not in by_class:
                raise InternalConsistencyError(
                    "random-coefficient round found a new subobject class"
                )
    return tuple(result)


def lattice_route_report(
    realization: ConcreteRealization, profile: WeightProfile, seed: int = 0
) -> AdmissibilityReport | None:
    """The ok report `check_admissible` gave an item past its good scan
    before all-chains realizations were read off the scan: the class list
    of a `StableLattice` (the stable good spans where every level is a
    chain, the pattern route audited from `seed` where not), one chain
    bound per class over the cover pairs of the stable goods, and the
    table in class order.  None where some class does not certify, so that the verdict
    goes on to the search, which both routes share."""
    lattice = StableLattice(realization)
    steps = _chain_steps(lattice, profile)
    den = realization.level_slopes[1]
    kl = realization.spec.config.deg_K_L
    table = []
    for key in _class_keys(lattice, seed):
        dim = lattice.dim(key)
        if dim in (0, realization.dimension):
            continue
        scaled = lattice.scaled_t_n(key)
        bound = kl * _chain_bound(steps, lattice.good_dims(key))
        if bound * den > scaled:
            return None
        table.append(_class_row(dim, scaled, den, bound))
    return AdmissibilityReport(True, None, None, tuple(table), "certificate")


def tail_dims(filtration, sigma: int, rows: Mat) -> list[int]:
    """dim(W ∩ T_j) for j = 1..n from the rank of W and T_j stacked, then 0."""
    r = len(rref(rows))
    dims = []
    for j in range(1, filtration.dimension + 1):
        tail = filtration.bases[sigma][j - 1:]
        dims.append(r + len(tail) - len(rref(tuple(rows) + tuple(tail))))
    return dims + [0]


def aligned_candidates(spec: ModuleSpec, realization, filtration) -> list[Mat]:
    """Canonical bases of the closures of E ∩ T_j, one intersection per
    tail, in the order good, embedding, j."""
    n = spec.dimension
    ops = (realization.phi, realization.nmat)
    out = []
    for good in spec.goods:
        m = good.dimension(spec)
        if m == 0:
            continue
        coords = coordinate_rows(good_coords(spec, good), n)
        for sigma in range(spec.config.embeddings):
            for j in range(2, n + 1):
                want = max(0, m - j + 1)
                if want == 0 or want >= m:
                    continue
                inter = intersect_basis(coords, filtration.bases[sigma][j - 1:])
                if inter:
                    out.append(closure_under(inter, ops))
    return out


def chain_bound(spec: ModuleSpec, profile: WeightProfile, inter: dict) -> int:
    """[K:L] times the sum over sigma of the least chain bound of D', over
    every chain of stable goods: a shortest path in which any stable good
    E may step to any stable good E' strictly containing it, at the cost
    of the top c weights among the lowest dim E' of sigma, c the growth of
    dim(E ∩ D') given by the profile `inter` (keyed by the stable goods)."""
    goods = sorted(inter, key=lambda g: g.dimension(spec))
    total = 0
    for weights in profile.weights:
        dist = {goods[0]: 0}
        for g in goods[1:]:
            e = g.dimension(spec)
            dist[g] = min(
                dist[f] + sum(sorted(weights[:e])[e - (inter[g] - inter[f]):])
                for f in goods
                if f in dist and f != g and contains(g, f)
            )
        total += dist[goods[-1]]
    return spec.config.deg_K_L * total


# ---------------------------------------------------------------------------
# Special pairs in `Fraction` arithmetic, entry by entry, where the library
# puts a pair, a weight pair or t_1 over one integer scale.  The generators
# make the same `rng` calls in the same order as the library's.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialPair:
    a: tuple[Fraction, ...]            # length k + 2
    c: tuple[Fraction, ...]            # length k
    t: tuple[Fraction, ...] = ()       # solved, length k
    r: Fraction | None = None
    vacuous: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        object.__setattr__(self, "c", tuple(Fraction(x) for x in self.c))
        object.__setattr__(self, "t", tuple(Fraction(x) for x in self.t))

    @property
    def k(self) -> int:
        return len(self.c)

    @property
    def total(self) -> Fraction:
        return sum(self.a, ZERO)

    def solved(self) -> "SpecialPair":
        t, r = solve_t(self)
        return SpecialPair(self.a, self.c, t, r, self.vacuous)

    @staticmethod
    def empty() -> "SpecialPair":
        return SpecialPair((), (), (), ZERO, vacuous=True)


@dataclass(frozen=True)
class WeightedResult:
    holds: bool
    lhs: Fraction
    rhs: Fraction


def common_scale(*seqs: Sequence) -> tuple[list[list[int]], int]:
    """Each sequence of rationals times the lcm s of all their
    denominators, and s: the one integer scale the library's pair core
    (`pairs._clause`, `_solve`) reads."""
    seqs = [[Fraction(x) for x in seq] for seq in seqs]
    scale = math.lcm(*(x.denominator for seq in seqs for x in seq))
    return [[x.numerator * (scale // x.denominator) for x in seq] for seq in seqs], scale



def is_special(a: Sequence, c: Sequence) -> tuple[bool, str | None]:
    a = [Fraction(x) for x in a]
    c = [Fraction(x) for x in c]
    k = len(c)
    if len(a) != k + 2:
        raise ValueError("length mismatch: need len(a) == len(c) + 2")
    if a[0] <= 0 or any(x < 0 for x in a):
        return False, "i"
    for i in range(1, k + 1):
        if not (0 < c[i - 1] <= a[i]):
            return False, "i"
    cf = [a[0], *c, ZERO]
    for i in range(0, k + 1):
        if cf[i] * a[i + 1] < cf[i + 1] * a[i]:
            return False, "ii"
    if k >= 1:
        if a[0] < max(c):
            return False, "iii"
        if a[k + 1] < max(a[i] - c[i - 1] for i in range(1, k + 1)):
            return False, "iii"
    return True, None


def solve_t(pair: SpecialPair) -> tuple[tuple[Fraction, ...], Fraction]:
    """Minimal-r weights, t_1 as the largest num_l / den_l, post-conditions
    on the running sums of t."""
    if pair.vacuous:
        return (), ZERO
    ok, clause = is_special(pair.a, pair.c)
    if not ok:
        raise ValueError(f"pair is not special (clause {clause})")
    a, c = pair.a, pair.c
    k = pair.k
    if k == 0:
        return (), ZERO
    cf = [a[0], *c, ZERO]
    t1 = ZERO
    for l in range(1, k + 1):
        num = sum((a[i] - c[i - 1] for i in range(1, l + 1)), ZERO)
        den = 1 + sum(c[: l - 1], ZERO) / a[0]
        t1 = max(t1, num / den)
    t = tuple(t1 * cf[i - 1] / a[0] for i in range(1, k + 1))
    r = t1 / a[0]
    acc_t = acc_d = ZERO
    for l in range(1, k + 1):
        acc_t += t[l - 1]
        acc_d += a[l] - c[l - 1]
        if acc_t < acc_d:
            raise InternalConsistencyError("solve_t prefix condition failed")
    if acc_t - acc_d + r * c[k - 1] > a[k + 1]:
        raise InternalConsistencyError("solve_t closing condition failed")
    return t, r


def omega_of_pair(pair: SpecialPair) -> frozenset[int]:
    if pair.vacuous:
        return frozenset()
    cf = [pair.a[0], *pair.c, ZERO]
    if any(x.denominator != 1 for x in pair.a) or any(x.denominator != 1 for x in cf):
        raise ValueError("omega needs integer pair entries")
    out = set()
    acc = 0
    for i, ai in enumerate(pair.a):
        acc += int(ai)
        out.update(range(acc - int(cf[i]) + 1, acc + 1))
    return frozenset(out)


class HypothesisError(ValueError):
    """Raised when (m, n) violate the hypotheses of the weighted inequality."""


def check_weighted_inequality(omega, m: Sequence, n: Sequence) -> WeightedResult:
    if isinstance(omega, SpecialPair):
        omega = omega_of_pair(omega)
    m = [Fraction(x) for x in m]
    n = [Fraction(x) for x in n]
    if len(m) != len(n):
        raise HypothesisError("m and n must have equal length")
    for name, seq in (("m", m), ("n", n)):
        if any(seq[i] > seq[i + 1] for i in range(len(seq) - 1)):
            raise HypothesisError(f"{name} is not nondecreasing")
    for i in range(len(m) - 1):
        if m[i + 1] - m[i] < n[i + 1] - n[i]:
            raise HypothesisError("m increments must dominate n increments")
    if sum(m, ZERO) > sum(n, ZERO):
        raise HypothesisError("sum m must not exceed sum n")
    if any(j < 1 or j > len(m) for j in omega):
        raise HypothesisError("omega indices out of range")
    lhs = sum((m[j - 1] for j in omega), ZERO)
    rhs = sum((n[j - 1] for j in omega), ZERO)
    return WeightedResult(lhs <= rhs, lhs, rhs)


def random_special_pair(
    rng: random.Random, max_k: int = 4, integer: bool = False
) -> SpecialPair:
    for _ in range(10_000):
        k = rng.randint(0, max_k)
        a_mid: list[Fraction] = []
        c_mid: list[Fraction] = []
        for _ in range(k):
            if integer:
                ai = Fraction(rng.randint(1, 6))
                ci = Fraction(rng.randint(1, int(ai)))
            else:
                ai = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 4)))
                ci = ai * Fraction(rng.randint(1, 4), 4)
            a_mid.append(ai)
            c_mid.append(ci)
        ratios = [c / a for c, a in zip(c_mid, a_mid)]
        if any(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1)):
            continue
        if integer:
            pad0 = Fraction(rng.randint(0, 3))
            pad1 = Fraction(rng.randint(0, 3))
        else:
            pad0 = Fraction(rng.randint(0, 6), 2)
            pad1 = Fraction(rng.randint(0, 6), 2)
        a0 = max(c_mid, default=ZERO) + pad0
        if a0 <= 0:
            a0 = Fraction(rng.randint(1, 4))
        a_last = max((a - c for a, c in zip(a_mid, c_mid)), default=ZERO) + pad1
        pair = SpecialPair((a0, *a_mid, a_last), tuple(c_mid))
        if is_special(pair.a, pair.c)[0]:
            return pair
    raise RuntimeError("failed to sample a special pair")


def random_weight_pair(
    rng: random.Random, length: int
) -> tuple[list[Fraction], list[Fraction]]:
    n0 = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    n = [n0]
    m = [n0 + Fraction(rng.randint(-4, 2), rng.choice((1, 2)))]
    for _ in range(length - 1):
        dn = Fraction(rng.randint(0, 3), rng.choice((1, 2)))
        extra = Fraction(rng.randint(0, 3), rng.choice((1, 2)))
        n.append(n[-1] + dn)
        m.append(m[-1] + dn + extra)
    excess = sum(m, ZERO) - sum(n, ZERO)
    if excess > 0:
        shift = excess / length + Fraction(rng.randint(0, 2))
        m = [x - shift for x in m]
    return m, n


# ---------------------------------------------------------------------------
# The flag layer of the paper's weighted-sum lemma.  The greedy flag of D'
# repeatedly extends by the stable good maximizing the intersection-gain
# ratio
#
#     alpha(E'/E, D') = (dim E' cap D' - dim E cap D') / (dim E' - dim E),
#
# breaking ties toward the smallest step and then the lexicographically
# smallest count vector.  Its jump data give the special pair, its
# trailing intervals the index set bounding t_H(D').  All of them read D'
# as its intersection profile and do no linear algebra.  The verdict
# bounds t_H by chain certificates instead, so only the tests build
# flags.  `good_span` gives the rows of a good, `good_profile` the profile
# of a block-aligned D'.
# ---------------------------------------------------------------------------


class SpecialPairViolation(InternalConsistencyError):
    """Flag jump data violating the special-pair conditions.

    Carries the offending clause and the raw (a, c) data; the only
    configuration known to reach this is the hull-at-the-top boundary
    (smallest enclosing good = whole module, so a_{k+1} = 0, while a final
    mixed step leaves max(a_i - c_i) positive).
    """

    def __init__(self, clause: str, a: tuple[Fraction, ...], c: tuple[Fraction, ...]):
        super().__init__(
            f"flag jump data violate the special-pair conditions "
            f"(clause {clause}; a={tuple(map(str, a))}, c={tuple(map(str, c))})"
        )
        self.clause = clause
        self.a = a
        self.c = c


@dataclass(frozen=True)
class GoodFlag:
    """Strictly increasing chain of good subobjects below the full module.

    `alphas` has one entry per step of the extended chain
    0 -> E_1 -> ... -> E_m -> D (so len(alphas) == len(members) + 1).
    """

    members: tuple[GoodSubobject, ...]
    alphas: tuple[Fraction, ...]


def good_span(spec: ModuleSpec, good: GoodSubobject) -> Mat:
    n = spec.dimension
    rows = []
    for c in good_coords(spec, good):
        row = [Fraction(0)] * n
        row[c] = Fraction(1)
        rows.append(tuple(row))
    return tuple(rows)


def good_profile(
    spec: ModuleSpec, dprime: GoodSubobject, edges: Sequence[ModificationEdge] = ()
) -> dict[GoodSubobject, int]:
    """Intersection profile of a block-aligned D': dim(E cap D') =
    sum_i min(c_i, c'_i) h_i for every stable good E."""
    hs = [spec.family_of(i).h for i in range(len(spec.summands))]
    return {
        g: sum(min(a, b) * h for a, b, h in zip(g.counts, dprime.counts, hs))
        for g in stable_good_subobjects(spec, edges)
    }


def greedy_flag(
    spec: ModuleSpec,
    profile: Mapping[GoodSubobject, int],
    rng: random.Random | None = None,
) -> GoodFlag:
    """Greedy flag for D' inside a single same-type component.

    D' enters through its intersection profile (see `filtadm.subobjects`).  With `rng`, residual ties between steps of equal
    (alpha, dim) are broken at random; the resulting (dims, alpha
    sequence) is an invariant of D'.
    """
    if len(type_components(spec)) != 1:
        raise ValueError("greedy flag is defined per same-type component")
    full = _full(spec)
    current = GoodSubobject(tuple(0 for _ in spec.summands))
    members: list[GoodSubobject] = []
    alphas: list[Fraction] = []
    inter_cur = 0
    dim_cur = 0
    while current != full:
        best_key = None
        best: list[GoodSubobject] = []
        for g, inter in profile.items():
            if g == current or not contains(g, current):
                continue
            dg = g.dimension(spec)
            alpha = Fraction(inter - inter_cur, dg - dim_cur)
            key = (-alpha, dg - dim_cur)
            if best_key is None or key < best_key:
                best_key, best = key, [g]
            elif key == best_key:
                best.append(g)
        if rng is not None and len(best) > 1:
            choice = rng.choice(best)
        else:
            choice = min(best, key=lambda g: g.counts)
        alphas.append(-best_key[0])
        current = choice
        dim_cur = current.dimension(spec)
        inter_cur = profile[current]
        if current != full:
            members.append(current)
    return GoodFlag(tuple(members), tuple(alphas))


def flag_chain(spec: ModuleSpec, flag: GoodFlag) -> tuple[GoodSubobject, ...]:
    """The extended chain 0 = E_0 < E_1 < ... < E_m < E_{m+1} = D."""
    zero = GoodSubobject(tuple(0 for _ in spec.summands))
    return (zero, *flag.members, _full(spec))


def omega_from_flag(
    spec: ModuleSpec,
    flag: GoodFlag,
    profile: Mapping[GoodSubobject, int],
) -> frozenset[int]:
    """Trailing-interval index set of the extended chain of a greedy flag.

    For each chain member E_l the interval (dim E_l - c_l, dim E_l] enters,
    where c_l is the jump of dim(E cap D') at that step; the set has
    exactly rank(D') elements.
    """
    chain = flag_chain(spec, flag)
    out: set[int] = set()
    for prev, g in zip(chain, chain[1:]):
        top = g.dimension(spec)
        out.update(range(top - profile[g] + profile[prev] + 1, top + 1))
    return frozenset(out)


def special_pair_from_flag(
    spec: ModuleSpec,
    flag: GoodFlag,
    profile: Mapping[GoodSubobject, int],
) -> SpecialPair:
    """Jump data between the alpha = 1 saturation and the hull of D'.

    F_1 is the largest stable good subobject contained in D' (the goods
    inside D' are closed under componentwise maximum), F_2 the smallest
    stable good subobject containing it; both must occur in the flag.  The
    pair collects a_0 = dim F_1, the interior jumps between F_1 and F_2,
    and a_{k+1} = dim D - dim F_2, and is returned solved.  A zero D'
    yields the vacuous pair.
    """
    chain = flag_chain(spec, flag)
    if profile[chain[-1]] == 0:
        return SpecialPair.empty()
    low = chain[0].counts
    for g, inter in profile.items():
        if inter == g.dimension(spec):
            low = tuple(map(max, low, g.counts))
    try:
        i1 = chain.index(GoodSubobject(low))
        i2 = chain.index(smallest_enclosing_good(spec, profile))
    except ValueError as exc:
        raise InternalConsistencyError(
            "extreme good subobjects missing from the greedy flag"
        ) from exc
    dims = [g.dimension(spec) for g in chain]
    caps = [profile[g] for g in chain]
    a = [Fraction(dims[i1])]
    c = []
    for i in range(i1 + 1, i2 + 1):
        a.append(Fraction(dims[i] - dims[i - 1]))
        c.append(Fraction(caps[i] - caps[i - 1]))
    a.append(Fraction(dims[-1] - dims[i2]))
    ok, clause = is_special(a, c)
    if not ok:
        raise SpecialPairViolation(clause, tuple(a), tuple(c))
    return SpecialPair(tuple(a), tuple(c)).solved()


# ---------------------------------------------------------------------------
# Helpers only the tests use: the induced jump multiset, the
# intersection-gain ratio, the structural flag conditions and the level
# decomposition of the model.
# ---------------------------------------------------------------------------


def induced_jumps(filtration: Filtration, sigma: int, rows: Mat) -> tuple[int, ...]:
    """Sorted jump multiset of the filtration induced on a subspace."""
    dims = _tail_dims(filtration, sigma, int_rows(rows))
    out = []
    wrow = filtration.weights.weights[sigma]
    for j in range(1, filtration.dimension + 1):
        out.extend([wrow[j - 1]] * (dims[j - 1] - dims[j]))
    return tuple(sorted(out))


def alpha_ratio(
    e: GoodSubobject,
    eprime: GoodSubobject,
    profile: dict,
    spec: ModuleSpec,
) -> Fraction:
    """Intersection-gain ratio of the step e -> eprime against the D' of
    the intersection profile."""
    de, dp = e.dimension(spec), eprime.dimension(spec)
    if dp <= de:
        raise ValueError("alpha needs dim E' > dim E")
    return Fraction(profile[eprime] - profile[e], dp - de)


def flag_conditions(
    spec: ModuleSpec,
    flag: GoodFlag,
    realization: ConcreteRealization,
) -> dict[str, bool]:
    """Exact check of the structural flag conditions on a realization.

    (a) alpha nonincreasing, with nondecreasing step dims on ties;
    (b) N maps each member into the previous one;
    (c) each step is killed into the previous member by Phi - p^j a for
        some twist level j.
    """
    chain = flag_chain(spec, flag)
    dims = [g.dimension(spec) for g in chain]
    cond_a = True
    for i in range(1, len(flag.alphas)):
        if flag.alphas[i] > flag.alphas[i - 1]:
            cond_a = False
        if flag.alphas[i] == flag.alphas[i - 1]:
            if dims[i + 1] - dims[i] < dims[i] - dims[i - 1]:
                cond_a = False
    spans = [good_span(spec, g) for g in chain]
    n = spec.dimension
    cond_b = True
    cond_c = True
    fam = spec.family_of(0)
    seed = realization.seeds[fam.id]
    twists = sorted({blk.twist for blk in realization.basis})
    p = realization.spec.config.p
    for i in range(1, len(chain)):
        prev, cur = spans[i - 1], spans[i]
        prev_rank = len(prev)
        for v in cur:
            w = mat_vec(realization.nmat, v)
            if any(w) and len(rref(prev + (w,))) != prev_rank:
                cond_b = False
        found = False
        for j in twists:
            lam = seed * Fraction(p) ** j
            op = mat_sub(realization.phi, mat_scale(lam, identity(n)))
            ok = True
            for v in cur:
                w = mat_vec(op, v)
                if any(w) and len(rref(prev + (w,))) != prev_rank:
                    ok = False
                    break
            if ok:
                found = True
                break
        if not found:
            cond_c = False
    return {"a": cond_a, "b": cond_b, "c": cond_c}


@dataclass(frozen=True)
class LevelDecomposition:
    """Level data of one same-type component.

    `levels` maps a twist level j to the dimension of the generalized
    eigenspace at that level; `depth_dims` maps j to the increasing chain of
    dimensions ker((phi' - q'^j a)^i), i = 1, 2, ..., computed from the
    modification-edge chains (without edges every block dies at depth 1).
    """

    summands: tuple[int, ...]
    family: str
    levels: tuple[tuple[int, int], ...]
    depth_dims: tuple[tuple[int, tuple[int, ...]], ...]

    def level_dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.levels)


def level_decomposition(
    spec: ModuleSpec, edges: Sequence[tuple[int, int]] = ()
) -> list[LevelDecomposition]:
    """Per same-type component, the level dimensions and depth flags.

    `edges` is an optional list of (src, dst) modification edges (alignment
    is implied by the summand offsets); with edges, blocks chained at one
    level sit at increasing kernel depth along the chain.
    """
    comps = type_components(spec)
    out = []
    edge_map = {src: dst for src, dst in edges}
    for comp in comps:
        fam = spec.family_of(comp[0])
        h = fam.h
        levels: dict[int, list[int]] = {}
        for i in comp:
            s = spec.summands[i]
            for k in range(s.b):
                levels.setdefault(s.l + k, []).append(i)
        level_dims = tuple(sorted((j, h * len(v)) for j, v in levels.items()))
        depths = []
        for j, members in sorted(levels.items()):
            # forward walk along edges staying at level j
            def walk_len(i: int) -> int:
                seen = set()
                cur, n = i, 1
                while cur in edge_map and cur not in seen:
                    seen.add(cur)
                    nxt = edge_map[cur]
                    if nxt not in members:
                        break
                    cur, n = nxt, n + 1
                return n
            max_depth = max(walk_len(i) for i in members)
            dims = []
            for depth in range(1, max_depth + 1):
                # rank of the depth-step map = number of distinct endpoints
                # of `depth`-step walks
                ends = set()
                for i in members:
                    cur, ok = i, True
                    for _ in range(depth):
                        nxt = edge_map.get(cur)
                        if nxt is None or nxt not in members:
                            ok = False
                            break
                        cur = nxt
                    if ok:
                        ends.add(cur)
                dims.append(h * len(members) - h * len(ends))
            depths.append((j, tuple(dims)))
        out.append(
            LevelDecomposition(
                summands=tuple(comp),
                family=fam.id,
                levels=level_dims,
                depth_dims=tuple(depths),
            )
        )
    return out


def component_analysis(realization: ConcreteRealization, profile: dict) -> list[dict]:
    """Per-component greedy flag, special pair, and index set of the D'
    with the intersection profile `profile`.

    Edges never leave a component, so a good supported on one component is
    stable iff its restriction to the component is, and D' meets it where
    the part of D' in the component does: the component's profile is the
    restriction of the full one to those goods.  When the jump data of a
    component hit the hull-at-the-top boundary (see SpecialPairViolation)
    the pair is recorded as None with r = 0; the index set, which only
    needs the chain, is unaffected.
    """
    spec = realization.spec
    out = []
    for comp in type_components(spec):
        subspec = spec.with_summands([spec.summands[i] for i in comp])
        sub_edges = tuple(
            ModificationEdge(comp.index(e.src), comp.index(e.dst), e.alignment)
            for e in realization.edges
            if e.src in comp and e.dst in comp
        )
        local = {
            GoodSubobject(tuple(g.counts[i] for i in comp)): inter
            for g, inter in profile.items()
            if not any(c for i, c in enumerate(g.counts) if i not in comp)
        }
        assert list(local) == list(stable_good_subobjects(subspec, sub_edges))
        flag = greedy_flag(subspec, local)
        try:
            pair = special_pair_from_flag(subspec, flag, local)
            r = pair.r if pair.r is not None else Fraction(0)
        except SpecialPairViolation:
            pair = None
            r = Fraction(0)
        omega = omega_from_flag(subspec, flag, local)
        out.append({
            "component": tuple(comp), "dim": subspec.dimension,
            "rank": local[flag_chain(subspec, flag)[-1]], "flag": flag,
            "pair": pair, "omega": omega, "r": r,
        })
    return out


@dataclass(frozen=True)
class GlobalEntry:
    omega: frozenset[int]
    r: Fraction
    dim: int

    @staticmethod
    def from_pair(pair: SpecialPair) -> "GlobalEntry":
        solved = pair if pair.r is not None else pair.solved()
        return GlobalEntry(omega_of_pair(solved), solved.r, int(solved.total))


def assemble_global(entries: Sequence[GlobalEntry]) -> frozenset[int]:
    """Offset the per-component index sets in descending-r order.

    Ties keep the input order (stable sort); the offset of a component is
    the sum of the dimensions of the components placed before it.
    """
    order = sorted(range(len(entries)), key=lambda i: (-entries[i].r, i))
    out: set[int] = set()
    offset = 0
    for i in order:
        e = entries[i]
        shifted = {offset + j for j in e.omega}
        if out & shifted:
            raise InternalConsistencyError("assembled index sets overlap")
        out |= shifted
        offset += e.dim
    return frozenset(out)


def global_omega(realization: ConcreteRealization, profile: dict) -> frozenset[int]:
    """Assembled index set over all components, sorted by descending r."""
    parts = component_analysis(realization, profile)
    return assemble_global([GlobalEntry(p["omega"], p["r"], p["dim"]) for p in parts])
