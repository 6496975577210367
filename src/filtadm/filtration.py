"""Transverse filtrations and the admissibility verdict.

A filtration is, per embedding sigma, an ordered basis (v_1, ..., v_{d+1})
together with the weight list i_1 < ... < i_{d+1}: the step at weight i_j
is the span of (v_j, ..., v_{d+1}), so the jumps sit exactly at the
weights.  Transversality to the good lattice means: for every good
subobject E and every sigma, the filtration induced on E jumps exactly at
the lowest dim(E) weights; equivalently E meets every tail span(v_j, ...)
in the generic dimension max(0, dim E - j + 1).

The bases are fixed by theorem, not sampled.  Embedding sigma takes the
Vandermonde basis of the nodes x_i = sigma*n + i (i = 1..n), v_i =
(x_i^0, x_i^1, ..., x_i^{n-1}).  With 0 < x_1 < ... < x_n this matrix is
strictly totally positive: every minor, on any rows and any columns, is
positive (Gantmacher and Krein, Oscillation matrices and kernels, 1950;
Karlin, Total Positivity, 1968).  One minor per good decides
transversality: for a basis of full rank, a good E of dimension m meets
every tail generically iff E meets T_{m+1} = span(v_{m+1}, ..., v_n) in
0, i.e. iff rows m+1..n have full rank n - m on the columns O outside E.
If so, for j > m+1 the tail T_j lies inside T_{m+1} and meets E in 0; for
j <= m+1 it contains T_{m+1}, so E + T_j is the whole space and
dim(E cap T_j) = m - j + 1.  Conversely j = m+1 is itself one of the
tails checked.  So the basis is transverse to every good of every spec,
and nothing is checked at run time.  `build_transverse_filtration`
returns the one basis per (n, embeddings), built once
(`_theorem_vectors`); `check_admissible` refuses any other.  Its entries
reach (sigma*n + n)^(n-1), about 2.7*10^8 at n = 8 with two embeddings.

Admissibility of the pair (realization, filtration) demands the Hodge
slope t_H(D') to stay below the Newton slope t_N(D') for every stable
subspace D', with exact equality on the whole module.  Transversality
bounds t_H by the intersection profile of D' alone.  Write P_sigma for
the prefix sums of the weights of sigma and P for their sum over sigma
(`WeightProfile.prefix_sums`).

- A stable good E of dimension m has t_H(E) = [K:L] P[m] for every
  transverse filtration, so a stable good with [K:L] P[m] > t_N(E) is a
  witness that needs no search.
- Chain bound.  Let 0 = E_0 < ... < E_r = D be stable goods, e_l = dim E_l
  and c_l = dim(E_l cap D') - dim(E_{l-1} cap D').  Hodge slopes add up
  over the subquotients of a filtered space, so t_H(D') is the sum of
  t_H((E_l cap D') / (E_{l-1} cap D')).  That subquotient sits inside
  E_l / E_{l-1}, whose induced filtration jumps at the weights e_{l-1}+1
  .. e_l of each sigma (transversality on E_l and on E_{l-1}), and its own
  filtration is at most the one induced from there.  So its t_H is at
  most the sum of the top c_l of those weights, and
      t_H(D') <= [K:L] sum_sigma sum_l (P_sigma[e_l] - P_sigma[e_l - c_l]).
  The bound depends on D' only through its class (rank, dim(E cap D') for
  the stable goods E), and each sigma may take its own chain.
- Refinement lemma.  Putting a stable good E' between E_{l-1} and E_l
  splits c_l = c' + c'' and replaces the top c_l weights of (e_{l-1},
  e_l] by the top c' of (e_{l-1}, e'] and the top c'' of (e', e_l].
  Since c'' <= e_l - e', these are c_l distinct weights of (e_{l-1},
  e_l], so the bound never rises.  The best chain is therefore a maximal
  one: a shortest path from 0 to D over the cover pairs of the stable
  goods (`StableLattice.lower_covers`), in integers.

The verdict, in order: the slope equality on the whole module; the
enumeration cap; the first stable good, in (dim, counts) order, that is
a witness, its t_H checked once against the filtration; then, where
every level of the realization is a chain
(`ConcreteRealization.uniserial`), an ok read off that scan; only
otherwise the class list of the stable subspaces, as piece ids
(`subobjects._class_keys`), and one chain certificate per listed class,
bound <= t_N, over per-embedding chain steps built once.  A good witness
needs no lattice: the stable goods are the spec's goods that the edges
keep, a good's t_N is a sum of per-summand prefix sums of the column
slopes (`_good_scan`), and its canonical rows are its unit rows
(`_unit_rows`), so a failing verdict builds no `StableLattice` and lists
no classes.  All t_N come from one slope table, the realization's
`level_slopes`, the whole module's included.

- All chains.  By the theorem of the `subobjects` docstring the stable
  subspaces are then exactly the stable goods, each its own class, so
  the scan is the class list, in the class order.  A good's chain bound
  is [K:L] P[m], attained by the chain through the good, and with no
  witness in the scan every bound is at most t_N: the ok is a proof,
  one table row per stable good strictly between 0 and the whole
  module, with no lattice or chain steps.  More stable goods than the
  lattice guard (`subobjects.check_guard`) are refused as the class list
  of `subobjects._class_keys` refuses them.
- Otherwise the stable subspaces are infinitely many, and the list comes
  from the pattern route: by the merge lemma of the `subobjects`
  docstring it holds the class of every single-vector closure, and a
  level the lemma does not cover is refused (`subobjects._check_merges`).
  A stable good is its own class there too, and the scan already
  certified it, so its row is written as the scan writes it, bound
  [K:L] P[m], with no chain bound computed; the certificates cover the
  other listed classes, and the search leaves the goods out by key.
Only when some class does not certify does the search run: the listed
classes and closures of good-cap-tail intersections (the adversarially
aligned subspaces), outside the certified classes, each against its
exact t_H, the first violator being the witness.  Nothing is drawn at
random, so a verdict is a function of its inputs.  The candidates stay
piece ids, in (rank, rows) order, which `subobjects._row_order` gives as
for the class list.  Slopes are compared as integers over the
denominator of `level_slopes`, and a report writes rows and slopes as
rationals only from there (`model.row_to_str`, `model.ratio_to_str`).
The search decides as it would without the certificates, since no
member of a certified class can violate.

Tail dimensions of a subspace W come from one echelon pass per
embedding: seeded with integer rows spanning W, it takes v_n, v_{n-1},
... while it grows, and after v_j its size is dim(W + T_j), so
dim(W cap T_j) = dim W + (n - j + 1) - size.  The aligned candidates
E cap T_j come from one pass per good and embedding over the columns
outside E (from `_good_layout`) first, read off after each v_j as the
rows pivoting inside E.
The tails are nested, T_m in T_{m-1} in ... in T_2, so E cap T_m in ...
in E cap T_2 are too, and each step adds the rows that v_j stores there.
The closure of a union is the closure of the earlier closure and the new
vectors, so one closure grown through these steps gives every
closure(E cap T_j) in turn.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

from . import linalg
from .frobenius import ConcreteRealization
from .model import (
    GoodSubobject,
    InternalConsistencyError,
    ModuleSpec,
    SpecError,
    WeightProfile,
    fraction_to_str,
    ratio_to_str,
    row_to_str,
    validate_spec,
)
from .subobjects import (
    DEFAULT_CAP,
    check_cap,
    check_guard,
    StableLattice,
    _class_keys,
    _row_order,
    smallest_enclosing_good,
    stable_good_subobjects,
)

__all__ = [
    "Filtration",
    "build_transverse_filtration",
    "t_h",
    "AdmissibilityReport",
    "check_admissible",
]


@dataclass(frozen=True)
class Filtration:
    """Per embedding sigma, the basis v_1 .. v_{d+1} of `vectors`, whose
    step at the weight i_j of `weights` is span(v_j, ..., v_{d+1}).

    `vectors` holds integer rows, the theorem basis of
    `build_transverse_filtration`; `bases` holds them as Fraction rows,
    built only when read.
    """

    weights: WeightProfile
    vectors: tuple[tuple[tuple[int, ...], ...], ...]   # per sigma, v_1 .. v_{d+1}
    seed: int
    attempts: int

    @property
    def dimension(self) -> int:
        return len(self.vectors[0])

    @cached_property
    def bases(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """Per sigma, the rows v_1 .. v_{d+1} as Fractions."""
        return tuple(
            tuple(tuple(map(Fraction, row)) for row in basis) for basis in self.vectors
        )


def _summand_spans(spec: ModuleSpec) -> list[tuple[int, int]]:
    """The columns [start, end) of each summand, bottom block first (h = 1)."""
    return list(
        itertools.pairwise(itertools.accumulate((s.b for s in spec.summands), initial=0))
    )


def _good_layout(
    spec: ModuleSpec, goods: tuple[GoodSubobject, ...]
) -> list[tuple[GoodSubobject, int, list[int]]]:
    """(good, dim, columns outside it) for the goods strictly between 0 and
    the whole module, in the order of `goods`: what `_aligned_candidates`
    reads.

    Summand i occupies the columns from its offset on, bottom block first
    (h = 1), so a good with counts c leaves out the top b_i - c_i of them.
    """
    n = spec.dimension
    flat = all(spec.family_of(i).h == 1 for i in range(len(spec.summands)))
    spans = _summand_spans(spec)
    out = []
    for good in goods:
        m = sum(good.counts) if flat else good.dimension(spec)
        if 0 < m < n:
            if not flat:
                raise ValueError("coordinate layout requires h=1")
            outside = [
                c for (start, end), k in zip(spans, good.counts)
                for c in range(start + k, end)
            ]
            out.append((good, m, outside))
    return out


@cache
def _theorem_vectors(n: int, embeddings: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per sigma, the Vandermonde rows v_i = (x_i^j)_{j<n} of the nodes
    x_i = sigma*n + i, i = 1..n: strictly totally positive, so transverse
    to every good (see the module docstring)."""
    return tuple(
        tuple(tuple(x**j for j in range(n)) for x in range(sigma * n + 1, sigma * n + n + 1))
        for sigma in range(embeddings)
    )


def build_transverse_filtration(
    spec: ModuleSpec,
    profile: WeightProfile,
    realization: ConcreteRealization,
    seed: int = 0,
) -> Filtration:
    """The theorem basis of every embedding, transverse to every good.

    The bases depend only on the dimension and the embedding count; `seed`
    is kept in the filtration, and `attempts` is the embedding count.
    Raises ValueError when `realization` realizes a spec other than `spec`.
    """
    validate_spec(spec, profile)
    if realization.spec != spec:
        raise ValueError("realization does not match the spec")
    embeddings = spec.config.embeddings
    return Filtration(
        profile, _theorem_vectors(spec.dimension, embeddings), seed, embeddings
    )


def _tail_dims(filtration: Filtration, sigma: int, rows) -> list[int]:
    """dim(W cap T_j) for j = 1..n, then 0, for integer `rows` spanning W.

    One echelon pass over W takes v_n, v_{n-1}, ... while it grows; after
    v_j its size is dim(W + T_j).
    """
    n = filtration.dimension
    basis = filtration.vectors[sigma]
    ech = linalg.Echelon(n)
    for row in rows:
        ech.add(list(row))
    r = len(ech)
    dims = [0] * (n + 1)
    for j in range(n, 0, -1):
        if len(ech) < n:
            ech.add(list(basis[j - 1]))
        dims[j - 1] = r + (n - j + 1) - len(ech)
    return dims


def t_h(filtration: Filtration, rows: Sequence[Sequence[int]], config) -> int:
    """Exact Hodge slope, an integer, of the subspace spanned by the integer
    `rows` against the filtration."""
    total = 0
    for sigma, wrow in enumerate(filtration.weights.weights):
        dims = _tail_dims(filtration, sigma, rows)
        for j in range(1, filtration.dimension + 1):
            total += wrow[j - 1] * (dims[j - 1] - dims[j])
    return config.deg_K_L * total


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    reason: str | None                       # "equality" | "witness" | None
    witness: dict | None
    table: tuple[dict, ...]
    proof: str | None = None                 # "certificate" | "search" | None

    @property
    def checked(self) -> int:
        """The classes and candidates checked: one table row each."""
        return len(self.table)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "reason": self.reason,
            "witness": self.witness,
            "checked": self.checked,
            "table": list(self.table),
            "proof": self.proof,
        }


def _chain_steps(
    lattice: StableLattice, profile: WeightProfile
) -> list[list[tuple[int, tuple[int, ...], list[int]]]]:
    """Per sigma, (j, the goods good j covers, top) for every stable good j
    but 0, in the order of `goods`: what `_chain_bound` walks, built once
    per verdict.  top[c] = P_sigma[e] - P_sigma[e - c] is the sum of the
    top c of the lowest e = dim(good j) weights."""
    sizes = lattice.good_sizes
    lower = lattice.lower_covers
    out = []
    for row in profile.weights:
        pre = list(itertools.accumulate(row, initial=0))
        tops = [[pre[e] - pre[e - c] for c in range(e + 1)] for e in range(len(pre))]
        out.append([(j, lower[j], tops[sizes[j]]) for j in range(1, len(sizes))])
    return out


def _chain_bound(
    steps: list[list[tuple[int, tuple[int, ...], list[int]]]], inter: tuple[int, ...]
) -> int:
    """The chain bound of a class, divided by [K:L]: per sigma the shortest
    path from 0 to D over the cover pairs of the stable goods, where the
    step E -> E' costs top[dim E'][c] with c the growth of dim(E cap D')
    given by `inter` (see the module docstring).  `steps` comes from
    `_chain_steps`."""
    total = 0
    for sigma_steps in steps:
        dist = [0] * (len(sigma_steps) + 1)
        for j, lower, tj in sigma_steps:
            cj = inter[j]
            # a plain loop: a comprehension and min() per step cost about
            # three times as much over the few covers of a good
            best = None
            for i in lower:
                v = dist[i] + tj[cj - inter[i]]
                if best is None or v < best:
                    best = v
            dist[j] = best
        total += dist[-1]
    return total


def _aligned_candidates(
    lattice: StableLattice, filtration: Filtration
) -> list[tuple[int, ...]]:
    """Piece ids of the closures of good-cap-filtration-tail intersections.

    These are the adversarially placed subspaces: a violating stable
    subspace, when one exists, sits inside some good subobject aligned
    with a high-weight tail.
    """
    spec = lattice.realization.spec
    out = []
    n = spec.dimension
    # the goods strictly between 0 and the whole module with their outside
    # columns, then the whole module, last in `spec.goods`, with none
    layout = _good_layout(spec, spec.goods) + [(None, n, [])]
    for _, m, outside in layout:
        # E meets T_j in the generic dimension m - j + 1, strictly between
        # 0 and m, only for 2 <= j <= m
        if m < 2:
            continue
        inside = set(range(n)).difference(outside)
        order = outside + sorted(inside)
        position = sorted(range(n), key=order.__getitem__)
        # the levels E meets, with the positions of their coordinates in order
        parts = [
            (level, [position[i] for i in coords])
            for level, coords in enumerate(lattice.realization.levels)
            if not inside.isdisjoint(coords)
        ]
        for sigma in range(spec.config.embeddings):
            basis = filtration.vectors[sigma]
            # columns outside E first: a row stored after v_n .. v_j with
            # its pivot inside E lies in E cap T_j, and these rows span it;
            # groups[k] holds the level vectors of the rows E cap T_{m-k} adds
            ech = linalg.Echelon(n)
            groups: list[list] = []
            new: list = []
            for j in range(n, 1, -1):
                v = basis[j - 1]
                row = ech.add([v[c] for c in order])
                if row is not None and not any(row[: n - m]):
                    for level, pos in parts:
                        local = [row[p] for p in pos]
                        if any(local):
                            new.append((level, local))
                if j <= m:
                    groups.append(new)
                    new = []
            keys = lattice.closures(groups)
            out.extend(key for key in reversed(keys) if any(key))
    return out


def _witness(
    rows: tuple[tuple[int, ...], ...],
    th: int,
    scaled_tn: int,
    den: int,
    enclosing: GoodSubobject,
    spec: ModuleSpec,
    source: str,
) -> dict:
    """The witness entry of a violating subspace with canonical `rows`, t_H
    `th` and t_N scaled_tn / den."""
    return {
        "kind": "witness",
        "source": source,
        "dim": len(rows),
        "tH": f"{th}/1",
        "tN": ratio_to_str(scaled_tn, den),
        "basis": [row_to_str(row) for row in rows],
        "enclosingGood": list(enclosing.counts),
        "enclosingDim": enclosing.dimension(spec),
    }


def _class_row(dim: int, scaled_tn: int, den: int, bound: int) -> dict:
    """A table row: t_N is scaled_tn / den, the bound an integer."""
    return {"dim": dim, "tN": ratio_to_str(scaled_tn, den), "tHBound": f"{bound}/1"}


def _column_slopes(realization: ConcreteRealization) -> list[int]:
    """The Newton slope of the block at each column, times the denominator
    of `level_slopes`: the slope of its level."""
    nums = realization.level_slopes[0]
    slope = [0] * realization.dimension
    for level, coords in enumerate(realization.levels):
        for c in coords:
            slope[c] = nums[level]
    return slope


def _good_scan(
    realization: ConcreteRealization, slope: list[int]
) -> list[tuple[int, tuple[int, ...], int, GoodSubobject]]:
    """(dim, counts, scaled t_N, good) for the stable goods strictly between
    0 and the whole module, in (dim, counts) order: the goods the verdict
    checks for a witness first, with no lattice built.

    `slope` is `_column_slopes(realization)`; a good holds the bottom
    counts[i] blocks of each summand i, so its scaled t_N is a sum of one
    prefix sum of `slope` per summand.
    """
    spec = realization.spec
    n = spec.dimension
    pre = [list(itertools.accumulate(slope[a:b], initial=0)) for a, b in _summand_spans(spec)]
    scan = []
    for good in stable_good_subobjects(spec, realization.edges):
        counts = good.counts
        m = sum(counts)
        if 0 < m < n:
            scan.append((m, counts, sum(map(list.__getitem__, pre, counts)), good))
    # (dim, counts) pairs are distinct, so the sort compares nothing after them
    scan.sort(key=operator.itemgetter(0, 1))
    return scan


def _unit_rows(spec: ModuleSpec, counts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The canonical rows of the good with `counts`: the unit rows of its
    columns, the bottom counts[i] of each summand, in column order."""
    n = spec.dimension
    return tuple(
        tuple(int(j == c) for j in range(n))
        for (start, _), k in zip(_summand_spans(spec), counts)
        for c in range(start, start + k)
    )


def check_admissible(
    spec: ModuleSpec,
    profile: WeightProfile,
    realization: ConcreteRealization,
    filtration: Filtration,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
) -> AdmissibilityReport:
    """Decide admissibility, with a proof either way where one closes.

    In the order of the module docstring: exact slope equality on the
    whole module, the cap (CapExceededError), a stable good witness, an
    ok read off the good scan where every level is a chain (refused with
    CapExceededError past the lattice guard), otherwise the class list
    with one chain certificate per class, and the search outside the
    certified classes only when some class does not certify.  `seed` is
    accepted and unused: nothing in the verdict is random, so the report
    is the same for every seed.  A realization with a level whose merges
    the class list does not cover raises ValueError
    (`subobjects._check_merges`).  A failure's witness records the
    violating subspace, its smallest enclosing stable good subobject (the
    position where the excess Hodge weight lives) and its `source` ("good"
    or "search"); `proof` says what an ok rests on.  Before any verdict: a
    realization of a spec other than `spec`, or a filtration with other
    weights than `profile`, raises ValueError; a filtration whose `vectors`
    are not the theorem basis of `build_transverse_filtration`, the only
    one transverse by proof, ints included, raises SpecError naming each
    basis that differs, is missing or has no weight row; and a realization
    whose operators break the level split raises InternalConsistencyError
    (`level_operators`).
    """
    if realization.spec != spec:
        raise ValueError("realization does not match the spec")
    if filtration.weights != profile:
        # the bounds read the profile, t_H reads the filtration
        raise ValueError("the filtration's weights differ from the profile")
    n = spec.dimension
    theorem = _theorem_vectors(n, spec.config.embeddings)
    vectors = filtration.vectors
    # repr is exact in type: a float, bool or Fraction row equals its int
    # row but prints otherwise
    if vectors is not theorem and repr(vectors) != repr(theorem):
        raise SpecError([
            f"vectors[{sigma}]: "
            + (
                "missing basis" if sigma >= len(vectors)
                else "no weight row" if sigma >= len(theorem)
                else f"not the theorem basis, nodes {sigma * n + 1}..{sigma * n + n}"
            )
            for sigma in range(max(len(vectors), len(theorem)))
            if repr(vectors[sigma:sigma + 1]) != repr(theorem[sigma:sigma + 1])
        ])
    # raises InternalConsistencyError where the operators break the level
    # split, which t_N and every closure rest on
    realization.level_operators
    cfg = spec.config
    kl = cfg.deg_K_L
    # t_N is compared as integers over den, from one slope per column
    den = realization.level_slopes[1]
    slope = _column_slopes(realization)
    total_th = kl * profile.total
    total_tn = sum(slope)
    if total_th * den != total_tn:
        witness = {
            "kind": "equality",
            "tH": fraction_to_str(total_th),
            "tN": ratio_to_str(total_tn, den),
        }
        return AdmissibilityReport(False, "equality", witness, ())
    check_cap(realization.dimension, cap)

    # a stable good above its prefix weight; each good is its own class,
    # whose chain bound [K:L] P[m] is attained.  No lattice is built for it.
    prefix = profile.prefix_sums()
    scan = _good_scan(realization, slope)
    for pos, (m, counts, scaled, good) in enumerate(scan):
        if kl * prefix[m] * den > scaled:
            table = tuple(
                _class_row(size, tn, den, kl * prefix[size])
                for size, _, tn, _ in scan[: pos + 1]
            )
            rows = _unit_rows(spec, counts)
            th_val = t_h(filtration, rows, cfg)
            if th_val != kl * prefix[m]:
                raise InternalConsistencyError(
                    f"stable good {counts} has t_H {th_val}, not "
                    f"[K:L] P[{m}] = {kl * prefix[m]}: the filtration is not transverse"
                )
            witness = _witness(rows, th_val, scaled, den, good, spec, "good")
            return AdmissibilityReport(False, "witness", witness, table)

    if realization.uniserial:
        # every stable subspace is a stable good (`subobjects` docstring), so
        # the scan is the class list: one class per good, whose chain bound
        # [K:L] P[m] is attained and, with no witness above, certified.  The
        # (dim, counts) order is the (dim, canonical rows) order of
        # `_class_keys`: at the first summand where two counts differ, the
        # larger holds the lower column, so the larger unit row.
        check_guard(len(scan) + 2)
        table = tuple(_class_row(m, tn, den, kl * prefix[m]) for m, _, tn, _ in scan)
        return AdmissibilityReport(True, None, None, table, "certificate")

    # every source interns its pieces in one lattice, so a candidate is
    # its tuple of piece ids; rows are built once per distinct candidate
    lattice = StableLattice(realization)
    listed = _class_keys(lattice)
    steps = _chain_steps(lattice, profile)
    # a good is its own class (`_class_keys`), certified by the scan: its
    # chain bound is [K:L] P[m], attained by the chain through it
    goods = set(lattice.good_keys)
    table = []
    certified = set()
    closed = True
    for key in listed:
        dim = lattice.dim(key)
        if dim in (0, n):
            continue
        scaled = lattice.scaled_t_n(key)
        if key in goods:
            table.append(_class_row(dim, scaled, den, kl * prefix[dim]))
            continue
        inter = lattice.good_dims(key)
        bound = kl * _chain_bound(steps, inter)
        table.append(_class_row(dim, scaled, den, bound))
        if bound * den <= scaled:
            certified.add((dim, inter))
        else:
            closed = False
    if closed:
        return AdmissibilityReport(True, None, None, tuple(table), "certificate")

    candidates = dict.fromkeys(listed)
    candidates.update(dict.fromkeys(_aligned_candidates(lattice, filtration)))
    keys = [
        key
        for key in candidates
        if key not in goods
        and 0 < lattice.dim(key) < n
        and (lattice.dim(key), lattice.good_dims(key)) not in certified
    ]
    # (rank, canonical rows) order: distinct keys are distinct subspaces
    rows_order = _row_order(lattice, keys)
    witness = None
    for key in sorted(keys, key=lambda k: (lattice.dim(k), rows_order[k])):
        scaled = lattice.scaled_t_n(key)
        rows = lattice.int_rows(key)
        th_val = t_h(filtration, rows, cfg)
        table.append(
            {"dim": len(rows), "tH": f"{th_val}/1", "tN": ratio_to_str(scaled, den)}
        )
        if th_val * den > scaled and witness is None:
            enclosing = smallest_enclosing_good(realization.spec, lattice.profile(key))
            witness = _witness(rows, th_val, scaled, den, enclosing, spec, "search")
    if witness is not None:
        return AdmissibilityReport(False, "witness", witness, tuple(table))
    return AdmissibilityReport(True, None, None, tuple(table), "search")
