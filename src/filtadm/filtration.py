"""Transverse filtrations and the admissibility verdict.

A filtration is, per embedding sigma, an ordered basis (v_1, ..., v_{d+1})
together with the weight list i_1 < ... < i_{d+1}: the step at weight i_j
is the span of (v_j, ..., v_{d+1}), so the jumps sit exactly at the
weights.  Transversality to the good lattice means: for every good
subobject E and every sigma, the filtration induced on E jumps exactly at
the lowest dim(E) weights; equivalently E meets every tail span(v_j, ...)
in the generic dimension max(0, dim E - j + 1).

Generic integer bases sampled from a seeded generator satisfy this after
exact verification (the failure locus is a proper closed condition);
failed samples are redrawn.

For a basis of full rank one minor per good decides transversality: a
good E of dimension m meets every tail generically iff E meets
T_{m+1} = span(v_{m+1}, ..., v_n) in 0, i.e. iff rows m+1..n have full
rank n - m on the columns outside E.  If so, for j > m+1 the tail T_j lies
inside T_{m+1} and meets E in 0; for j <= m+1 it contains T_{m+1}, so
E + T_j is the whole space and dim(E cap T_j) = m - j + 1.  Conversely
j = m+1 is itself one of the tails checked.

Tail dimensions of a subspace W come from one echelon pass per
embedding: seeded with the canonical basis of W, it takes v_n, v_{n-1},
... while it grows, and after v_j its size is dim(W + T_j), so
dim(W cap T_j) = dim W + (n - j + 1) - size.  The aligned candidates
E cap T_j come from one pass per good and embedding over the columns
outside E first, read off after each v_j as the rows pivoting inside E.
The tails are nested, T_m in T_{m-1} in ... in T_2, so E cap T_m in ...
in E cap T_2 are too, and each step adds the rows that v_j stores there.
The closure of a union is the closure of the earlier closure and the new
vectors, so one closure grown through these steps gives every
closure(E cap T_j) in turn.

Admissibility of the pair (realization, filtration) demands the Hodge
slope t_H(D') to stay below the Newton slope t_N(D') for every stable
subspace D', with exact equality on the whole module.  The checker runs
the enumerated pattern subobjects, the random-coefficient variants, and
closures of good-cap-tail intersections (the adversarially aligned
subspaces), reporting the first violator as a witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .linalg import Mat
from .frobenius import ConcreteRealization
from .model import (
    GoodSubobject,
    ModuleSpec,
    WeightProfile,
    fraction_to_str,
    t_n,
    validate_spec,
)
from .subobjects import (
    DEFAULT_CAP,
    StableLattice,
    Subobject,
    enumerate_good_subobjects,
    good_coords,
    enumerate_concrete_subobjects,
    random_round_subobjects,
    smallest_enclosing_good,
)

__all__ = [
    "Filtration",
    "TransversalityError",
    "build_transverse_filtration",
    "t_h",
    "AdmissibilityReport",
    "check_admissible",
]

SAMPLE_BOX = 10**6
MAX_ATTEMPTS = 64


class TransversalityError(RuntimeError):
    def __init__(self, sigma: int, good: GoodSubobject, attempts: int):
        super().__init__(
            f"no transverse basis found for embedding {sigma} after "
            f"{attempts} attempts (last failure at good {good.counts})"
        )
        self.sigma = sigma
        self.good = good
        self.attempts = attempts


@dataclass(frozen=True)
class Filtration:
    weights: WeightProfile
    bases: tuple[Mat, ...]        # per sigma, rows v_1 .. v_{d+1}
    seed: int
    attempts: int

    @property
    def dimension(self) -> int:
        return len(self.bases[0])

    def tail(self, sigma: int, j: int) -> Mat:
        """Rows spanning the filtration step at the j-th weight (1-based)."""
        return self.bases[sigma][j - 1 :]

    @cached_property
    def int_bases(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """`bases` with every row scaled to integers, for elimination."""
        return tuple(
            tuple(tuple(linalg.integral(row)) for row in basis)
            for basis in self.bases
        )


def _violation(
    spec: ModuleSpec, basis: Mat, goods: tuple[GoodSubobject, ...]
) -> GoodSubobject | None:
    """The first good the basis is not transverse to, or None.

    A good of dimension m is transverse iff the minor of rows m+1..n on
    the columns outside it has full rank (see the module docstring).
    """
    n = spec.dimension
    if linalg.rank(basis) != n:
        return goods[0]
    for good in goods:
        m = good.dimension(spec)
        if m in (0, n):
            continue
        inside = set(good_coords(spec, good))
        outside = [c for c in range(n) if c not in inside]
        minor = tuple(tuple(row[c] for c in outside) for row in basis[m:])
        if linalg.rank(minor) != n - m:
            return good
    return None


def build_transverse_filtration(
    spec: ModuleSpec,
    profile: WeightProfile,
    realization: ConcreteRealization,
    seed: int = 0,
    max_attempts: int = MAX_ATTEMPTS,
    box: int = SAMPLE_BOX,
) -> Filtration:
    """Sample per-embedding bases until exactly transverse to every good.

    Deterministic in `seed`; raises TransversalityError when the attempt
    budget runs out (which would indicate a non-generic failure locus).
    """
    validate_spec(spec, profile)
    if realization.spec.dimension != spec.dimension:
        raise ValueError("realization does not match the spec")
    n = spec.dimension
    goods = enumerate_good_subobjects(spec)
    rng = random.Random(seed)
    bases = []
    total_attempts = 0
    for sigma in range(spec.config.embeddings):
        last_bad: GoodSubobject | None = None
        for _ in range(max_attempts):
            total_attempts += 1
            basis = tuple(
                tuple(rng.randint(-box, box) for _ in range(n)) for _ in range(n)
            )
            bad = _violation(spec, basis, goods)
            if bad is None:
                bases.append(tuple(tuple(map(Fraction, row)) for row in basis))
                break
            last_bad = bad
        else:
            raise TransversalityError(sigma, last_bad, max_attempts)
    return Filtration(profile, tuple(bases), seed, total_attempts)


def _tail_dims(filtration: Filtration, sigma: int, rows: Mat) -> list[int]:
    """dim(W cap T_j) for j = 1..n, then 0, for canonical `rows` spanning W.

    One echelon pass seeded with W takes v_n, v_{n-1}, ... while it grows;
    after v_j its size is dim(W + T_j).
    """
    n = filtration.dimension
    r = len(rows)
    basis = filtration.int_bases[sigma]
    ech = linalg.Echelon(n, rows)
    dims = [0] * (n + 1)
    for j in range(n, 0, -1):
        if len(ech) < n:
            ech.add_integral(list(basis[j - 1]))
        dims[j - 1] = r + (n - j + 1) - len(ech)
    return dims


def t_h(filtration: Filtration, rows: Mat, config) -> Fraction:
    """Exact Hodge slope of a subspace against the filtration."""
    rows = linalg.rref(rows)
    total = 0
    for sigma, wrow in enumerate(filtration.weights.weights):
        dims = _tail_dims(filtration, sigma, rows)
        for j in range(1, filtration.dimension + 1):
            total += wrow[j - 1] * (dims[j - 1] - dims[j])
    return Fraction(config.deg_K_L * total)


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    reason: str | None                       # "equality" | "witness" | None
    witness: dict | None
    table: tuple[dict, ...]
    checked: int

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "reason": self.reason,
            "witness": self.witness,
            "checked": self.checked,
            "table": list(self.table),
        }


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
    for good in enumerate_good_subobjects(spec):
        m = good.dimension(spec)
        # E meets T_j in the generic dimension m - j + 1, strictly between
        # 0 and m, only for 2 <= j <= m
        if m < 2:
            continue
        inside = set(good_coords(spec, good))
        order = [c for c in range(n) if c not in inside] + sorted(inside)
        position = sorted(range(n), key=order.__getitem__)
        # the levels E meets, with the positions of their coordinates in order
        parts = [
            (level, [position[i] for i in coords])
            for level, coords in enumerate(lattice.realization.levels)
            if not inside.isdisjoint(coords)
        ]
        for sigma in range(spec.config.embeddings):
            basis = filtration.int_bases[sigma]
            # columns outside E first: a row stored after v_n .. v_j with
            # its pivot inside E lies in E cap T_j, and these rows span it;
            # groups[k] holds the level vectors of the rows E cap T_{m-k} adds
            ech = linalg.Echelon(n)
            groups: list[list] = []
            new: list = []
            for j in range(n, 1, -1):
                v = basis[j - 1]
                row = ech.add_integral([v[c] for c in order])
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


def check_admissible(
    spec: ModuleSpec,
    profile: WeightProfile,
    realization: ConcreteRealization,
    filtration: Filtration,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    rounds: int = 5,
) -> AdmissibilityReport:
    """Decide admissibility with an explicit witness on failure.

    Checks exact slope equality on the whole module, then t_H <= t_N over
    the enumerated subobjects, the random-coefficient variants, and the
    tail-aligned closures.  The witness records the violating subspace and
    its smallest enclosing stable good subobject (the position where the
    excess Hodge weight lives).
    """
    cfg = spec.config
    total_th = Fraction(cfg.deg_K_L * profile.total)
    total_tn = t_n(spec)
    if total_th != total_tn:
        witness = {
            "kind": "equality",
            "tH": fraction_to_str(total_th),
            "tN": fraction_to_str(total_tn),
        }
        return AdmissibilityReport(False, "equality", witness, (), 0)

    # every source interns its pieces in one lattice, so a candidate is
    # its tuple of piece ids; rows are built once per distinct candidate
    lattice = StableLattice(realization)
    candidates: dict[tuple[int, ...], Subobject | None] = {}
    for sub in enumerate_concrete_subobjects(
        realization, cap=cap, seed=seed, rounds=rounds, lattice=lattice
    ):
        candidates[sub.key] = sub
    rng = random.Random(seed + 1)
    for _ in range(rounds):
        for key in random_round_subobjects(lattice, rng):
            candidates.setdefault(key, None)
    for key in _aligned_candidates(lattice, filtration):
        candidates.setdefault(key, None)

    subs = [s or Subobject(lattice.rows(key), key) for key, s in candidates.items()]
    ordered = sorted(subs, key=lambda s: (s.rank, s.rows))
    table = []
    witness = None
    for sub in ordered:
        if sub.rank in (0, spec.dimension):
            continue
        tn_val = lattice.t_n(sub.key)
        th_val = t_h(filtration, sub.rows, cfg)
        table.append(
            {
                "dim": sub.rank,
                "tH": fraction_to_str(th_val),
                "tN": fraction_to_str(tn_val),
            }
        )
        if th_val > tn_val and witness is None:
            enclosing = smallest_enclosing_good(
                realization.spec, lattice.profile(sub.key)
            )
            witness = {
                "kind": "witness",
                "dim": sub.rank,
                "tH": fraction_to_str(th_val),
                "tN": fraction_to_str(tn_val),
                "basis": [[fraction_to_str(x) for x in row] for row in sub.rows],
                "enclosingGood": list(enclosing.counts),
                "enclosingDim": enclosing.dimension(spec),
            }
    if witness is not None:
        return AdmissibilityReport(False, "witness", witness, tuple(table), len(ordered))
    return AdmissibilityReport(True, None, None, tuple(table), len(ordered))

