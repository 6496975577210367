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
    Subobject,
    enumerate_good_subobjects,
    good_coords,
    enumerate_concrete_subobjects,
    random_round_subobjects,
    stable_good_subobjects,
)

__all__ = [
    "Filtration",
    "TransversalityError",
    "build_transverse_filtration",
    "t_h",
    "induced_jumps",
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


def _violation(
    spec: ModuleSpec, basis: Mat, goods: tuple[GoodSubobject, ...]
) -> GoodSubobject | None:
    n = spec.dimension
    if linalg.rank(basis) != n:
        return goods[0]
    for good in goods:
        m = good.dimension(spec)
        if m in (0, n):
            continue
        coords = good_coords(spec, good)
        for j in range(2, n + 1):
            tail = basis[j - 1 :]
            want = max(0, m - j + 1)
            if linalg.dim_intersection_coords(coords, tail, n) != want:
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
                tuple(Fraction(rng.randint(-box, box)) for _ in range(n))
                for _ in range(n)
            )
            bad = _violation(spec, basis, goods)
            if bad is None:
                bases.append(basis)
                break
            last_bad = bad
        else:
            raise TransversalityError(sigma, last_bad, max_attempts)
    return Filtration(profile, tuple(bases), seed, total_attempts)


def _tail_dims(filtration: Filtration, sigma: int, rows: Mat) -> list[int]:
    n = filtration.dimension
    r = len(rows)
    dims = []
    for j in range(1, n + 1):
        tail = filtration.tail(sigma, j)
        dims.append(r + len(tail) - linalg.rank(linalg.stack(rows, tail)))
    dims.append(0)
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


def induced_jumps(filtration: Filtration, sigma: int, rows: Mat) -> tuple[int, ...]:
    """Sorted jump multiset of the filtration induced on a subspace."""
    rows = linalg.rref(rows)
    dims = _tail_dims(filtration, sigma, rows)
    out = []
    wrow = filtration.weights.weights[sigma]
    for j in range(1, filtration.dimension + 1):
        out.extend([wrow[j - 1]] * (dims[j - 1] - dims[j]))
    return tuple(sorted(out))


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
    spec: ModuleSpec,
    realization: ConcreteRealization,
    filtration: Filtration,
) -> list[Subobject]:
    """Closures of good-cap-filtration-tail intersections.

    These are the adversarially placed subspaces: a violating stable
    subspace, when one exists, sits inside some good subobject aligned
    with a high-weight tail.
    """
    out = []
    n = spec.dimension
    for good in enumerate_good_subobjects(spec):
        m = good.dimension(spec)
        if m in (0,):
            continue
        coords = good_coords(spec, good)
        for sigma in range(spec.config.embeddings):
            for j in range(2, n + 1):
                want = max(0, m - j + 1)
                if want == 0 or want >= m:
                    continue
                inter = linalg.intersect_coords(coords, filtration.tail(sigma, j))
                if not inter:
                    continue
                out.append(Subobject(realization.closure(inter)))
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

    candidates: dict[Mat, Subobject] = {}
    for sub in enumerate_concrete_subobjects(
        realization, cap=cap, seed=seed, rounds=rounds
    ):
        candidates.setdefault(sub.rows, sub)
    rng = random.Random(seed + 1)
    for _ in range(rounds):
        for sub in random_round_subobjects(realization, rng):
            candidates.setdefault(sub.rows, sub)
    for sub in _aligned_candidates(spec, realization, filtration):
        candidates.setdefault(sub.rows, sub)

    ordered = sorted(candidates.values(), key=lambda s: (s.rank, s.rows))
    table = []
    witness = None
    for sub in ordered:
        if sub.rank in (0, spec.dimension):
            continue
        tn_val = realization.t_n_concrete(sub.rows)
        th_val = t_h(filtration, sub.rows, cfg)
        table.append(
            {
                "dim": sub.rank,
                "tH": fraction_to_str(th_val),
                "tN": fraction_to_str(tn_val),
            }
        )
        if th_val > tn_val and witness is None:
            enclosing = _smallest_enclosing_good(spec, realization, sub)
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


def _smallest_enclosing_good(
    spec: ModuleSpec, realization: ConcreteRealization, sub: Subobject
) -> GoodSubobject:
    best = GoodSubobject(tuple(s.b for s in spec.summands))
    best_dim = best.dimension(spec)
    for good in stable_good_subobjects(spec, realization.edges):
        m = good.dimension(spec)
        if m < sub.rank or m >= best_dim:
            continue
        coords = good_coords(spec, good)
        if linalg.dim_intersection_coords(coords, sub.rows, spec.dimension) == sub.rank:
            best, best_dim = good, m
    return best
