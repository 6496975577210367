"""Combinatorial data model for block-chain Frobenius modules.

A module is a direct sum of indecomposable chains.  Each chain is a stack
of copies of an irreducible bottom object (a Family of dimension h) twisted
upward: the chain (family F, offset l, length b) consists of the blocks
F(l), F(l+1), ..., F(l+b-1), the monodromy operator N maps each block onto
the one below it and kills the bottom block.  The Newton slope of a single
block F(n) is F.t_base + n * [K:Qp]; slopes are additive over blocks.

Weight profiles attach, per embedding sigma, a strictly increasing list of
d+1 integers (the negated Hodge-Tate weights of the filtration sought).

Slope arithmetic runs on integers: `scaled_slopes` multiplies every block
slope by the least common denominator of the family base slopes, and a
scaled sum s stands for the exact slope Fraction(s, den).  A spec does not
memoize it: `ordering.group_and_order` derives it once per call, and a
realization once for its spec, kept per level
(`frobenius.ConcreteRealization.level_slopes`), where
`filtration.check_admissible` reads every t_N.  What a spec keeps is what
its fields fix outright: the family lookup by id, its dimension and the
table of its good subobjects, all memoized on first read.  Besides,
`ordering.canonical_order` marks the spec it returns as canonical
(`canonical`, a bool outside equality), so
`frobenius.build_modified_frobenius` does not order it a second time.
Specs are frozen, and a spec made by `with_summands` or
`dataclasses.replace` is a new object that builds its own memos and
carries no mark.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

__all__ = [
    "Config",
    "Family",
    "Summand",
    "ModuleSpec",
    "WeightProfile",
    "GoodSubobject",
    "Block",
    "SpecError",
    "CapExceededError",
    "InternalConsistencyError",
    "ScaledSlopes",
    "scaled_slopes",
    "spec_violations",
    "validate_spec",
    "t_n",
    "below",
    "fraction_to_str",
    "ratio_to_str",
    "row_to_str",
    "fraction_from_json",
    "spec_to_dict",
    "spec_from_dict",
    "profile_from_dict",
]


class SpecError(ValueError):
    """Raised when a module spec or weight profile violates an invariant."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class CapExceededError(ValueError):
    """Work would exceed an enumeration, candidate or lattice-guard cap;
    the message names the cap."""


class InternalConsistencyError(RuntimeError):
    """A structural guarantee failed: the random-round audit of the class
    list, a stable subspace inside its cover span, the t_H check of a good
    witness, the level split of the realization's operators, the relation
    N*Phi = p*Phi*N, the backtracking of the shuffle condition to a
    violating selection or the weight solver's post-conditions."""


def _int(value, field: str) -> int:
    """`value` when it is an int; anything else, a bool, float, Fraction,
    string or null included, raises SpecError naming `field` instead of
    being truncated or coerced."""
    if type(value) is not int:
        raise SpecError([f"{field}: expected an integer, got {value!r}"])
    return value


# Miller-Rabin with the twelve prime bases up to 37 is exact for every n
# below 3.18e23 (Jiang and Deng, Math. Comp. 83, 2014); specs keep p below
# _P_BOUND, well inside that range.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = frozenset(_PRIME_BASES)
_P_BOUND = 2**64


def _is_prime(n: int) -> bool:
    """Whether n is prime, exactly for n < 3.18e23: set membership up to
    37, deterministic Miller-Rabin above."""
    if n <= 37:
        return n in _SMALL_PRIMES
    if any(n % q == 0 for q in _PRIME_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Config:
    """Global degree constants.

    deg_K_Qp = [K:Qp], deg_L_Qp = [L:Qp] (= number of embeddings sigma),
    deg_K_L = [K:L], with deg_K_Qp = deg_K_L * deg_L_Qp.  The prime p is a
    surrogate value for valuation arithmetic; f_prime is carried for the
    record but enters no formula (its normalization is absorbed into each
    family's t_base).
    """

    p: int
    deg_K_Qp: int = 1
    deg_L_Qp: int = 1
    deg_K_L: int = 1
    f_prime: int = 1

    def __post_init__(self):
        for name in ("p", "deg_K_Qp", "deg_L_Qp", "deg_K_L", "f_prime"):
            _int(getattr(self, name), f"config.{name}")

    @property
    def embeddings(self) -> int:
        return self.deg_L_Qp


@dataclass(frozen=True)
class Family:
    """An irreducible bottom object: opaque label, dimension h, base slope.
    The slope is exact: a float raises SpecError, as does an h whose type
    is not `int`."""

    id: str
    h: int
    t_base: Fraction

    def __post_init__(self):
        _int(self.h, f"families[{self.id}].h")
        # a float is stored as its binary value: 0.1 would become 3602879701896397/2**55
        if isinstance(self.t_base, float):
            raise SpecError([
                f"families[{self.id}].t_base: expected an exact rational, got {self.t_base!r}"
            ])
        object.__setattr__(self, "t_base", Fraction(self.t_base))


@dataclass(frozen=True)
class Summand:
    """A chain of b blocks of one family, bottom block twisted by l."""

    family: str
    l: int
    b: int


@dataclass(frozen=True)
class Block:
    """A single block inside a summand: family twisted by `twist`."""

    summand: int
    k: int
    family: Family
    twist: int


@dataclass(frozen=True)
class ModuleSpec:
    """A direct sum of chains.  A summand whose l or b is not an `int`
    raises SpecError naming it."""

    config: Config
    families: tuple[Family, ...]
    summands: tuple[Summand, ...]
    # set only by ordering.canonical_order, on the spec it returns; a copy
    # made with `with_summands` or dataclasses.replace starts unmarked
    canonical: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "summands", tuple(self.summands))
        for i, s in enumerate(self.summands):
            # the field names are formatted only for a value that fails
            if type(s.l) is not int or type(s.b) is not int:
                _int(s.l, f"summands[{i}].l")
                _int(s.b, f"summands[{i}].b")

    @cached_property
    def _family_by_id(self) -> dict[str, Family]:
        # the first family of an id wins, as a scan in order would find it
        out: dict[str, Family] = {}
        for f in self.families:
            out.setdefault(f.id, f)
        return out

    def family(self, fid: str) -> Family:
        """The family with id `fid`; KeyError if there is none."""
        return self._family_by_id[fid]

    def family_of(self, i: int) -> Family:
        return self._family_by_id[self.summands[i].family]

    @cached_property
    def dimension(self) -> int:
        return sum(s.b * self.family(s.family).h for s in self.summands)

    @cached_property
    def goods(self) -> tuple["GoodSubobject", ...]:
        """Every good subobject, the count vectors of prod_i {0..b_i} in
        lexicographic order, zero and the whole included."""
        ranges = [range(s.b + 1) for s in self.summands]
        return tuple(map(GoodSubobject, itertools.product(*ranges)))

    def blocks(self) -> list[Block]:
        """All blocks in summand order, bottom to top inside each summand."""
        out = []
        for i, s in enumerate(self.summands):
            fam = self.family(s.family)
            for k in range(s.b):
                out.append(Block(i, k, fam, s.l + k))
        return out

    def with_summands(self, summands: Sequence[Summand]) -> "ModuleSpec":
        return ModuleSpec(self.config, self.families, tuple(summands))


@dataclass(frozen=True)
class WeightProfile:
    """Per embedding sigma, a strictly increasing list of d+1 integers.  A
    weight whose type is not `int` (a float, a bool, a Fraction) raises
    SpecError, as it does in the JSON reader."""

    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        weights = tuple(tuple(row) for row in self.weights)
        for sigma, row in enumerate(weights):
            for j, x in enumerate(row):
                if type(x) is not int:
                    raise SpecError([f"weights[{sigma}][{j}]: expected an integer, got {x!r}"])
        object.__setattr__(self, "weights", weights)

    @property
    def length(self) -> int:
        return len(self.weights[0]) if self.weights else 0

    def prefix_sum(self, m: int) -> int:
        """Sum over sigma of the m lowest weights."""
        return sum(sum(row[:m]) for row in self.weights)

    @property
    def total(self) -> int:
        return self.prefix_sum(self.length)

    def prefix_sums(self) -> list[int]:
        """[prefix_sum(0), ..., prefix_sum(d+1)], summed column by column."""
        return list(itertools.accumulate(map(sum, zip(*self.weights)), initial=0))


@dataclass(frozen=True)
class GoodSubobject:
    """Bottom-aligned block counts per summand: 0 <= c_i <= b_i."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))

    def dimension(self, spec: ModuleSpec) -> int:
        """Sum of c_i times the family dimension of summand i; ValueError
        unless there is one count per summand of `spec`."""
        if len(self.counts) != len(spec.summands):
            raise ValueError(
                f"good subobject has {len(self.counts)} counts for "
                f"{len(spec.summands)} summands"
            )
        return sum(
            c * spec.family_of(i).h for i, c in enumerate(self.counts)
        )


@dataclass(frozen=True)
class ScaledSlopes:
    """The Newton slopes of a spec as integers over one denominator.

    `den` is the least common denominator of the family base slopes, so
    den times the slope of every block is an integer.  Summand i has
    lengths[i] blocks of dimension sizes[i]; their scaled slopes start at
    bottoms[i] and rise by step = den * [K:Qp] from block to block, and
    totals[i] is their sum.
    """

    den: int
    step: int
    sizes: tuple[int, ...]
    lengths: tuple[int, ...]
    bottoms: tuple[int, ...]
    totals: tuple[int, ...]

    def blocks(self, i: int) -> range:
        """Scaled slopes of the blocks of summand i, bottom to top (the
        step is positive on a valid spec)."""
        start = self.bottoms[i]
        return range(start, start + self.lengths[i] * self.step, self.step)


def scaled_slopes(spec: ModuleSpec) -> ScaledSlopes:
    """The spec's block slopes over the least common denominator of its
    family base slopes."""
    den = math.lcm(*(f.t_base.denominator for f in spec.families))
    step = spec.config.deg_K_Qp * den
    fams = [spec.family(s.family) for s in spec.summands]
    lengths = tuple(s.b for s in spec.summands)
    bottoms = tuple(
        f.t_base.numerator * (den // f.t_base.denominator) + s.l * step
        for s, f in zip(spec.summands, fams)
    )
    totals = tuple(b * x + b * (b - 1) // 2 * step for b, x in zip(lengths, bottoms))
    return ScaledSlopes(den, step, tuple(f.h for f in fams), lengths, bottoms, totals)


def spec_violations(spec: ModuleSpec, profile: WeightProfile | None = None) -> list[str]:
    """Collect every invariant violation, with field paths."""
    errs: list[str] = []
    cfg = spec.config
    if cfg.p >= _P_BOUND:
        errs.append(f"config.p: {cfg.p} is not below the bound 2**64 of the primality test")
    elif not _is_prime(cfg.p):
        errs.append(f"config.p: {cfg.p} is not prime")
    for name in ("deg_K_Qp", "deg_L_Qp", "deg_K_L", "f_prime"):
        if getattr(cfg, name) < 1:
            errs.append(f"config.{name}: must be >= 1")
    if cfg.deg_K_Qp != cfg.deg_K_L * cfg.deg_L_Qp:
        errs.append(
            "config: degree identity violated "
            f"({cfg.deg_K_Qp} != {cfg.deg_K_L} x {cfg.deg_L_Qp})"
        )
    seen = set()
    for f in spec.families:
        if f.id in seen:
            errs.append(f"families[{f.id}]: duplicate id")
        seen.add(f.id)
        if f.h < 1:
            errs.append(f"families[{f.id}].h: must be >= 1")
    for i, s in enumerate(spec.summands):
        if s.family not in seen:
            errs.append(f"summands[{i}].family: unknown family {s.family!r}")
        if s.b < 1:
            errs.append(f"summands[{i}].b: must be >= 1")
        if s.l < 0:
            errs.append(f"summands[{i}].l: must be >= 0")
    if not errs and spec.dimension < 2:
        errs.append("summands: total dimension must be >= 2")
    if profile is not None and not errs:
        d1 = spec.dimension
        if len(profile.weights) != cfg.deg_L_Qp:
            errs.append(
                f"weights: expected {cfg.deg_L_Qp} embedding rows, "
                f"got {len(profile.weights)}"
            )
        for sigma, row in enumerate(profile.weights, start=1):
            if len(row) != d1:
                errs.append(f"weights: row length {len(row)} != d+1 = {d1} at sigma={sigma}")
            if any(a >= b for a, b in zip(row, row[1:])):
                errs.append(f"weights not strictly increasing at sigma={sigma}")
    return errs


def validate_spec(
    spec: ModuleSpec, profile: WeightProfile | None = None
) -> tuple[ModuleSpec, WeightProfile | None]:
    errs = spec_violations(spec, profile)
    if errs:
        raise SpecError(errs)
    return spec, profile


def t_n(spec: ModuleSpec) -> Fraction:
    """Newton slope of the whole module: the sum over its blocks (family
    F, twist n) of F.t_base + n*[K:Qp], added up in closed form over the
    scaled integer slopes."""
    sc = scaled_slopes(spec)
    return Fraction(sum(sc.totals), sc.den)


def below(getrandbits, n: int) -> int:
    """A draw from range(n), n > 0, made from `getrandbits` (the bound
    method of a `random.Random`) exactly as `Random.randrange(n)` makes
    it: n.bit_length() bits at a time until the value is below n.  So
    `a + below(bits, b - a + 1)` is `rng.randint(a, b)` and
    `seq[below(bits, len(seq))]` is `rng.choice(seq)`, the same value
    from the same state and the same state after, with none of
    `randrange`'s argument checks or calls in between.  The seeded
    sampler of `pairs` draws only through it, and so do the random rounds
    of the test oracles."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# ---------------------------------------------------------------------------
# JSON encoding.  Field names are part of the wire format: p, degKQp,
# degLQp, degKL, fPrime, families[{id,h,tBase}], summands[{family,l,b}],
# weights[[ints]].  Rationals travel as "num/den" strings.
# ---------------------------------------------------------------------------


def fraction_to_str(x: Fraction | int) -> str:
    """A rational as 'num/den' in lowest terms, den > 0."""
    if type(x) is int:
        return f"{x}/1"
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def ratio_to_str(num: int, den: int) -> str:
    """`fraction_to_str(Fraction(num, den))` for integers num and den > 0,
    reduced by one gcd with no Fraction built: what a report writes for a
    scaled integer (a slack or t_N times its common denominator)."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def row_to_str(row: Sequence[int]) -> list[str]:
    """A canonical integer row as rationals: each entry over the pivot, the
    first nonzero entry (positive), written as `ratio_to_str` writes it."""
    pivot = next(filter(None, row))
    return [ratio_to_str(x, pivot) for x in row]


def fraction_from_json(value, field: str = "value") -> Fraction:
    """A rational from a 'num/den' string or a JSON integer; anything
    else, a zero denominator included, raises SpecError naming `field`."""
    if isinstance(value, str) or type(value) is int:
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise SpecError([f"{field}: zero denominator in {value!r}"]) from None
        except ValueError as exc:
            raise SpecError([f"{field}: {exc}"]) from None
    raise SpecError([f"{field}: expected rational as 'num/den' string, got {value!r}"])


def _json_str(value, field: str) -> str:
    """A JSON string; a number, bool or null raises SpecError naming
    `field` instead of being turned into its text."""
    if type(value) is not str:
        raise SpecError([f"{field}: expected a string, got {value!r}"])
    return value


def spec_to_dict(spec: ModuleSpec) -> dict:
    return {
        "p": spec.config.p,
        "degKQp": spec.config.deg_K_Qp,
        "degLQp": spec.config.deg_L_Qp,
        "degKL": spec.config.deg_K_L,
        "fPrime": spec.config.f_prime,
        "families": [
            {"id": f.id, "h": f.h, "tBase": fraction_to_str(f.t_base)}
            for f in spec.families
        ],
        "summands": [
            {"family": s.family, "l": s.l, "b": s.b} for s in spec.summands
        ],
    }


def _member(obj, key: str, where: str = ""):
    """obj[key] of a JSON object; a value that is not an object, or one
    without `key`, raises SpecError naming `where` and the key."""
    at = f"{where}: " if where else ""
    if type(obj) is not dict:
        raise SpecError([f"{at}expected a JSON object"])
    if key not in obj:
        raise SpecError([f"{at}missing field {key!r}"])
    return obj[key]


def _json_list(value, field: str) -> list:
    """A JSON list; anything else raises SpecError naming `field`."""
    if type(value) is not list:
        raise SpecError([f"{field}: expected a list, got {value!r}"])
    return value


def spec_from_dict(data) -> ModuleSpec:
    """The spec a JSON object describes; a missing field or a value of the
    wrong shape raises SpecError naming it."""
    cfg = Config(
        p=_int(_member(data, "p"), "p"),
        deg_K_Qp=_int(_member(data, "degKQp"), "degKQp"),
        deg_L_Qp=_int(_member(data, "degLQp"), "degLQp"),
        deg_K_L=_int(_member(data, "degKL"), "degKL"),
        f_prime=_int(data.get("fPrime", 1), "fPrime"),
    )
    families = []
    for i, f in enumerate(_json_list(_member(data, "families"), "families")):
        at = f"families[{i}]"
        families.append(Family(
            _json_str(_member(f, "id", at), f"{at}.id"),
            _int(_member(f, "h", at), f"{at}.h"),
            fraction_from_json(_member(f, "tBase", at), f"{at}.tBase"),
        ))
    summands = []
    for i, s in enumerate(_json_list(_member(data, "summands"), "summands")):
        at = f"summands[{i}]"
        summands.append(Summand(
            _json_str(_member(s, "family", at), f"{at}.family"),
            _int(_member(s, "l", at), f"{at}.l"),
            _int(_member(s, "b", at), f"{at}.b"),
        ))
    return ModuleSpec(cfg, families, summands)


def profile_from_dict(data) -> WeightProfile:
    """The profile of `{"weights": [[...], ...]}` or of the bare list of
    rows; a row that is not a list of integers raises SpecError naming it."""
    if isinstance(data, list):
        rows = data
    elif isinstance(data, dict) and "weights" in data:
        rows = _json_list(data["weights"], "weights")
    else:
        raise SpecError(["malformed weight profile: expected {'weights': [[...]]}"])
    for sigma, row in enumerate(rows):
        if type(row) is not list:
            raise SpecError([f"weights[{sigma}]: expected a list of integers, got {row!r}"])
    return WeightProfile(tuple(
        tuple(_int(x, f"weights[{sigma}][{j}]") for j, x in enumerate(row))
        for sigma, row in enumerate(rows)
    ))
