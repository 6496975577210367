"""Shared random generators for the check suites.

All generators are driven by an explicit random.Random so that every test
run is reproducible from its seed.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

from filtadm.model import Config, Family, ModuleSpec, Summand, WeightProfile, t_n
from filtadm.ordering import canonical_order, type_components
from filtadm.slopes import check_slope_chain
from filtadm.subobjects import StableLattice

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env() -> dict[str, str]:
    """The environment with `src` first on PYTHONPATH, so that a child
    `python -m filtadm.cli` imports the package of this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def random_spec(rng: random.Random, max_dim: int = 6, max_summands: int = 3,
                h_choices=(1,), max_twist: int = 2,
                min_summands: int = 1) -> ModuleSpec | None:
    """Random canonically ordered spec, or None when the draw is oversized.

    Bottom twists are drawn from 0..max_twist; wider twists spread the
    block slopes, which makes prefix failures of equal-total profiles
    common.
    """
    deg_k_l = rng.choice((1, 1, 2))
    deg_l_qp = rng.choice((1, 1, 2))
    cfg = Config(
        p=rng.choice((2, 3)),
        deg_K_Qp=deg_k_l * deg_l_qp,
        deg_L_Qp=deg_l_qp,
        deg_K_L=deg_k_l,
    )
    nfam = rng.randint(1, 2)
    fams = tuple(
        Family(
            f"F{i}",
            rng.choice(h_choices),
            Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4))),
        )
        for i in range(nfam)
    )
    summands = tuple(
        Summand(f"F{rng.randrange(nfam)}", rng.randint(0, max_twist), rng.randint(1, 3))
        for _ in range(rng.randint(min_summands, max_summands))
    )
    spec = ModuleSpec(cfg, fams, summands)
    if not (2 <= spec.dimension <= max_dim):
        return None
    return canonical_order(spec)[0]


def random_single_component_spec(
    rng: random.Random, max_dim: int = 6
) -> ModuleSpec | None:
    """Random spec whose summands form one same-type component."""
    cfg = Config(p=rng.choice((2, 3)))
    fam = Family("F", 1, Fraction(rng.randint(-2, 2)))
    summands = [Summand("F", 0, rng.randint(1, 3))]
    for _ in range(rng.randint(0, 2)):
        prev_top = max(s.l + s.b - 1 for s in summands)
        summands.append(Summand("F", rng.randint(0, prev_top), rng.randint(1, 3)))
    spec = ModuleSpec(cfg, (fam,), tuple(summands))
    if not (2 <= spec.dimension <= max_dim):
        return None
    spec = canonical_order(spec)[0]
    if len(type_components(spec)) != 1:
        return None
    return spec


def random_profile(rng: random.Random, spec: ModuleSpec) -> WeightProfile:
    d1 = spec.dimension
    rows = tuple(
        tuple(sorted(rng.sample(range(-6, 8), d1)))
        for _ in range(spec.config.deg_L_Qp)
    )
    return WeightProfile(rows)


def engineered_profile(rng: random.Random, spec: ModuleSpec) -> WeightProfile | None:
    """Profile whose total weight sum hits t_N exactly (when integral)."""
    cfg = spec.config
    target = t_n(spec) / cfg.deg_K_L
    if target.denominator != 1:
        return None
    d1 = spec.dimension
    rows = []
    for _ in range(cfg.deg_L_Qp - 1):
        start = rng.randint(-5, 2)
        rows.append(tuple(sorted(rng.sample(range(start, start + 12), d1))))
    rem = int(target) - sum(sum(r) for r in rows)
    x = (rem - d1 * (d1 - 1) // 2) // d1
    row = [x + i for i in range(d1)]
    row[-1] += rem - sum(row)
    if any(a >= b for a, b in zip(row, row[1:])):
        return None
    rows.append(tuple(row))
    return WeightProfile(tuple(rows))


def equal_total_profile(
    rng: random.Random, spec: ModuleSpec, flat: bool
) -> WeightProfile | None:
    """Profile whose total weight sum hits t_N exactly (when integral).

    Rows step by 1 (flat) or by 1 to 3 (spread); the last row is shifted
    to hit the total and takes the remainder on its top weight.  Flat rows
    put the most weight into the low prefixes, so they fail a prefix most
    often.
    """
    cfg = spec.config
    target = t_n(spec) / cfg.deg_K_L
    if target.denominator != 1:
        return None

    def row(start: int) -> list[int]:
        out = [start]
        for _ in range(spec.dimension - 1):
            out.append(out[-1] + (1 if flat else rng.randint(1, 3)))
        return out

    rows = [row(rng.randint(-4, 4)) for _ in range(cfg.deg_L_Qp - 1)]
    rem = int(target) - sum(map(sum, rows))
    last = row(0)
    shift = (rem - sum(last)) // len(last)
    last = [x + shift for x in last]
    last[-1] += rem - sum(last)
    return WeightProfile(tuple(map(tuple, rows + [last])))


def equal_total_stream(seed: int, count: int, **spec_args):
    """(spec, profile) pairs with equal totals, half of them (rounded down)
    failing a slope-chain prefix and the rest passing.

    `spec_args` go to random_spec; draws beyond the quota of their verdict
    are dropped.
    """
    rng = random.Random(seed)
    want = {True: count - count // 2, False: count // 2}
    out = []
    while len(out) < count:
        spec = random_spec(rng, **spec_args)
        if spec is None:
            continue
        prof = equal_total_profile(rng, spec, flat=rng.random() < 0.5)
        if prof is None:
            continue
        ok = check_slope_chain(spec, prof).ok
        if want[ok]:
            want[ok] -= 1
            out.append((spec, prof))
    return out


def mixed_slope_stream(seed: int, count: int):
    """(spec, profile) pairs for the integer-vs-Fraction criteria checks.

    Families of dimension 1 to 3, [K:L] in {1, 2} and base slopes with
    denominators up to 4, negative ones included; each spec comes with a
    random profile and, when its total is integral, an equal-total one, so
    both verdicts and every failure kind occur.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        spec = random_spec(rng, max_dim=9, h_choices=(1, 2, 3), max_twist=6)
        if spec is None:
            continue
        out.append((spec, random_profile(rng, spec)))
        prof = equal_total_profile(rng, spec, flat=rng.random() < 0.5)
        if prof is not None:
            out.append((spec, prof))
    return out


def instance_stream(seed: int, count: int, engineered_share: float = 0.5):
    """(spec, profile) pairs for the equivalence and pipeline suites."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        spec = random_spec(rng)
        if spec is None:
            continue
        if rng.random() < engineered_share:
            prof = engineered_profile(rng, spec)
            if prof is None:
                continue
        else:
            prof = random_profile(rng, spec)
        out.append((spec, prof))
    return out


def level_vectors(real, vectors) -> list:
    """(level, entries on the level) for every nonzero level component of
    full-width vectors: the generators `StableLattice.closures` takes."""
    return [
        (level, [v[i] for i in coords])
        for v in vectors
        for level, coords in enumerate(real.levels)
        if any(v[i] for i in coords)
    ]


def closure_rows(real, vectors, lattice=None):
    """Canonical rows of the Phi,N-stable closure of full-width integer
    vectors, grown on the level path."""
    lattice = lattice or StableLattice(real)
    return lattice.int_rows(lattice.closures([level_vectors(real, vectors)])[0])


def t_n_of(lattice, key) -> Fraction:
    """t_N of the stable subspace with the piece ids `key`, as a Fraction."""
    return Fraction(lattice.scaled_t_n(key), lattice.realization.level_slopes[1])
