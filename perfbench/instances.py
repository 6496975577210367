"""Seeded instance generators for the benchmark workloads.

Instances are plain JSON-shaped dicts in the package's wire format (see
the README's "JSON formats"), so the same draw can be handed to the
library as model objects or written to a file for the command line.
Every profile is equal-total: the weight sum times [K:L] equals the
Newton slope of the whole module, so no instance stops at the total
equality check.

Draws are shaped by a fixed schedule of summand lengths and embedding
counts per slot; the seed picks everything else (prime, [K:L], families,
base slopes, twists, summand order and the profile).  Keeping the shape
schedule fixed keeps the work per run comparable across seeds, because
the cost of subspace enumeration and of the shuffle scan is set mostly by
the chain lengths and the number of embeddings.
A draw whose Newton slope is not an integer multiple of [K:L] cannot
carry an equal-total integer profile; it is rejected, redrawn and counted.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction


class Draws:
    """Counts the draws of one workload's set-up.

    `accepted` draws carried an equal-total profile and `rejected` draws
    could not.  `off_verdict` counts accepted draws that were dropped
    because their slope-chain verdict was not the one their slot asks for.
    """

    def __init__(self) -> None:
        self.accepted = 0
        self.rejected = 0
        self.off_verdict = 0


def _row(rng: random.Random, length: int, flat: bool, start: int) -> list[int]:
    row = [start]
    for _ in range(length - 1):
        row.append(row[-1] + (1 if flat else rng.randint(1, 3)))
    return row


def equal_total_profile(
    rng: random.Random, length: int, rows: int, target: int, flat: bool
) -> list[list[int]]:
    """`rows` strictly increasing rows of `length` integers summing to `target`.

    Flat rows use consecutive weights; spread rows use gaps of 1 to 3.  The
    last row is shifted to hit the target and takes the remainder on its
    top weight, which keeps it strictly increasing.
    """
    out = [_row(rng, length, flat, rng.randint(-4, 4)) for _ in range(rows - 1)]
    rem = target - sum(map(sum, out))
    base = _row(rng, length, flat, 0)
    shift = (rem - sum(base)) // length
    last = [shift + x for x in base]
    last[-1] += rem - sum(last)
    out.append(last)
    return out


def newton_total(spec: dict) -> Fraction:
    """t_N of the whole module: sum over blocks of t_base + twist * [K:Qp]."""
    fams = {f["id"]: Fraction(f["tBase"]) for f in spec["families"]}
    total = Fraction(0)
    for s in spec["summands"]:
        for k in range(s["b"]):
            total += fams[s["family"]] + (s["l"] + k) * spec["degKQp"]
    return total


def dimension(spec: dict) -> int:
    h = {f["id"]: f["h"] for f in spec["families"]}
    return sum(s["b"] * h[s["family"]] for s in spec["summands"])


def draw_instance(
    rng: random.Random,
    lengths: tuple[int, ...],
    draws: Draws,
    embeddings: int,
    max_twist: int,
    h: int,
    max_families: int,
) -> dict:
    """One equal-total instance with the given summand lengths, [L:Qp] and
    family dimension h.

    Bottom twists are drawn from 0..max_twist; the wider the range, the
    more the block slopes spread and the more often a prefix fails.
    """
    deg_l_qp = embeddings
    while True:
        deg_k_l = rng.choice((1, 1, 2))
        nfam = rng.randint(1, max_families)
        spec = {
            "p": rng.choice((2, 3)),
            "degKQp": deg_k_l * deg_l_qp,
            "degLQp": deg_l_qp,
            "degKL": deg_k_l,
            "fPrime": 1,
            "families": [
                {
                    "id": f"F{i}",
                    "h": h,
                    "tBase": f"{rng.randint(-3, 3)}/{rng.choice((1, 2))}",
                }
                for i in range(nfam)
            ],
            "summands": [
                {"family": f"F{rng.randrange(nfam)}", "l": rng.randint(0, max_twist), "b": b}
                for b in rng.sample(lengths, len(lengths))
            ],
        }
        target = newton_total(spec) / deg_k_l
        if target.denominator != 1:
            draws.rejected += 1
            continue
        draws.accepted += 1
        flat = rng.random() < 0.5
        weights = equal_total_profile(
            rng, dimension(spec), deg_l_qp, int(target), flat
        )
        return {"spec": spec, "weights": weights, "flat": flat}


def digest(instances: list) -> str:
    """sha256 of the canonical JSON of an instance list."""
    data = json.dumps(instances, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


def to_model(fm, inst: dict):
    """(ModuleSpec, WeightProfile) built from the loaded package `fm`."""
    s = inst["spec"]
    cfg = fm.Config(
        p=s["p"], deg_K_Qp=s["degKQp"], deg_L_Qp=s["degLQp"],
        deg_K_L=s["degKL"], f_prime=s["fPrime"],
    )
    fams = tuple(fm.Family(f["id"], f["h"], Fraction(f["tBase"])) for f in s["families"])
    summands = tuple(fm.Summand(x["family"], x["l"], x["b"]) for x in s["summands"])
    return fm.ModuleSpec(cfg, fams, summands), fm.WeightProfile(inst["weights"])
