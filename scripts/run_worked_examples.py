#!/usr/bin/env python3
"""Drive the three worked block-chain examples end to end.

The specs and weight profiles are read from `data/`.  For each example:
canonical order, modification edges, slope-chain and shuffle-valuation
verdicts, and the full admissibility pipeline, printed as a compact table.
"""

import argparse
import json
from fractions import Fraction
from pathlib import Path

from filtadm import (
    build_modified_frobenius,
    build_transverse_filtration,
    check_admissible,
    check_emerton_condition,
    check_slope_chain,
    realize_matrices,
    t_n,
)
from filtadm.model import profile_from_dict, spec_from_dict

DATA = Path(__file__).resolve().parent.parent / "data"

# example name -> (spec file, weight file) in data/
EXAMPLES = {
    "1a": ("ex1a_spec.json", "weights_m212.json"),
    "1b": ("ex1b_spec.json", "weights_ex1b.json"),
    "2": ("ex2_spec.json", "weights_ex2.json"),
    "3": ("ex3_spec.json", "weights_ex3.json"),
}


def _load(name: str):
    spec_file, weights_file = EXAMPLES[name]
    with open(DATA / spec_file) as fh:
        spec = spec_from_dict(json.load(fh))
    with open(DATA / weights_file) as fh:
        prof = profile_from_dict(json.load(fh))
    return spec, prof


def run(name: str, seed: int, no_modify: bool) -> None:
    spec, prof = _load(name)
    weights = prof.weights[0]
    edges = () if no_modify else build_modified_frobenius(spec)
    chain = check_slope_chain(spec, prof)
    emerton = check_emerton_condition(spec, prof)
    real = realize_matrices(spec, edges)
    filt = build_transverse_filtration(spec, prof, real, seed=seed)
    rep = check_admissible(spec, prof, real, filt, seed=seed)
    print(
        f"example {name}: dims={[s.b for s in spec.summands]} "
        f"t_N={t_n(spec)} weights={weights}"
    )
    print(f"  edges: {[(e.src, e.dst, e.alignment) for e in edges]}")
    print(f"  slope chain: {'pass' if chain.ok else f'fail ({chain.failure})'}")
    print(f"  shuffle valuations: {'pass' if emerton.ok else f'fail ({emerton.failure})'}")
    verdict = "admissible" if rep.ok else f"violated ({rep.reason})"
    classes = [row for row in rep.table if "tHBound" in row]
    certified = sum(Fraction(row["tHBound"]) <= Fraction(row["tN"]) for row in classes)
    print(f"  pipeline: {verdict}, {len(classes)} classes, {certified} certified")
    if rep.witness and rep.reason == "witness":
        w = rep.witness
        print(
            f"  witness: dim {w['dim']}, tH={w['tH']}, tN={w['tN']}, "
            f"inside good {w['enclosingGood']}"
        )
    print()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--no-modify", action="store_true")
    parser.add_argument("--only", choices=sorted(EXAMPLES), default=None)
    args = parser.parse_args(argv)
    names = [args.only] if args.only else sorted(EXAMPLES)
    for name in names:
        run(name, args.seed, args.no_modify)


if __name__ == "__main__":
    main()
