#!/usr/bin/env python3
"""Randomized cross-check of the two decidable slope conditions.

Samples module specs with rational base slopes and weight profiles,
alternating between random profiles and profiles that meet the
total-slope equality, half of the latter failing a slope-chain prefix (as
`equal_total_stream` draws them), asserts that the prefix slope chain and
the shuffle valuation condition agree, and
optionally runs the full construction pipeline on every instance: its
verdict must match, every ok must rest on chain certificates, and the
count of each proof source (certificate, or the good, search or
equality witness of a failure) is printed, with the count of modified
realizations whose stable subspaces are finitely many (every level a
chain, `ConcreteRealization.uniserial`: they are the stable good spans)
and infinitely many.  The generators are the ones the test suite uses,
from tests/helpers.py.

    PYTHONPATH=src python scripts/fuzz_equivalence.py --trials 500 --seed 0
"""

import argparse
import random
import sys
import time
from pathlib import Path

from filtadm import (
    build_modified_frobenius,
    build_transverse_filtration,
    check_admissible,
    check_emerton_condition,
    check_slope_chain,
    realize_matrices,
)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import equal_total_stream, random_profile, random_spec  # noqa: E402


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-dim", type=int, default=6)
    parser.add_argument(
        "--pipeline", action="store_true",
        help="also run realize/filter/verify on every instance",
    )
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    t0 = time.time()
    equal = iter(equal_total_stream(
        args.seed, args.trials - args.trials // 2, max_dim=args.max_dim
    ))
    done = passes = 0
    sources: dict[str, int] = {}
    lattices = {"finite": 0, "infinite": 0}
    while done < args.trials:
        if done % 2 == 0:
            spec, prof = next(equal)
        else:
            spec = random_spec(rng, args.max_dim)
            if spec is None:
                continue
            prof = random_profile(rng, spec)
        a = check_slope_chain(spec, prof).ok
        b = check_emerton_condition(spec, prof).ok
        if a != b:
            raise SystemExit(
                f"DISAGREEMENT at trial {done}: {spec.summands} {prof.weights}"
            )
        if args.pipeline:
            edges = build_modified_frobenius(spec)
            real = realize_matrices(spec, edges)
            filt = build_transverse_filtration(spec, prof, real, seed=done)
            rep = check_admissible(spec, prof, real, filt, seed=done)
            if rep.ok != a:
                raise SystemExit(
                    f"PIPELINE MISMATCH at trial {done}: {spec.summands}"
                )
            if rep.ok and rep.proof != "certificate":
                raise SystemExit(
                    f"UNCERTIFIED OK at trial {done}: {spec.summands} {prof.weights}"
                )
            # an ok names its proof, a failure the source of its witness
            source = rep.proof if rep.ok else rep.witness.get("source", rep.reason)
            sources[source] = sources.get(source, 0) + 1
            lattices["finite" if real.uniserial else "infinite"] += 1
        passes += a
        done += 1
    dt = time.time() - t0
    mode = "equivalence+pipeline" if args.pipeline else "equivalence"
    print(
        f"{mode}: {done} instances agree ({passes} pass, {done - passes} fail) "
        f"in {dt:.1f}s"
    )
    if args.pipeline:
        counts = ", ".join(f"{name} {n}" for name, n in sorted(sources.items()))
        print(f"proof sources: {counts}")
        print(f"lattices: finite {lattices['finite']}, infinite {lattices['infinite']}")


if __name__ == "__main__":
    main()
