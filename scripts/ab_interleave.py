#!/usr/bin/env python3
"""A/B of two checkouts in one process, whole passes interleaved.

The package of each checkout (`<checkout>/src/filtadm`) is imported under
its own name, `filtadm_base` and `filtadm_change`; the package uses only
relative imports, so the two copies stand side by side.  One workload per
side is built from `perfbench/workloads.py` of the changed checkout,
which this script imports and does not change, each in its own temporary
root with `data/` linked from the changed checkout.

After one untimed pass per side, the script runs R rounds.  A round times
one whole pass over each side's timed items (only `execute`; `verify`
checks every result outside the clock), and the side that goes first
alternates from round to round (base first in rounds 1, 3, ...).  Both
sides see the same host drift within a round, so the per-round ratio
change/base of items per second is steadier than that of two separate
processes run a minute apart (`scripts/ab_pairs.py`).  It prints each
side's median items/s and the median, min and max of the ratio.  Every
item's latency is kept too, and each line ends with each side's p50 and
p90 per item over its rounds, pooled, as `perfbench/run.py` computes
them (`statistics.median` and the ninth decile of
`statistics.quantiles`), so that a change can cite the tail it moves.

`--seed` may be given several times.  Each seed draws its own items and
runs its own R rounds, one seed after the other, and prints its own line;
after the last, one more line gives the median, min and max of the
ratios of every round of every seed, pooled.  A failed item stops the
script with status 1.

    python3 scripts/ab_interleave.py --base ../parent --change . \\
        --workload cli_reports --seed 5 --rounds 20
    python3 scripts/ab_interleave.py --base ../parent --change . \\
        --workload verify_stream --seed 5 --seed 11 --rounds 40
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "change")


def load_package(checkout: Path, name: str):
    """`checkout/src/filtadm` imported as the package `name`, with `cli`;
    a package loaded under `name` before is dropped with its submodules."""
    for key in [k for k in sys.modules if k == name or k.startswith(f"{name}.")]:
        del sys.modules[key]
    path = checkout / "src" / "filtadm"
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def load_workloads(checkout: Path) -> dict:
    """The `WORKLOADS` table of `checkout/perfbench/workloads.py`."""
    sys.path.insert(0, str(checkout / "perfbench"))
    return importlib.import_module("workloads").WORKLOADS


def timed_pass(wl) -> list[float]:
    """Seconds spent in `execute` on each timed item of one pass; a result
    that `verify` refuses raises RuntimeError."""
    spent = []
    for item in wl.timed:
        t0 = time.perf_counter()
        result = wl.execute(item)
        spent.append(time.perf_counter() - t0)
        error = wl.verify(item, result)
        if error is not None:
            raise RuntimeError(f"{wl.fm.__name__}: {wl.label(item)}: {error}")
    return spent


def interleave(
    workloads: dict, rounds: int
) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Items per second of each side, one value per round, and the
    latency of every item of every round, per side."""
    rates: dict[str, list[float]] = {side: [] for side in SIDES}
    latencies: dict[str, list[float]] = {side: [] for side in SIDES}
    for wl in workloads.values():
        timed_pass(wl)
    for r in range(rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for side in order:
            spent = timed_pass(workloads[side])
            rates[side].append(len(spent) / sum(spent))
            latencies[side] += spent
    return rates, latencies


def run_seed(table, checkouts, packages, workload: str, seed: int, rounds: int):
    """(rates, latencies, items) of one seed: each side's workload drawn
    from `seed` in its own temporary root, then `interleave`d."""
    with tempfile.TemporaryDirectory() as tmp:
        workloads = {}
        for side, checkout in checkouts.items():
            root = Path(tmp) / side
            root.mkdir()
            (root / "data").symlink_to(checkouts["change"] / "data")
            workloads[side] = table[workload](packages[side], seed, root)
            workloads[side].prepare()
        return *interleave(workloads, rounds), len(workloads["change"].timed)


def ratio_text(ratios: list[float]) -> str:
    return (
        f"ratio change/base median x{statistics.median(ratios):.3f} "
        f"(min x{min(ratios):.3f}, max x{max(ratios):.3f})"
    )


def tail_text(latencies: dict[str, list[float]]) -> str:
    """Each side's p50 and p90 per item, in ms, as `perfbench/run.py`
    computes them."""
    parts = []
    for side in SIDES:
        spent = latencies[side]
        p90 = statistics.quantiles(spent, n=10)[8] if len(spent) > 1 else spent[0]
        parts.append(
            f"{side} p50 {1000 * statistics.median(spent):.3f} ms "
            f"p90 {1000 * p90:.3f} ms"
        )
    return ", ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, action="append", required=True,
        help="workload seed; give it several times for several seeds",
    )
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    table = load_workloads(checkouts["change"])
    packages = {
        side: load_package(checkout, f"filtadm_{side}")
        for side, checkout in checkouts.items()
    }
    pooled = []
    pooled_latencies: dict[str, list[float]] = {side: [] for side in SIDES}
    for seed in args.seed:
        try:
            rates, latencies, items = run_seed(
                table, checkouts, packages, args.workload, seed, args.rounds
            )
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        ratios = [c / b for b, c in zip(rates["base"], rates["change"])]
        pooled += ratios
        for side in SIDES:
            pooled_latencies[side] += latencies[side]
        print(
            f"{args.workload} seed {seed}: {args.rounds} rounds of {items} items, "
            f"base {statistics.median(rates['base']):.1f}/s, "
            f"change {statistics.median(rates['change']):.1f}/s, "
            f"{ratio_text(ratios)}; {tail_text(latencies)}",
            flush=True,
        )
    if len(args.seed) > 1:
        seeds = " ".join(map(str, args.seed))
        print(
            f"{args.workload} pooled over seeds {seeds}: {len(pooled)} rounds, "
            f"{ratio_text(pooled)}; {tail_text(pooled_latencies)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
