#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark harness between two checkouts.

Each pair runs `perfbench/run.py --trace 0` once in the base checkout and
once in the changed one, on the same workload and seed, one seed per
pair.  The side that runs first alternates from pair to pair (base first
in pairs 1, 3, ...), so a drift of the host over the session does not
favour one side.  Every run is a fresh process started in its own
checkout, so each side imports its own `src/`; this script reads only the
last stdout line of each run and `BENCHMARK.json` of the changed checkout,
and imports nothing from `perfbench/`.

Per workload and end-to-end metric it prints the median and the quartiles
(`statistics.quantiles`, exclusive method) of each side, the ratio of the
medians, the pairs the change won (strictly better in the metric's
direction), and whether the median gained, in that direction, more than
the base's interquartile range.  It ends with a no-regression verdict
against the metric's `bound` in `BENCHMARK.json`, a fraction of the base
median:

- "unresolved" when the base's interquartile range is wider than the
  bound times its median, unless every change run beats every base run;
- otherwise "worse beyond bound" when the change's median is worse than
  the base's by more than the bound, and "within bound" when it is not.

A run that exits non-zero, prints no result or fails an item is reported
and stops the script with status 1.

    python3 scripts/ab_pairs.py --base ../parent --change . \\
        --workload verify_stream --seeds 601 602 603 604 605 606 607 608 609 610
    python3 scripts/ab_pairs.py --base ../parent --change . --seconds 10 \\
        --workload cli_reports --workload criteria_stream --seeds 401 402 403
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_harness(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object (last stdout line) of one benchmark run in `checkout`."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-500:]}"
        )
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} failed "
            f"{result.get('failed')} of {result.get('attempted')} items"
        )
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], sign: int, bound: float) -> str:
    """The no-regression verdict of one metric (see the module docstring);
    `sign` is 1 where higher is better and -1 where lower is."""
    bq1, bmed, bq3 = quartiles(base)
    cmed = quartiles(change)[1]
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if bq3 - bq1 > bound * abs(bmed) and not all_better:
        return "unresolved"
    if sign * (bmed - cmed) > bound * abs(bmed):
        return "worse beyond bound"
    return "within bound"


def summarize(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """Medians, quartiles, wins and the verdict of (base, change) values of
    one metric; `better` is "higher" or "lower", `bound` its regression
    bound."""
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    return {
        "base": (bq1, bmed, bq3),
        "change": (cq1, cmed, cq3),
        "ratio": cmed / bmed if bmed else float("nan"),
        "wins": wins,
        "pairs": len(pairs),
        "beyond_iqr": sign * (cmed - bmed) > bq3 - bq1,
        "verdict": verdict(base, change, sign, bound),
    }


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument(
        "--seeds", type=int, nargs="+", required=True, help="one seed per pair"
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    base, change = args.base.resolve(), args.change.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]

    status = 0
    for workload in args.workload:
        values: dict[str, list[tuple[float, float]]] = {name: [] for name, _, _ in metrics}
        for k, seed in enumerate(args.seeds):
            order = [("base", base), ("change", change)]
            if k % 2:
                order.reverse()
            results = {}
            try:
                for side, checkout in order:
                    results[side] = run_harness(checkout, workload, seed, args.seconds)
            except RuntimeError as err:
                print(f"error: {err}", file=sys.stderr)
                status = 1
                break
            for name, _, _ in metrics:
                values[name].append(
                    tuple(results[side]["metrics"][name]["value"] for side in ("base", "change"))
                )
            first = order[0][0]
            line = ", ".join(
                f"{name} {_fmt(values[name][-1][0])} -> {_fmt(values[name][-1][1])}"
                for name, _, _ in metrics
            )
            print(f"{workload} pair {k + 1} seed {seed} ({first} first): {line}", flush=True)
        if status:
            break
        print(f"{workload}: {len(args.seeds)} pairs, {args.seconds:g} s runs")
        for name, better, bound in metrics:
            s = summarize(values[name], better, bound)
            print(
                f"  {name} ({better} is better): base {_fmt(s['base'][1])} "
                f"[{_fmt(s['base'][0])}, {_fmt(s['base'][2])}], change "
                f"{_fmt(s['change'][1])} [{_fmt(s['change'][0])}, {_fmt(s['change'][2])}], "
                f"x{s['ratio']:.3f}, change won {s['wins']}/{s['pairs']}, "
                f"gain {'beyond' if s['beyond_iqr'] else 'not beyond'} the base IQR, "
                f"{s['verdict']} (bound {bound:g})"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
