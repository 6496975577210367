#!/usr/bin/env python3
"""Benchmark for the filtadm package: seeded closed-loop workloads.

    python3 perfbench/run.py --workload verify_stream --seed 1 --seconds 30 --trace 0

The package is imported from `src/` of the checkout that holds this
directory, never from an installed copy.  Workloads are defined in
`workloads.py`; metric names, units and directions in `BENCHMARK.json`.

With `--trace 0` the run sets up several times (imports, instance
generation, input files, warm-up) and reports the median as `setup_s`,
then calls items back to back for `--seconds` seconds and reports
throughput, latency percentiles and peak resident memory.  Timings are
scaled to a reference host speed measured in the same run (see
`speed.py`); the raw values go on the report line.

With `--trace 1` it runs the workload's fixed traced item list four
times, alternating plain passes (latency breakdowns, overhead base) with
passes that record spans around every call into the package (see
`spans.py`).  The two traced passes must agree on every call count and
counter.  This run ignores `--seconds`, so that its counts depend only on
the seed.

Every output is checked against the workload's oracle.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it describes the run (code version, Python,
CPU count, seed, instance digest, rejected draws, sample counts and the
first failures).  Without a `src/filtadm` package and the `data/` examples
next to it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MAX_FAILURES_SHOWN = 5

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer, TraceSummary  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import WORK_DIR, WORKLOADS  # noqa: E402


def load_package():
    """Import filtadm afresh from the checkout's src/ and return it."""
    for name in [n for n in sys.modules if n == "filtadm" or n.startswith("filtadm.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    fm = importlib.import_module("filtadm")
    importlib.import_module("filtadm.cli")
    return fm


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "filtadm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Tally:
    """Attempted and failed items, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def call(self, wl, item) -> float:
        """Run one item, check it, and return its latency in seconds."""
        t0 = time.perf_counter()
        try:
            result = wl.execute(item)
            error = None
        except Exception as exc:  # an unexpected exception fails the item
            result = None
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        latency = time.perf_counter() - t0
        if error is None:
            error = wl.verify(item, result)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < MAX_FAILURES_SHOWN:
                self.messages.append(f"{wl.label(item)}: {error}")
        return latency


def setup(name: str, seed: int):
    """One full set-up; returns (seconds, workload)."""
    t0 = time.perf_counter()
    fm = load_package()
    wl = WORKLOADS[name](fm, seed, ROOT)
    wl.prepare()
    return time.perf_counter() - t0, wl


def timed_run(wl, seconds: float, tally: Tally, speed: Speed) -> dict:
    """Raw timings; kernel samples taken between items are not counted."""
    latencies = []
    items = wl.timed
    spent = speed.spent
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = 0
    while True:
        latencies.append(tally.call(wl, items[i % len(items)]))
        i += 1
        speed.maybe_sample()
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - t0 - (speed.spent - spent)
    for item in wl.unrepeated():
        tally.call(wl, item)
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    return {
        "throughput_per_s": len(latencies) / elapsed,
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p90_ms": 1000.0 * deciles[8],
        "samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > deciles[8]),
    }


def traced_run(wl, tally: Tally, out: Path) -> tuple[dict, dict]:
    """Plain, traced, plain, traced passes over the fixed traced list."""
    items = wl.traced
    breakdown: dict[str, list[float]] = {}
    plain_s, traced_s, summaries = [], [], []
    for k in range(2):
        t0 = time.perf_counter()
        for item in items:
            breakdown.setdefault(wl.label(item), []).append(tally.call(wl, item))
        plain_s.append(time.perf_counter() - t0)
        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            for item in items:
                tally.call(wl, item)
        finally:
            traced_s.append(time.perf_counter() - t0)
            tracer.uninstall()
        if k == 0:
            tracer.write(out)
        summaries.append(TraceSummary(tracer))
    first, second = summaries
    values = {
        "trace_overhead_ratio": sum(traced_s) / sum(plain_s),
        "_breakdown": {k: (1000.0 * statistics.median(v), len(v)) for k, v in breakdown.items()},
        "_summary": first,
    }
    checks = {
        "deterministic_counts_repeat": first.deterministic() == second.deterministic(),
        # The self times inside check_admissible add up to its span, up to
        # the time tracing itself added.
        "check_admissible_self_time_closes": abs(first.check_self_s - first.check_total_s)
        <= max(traced_s[0] - plain_s[0], 0.0) + 1e-6,
        "absent_targets": first.absent,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "counters": first.counters,
    }
    return values, checks


def per_layer_value(name: str, values: dict):
    if name == "trace_overhead_ratio":
        return values[name]
    if name.endswith(".p50_ms"):
        # A breakdown with no items of its kind on this workload reads 0.
        return values["_breakdown"].get(name[: -len(".p50_ms")], (0.0, 0))[0]
    return values["_summary"].value(name)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "filtadm" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        print(f"no src/filtadm package or data/ directory under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()

    # Set-up runs before the timed phase and is scaled by kernel samples
    # taken around it, not by the timed phase's.
    setup_speed = Speed()
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_speed.sample()
        seconds, wl = setup(args.workload, args.seed)
        setups.append(seconds)
        setup_speed.sample()

    tally = Tally()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "shape": "closed loop, one client, one process",
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "instance_sha256": wl.digest(),
        "draws_accepted": wl.draws.accepted,
        "draws_rejected": wl.draws.rejected,
        "draws_off_verdict": wl.draws.off_verdict,
    }
    if args.trace:
        out = work / f"trace-{args.workload}-seed{args.seed}.spans"
        values, checks = traced_run(wl, tally, out)
        report["trace_checks"] = dict(checks, spans_file=str(out.relative_to(ROOT)))
        report["breakdown_p50_ms"] = {k: {"ms": ms, "samples": n} for k, (ms, n) in values["_breakdown"].items()}
        metrics = {}
        for spec in bench["per_layer"]:
            value = per_layer_value(spec["name"], values)
            if value is None:
                print(f"unknown per-layer metric {spec['name']}", file=sys.stderr)
                return 2
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        ok = checks["deterministic_counts_repeat"] and checks["check_admissible_self_time_closes"]
    else:
        speed = Speed()
        raw = timed_run(wl, args.seconds, tally, speed)
        raw["setup_s"] = statistics.median(setups)
        scale = speed.scale()
        values = {
            "throughput_per_s": raw["throughput_per_s"] / scale,
            "latency_p50_ms": raw["latency_p50_ms"] * scale,
            "latency_p90_ms": raw["latency_p90_ms"] * scale,
            "setup_s": raw["setup_s"] * setup_speed.scale(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["raw"] = raw
        report["setup_runs_s"] = setups
        report["host_scale"] = scale
        report["setup_host_scale"] = setup_speed.scale()
        report["kernel_ms_median"] = 1000.0 * statistics.median(speed.samples)
        report["kernel_samples"] = len(speed.samples)
        metrics = {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in bench["end_to_end"]
        }
        ok = True
    report["failed_share"] = tally.failed / tally.attempted
    report["failures"] = tally.messages
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
