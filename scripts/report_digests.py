#!/usr/bin/env python3
"""One sha256 per benchmark workload and seed over every report it produces.

The items come from the benchmark's own workload definitions in
`perfbench/workloads.py`, which this script imports and does not change:

- `verify_stream`: the `check_admissible` report of every timed and every
  traced item, as sorted-key JSON;
- `criteria_stream`: the `as_dict()` of the slope chain, all block orders
  and shuffle condition verdicts of every timed and every traced item, as
  one sorted-key JSON list per item;
- `cli_reports`: the exit code and the stdout of every CLI call, with the
  temporary directory of the generated inputs replaced by `<root>`.

Equal digests for a parent and a changed checkout mean equal report
bytes, item for item.  With `--verdicts` only the verdicts are hashed:
`ok`, `reason` and `witness.kind` of every `check_admissible` report and
of every CLI report's `verdict`, the `ok` of every criteria verdict, and
the CLI exit codes.  Equal verdict digests mean equal decisions where the
report content differs.  With `--no-modify` every `verify_stream` item is
realized without modification edges, as `verify-admissible --no-modify`
realizes it, and its lines read `verify_stream no-modify`.  The package
is imported from `src/` of the checkout that holds this script.

    python3 scripts/report_digests.py --seeds 11 12 21
    python3 scripts/report_digests.py --workload cli_reports --seeds 3 --count 10
    python3 scripts/report_digests.py --verdicts --seeds 11 12 21
    python3 scripts/report_digests.py --no-modify --workload verify_stream --seeds 5
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import filtadm  # noqa: E402
import filtadm.cli  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

DIGESTED = ("verify_stream", "criteria_stream", "cli_reports")


def _items(wl, count: int | None) -> list:
    items = wl.timed if wl.traced is wl.timed else wl.timed + wl.traced
    return items if count is None else items[:count]


def _decision(verdict: dict | None) -> list | None:
    """ok, reason and witness kind of a verdict dict."""
    if verdict is None:
        return None
    witness = verdict.get("witness") or {}
    return [verdict.get("ok"), verdict.get("reason"), witness.get("kind")]


def _unmodified(fm, item):
    """The `check_admissible` report of a `verify_stream` item realized
    with no modification edges."""
    spec, profile, seed = item["spec"], item["profile"], item["seed"]
    ordered = fm.ordering.canonical_order(spec)[0]
    real = fm.frobenius.realize_matrices(ordered)
    filt = fm.filtration.build_transverse_filtration(ordered, profile, real, seed=seed)
    return fm.filtration.check_admissible(ordered, profile, real, filt, seed=seed)


def digest(
    workload: str, seed: int, count: int | None = None, verdicts: bool = False,
    modify: bool = True,
) -> tuple[int, str]:
    """(items hashed, sha256) for one workload and seed; with `verdicts`,
    over the decisions only; without `modify`, over `verify_stream`
    reports on unmodified realizations."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "data").symlink_to(ROOT / "data")
        wl = WORKLOADS[workload](filtadm, seed, root)
        wl.prepare()
        items = _items(wl, count)
        for k, item in enumerate(items):
            if workload == "verify_stream":
                report = (wl.execute(item) if modify else _unmodified(filtadm, item)).as_dict()
                if verdicts:
                    report = _decision(report)
                out = json.dumps(report, sort_keys=True)
            elif workload == "criteria_stream":
                result = wl.execute(item)
                if verdicts:
                    out = json.dumps([v.ok for v in result])
                else:
                    out = json.dumps([v.as_dict() for v in result], sort_keys=True)
            else:
                code, stdout = wl.execute(item)
                if verdicts:
                    report = json.loads(stdout)
                    out = json.dumps([code, _decision(report.get("verdict"))])
                else:
                    out = f"{code}\n{stdout.replace(str(root), '<root>')}"
            h.update(f"{k}\0{out}\0".encode())
    return len(items), h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=DIGESTED, action="append")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 21])
    parser.add_argument(
        "--count", type=int, default=None,
        help="hash only the first COUNT items of each workload",
    )
    parser.add_argument(
        "--verdicts", action="store_true",
        help="hash only the decisions: ok, reason, witness kind, exit codes",
    )
    parser.add_argument(
        "--no-modify", action="store_true",
        help="realize the verify_stream items without modification edges",
    )
    args = parser.parse_args(argv)
    for workload in args.workload or DIGESTED:
        tag = " no-modify" if args.no_modify and workload == "verify_stream" else ""
        tag += " verdicts" if args.verdicts else ""
        for seed in args.seeds:
            n, sha = digest(workload, seed, args.count, args.verdicts, not args.no_modify)
            print(f"{workload}{tag} seed={seed} items={n} sha256={sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
