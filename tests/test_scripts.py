import importlib.util
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_test_runs_under_the_time_limit():
    # conftest's autouse timer is armed for the test, at most the limit away
    import conftest

    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= conftest.TIME_LIMIT_S
    assert signal.getsignal(signal.SIGALRM).__name__ == "expire"


def test_fuzz_equivalence_smoke(capsys):
    _load("fuzz_equivalence").main(["--trials", "30", "--seed", "1"])
    out = capsys.readouterr().out
    assert out.startswith("equivalence: 30 instances agree")


def test_fuzz_equivalence_pipeline_counts_proof_sources(capsys):
    # every ok on a modified realization is certified (the script exits
    # otherwise), and failures come from goods or the total equality; the
    # equal-total half fails a prefix half the time, so goods are common
    _load("fuzz_equivalence").main(["--trials", "40", "--seed", "2", "--pipeline"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("equivalence+pipeline: 40 instances agree")
    counts = dict(
        part.split(" ") for part in lines[1].removeprefix("proof sources: ").split(", ")
    )
    assert set(counts) <= {"certificate", "good", "equality"}
    assert sum(map(int, counts.values())) == 40 and "certificate" in counts
    assert int(counts.get("good", 0)) >= 8
    # the modified realizations hold lattices of both kinds
    finite, infinite = (
        int(part.rsplit(" ", 1)[1])
        for part in lines[2].removeprefix("lattices: ").split(", ")
    )
    assert lines[2].startswith("lattices: finite ")
    assert finite > 0 and infinite > 0 and finite + infinite == 40


# Verdict lines printed before the examples moved to data/; the pipeline
# lines count the subspace classes and those a chain certificate closes.
WORKED_VERDICTS = {
    (): [
        "example 1a: dims=[1, 2] t_N=1 weights=(-2, 1, 2)",
        "  pipeline: admissible, 3 classes, 3 certified",
        "example 1b: dims=[2, 1] t_N=2 weights=(-2, 1, 3)",
        "  pipeline: admissible, 3 classes, 3 certified",
        "example 2: dims=[2, 2] t_N=4 weights=(-1, 0, 2, 3)",
        "  pipeline: admissible, 8 classes, 8 certified",
        "example 3: dims=[3, 1] t_N=4 weights=(-2, 0, 2, 4)",
        "  pipeline: admissible, 7 classes, 7 certified",
    ],
    ("--no-modify",): [
        "example 1a: dims=[1, 2] t_N=1 weights=(-2, 1, 2)",
        "  pipeline: violated (witness), 5 classes, 4 certified",
        "  witness: dim 1, tH=1/1, tN=0/1, inside good [1, 1]",
        "example 1b: dims=[2, 1] t_N=2 weights=(-2, 1, 3)",
        "  pipeline: admissible, 5 classes, 5 certified",
        "example 2: dims=[2, 2] t_N=4 weights=(-1, 0, 2, 3)",
        "  pipeline: admissible, 8 classes, 8 certified",
        "example 3: dims=[3, 1] t_N=4 weights=(-2, 0, 2, 4)",
        "  pipeline: admissible, 7 classes, 7 certified",
    ],
}


def test_run_worked_examples_verdicts(capsys):
    module = _load("run_worked_examples")
    for argv, want in WORKED_VERDICTS.items():
        module.main(list(argv))
        lines = capsys.readouterr().out.splitlines()
        assert [
            line for line in lines
            if line.startswith(("example", "  pipeline", "  witness"))
        ] == want
        assert lines.count("  slope chain: pass") == 4
        assert lines.count("  shuffle valuations: pass") == 4


def test_report_digests_smoke(capsys):
    module = _load("report_digests")
    argv = ["--seeds", "3", "--count", "4"]
    module.main(argv)
    first = capsys.readouterr().out.splitlines()
    assert [line.split(" sha256=")[0] for line in first] == [
        "verify_stream seed=3 items=4",
        "criteria_stream seed=3 items=4",
        "cli_reports seed=3 items=4",
    ]
    assert all(len(line.split(" sha256=")[1]) == 64 for line in first)
    # the digests repeat, and a different item count changes them
    module.main(argv)
    assert capsys.readouterr().out.splitlines() == first
    module.main(["--workload", "cli_reports", "--seeds", "3", "--count", "3"])
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("cli_reports seed=3 items=3 ") and line != first[2]


def test_report_digests_no_modify_smoke(capsys):
    # the flag realizes the verify_stream items without edges and tags
    # their lines; the other workloads print as without it
    module = _load("report_digests")
    module.main(["--seeds", "3", "--count", "4", "--no-modify"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" sha256=")[0] for line in lines] == [
        "verify_stream no-modify seed=3 items=4",
        "criteria_stream seed=3 items=4",
        "cli_reports seed=3 items=4",
    ]
    module.main(["--workload", "verify_stream", "--seeds", "3", "--count", "4"])
    (modified,) = capsys.readouterr().out.splitlines()
    assert modified.split(" sha256=")[1] != lines[0].split(" sha256=")[1]
    module.main(["--no-modify", "--verdicts", "--workload", "verify_stream",
                 "--seeds", "3", "--count", "4"])
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("verify_stream no-modify verdicts seed=3 items=4 ")


# Every seed-3 verify_stream item, modified and not: all-chains
# realizations of both kinds read their classes off the good scan, and
# the reports are the lattice route's.  Computed before that step.
PINNED_STREAM_SEED = [
    "verify_stream seed=3 items=252 "
    "sha256=1406eba503b18bc2bd09922c8e5bdac74d4ed509da8cdb956c2c95b70ff4d8f4",
    "verify_stream no-modify seed=3 items=252 "
    "sha256=728b0205d2b0d8002f58b5ce8ba3f31095bed844a0df25a16937c3861159458d",
]


def test_stream_seed_digests_pinned(capsys):
    module = _load("report_digests")
    module.main(["--workload", "verify_stream", "--seeds", "3"])
    module.main(["--workload", "verify_stream", "--seeds", "3", "--no-modify"])
    assert capsys.readouterr().out.splitlines() == PINNED_STREAM_SEED


# The first 12 seed-3 items: the check_admissible reports of the stream,
# and the CLI calls on data/ (every subcommand, including `subobjects`
# and both `verify-admissible` runs).  A change to the report bytes of
# either fails here.  Re-pinned when chain certificates took the place of
# the candidate search; `PINNED_VERDICTS` below shows that no decision
# moved.
PINNED_DIGESTS = [
    "verify_stream seed=3 items=12 "
    "sha256=8da2e10fa6ec969d0cd79f5f899b1d0f46fa4dced50c022af51e2b9595ce33fd",
    "cli_reports seed=3 items=12 "
    "sha256=3ddafa98c323388e30c5d2766bec74e544861c2d1be8c8a858041d6330d60847",
]


def test_report_digests_pinned(capsys):
    module = _load("report_digests")
    module.main([
        "--workload", "verify_stream", "--workload", "cli_reports",
        "--seeds", "3", "--count", "12",
    ])
    assert capsys.readouterr().out.splitlines() == PINNED_DIGESTS


# Every call of two whole seeds: the 50-row `check-emerton` tables and
# `build-filtration` on generated specs, which the first 12 items do not
# reach.  Computed before the report writer replaced `json.dumps`.
PINNED_CLI_SEEDS = [
    "cli_reports seed=3 items=98 "
    "sha256=999f4ceb435d37be092ac5eb08df7b315c8240ae49cb80cbed1bb9064f17adf1",
    "cli_reports seed=5 items=98 "
    "sha256=c354c038a4f271f58db17c9212f8bea0dad71a42c011a3e8adfde194f24fd681",
]


def test_cli_seed_digests_pinned(capsys):
    _load("report_digests").main(["--workload", "cli_reports", "--seeds", "3", "5"])
    assert capsys.readouterr().out.splitlines() == PINNED_CLI_SEEDS


# The decisions of the same items: ok, reason and witness kind of every
# verdict, and the CLI exit codes.  Computed before chain certificates
# replaced the search: the proofs changed the report bytes, not one
# decision.
PINNED_VERDICTS = [
    "verify_stream verdicts seed=3 items=12 "
    "sha256=85a473f89a4a4efc9c013a7d3ebc7015e4787ef277be019fe5fa76f3366bac65",
    "cli_reports verdicts seed=3 items=12 "
    "sha256=29e80412204ffe785d411dc3860575f86370ce5ab7fef89d9e6012e42adf71f5",
]


def test_verdict_digests_pinned(capsys):
    module = _load("report_digests")
    module.main([
        "--verdicts", "--workload", "verify_stream", "--workload", "cli_reports",
        "--seeds", "3", "--count", "12",
    ])
    assert capsys.readouterr().out.splitlines() == PINNED_VERDICTS


def test_criteria_digest_pinned(capsys):
    # the slope chain, block order and shuffle verdicts of the first 12
    # seed-3 `criteria_stream` items
    module = _load("report_digests")
    module.main(["--workload", "criteria_stream", "--seeds", "3", "--count", "12"])
    assert capsys.readouterr().out.splitlines() == [
        "criteria_stream seed=3 items=12 "
        "sha256=23b5ea2334fbc7d553bd874f5f56665deebe87aca8958167278c23cb04533059",
    ]


# A stand-in for `perfbench/run.py`: it logs which checkout ran, then
# prints a description line and the result line the harness prints.
STUB_HARNESS = """
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(here.parent / "order.log", "a") as fh:
    fh.write(f"{here.name} {args['--seed']}\\n")
speed = {"base": 100.0, "change": 120.0}[here.name] + int(args["--seed"])
metrics = {
    "throughput_per_s": speed, "latency_p50_ms": 1000 / speed,
    "latency_p90_ms": 2000 / speed, "setup_s": 0.1, "peak_rss_mb": 30.0,
}
print(json.dumps({"workload": args["--workload"]}))
print(json.dumps({
    "correct": True, "attempted": 10, "failed": 0,
    "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()},
}))
"""


def test_ab_pairs_alternates_and_counts_wins(tmp_path, capsys):
    root = Path(__file__).parent.parent
    for side in ("base", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_HARNESS)
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        (root / "BENCHMARK.json").read_text()
    )
    status = _load("ab_pairs").main([
        "--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
        "--workload", "verify_stream", "--seeds", "1", "2", "3", "--seconds", "1",
    ])
    assert status == 0
    # base first in pairs 1 and 3, change first in pair 2
    assert (tmp_path / "order.log").read_text().split() == [
        "base", "1", "change", "1", "change", "2", "base", "2",
        "base", "3", "change", "3",
    ]
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("verify_stream pair 2 seed 2 (change first): ")
    summary = {line.split()[0]: line for line in out[4:]}
    assert "base 102 [101, 103], change 122 [121, 123]" in summary["throughput_per_s"]
    assert "change won 3/3, gain beyond the base IQR" in summary["throughput_per_s"]
    assert "change won 3/3" in summary["latency_p90_ms"]
    assert "change won 0/3, gain not beyond the base IQR" in summary["setup_s"]


# A stand-in whose metrics are read from a table per side and seed: a
# base throughput spread wider than its bound, a p50 twice the base, a
# spread p90 that every change run beats, a setup 10% slower (bound 25%)
# and an RSS 13% higher (bound 10%).
TABLE_HARNESS = """
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
k = int(args["--seed"])
metrics = {
    "base": {
        "throughput_per_s": [50, 100, 150, 200][k], "latency_p50_ms": 10 + k / 10,
        "latency_p90_ms": [10, 20, 30, 40][k], "setup_s": 1.0, "peak_rss_mb": 30.0,
    },
    "change": {
        "throughput_per_s": [51, 101, 151, 201][k], "latency_p50_ms": 20 + k / 10,
        "latency_p90_ms": [1, 2, 3, 4][k], "setup_s": 1.1, "peak_rss_mb": 34.0,
    },
}[here.name]
print(json.dumps({
    "correct": True, "attempted": 10, "failed": 0,
    "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()},
}))
"""


def test_ab_pairs_gives_a_verdict_per_metric(tmp_path, capsys):
    root = Path(__file__).parent.parent
    for side in ("base", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(TABLE_HARNESS)
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        (root / "BENCHMARK.json").read_text()
    )
    status = _load("ab_pairs").main([
        "--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
        "--workload", "verify_stream", "--seeds", "0", "1", "2", "3", "--seconds", "1",
    ])
    assert status == 0
    out = capsys.readouterr().out.splitlines()
    summary = {line.split()[0]: line for line in out[5:]}
    assert summary["throughput_per_s"].endswith("unresolved (bound 0.25)")
    assert summary["latency_p50_ms"].endswith("worse beyond bound (bound 0.25)")
    assert summary["latency_p90_ms"].endswith("within bound (bound 0.25)")
    assert summary["setup_s"].endswith("within bound (bound 0.25)")
    assert summary["peak_rss_mb"].endswith("worse beyond bound (bound 0.1)")


def test_ab_pairs_stops_on_a_failed_run(tmp_path, capsys):
    for side in ("base", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("raise SystemExit(2)\n")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        (Path(__file__).parent.parent / "BENCHMARK.json").read_text()
    )
    status = _load("ab_pairs").main([
        "--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
        "--workload", "verify_stream", "--seeds", "1",
    ])
    assert status == 1
    assert "exited 2" in capsys.readouterr().err


def test_ab_interleave_smoke(capsys):
    # base and change are both this checkout, imported under two names
    root = SCRIPTS.parent
    module = _load("ab_interleave")
    code = module.main([
        "--base", str(root), "--change", str(root),
        "--workload", "cli_reports", "--seed", "3", "--rounds", "2",
    ])
    (line,) = capsys.readouterr().out.splitlines()
    assert code == 0
    assert line.startswith("cli_reports seed 3: 2 rounds of 98 items, base ")
    assert "ratio change/base median x" in line
    base, change = sys.modules["filtadm_base"], sys.modules["filtadm_change"]
    assert base is not change and base.cli.main is not change.cli.main
    assert base.__file__ == change.__file__ == str(root / "src" / "filtadm" / "__init__.py")
    # several seeds: one line each, in the order given, then the pooled ratio
    code = module.main([
        "--base", str(root), "--change", str(root),
        "--workload", "cli_reports", "--seed", "4", "--seed", "3", "--rounds", "2",
    ])
    first, second, pooled = capsys.readouterr().out.splitlines()
    assert code == 0
    assert first.startswith("cli_reports seed 4: 2 rounds of 98 items, base ")
    assert second.startswith("cli_reports seed 3: 2 rounds of 98 items, base ")
    assert pooled.startswith("cli_reports pooled over seeds 4 3: 4 rounds, ")
    assert "ratio change/base median x" in pooled


@pytest.mark.parametrize("workload", ["verify_stream", "criteria_stream", "cli_reports"])
def test_harness_traced_mode_runs_clean(tmp_path, workload):
    # the traced pass reads package attributes by name (`Filtration.bases`
    # and `.attempts`, `AdmissibilityReport.checked`), so a trim of them
    # shows here.  run.py takes its root from its own path and writes its
    # work directory there: it runs from a copy, with src/ and data/ linked
    root = SCRIPTS.parent
    shutil.copytree(
        root / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    for name in ("src", "data"):
        (tmp_path / name).symlink_to(root / name)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
