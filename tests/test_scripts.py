import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fuzz_equivalence_smoke(capsys):
    _load("fuzz_equivalence").main(["--trials", "30", "--seed", "1"])
    out = capsys.readouterr().out
    assert out.startswith("equivalence: 30 instances agree")


# Verdict lines printed before the examples moved to data/.
WORKED_VERDICTS = {
    (): [
        "example 1a: dims=[1, 2] t_N=1 weights=(-2, 1, 2)",
        "  pipeline: admissible, 5 subspaces checked",
        "example 1b: dims=[2, 1] t_N=2 weights=(-2, 1, 3)",
        "  pipeline: admissible, 5 subspaces checked",
        "example 2: dims=[2, 2] t_N=4 weights=(-1, 0, 2, 3)",
        "  pipeline: admissible, 16 subspaces checked",
        "example 3: dims=[3, 1] t_N=4 weights=(-2, 0, 2, 4)",
        "  pipeline: admissible, 15 subspaces checked",
    ],
    ("--no-modify",): [
        "example 1a: dims=[1, 2] t_N=1 weights=(-2, 1, 2)",
        "  pipeline: violated (witness), 11 subspaces checked",
        "  witness: dim 1, tH=1/1, tN=0/1, inside good [1, 1]",
        "example 1b: dims=[2, 1] t_N=2 weights=(-2, 1, 3)",
        "  pipeline: admissible, 13 subspaces checked",
        "example 2: dims=[2, 2] t_N=4 weights=(-1, 0, 2, 3)",
        "  pipeline: admissible, 16 subspaces checked",
        "example 3: dims=[3, 1] t_N=4 weights=(-2, 0, 2, 4)",
        "  pipeline: admissible, 15 subspaces checked",
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


# The first 12 seed-3 items: the check_admissible reports of the stream,
# and the CLI calls on data/ (every subcommand, including `subobjects`
# and both `verify-admissible` runs).  A change to the report bytes of
# either fails here.
PINNED_DIGESTS = [
    "verify_stream seed=3 items=12 "
    "sha256=2e906d83fd2971c1f0cb04729280640b7ff926288bc3323b5d211e48317f234c",
    "cli_reports seed=3 items=12 "
    "sha256=2d6d7a269c96e3809973eabcf6a8eb74fac6886b3b90c7d25c4ff688f005c7f3",
]


def test_report_digests_pinned(capsys):
    module = _load("report_digests")
    module.main([
        "--workload", "verify_stream", "--workload", "cli_reports",
        "--seeds", "3", "--count", "12",
    ])
    assert capsys.readouterr().out.splitlines() == PINNED_DIGESTS


def test_criteria_digest_pinned(capsys):
    # the slope chain, block order and shuffle verdicts of the first 12
    # seed-3 `criteria_stream` items
    module = _load("report_digests")
    module.main(["--workload", "criteria_stream", "--seeds", "3", "--count", "12"])
    assert capsys.readouterr().out.splitlines() == [
        "criteria_stream seed=3 items=12 "
        "sha256=23b5ea2334fbc7d553bd874f5f56665deebe87aca8958167278c23cb04533059",
    ]
