import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from filtadm.cli import build_parser, main
from filtadm.model import (
    Config,
    Family,
    ModuleSpec,
    Summand,
    WeightProfile,
    spec_to_dict,
    t_n,
)
from helpers import cli_env

DATA = Path(__file__).parent.parent / "data"


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_order(capsys):
    code, rep = run_cli(capsys, "order", "--spec", str(DATA / "ex1b_spec.json"))
    assert code == 0
    assert rep["permutation"] == [0, 1]
    assert rep["notPrecede"] is True


def test_check_iii_pass_and_fail(capsys):
    code, rep = run_cli(
        capsys,
        "check-iii",
        "--spec", str(DATA / "ex1a_spec.json"),
        "--weights", str(DATA / "weights_m212.json"),
    )
    assert code == 0 and rep["verdict"]["ok"]
    code, rep = run_cli(
        capsys,
        "check-iii",
        "--spec", str(DATA / "ex1a_spec.json"),
        "--weights", str(DATA / "weights_012.json"),
    )
    assert code == 1
    assert rep["verdict"]["failure"] == "equality"


def test_check_emerton(capsys):
    code, rep = run_cli(
        capsys,
        "check-emerton",
        "--spec", str(DATA / "ex1a_spec.json"),
        "--weights", str(DATA / "weights_m212.json"),
    )
    assert code == 0 and rep["verdict"]["ok"]
    assert rep["candidates"]


def test_build_phi_ex3_empty_edges(capsys):
    code, rep = run_cli(capsys, "build-phi", "--spec", str(DATA / "ex3_spec.json"))
    assert code == 0 and rep["edges"] == []


def test_subobjects_modified(capsys):
    code, rep = run_cli(
        capsys, "subobjects", "--spec", str(DATA / "ex1a_spec.json"), "--modified"
    )
    assert code == 0
    dims = sorted(s["dim"] for s in rep["subobjects"])
    assert dims == [0, 1, 2, 2, 3]


def test_verify_admissible_modified_passes(capsys):
    code, rep = run_cli(
        capsys,
        "verify-admissible",
        "--spec", str(DATA / "ex1a_spec.json"),
        "--weights", str(DATA / "weights_m212.json"),
        "--seed", "7",
    )
    assert code == 0 and rep["verdict"]["ok"]
    assert rep["verdict"]["proof"] == "certificate"
    assert all("tHBound" in row for row in rep["verdict"]["table"])


def test_verify_admissible_unmodified_fails(capsys):
    code, rep = run_cli(
        capsys,
        "verify-admissible",
        "--spec", str(DATA / "ex1a_spec.json"),
        "--weights", str(DATA / "weights_m212.json"),
        "--seed", "7",
        "--no-modify",
    )
    assert code == 1
    w = rep["verdict"]["witness"]
    assert w["kind"] == "witness" and w["enclosingDim"] == 2
    # no stable good violates here, so the search found the witness
    assert w["source"] == "search" and w["enclosingGood"] == [1, 1]
    assert rep["verdict"]["proof"] is None


def test_equivalence_exit_zero(capsys):
    for weights in ("weights_m212.json", "weights_012.json"):
        code, rep = run_cli(
            capsys,
            "equivalence",
            "--spec", str(DATA / "ex1a_spec.json"),
            "--weights", str(DATA / weights),
        )
        assert code == 0 and rep["agree"] is True


def test_fuzz_special(capsys):
    code, rep = run_cli(capsys, "fuzz-special", "--trials", "100", "--seed", "3")
    assert code == 0
    assert rep["trials"] == 100 and rep["failures"] == 0


def test_input_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 4}')
    code, rep = run_cli(
        capsys,
        "check-iii",
        "--spec", str(bad),
        "--weights", str(DATA / "weights_012.json"),
    )
    assert code == 2 and "error" in rep
    code, rep = run_cli(
        capsys,
        "check-iii",
        "--spec", str(tmp_path / "missing.json"),
        "--weights", str(DATA / "weights_012.json"),
    )
    assert code == 2


def test_cap_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FILTADM_CAP", "2")
    code, rep = run_cli(
        capsys, "subobjects", "--spec", str(DATA / "ex1a_spec.json")
    )
    assert code == 2 and "CapExceeded" in rep["error"]
    monkeypatch.delenv("FILTADM_CAP")
    code, rep = run_cli(
        capsys, "subobjects", "--spec", str(DATA / "ex1a_spec.json"), "--cap", "2"
    )
    assert code == 2


@pytest.mark.parametrize(
    "command", ["order", "check-iii", "check-emerton", "build-phi", "equivalence"]
)
def test_cap_flag_only_where_it_is_read(command, capsys):
    argv = [command, "--spec", str(DATA / "ex1a_spec.json")]
    if command not in ("order", "build-phi"):
        argv += ["--weights", str(DATA / "weights_m212.json")]
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cap", "8"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", "0", "abc"])
def test_cap_flag_below_one_exits_2_naming_the_flag(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["subobjects", "--spec", str(DATA / "ex1a_spec.json"), "--cap", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--cap" in err and "positive integer" in err


@pytest.mark.parametrize("value", ["-5", "0", "abc"])
def test_cap_variable_below_one_exits_2_naming_the_variable(value, capsys, monkeypatch):
    monkeypatch.setenv("FILTADM_CAP", value)
    for argv in (
        ["subobjects", "--spec", str(DATA / "ex1a_spec.json")],
        ["verify-admissible", "--spec", str(DATA / "ex1a_spec.json"),
         "--weights", str(DATA / "weights_m212.json")],
    ):
        code, rep = run_cli(capsys, *argv)
        assert code == 2
        assert "FILTADM_CAP must be a positive integer" in rep["error"]
    # the flag wins over the variable
    code, _ = run_cli(
        capsys, "subobjects", "--spec", str(DATA / "ex1a_spec.json"), "--cap", "8"
    )
    assert code == 0


def _forty_chain_files(tmp_path):
    """Spec and weight files for 40 chains of dimension 79 in total."""
    spec = ModuleSpec(
        Config(p=2),
        (Family("F", 1, Fraction(0)),),
        tuple(Summand("F", i, 1 + i % 3) for i in range(40)),
    )
    spec_path, weights_path = tmp_path / "spec.json", tmp_path / "weights.json"
    spec_path.write_text(json.dumps(spec_to_dict(spec)))
    weights_path.write_text(
        json.dumps({"weights": [list(range(spec.dimension))]})
    )
    return spec, spec_path, weights_path


def test_build_filtration_refuses_above_cap(tmp_path, capsys):
    # 40 chains, dimension 79: sampling would test every one of the
    # prod(b_i + 1) good subobjects against each drawn basis
    _, spec_path, weights_path = _forty_chain_files(tmp_path)
    t0 = time.perf_counter()
    code, rep = run_cli(
        capsys, "build-filtration", "--spec", str(spec_path),
        "--weights", str(weights_path), "--seed", "7",
    )
    assert time.perf_counter() - t0 < 1
    assert code == 2 and "CapExceeded" in rep["error"]
    assert "dimension 79 exceeds the enumeration cap 8" in rep["error"]
    code, rep = run_cli(
        capsys, "build-filtration", "--spec", str(DATA / "ex2_spec.json"),
        "--weights", str(DATA / "weights_ex2.json"), "--cap", "3",
    )
    assert code == 2 and "cap 3" in rep["error"]


def test_verify_admissible_refuses_above_cap(tmp_path, capsys):
    # refused before realizing or sampling anything, also when the totals
    # differ and the equality check alone would have decided
    spec, spec_path, weights_path = _forty_chain_files(tmp_path)
    profile = WeightProfile((tuple(range(spec.dimension)),))
    assert t_n(spec) != spec.config.deg_K_L * profile.total
    t0 = time.perf_counter()
    code, rep = run_cli(
        capsys, "verify-admissible", "--spec", str(spec_path),
        "--weights", str(weights_path), "--seed", "7",
    )
    assert time.perf_counter() - t0 < 1
    assert code == 2 and "CapExceeded" in rep["error"]
    assert "dimension 79 exceeds the enumeration cap 8" in rep["error"]
    code, rep = run_cli(
        capsys, "verify-admissible", "--spec", str(DATA / "ex1a_spec.json"),
        "--weights", str(DATA / "weights_m212.json"), "--cap", "2",
    )
    assert code == 2 and "cap 2" in rep["error"]


def test_json_flag_removed(capsys):
    with pytest.raises(SystemExit):
        main(["order", "--spec", str(DATA / "ex1b_spec.json"), "--json"])
    capsys.readouterr()


def test_reports_byte_identical():
    cmd = [
        sys.executable, "-m", "filtadm.cli",
        "verify-admissible",
        "--spec", str(DATA / "ex2_spec.json"),
        "--weights", str(DATA / "weights_ex2.json"),
        "--seed", "11",
    ]
    env = cli_env()
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_shared_parser_matches_fresh_processes(capsys, monkeypatch):
    # one process, one parser: each call prints what a fresh process prints
    assert build_parser() is build_parser()
    monkeypatch.chdir(DATA.parent)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("FILTADM_CAP", raising=False)
    emerton = "check-emerton --spec data/ex2_spec.json --weights data/weights_ex2.json"
    subobjects = "subobjects --spec data/ex2_spec.json"
    calls = [
        (None, "fuzz-special --trials -5", 2),
        (None, "--version", 0),
        (None, emerton, 0),
        (None, emerton, 0),
        ("3", subobjects, 2),
        ("8", subobjects, 0),
    ]
    for cap, argv, code in calls:
        if cap is not None:
            monkeypatch.setenv("FILTADM_CAP", cap)
        try:
            got = main(argv.split())
        except SystemExit as exc:
            got = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "filtadm.cli", *argv.split()],
            capture_output=True, text=True, env=cli_env(),
        )
        assert (got, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert got == code, argv


def test_timing_field_excluded_from_determinism():
    cmd = [
        sys.executable, "-m", "filtadm.cli",
        "check-iii",
        "--spec", str(DATA / "ex1a_spec.json"),
        "--weights", str(DATA / "weights_m212.json"),
        "--timing",
    ]
    a = json.loads(subprocess.run(cmd, capture_output=True, env=cli_env()).stdout)
    b = json.loads(subprocess.run(cmd, capture_output=True, env=cli_env()).stdout)
    assert "timing_ms" in a
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# sha256 of the report bytes, without --timing, for the data/ examples with
# relative input paths (the paths enter the report).  A change to the
# echelon kernel, the closure, t_N, the shuffle valuation check, the
# candidate table, the transversality check, the realized matrices or the
# writer of basis rows that alters any byte fails here.  Every digest was computed before the change it guards, except
# the six verify ones: they were re-pinned when chain certificates took
# the place of the candidate search (the table holds one row per class
# with its bound; no exit code moved).
GOLDEN = [
    ("subobjects ex1a", "subobjects --spec data/ex1a_spec.json --modified", 0,
     "51bc993e7c0d60af4b6827e7f0e7c539d792ca3a406b62de840eb41c67da5ec7"),
    ("subobjects ex1b", "subobjects --spec data/ex1b_spec.json --modified", 0,
     "1e5d88f2f220aca9ebda3abe457fdac11f8d47e86e7227303ad85c88263fdb92"),
    ("subobjects ex2", "subobjects --spec data/ex2_spec.json --modified", 0,
     "56b254430fc2337b0762fc8987748ea1930a50633b6cd1bb356ad2dc1b30c552"),
    ("subobjects ex3", "subobjects --spec data/ex3_spec.json --modified", 0,
     "aa6b241b3c1fb07464331559cc400a0fef8be3a2f66be60bb55dcf882b2270c4"),
    ("verify ex1a", "verify-admissible --spec data/ex1a_spec.json "
     "--weights data/weights_m212.json --seed 7", 0,
     "8f0828f7abf193d0125f45a6fde843db02819431d6f4eae965b9984e7778e460"),
    ("verify ex1a unmodified", "verify-admissible --spec data/ex1a_spec.json "
     "--weights data/weights_m212.json --seed 7 --no-modify", 1,
     "e0e247c317d9ed4d9a55a2c6486cf69073fb57ed012268448267a482bdb6b966"),
    ("verify ex2", "verify-admissible --spec data/ex2_spec.json "
     "--weights data/weights_ex2.json --seed 7", 0,
     "351654f6343b3cccd5e54b65a047b927d225abafc41f0edd3aa9e7ce1d2ba7a4"),
    ("verify ex2 unmodified", "verify-admissible --spec data/ex2_spec.json "
     "--weights data/weights_ex2.json --seed 7 --no-modify", 0,
     "001b96bf398dfe263c13cf30ab7b869bd34272620ffd1f47db6815f039ab7ef6"),
    ("verify ex3", "verify-admissible --spec data/ex3_spec.json "
     "--weights data/weights_ex2.json --seed 7", 0,
     "89fbb8a8046b335d5a7199fc2768f999093c59a516fd2c511c026133a9495890"),
    ("verify ex3 unmodified", "verify-admissible --spec data/ex3_spec.json "
     "--weights data/weights_ex2.json --seed 7 --no-modify", 0,
     "8dcaf7c16198f64cec7a61e071ebea2c9a53eee58e5beca2e8cf7f8214b3787f"),
    ("emerton ex1a 012", "check-emerton --spec data/ex1a_spec.json "
     "--weights data/weights_012.json", 1,
     "0483b4814597417af82a49a85d34ad662cf2defee1ce9b661cc5eb4c3f777a44"),
    ("emerton ex1a m212", "check-emerton --spec data/ex1a_spec.json "
     "--weights data/weights_m212.json", 0,
     "ad20bcd774d55bbc7663edc1cedc7fdc46c0dcc6e99fb296a7392264a3d06cba"),
    ("emerton ex1b 012", "check-emerton --spec data/ex1b_spec.json "
     "--weights data/weights_012.json", 1,
     "a901d69d743e8f0a3410fd8da895701796b7900d769a65cfef1874c4a1149818"),
    ("emerton ex1b m212", "check-emerton --spec data/ex1b_spec.json "
     "--weights data/weights_m212.json", 1,
     "959f073595f13564c4c9ce8612f31da5ded72c1dc190a82fc16e5457246e3c6f"),
    ("emerton ex2", "check-emerton --spec data/ex2_spec.json "
     "--weights data/weights_ex2.json", 0,
     "08e015d420d4bc400a7d2a1d2a69103dc62d6c02f97a26b48629592af04ce5ce"),
    ("emerton ex3", "check-emerton --spec data/ex3_spec.json "
     "--weights data/weights_ex2.json", 0,
     "8f05e9f5e2b2070147be6668cc83eb8a1b1b38821a498256e7ada965f1c0746d"),
    ("equivalence ex1a 012", "equivalence --spec data/ex1a_spec.json "
     "--weights data/weights_012.json", 0,
     "0107ee62b03593a3ee740cf18f3a2909ab444be34e46d261408881db83636e2d"),
    ("equivalence ex1a m212", "equivalence --spec data/ex1a_spec.json "
     "--weights data/weights_m212.json", 0,
     "c6ce7d04660263a7b045e4d5d777cf4d2345eb41a62aaeb5608a7d8082931eb5"),
    ("equivalence ex1b 012", "equivalence --spec data/ex1b_spec.json "
     "--weights data/weights_012.json", 0,
     "2fb195e2113bac6a21f898964e8bb002c9c3330bb13d921ca7b73d824e4cd4c9"),
    ("equivalence ex1b m212", "equivalence --spec data/ex1b_spec.json "
     "--weights data/weights_m212.json", 0,
     "42a77a97ac10cfc323018e8f3cb0ad8fc9197da378e69e8ef601329913a24ca8"),
    ("equivalence ex2", "equivalence --spec data/ex2_spec.json "
     "--weights data/weights_ex2.json", 0,
     "ae36977897c4ade4228428297cfaf70ae2259cf83c1fccb20ec86bd280cd69b2"),
    ("equivalence ex3", "equivalence --spec data/ex3_spec.json "
     "--weights data/weights_ex2.json", 0,
     "0cd1dc6cf9aefe8f4c04281b0ff2f1109fbdc6414a510e3a5ff959fca72a4a62"),
    ("emerton ex2 max-rows 0", "check-emerton --spec data/ex2_spec.json "
     "--weights data/weights_ex2.json --max-rows 0", 0,
     "19bd45b91a3dc38ea3f8f14a83014ea82872b3f7186deddbc9f50f1006425ae0"),
    ("emerton ex2 max-rows 3", "check-emerton --spec data/ex2_spec.json "
     "--weights data/weights_ex2.json --max-rows 3", 0,
     "36aa57dd4a4269faac685c04b2e9f7a895c8f2536df942c12f86e9e325ee6bd5"),
    ("build-filtration ex2", "build-filtration --spec data/ex2_spec.json "
     "--weights data/weights_ex2.json --seed 7", 0,
     "c17f8f2ee262dd45f73af73b5ba381888cb575be29438b75afd969958906736c"),
    ("build-filtration ex1a", "build-filtration --spec data/ex1a_spec.json "
     "--weights data/weights_m212.json --seed 7", 0,
     "52e7301da965efbff4dc7c63be49642b50317d085ca0014e1ebb4cabe36adde2"),
    ("build-phi ex1a", "build-phi --spec data/ex1a_spec.json", 0,
     "684953d039fe03652ff15860d1f039d0455777e3eb87e86321d68c2929aedb94"),
    ("build-phi ex1a unmodified", "build-phi --spec data/ex1a_spec.json --no-modify", 0,
     "92e2aa0ccc91e44b7e2d08afcd32fc79f789c7280abb983313f4fa356623ab14"),
    ("build-phi ex1b", "build-phi --spec data/ex1b_spec.json", 0,
     "2033cb514123a966902dfefaa56901b31ead1c351697c5494323b181bbddfc08"),
    ("build-phi ex1b unmodified", "build-phi --spec data/ex1b_spec.json --no-modify", 0,
     "babebc25e1ac260c53f7a9f1c2c051c3f5716694118873e9423c4cd001c6e48c"),
    ("build-phi ex2", "build-phi --spec data/ex2_spec.json", 0,
     "880bd4b9c0ca6727479d53d7c3624ce9ba712289a554fced9b9449e74956d2be"),
    ("build-phi ex2 unmodified", "build-phi --spec data/ex2_spec.json --no-modify", 0,
     "880bd4b9c0ca6727479d53d7c3624ce9ba712289a554fced9b9449e74956d2be"),
    ("build-phi ex3", "build-phi --spec data/ex3_spec.json", 0,
     "f0b22ff2307c601cf75ba14c44dbbc295889291906aba04b18239b603c22cba1"),
    ("build-phi ex3 unmodified", "build-phi --spec data/ex3_spec.json --no-modify", 0,
     "f0b22ff2307c601cf75ba14c44dbbc295889291906aba04b18239b603c22cba1"),
    ("subobjects ex1a unmodified", "subobjects --spec data/ex1a_spec.json", 0,
     "bf829423bf7ae78632dba680dcf684b3e3c811eb57b347f4bb7fefd23a110c31"),
    ("subobjects ex1b unmodified", "subobjects --spec data/ex1b_spec.json", 0,
     "efcab0eac0ba9f1d3ade818663186469e97354ca14d18d5ab4f0891a7ab28a4c"),
    ("subobjects ex2 unmodified", "subobjects --spec data/ex2_spec.json", 0,
     "1bba1c1e1b02e666f1f76344c255de822c22555f17ddd3f96dff71b74423657d"),
    ("subobjects ex3 unmodified", "subobjects --spec data/ex3_spec.json", 0,
     "364f678ce3e33b9ebc753e5a0da0233ce6602f228e23e9fb4a50b95b219e3a23"),
    ("fuzz-special seed 3", "fuzz-special --trials 1000 --seed 3", 0,
     "a413ac8c20ad9b2999353e588f9f19c2bbcc583e795617f82eb242e972d590e2"),
    ("fuzz-special readme", "fuzz-special --trials 10000 --seed 0", 0,
     "5cb581073d8db19807e6e95a83b472262af84e3e429fb1fe816a136525efff69"),
]


@pytest.mark.parametrize(
    "argv, code, digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
)
def test_report_bytes_pinned(capsys, monkeypatch, argv, code, digest):
    monkeypatch.chdir(DATA.parent)
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_subobjects_report_with_half_entries_pinned(tmp_path, capsys, monkeypatch):
    # no data/ example has a basis entry with denominator 2 in its
    # subobjects report: this spec has 26 classes, some with entries 1/2.
    # The spec path is relative, so the `inputs` entry is stable.
    spec = ModuleSpec(
        Config(p=3),
        (Family("F0", 1, Fraction(4, 3)),),
        (Summand("F0", 1, 1), Summand("F0", 1, 1), Summand("F0", 1, 3)),
    )
    (tmp_path / "spec.json").write_text(json.dumps(spec_to_dict(spec)))
    monkeypatch.chdir(tmp_path)
    assert main(["subobjects", "--spec", "spec.json"]) == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["count"] == 26
    assert ["1/1", "0/1", "1/2", "0/1", "0/1"] in [
        row for sub in rep["subobjects"] for row in sub["basis"]
    ]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1f9bb0de3df9c72f3d8be9d21506f3ffb8163abe0cfeb87efd6a8caf73eae06c"
    )


def test_sixteen_families_get_seeds_and_subobjects_refuses_above_cap(tmp_path, capsys):
    # one seed prime per family, and subobjects refuses at the cap before
    # it realizes anything, as build-filtration and verify-admissible do
    fams = tuple(Family(f"F{i}", 1, Fraction(0)) for i in range(16))
    spec = ModuleSpec(Config(p=2), fams, tuple(Summand(f.id, 0, 1) for f in fams))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(spec)))
    code, rep = run_cli(capsys, "build-phi", "--spec", str(spec_path))
    assert code == 0
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert sorted(int(s.split("/")[0]) for s in rep["seeds"].values()) == primes
    code, rep = run_cli(capsys, "subobjects", "--spec", str(spec_path))
    assert code == 2 and "dimension 16 exceeds the enumeration cap 8" in rep["error"]


def test_subobjects_refuses_an_all_chains_lattice_past_the_guard(tmp_path, capsys):
    # 11 non-isomorphic lines F(0), F(2), ..., F(20), p = 2: every level a
    # chain, so the class list is the 2048 stable good spans, past the
    # guard of 1500
    fam = Family("F", 1, Fraction(0))
    lines = tuple(Summand("F", 2 * i, 1) for i in range(11))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(ModuleSpec(Config(p=2), (fam,), lines))))
    code, rep = run_cli(capsys, "subobjects", "--spec", str(spec_path), "--cap", "11")
    assert code == 2
    assert "subobject lattice exceeds the guard size of 1500 subspaces" in rep["error"]


def test_malformed_numbers_exit_2(tmp_path, capsys):
    weights = tmp_path / "weights.json"
    weights.write_text('{"weights": [[-2, 1.7, 2]]}')
    code, rep = run_cli(
        capsys, "check-iii", "--spec", str(DATA / "ex1a_spec.json"),
        "--weights", str(weights),
    )
    assert code == 2 and "weights[0][1]" in rep["error"]
    spec = json.loads((DATA / "ex1a_spec.json").read_text())
    spec["summands"][1]["b"] = 2.9
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, rep = run_cli(capsys, "order", "--spec", str(spec_path))
    assert code == 2 and "summands[1].b" in rep["error"]


@pytest.mark.parametrize("value", ["-5", "abc"])
def test_fuzz_trials_below_zero_exits_2_naming_the_flag(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz-special", "--trials", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--trials" in err and "non-negative integer" in err


@pytest.mark.parametrize("value", ["-1", "abc"])
def test_max_rows_below_zero_exits_2_naming_the_flag(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "check-emerton", "--spec", str(DATA / "ex1a_spec.json"),
            "--weights", str(DATA / "weights_m212.json"), "--max-rows", value,
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max-rows" in err and "non-negative integer" in err


def test_non_string_family_ids_exit_2(tmp_path, capsys):
    # a null id with null summand families used to become the family "None"
    spec = json.loads((DATA / "ex1a_spec.json").read_text())
    spec_path = tmp_path / "spec.json"
    for fid, families, field in (
        (None, [None, None], "families[0].id"),
        (7, [7, 7], "families[0].id"),
        ("F", ["F", None], "summands[1].family"),
    ):
        data = json.loads(json.dumps(spec))
        data["families"][0]["id"] = fid
        for summand, family in zip(data["summands"], families):
            summand["family"] = family
        spec_path.write_text(json.dumps(data))
        code, rep = run_cli(capsys, "order", "--spec", str(spec_path))
        assert code == 2 and f"{field}: expected a string" in rep["error"], rep


def test_zero_denominator_exits_2_naming_the_field(tmp_path, capsys):
    spec = json.loads((DATA / "ex1a_spec.json").read_text())
    spec["families"][0]["tBase"] = "1/0"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, rep = run_cli(capsys, "order", "--spec", str(spec_path))
    assert code == 2
    assert "families[0].tBase: zero denominator in '1/0'" in rep["error"], rep


# Each input file is read once per call, its bytes hashed and decoded as
# `open` decodes them; the error reports of these four inputs are those
# recorded from the two-read loader (one `open(path, "rb")` to hash, one
# `open(path)` to parse), byte for byte.
READ_ERRORS = [
    ("missing", "missing.json", "w.json",
     "FileNotFoundError: [Errno 2] No such file or directory: 'missing.json'"),
    ("crlf", "spec.json", "crlf.json",
     "JSONDecodeError: Expecting property name enclosed in double quotes: "
     "line 3 column 3 (char 31)"),
    ("bom", "bom.json", "w.json",
     "JSONDecodeError: Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)"),
    ("non-utf8", "latin.json", "w.json",
     "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xe9 in position 110: "
     "invalid continuation byte"),
]


@pytest.mark.parametrize(
    "spec_name, weights_name, error", [c[1:] for c in READ_ERRORS],
    ids=[c[0] for c in READ_ERRORS],
)
def test_input_read_errors_match_the_file_reads(
    capsys, tmp_path, monkeypatch, spec_name, weights_name, error
):
    spec = (DATA / "ex1a_spec.json").read_bytes()
    files = {
        "spec.json": spec,
        "w.json": (DATA / "weights_m212.json").read_bytes(),
        "crlf.json": b'{\r\n  "weights": [[-2, 1, 2]],\r\n  oops\r\n}\r\n',
        "bom.json": b"\xef\xbb\xbf" + spec,
        "latin.json": spec.replace(b'"F"', b'"\xe9"', 1),
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    code = main(["check-iii", "--spec", spec_name, "--weights", weights_name])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert out == json.dumps({"command": "check-iii", "error": error}, indent=2) + "\n"


@pytest.mark.parametrize("flag", ["--spec", "--weights"])
def test_deeply_nested_json_exits_2_naming_the_file(tmp_path, capsys, flag):
    # 100,000 open brackets pass the recursion limit inside json.loads; the
    # RecursionError used to escape `main`, an exit 1 with a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    files = {"--spec": str(DATA / "ex1a_spec.json"), "--weights": str(DATA / "weights_m212.json")}
    files[flag] = str(deep)
    code, rep = run_cli(
        capsys, "check-iii", "--spec", files["--spec"], "--weights", files["--weights"]
    )
    assert code == 2
    assert rep == {
        "command": "check-iii",
        "error": f"ValueError: {deep}: JSON nested too deeply to parse",
    }


def test_each_input_file_is_read_once(capsys, monkeypatch):
    import builtins

    from filtadm import cli

    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    spec, weights = str(DATA / "ex1a_spec.json"), str(DATA / "weights_m212.json")
    code, rep = run_cli(
        capsys, "verify-admissible", "--spec", spec, "--weights", weights, "--seed", "7"
    )
    assert code == 0 and sorted(opened) == sorted([spec, weights])
    want = hashlib.sha256((DATA / "ex1a_spec.json").read_bytes()).hexdigest()
    assert rep["inputs"]["spec"] == {"path": spec, "sha256": want}


# (command, reads weights, extra flags) of every subcommand that reads a spec
SPEC_COMMANDS = [
    ("order", False, []),
    ("check-iii", True, []),
    ("check-emerton", True, []),
    ("build-phi", False, []),
    ("subobjects", False, ["--modified"]),
    ("build-filtration", True, ["--seed", "7"]),
    ("verify-admissible", True, ["--seed", "7"]),
    ("equivalence", True, []),
]


@pytest.mark.parametrize(
    "command, weights, extra", SPEC_COMMANDS, ids=[c[0] for c in SPEC_COMMANDS]
)
def test_every_spec_command_shares_one_envelope(
    capsys, monkeypatch, tmp_path, command, weights, extra
):
    import builtins

    from filtadm import cli

    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    # ex1a with its summands reversed: `order` reports the permutation [1, 0]
    data = json.loads((DATA / "ex1a_spec.json").read_text())
    data["summands"].reverse()
    reversed_path = tmp_path / "reversed.json"
    reversed_path.write_text(json.dumps(data))

    def call(spec):
        files = {"spec": str(spec)}
        if weights:
            files["weights"] = str(DATA / "weights_m212.json")
        argv = [command, *(a for name, path in files.items() for a in (f"--{name}", path))]
        return files, argv + extra

    for spec in (DATA / "ex1a_spec.json", reversed_path):
        files, argv = call(spec)
        opened.clear()
        code, rep = run_cli(capsys, *argv)
        assert rep["command"] == command and "error" not in rep, rep
        assert sorted(opened) == sorted(files.values())
        assert rep["inputs"] == {
            name: {"path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
            for name, path in files.items()
        }
        _, order = run_cli(capsys, "order", "--spec", str(spec))
        assert rep["permutation"] == order["permutation"]
        timed_code, timed = run_cli(capsys, *argv, "--timing")
        assert timed_code == code and type(timed.pop("timing_ms")) is float
        assert timed == rep
    assert rep["permutation"] == [1, 0]
    _, argv = call(tmp_path / "missing.json")
    code, rep = run_cli(capsys, *argv)
    assert code == 2 and set(rep) == {"command", "error"} and rep["command"] == command
    assert rep["error"].startswith("FileNotFoundError: ")



def test_malformed_inputs_name_the_field_or_the_shape(tmp_path, capsys):
    spec = json.loads((DATA / "ex1a_spec.json").read_text())
    no_p = {k: v for k, v in spec.items() if k != "p"}
    no_tbase = json.loads(json.dumps(spec))
    del no_tbase["families"][0]["tBase"]
    no_l = json.loads(json.dumps(spec))
    del no_l["summands"][1]["l"]
    weights = str(DATA / "weights_m212.json")
    spec_path = tmp_path / "spec.json"
    for data, error in (
        (no_p, "missing field 'p'"),
        (no_tbase, "families[0]: missing field 'tBase'"),
        (no_l, "summands[1]: missing field 'l'"),
        ([spec], "expected a JSON object"),
        (dict(spec, families=[7]), "families[0]: expected a JSON object"),
        (dict(spec, summands={}), "summands: expected a list"),
    ):
        spec_path.write_text(json.dumps(data))
        code, rep = run_cli(capsys, "check-iii", "--spec", str(spec_path), "--weights", weights)
        assert code == 2 and rep["error"].startswith(f"SpecError: {error}"), rep
    weights_path = tmp_path / "weights.json"
    for data, error in (
        ([1, 2], "weights[0]: expected a list of integers"),
        ({"weights": [[-2, 1, 2], 5]}, "weights[1]: expected a list of integers"),
        ({"weights": 5}, "weights: expected a list"),
    ):
        weights_path.write_text(json.dumps(data))
        code, rep = run_cli(
            capsys, "check-iii", "--spec", str(DATA / "ex1a_spec.json"),
            "--weights", str(weights_path),
        )
        assert code == 2 and rep["error"].startswith(f"SpecError: {error}"), rep


def test_report_writer_matches_json_dumps_on_the_cli_workload(tmp_path, monkeypatch, capsys):
    # every call of the benchmark's seed-3 `cli_reports` workload (two of
    # them exit-2 refusals), a missing input file and a --timing report
    import filtadm
    from filtadm import cli

    monkeypatch.syspath_prepend(str(DATA.parent / "perfbench"))
    from workloads import WORKLOADS

    (tmp_path / "data").symlink_to(DATA)
    wl = WORKLOADS["cli_reports"](filtadm, 3, tmp_path)
    wl.prepare()
    argvs = [item["argv"] for item in wl.timed] + [
        ["order", "--spec", str(tmp_path / "missing.json")],
        ["check-iii", "--spec", str(DATA / "ex1a_spec.json"),
         "--weights", str(DATA / "weights_m212.json"), "--timing"],
    ]
    reports = []
    write = cli._write
    monkeypatch.setattr(cli, "_write", lambda report: (reports.append(report), write(report)))
    capsys.readouterr()
    for argv in argvs:
        main(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(reports[-1], indent=2, sort_keys=True) + "\n"
    assert len(reports) == 100 and sum("error" in report for report in reports) == 3
    assert "error" in reports[-2] and type(reports[-1]["timing_ms"]) is float


def test_report_writer_matches_json_dumps_on_edge_values():
    from filtadm.cli import _encode

    value = {
        "empty": [[], {}, [[]], [{}], {"a": {}, "b": []}],
        "tuple": (1, "x", (2, ()), ()),
        "text": ["é ü 中 \U0001F600", "\x00\x1f\x7f\t\n\"\\/", ""],
        "ints": [-7, 0, 10**30, -(10**30)],
        "floats": [0.1, 1e-07, 1e16, -0.0, float("nan"), float("inf"), -float("inf")],
        "flags": [True, 1, False, 0, None],
        "Z": {"z": 1, "a": True, "é": None, "": "k"},
    }
    assert _encode(value) == json.dumps(value, indent=2, sort_keys=True)
    for leaf in ("", "x", 0, 10**30, None, True, False, 1e16, (), [], {}):
        assert _encode(leaf) == json.dumps(leaf, indent=2, sort_keys=True)
    for bad in ({1: "a"}, {"a": {None: 1}}, [Fraction(1, 2)], {"a": (Fraction(1),)}):
        with pytest.raises(TypeError):
            _encode(bad)


@pytest.mark.parametrize("command", ["check-iii", "check-emerton", "equivalence"])
def test_criteria_commands_validate_and_order_once(monkeypatch, capsys, command):
    # `_run_spec` validates the inputs and orders the spec; the commands run
    # the verdict bodies on that spec, with no second validation or
    # canonical check, while the public criteria still do both.  The
    # shuffle table of `check-emerton` is the public `candidate_table`,
    # which checks the order once more
    from filtadm import model, ordering
    from filtadm.emerton import candidate_table, check_emerton_condition
    from filtadm.slopes import check_slope_chain

    calls = {"spec_violations": 0, "group_and_order": 0}
    for module, name in ((model, "spec_violations"), (ordering, "group_and_order")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    for spec, weights in (("ex1a_spec.json", "weights_m212.json"),
                          ("ex2_spec.json", "weights_ex2.json")):
        for key in calls:
            calls[key] = 0
        code, rep = run_cli(
            capsys, command, "--spec", str(DATA / spec), "--weights", str(DATA / weights)
        )
        assert code == 0 and "error" not in rep
        orders = 2 if command == "check-emerton" else 1
        assert calls == {"spec_violations": 1, "group_and_order": orders}
    ordered = ordering.canonical_order(
        model.spec_from_dict(json.loads((DATA / "ex2_spec.json").read_text()))
    )[0]
    profile = model.profile_from_dict(json.loads((DATA / "weights_ex2.json").read_text()))
    for check in (check_slope_chain, check_emerton_condition, candidate_table):
        for key in calls:
            calls[key] = 0
        check(ordered, profile)
        assert calls["group_and_order"] == 1
        assert calls["spec_violations"] == (0 if check is candidate_table else 1)
