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
