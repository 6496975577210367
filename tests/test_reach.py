"""Library code that no command reaches is pinned, so that none comes back.

Run as a script, this file traces every function entry (`sys.setprofile`)
while it runs every timed, traced and unrepeated item of the three
benchmark workloads of `perfbench/workloads.py` at seed 3 (the file is
imported, never changed), then `scripts/run_worked_examples.py` with and
without `--no-modify`.  It prints, as one JSON list, the functions,
methods, properties and cached properties written in `src/filtadm` that
were never entered, each as `module.qualname`.

The test runs the script in a fresh interpreter, so that nothing an
earlier test called (the `functools.cache`d `cli.build_parser`, say)
reads as reached, and compares the list with `UNREACHED`.  The list may
only shrink: a new entry needs a caller, or a move to the tests.
"""

import contextlib
import functools
import importlib
import importlib.util
import inspect
import io
import json
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3

# never entered by any workload item or worked example, with the reason
# each stays in `src`
UNREACHED = {
    "filtration.Filtration.bases": "read only by the perfbench span counter; ROADMAP item 6b drops it",
    "filtration._vector_violations": "refusal path of a malformed filtration, a loud failure",
    "filtration.TransversalityError.__init__": "refusal path when sampling finds no transverse filtration",
}


def _code_names(package) -> dict:
    """The code object of every function, method, property and cached
    property written in the package's own files, keyed to its name."""
    out = {}
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        objects = list(vars(module).values())
        for cls in [obj for obj in objects if inspect.isclass(obj)]:
            if cls.__module__ == module.__name__:
                for attr in vars(cls).values():
                    if isinstance(attr, property):
                        objects += [attr.fget, attr.fset, attr.fdel]
                    elif isinstance(attr, functools.cached_property):
                        objects.append(attr.func)
                    else:
                        objects.append(getattr(attr, "__func__", attr))
        for obj in objects:
            fn = inspect.unwrap(obj) if callable(obj) else None
            code = getattr(fn, "__code__", None)
            # dataclass-generated methods and re-exported names are skipped
            if code is not None and code.co_filename == module.__file__:
                out[code] = f"{info.name}.{fn.__qualname__}"
    return out


def _run_items(fm, work: Path) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    (work / "data").symlink_to(ROOT / "data")
    for make in WORKLOADS.values():
        wl = make(fm, SEED, work)
        wl.prepare()
        for item in [*wl.timed, *wl.traced]:
            error = wl.verify(item, wl.execute(item))
            assert error is None, (wl.name, error)
        for item in wl.unrepeated():
            assert wl.verify(item, wl.execute(item)) is None


def _run_worked_examples() -> None:
    path = ROOT / "scripts" / "run_worked_examples.py"
    spec = importlib.util.spec_from_file_location("run_worked_examples", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with contextlib.redirect_stdout(io.StringIO()):
        script.main([])
        script.main(["--no-modify"])


def never_entered() -> list[str]:
    """The traced run of the module docstring."""
    entered = set()
    enter = entered.add

    def profile(frame, event, arg):
        if event == "call":
            enter(frame.f_code)

    sys.setprofile(profile)
    try:
        fm = importlib.import_module("filtadm")
        importlib.import_module("filtadm.cli")
        with tempfile.TemporaryDirectory() as work:
            _run_items(fm, Path(work))
        _run_worked_examples()
    finally:
        sys.setprofile(None)
    return sorted(name for code, name in _code_names(fm).items() if code not in entered)


def test_unreached_library_code_is_pinned():
    run = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    unreached = set(json.loads(run.stdout))
    new = sorted(unreached - UNREACHED.keys())
    assert not new, f"no command reaches {new}: give each a caller or move it to the tests"
    gone = sorted(UNREACHED.keys() - unreached)
    assert not gone, f"now reached, so drop from UNREACHED: {gone}"


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(never_entered()))
