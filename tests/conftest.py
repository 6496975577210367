import json
import signal
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from filtadm.model import Config, profile_from_dict, spec_from_dict

CFG1 = Config(p=2, deg_K_Qp=1, deg_L_Qp=1, deg_K_L=1, f_prime=1)
DATA = Path(__file__).parent.parent / "data"
# seconds a test may run: about twenty times the slowest one, so that a hang
# fails its test instead of stalling the suite
TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the test with TimeoutError once it runs past TIME_LIMIT_S.

    A SIGALRM timer, so only in the main thread of a platform that has
    `signal.setitimer`; elsewhere the test runs without a limit."""
    main = threading.current_thread() is threading.main_thread()
    if not main or not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _load(name: str):
    with open(DATA / name) as fh:
        return json.load(fh)


@pytest.fixture
def cfg1():
    return CFG1


# The worked examples are read from data/, their one source.


@pytest.fixture
def ex1a():
    # one length-1 chain plus one length-2 chain, all offsets 0
    return spec_from_dict(_load("ex1a_spec.json"))


@pytest.fixture
def ex1b():
    return spec_from_dict(_load("ex1b_spec.json"))


@pytest.fixture
def ex2():
    return spec_from_dict(_load("ex2_spec.json"))


@pytest.fixture
def ex3():
    return spec_from_dict(_load("ex3_spec.json"))


@pytest.fixture
def w_m212():
    return profile_from_dict(_load("weights_m212.json"))


@pytest.fixture
def w_012():
    return profile_from_dict(_load("weights_012.json"))


@pytest.fixture
def w_ex2():
    return profile_from_dict(_load("weights_ex2.json"))


@pytest.fixture(scope="session")
def data_dir():
    return DATA
