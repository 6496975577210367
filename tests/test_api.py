"""Every exported name resolves, so a removal cannot leave a dangling
entry in an `__all__`."""

import importlib
import pkgutil

import pytest

import filtadm

MODULES = sorted(m.name for m in pkgutil.iter_modules(filtadm.__path__))


def test_package_exports_resolve():
    missing = [name for name in filtadm.__all__ if not hasattr(filtadm, name)]
    assert not missing
    assert len(set(filtadm.__all__)) == len(filtadm.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"filtadm.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing
    assert len(set(exported)) == len(exported)
