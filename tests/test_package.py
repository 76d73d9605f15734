import importlib
import pkgutil

import pytest

import orlicz_wct

MODULES = sorted(m.name for m in pkgutil.iter_modules(orlicz_wct.__path__))


def test_package_exports_resolve():
    missing = [name for name in orlicz_wct.__all__ if not hasattr(orlicz_wct, name)]
    assert not missing
    assert len(set(orlicz_wct.__all__)) == len(orlicz_wct.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"orlicz_wct.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
