"""Every exported name resolves, and a re-export is its defining module's object."""

import importlib
import pkgutil

import pytest

import wetplan

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(wetplan.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"wetplan.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_package_all_re_exports_the_defining_objects():
    assert len(set(wetplan.__all__)) == len(wetplan.__all__)
    owners = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"wetplan.{name}")
        for attr in module.__all__:
            owners.setdefault(attr, []).append(module)
    for attr in wetplan.__all__:
        if attr == "__version__":
            continue
        assert len(owners.get(attr, [])) == 1, attr
        assert getattr(wetplan, attr) is getattr(owners[attr][0], attr), attr


def test_star_import_binds_every_name():
    namespace = {}
    exec("from wetplan import *", namespace)
    assert set(wetplan.__all__) <= namespace.keys()
