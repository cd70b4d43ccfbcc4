"""Every exported name resolves, and a re-export is its defining module's object."""

import importlib
import pkgutil
from dataclasses import fields

import pytest

import wetplan

# Helpers that left the library, and the module each was defined in while it
# was a library name: the test-only ones, of which the tests keep their own
# copies, and the ones folded into their only caller.
REMOVED = {
    "battery_replacements": "costs",
    "crossover_device_count": "costs",
    "grid_oracle": "deployment",
    "sample_hppp": "channel",
    "steering_vector": "channel",
    "consumption": "beampower",
    "draw_device_positions": "beampower",
    "MulticastProblem": "beampower",
    "PrecoderSolution": "beampower",
    "min_power_precoder": "beampower",
    "read_config_file": "config",
    "parse_overrides": "config",
    "dbm_to_watts": "harvesting",
}

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


def test_package_all_is_the_public_surface():
    assert wetplan.__all__ == [
        "__version__",
        "AmbientMap", "GaussianComponent", "Rect",
        "ConsumptionPoint", "PrecoderError", "PrecoderSolver", "RfChainConfig", "RfChainSweep", "sweep_rf_chains",
        "PathLossParams", "RicianParams", "path_gain", "sample_channels",
        "SCENARIOS", "CostBreakdown", "CostParams", "scenario_cost", "sweep_costs",
        "DeploymentProblem", "DeploymentSolution", "SolverConfig", "optimize", "received_power",
        "ARCHITECTURES", "HarvesterCurve", "dft_codebook", "harvest",
        "OutageConfig", "OutageResult", "sweep_density",
    ]


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_a_removed_helper_is_no_library_name(name):
    assert name not in wetplan.__all__
    with pytest.raises(ImportError):
        exec(f"from wetplan import {name}", {})
    assert not hasattr(importlib.import_module(f"wetplan.{REMOVED[name]}"), name)


def test_the_folded_solver_and_error_fields_are_gone():
    assert [f.name for f in fields(wetplan.PrecoderSolver)] == ["tol"]
    assert not hasattr(wetplan.PrecoderError("failed"), "best")
