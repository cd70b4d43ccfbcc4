"""Planning and simulation toolkit for RF wireless energy transfer networks.

Four experiment families are covered: deployment economics over a planning
horizon, placement of ambient-powered beacons under a max-min received-power
objective, Monte Carlo ambient-harvesting outage, and transmit-power /
RF-chain-count trade-offs for multicast energy beamforming. Everything is
seeded and reproducible; the `wetplan` CLI drives batch runs and emits CSV
plus a run manifest.
"""

__version__ = "0.1.0"

from .ambient import AmbientMap, GaussianComponent, Rect
from .beampower import (
    ConsumptionPoint,
    PrecoderError,
    PrecoderSolver,
    RfChainConfig,
    RfChainSweep,
    sweep_rf_chains,
)
from .channel import (
    PathLossParams,
    RicianParams,
    path_gain,
    sample_channels,
)
from .costs import (
    SCENARIOS,
    CostBreakdown,
    CostParams,
    scenario_cost,
    sweep_costs,
)
from .deployment import (
    DeploymentProblem,
    DeploymentSolution,
    SolverConfig,
    optimize,
    received_power,
)
from .harvesting import ARCHITECTURES, HarvesterCurve, dft_codebook, harvest
from .outage import OutageConfig, OutageResult, sweep_density

__all__ = [
    "__version__",
    "AmbientMap",
    "GaussianComponent",
    "Rect",
    "ConsumptionPoint",
    "PrecoderError",
    "PrecoderSolver",
    "RfChainConfig",
    "RfChainSweep",
    "sweep_rf_chains",
    "PathLossParams",
    "RicianParams",
    "path_gain",
    "sample_channels",
    "SCENARIOS",
    "CostBreakdown",
    "CostParams",
    "scenario_cost",
    "sweep_costs",
    "DeploymentProblem",
    "DeploymentSolution",
    "SolverConfig",
    "optimize",
    "received_power",
    "ARCHITECTURES",
    "HarvesterCurve",
    "dft_codebook",
    "harvest",
    "OutageConfig",
    "OutageResult",
    "sweep_density",
]
