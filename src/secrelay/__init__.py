"""Simulation and series-analytics laboratory for a secure relay link.

A source talks to a destination through an energy-harvesting aerial relay
while the destination jams a passive eavesdropper. The package estimates the
connection, secrecy-outage and average secrecy-rate behaviour of that link by
Monte Carlo simulation, evaluates the matching closed-form series, and sweeps
power allocation and relay placement.
"""

import os

# One compute thread. Loading numpy starts OpenBLAS, which starts nproc - 1
# worker threads that spin in sched_yield for about 0.1 s before they
# sleep, and the package never gives them work: its BLAS calls are a dot of
# at most 8192 elements (OpenBLAS runs ddot on one thread below 10000) and
# a 32 x 32 eigenproblem. On 2 cores the spin was half the CPU time of a
# `sweep power` run (0.06 s against 0.03 s). This line runs before any
# submodule imports numpy; a value the caller has set wins, and no output
# depends on it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analytic import (
    asr_lower_bound,
    connection_probability,
    secrecy_outage_probability,
)
from .channel_models import LinkModel, LinkSet, build_links
from .config import ExperimentConfig, load_config
from .geometry import Environment, NetworkGeometry, NodePosition
from .montecarlo import (
    Estimate,
    SimulationPlan,
    estimate_asr,
    estimate_cp,
    estimate_sop,
)
from .optimize import SweepGrid, grid_search_opsa, placement_sweep
from .protocol import ProtocolConfig
from .specfun import TruncationOrders

__version__ = "0.1.0"

__all__ = [
    "Environment",
    "Estimate",
    "ExperimentConfig",
    "LinkModel",
    "LinkSet",
    "NetworkGeometry",
    "NodePosition",
    "ProtocolConfig",
    "SimulationPlan",
    "SweepGrid",
    "TruncationOrders",
    "asr_lower_bound",
    "build_links",
    "connection_probability",
    "estimate_asr",
    "estimate_cp",
    "estimate_sop",
    "grid_search_opsa",
    "load_config",
    "placement_sweep",
    "secrecy_outage_probability",
    "__version__",
]
