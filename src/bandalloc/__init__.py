"""Distributed bandwidth allocation for capacity-constrained device networks.

The package models a set of devices sharing a fixed bandwidth budget.
Each device values bandwidth through a logarithmic-benefit,
quadratic-price utility. A coordinator admits demands once
(proportionally scaling them when they exceed the budget), after which
the devices themselves find the welfare-optimal split by gossiping
marginal-utility values with their graph neighbors. A centralized
bisection solver provides the ground truth for testing and comparison.
"""

from .admission import ConfirmedDemands, admit
from .engine import NumericalError, RunResult, run
from .oracle import OracleSolution, objective, solve
from .scenario import (
    Globals,
    Scenario,
    ScenarioError,
    SolverOptions,
    generate_random_scenario,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from .topology import build
from .utility import capacity_coefficient, derivative, evaluate, invert_derivative

__version__ = "0.1.0"

__all__ = [
    "ConfirmedDemands",
    "admit",
    "NumericalError",
    "RunResult",
    "run",
    "OracleSolution",
    "objective",
    "solve",
    "Globals",
    "Scenario",
    "ScenarioError",
    "SolverOptions",
    "generate_random_scenario",
    "load_scenario",
    "parse_scenario",
    "serialize_scenario",
    "build",
    "capacity_coefficient",
    "derivative",
    "evaluate",
    "invert_derivative",
    "__version__",
]
