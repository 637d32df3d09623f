"""Population-balance fermentation simulator.

A mass-structured cell number density governed by growth transport,
binary division (birth/loss integral terms) and ethanol-dependent death,
coupled to nitrogen, ethanol, sugar and oxygen balances.  Discretized
with a first-order upwind finite-volume scheme in mass and integrated
with the implicit trapezoidal rule using an analytic-Jacobian Newton
solver.  A first-moment (total biomass) closure provides a reduced
five-state ODE model for cross-checks.
"""

from .config import (InitialConcentrations, SimulationConfig, default_config,
                     load_config)
from .distributions import DistributionSpec, build_initial_density
from .errors import (ConfigError, DomainError, IntegrationFailure, NumericsError,
                     StepFailure)
from .grid import MassGrid, build_grid
from .integrator import NewtonConfig, Trajectory, integrate
from .kinetics import (DivisionParams, KineticParams, TemperatureProfile,
                       compute_lambda, division_rate, normalize_mass,
                       partition, rate_jacobian, rates, temperature)
from .operator import DiscreteOperator, assemble_operator
from .reduced import run_ode
from .simulate import RunResult, compare, run
from .system import jacobian_vector, rhs_vector

__all__ = [
    "ConfigError", "DiscreteOperator", "DistributionSpec",
    "DivisionParams", "DomainError", "InitialConcentrations",
    "IntegrationFailure", "KineticParams", "MassGrid", "NewtonConfig",
    "NumericsError", "RunResult", "SimulationConfig", "StepFailure",
    "TemperatureProfile", "Trajectory",
    "assemble_operator", "build_grid", "build_initial_density", "compare",
    "compute_lambda", "default_config", "division_rate", "integrate",
    "jacobian_vector", "load_config", "normalize_mass", "partition",
    "rate_jacobian", "rates", "rhs_vector", "run", "run_ode", "temperature",
]

__version__ = "0.1.0"
