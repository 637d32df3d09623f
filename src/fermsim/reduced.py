"""Biomass-level ODE comparison model (first-moment closure of the PBE).

State x = (X, N, E, S, O) with X the biomass concentration in g/l.
Division terms cancel in the first moment because daughter masses sum to
the mother mass, so the closure uses only the rate law of
:func:`fermsim.kinetics.rates`: X grows at (v - phi - kd) X and the
substrates change at b X.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError
from .integrator import NewtonConfig, Trajectory, integrate
from .kinetics import (KineticParams, TemperatureProfile, death_phi, death_phi_prime,
                       rate_jacobian, rates, temperature)


def ode_rhs_vector(t: float, y: np.ndarray, kp: KineticParams,
                   profile: TemperatureProfile) -> np.ndarray:
    X, N, E, S, O = y.tolist()
    # A finite sum means every entry is finite; finite entries whose sum
    # overflows pass the full scan.
    if not math.isfinite(X + N + E + S + O) and not all(map(math.isfinite, (X, N, E, S, O))):
        raise NumericsError(f"non-finite ODE state at t={t}")
    v, b = rates(kp, N, E, S, O, temperature(profile, t))
    return np.array([(v - death_phi(kp, E) - kp.kd) * X,
                     b[0] * X, b[1] * X, b[2] * X, b[3] * X])


def ode_jacobian_vector(t: float, y: np.ndarray, kp: KineticParams,
                        profile: TemperatureProfile) -> np.ndarray:
    X, N, E, S, O = y
    T = temperature(profile, t)
    v, b = rates(kp, N, E, S, O, T)
    dv, db = rate_jacobian(kp, N, E, S, O, T)

    J = np.empty((5, 5))
    J[0, 0] = v - death_phi(kp, E) - kp.kd
    J[0, 1:] = X * dv
    J[0, 2] = -X * death_phi_prime(kp, E)
    J[1:, 0] = b
    J[1:, 1:] = X * db
    return J


def run_ode(y0: np.ndarray, t_final: float, h: float, kp: KineticParams,
            profile: TemperatureProfile, cfg: NewtonConfig = NewtonConfig()) -> Trajectory:
    return integrate(lambda t, y: ode_rhs_vector(t, y, kp, profile),
                     lambda t, y: ode_jacobian_vector(t, y, kp, profile),
                     y0, t_final, h, cfg)
