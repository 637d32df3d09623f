"""Biomass-level ODE comparison model (first-moment closure of the PBE).

State x = (X, N, E, S, O) with X the biomass concentration in g/l.
Division terms cancel in the first moment because daughter masses sum to
the mother mass, so the closure uses only the kinetic rate functions.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError
from .integrator import NewtonConfig, Trajectory, integrate
from .kinetics import (KineticParams, TemperatureProfile, death_phi, death_phi_prime,
                       rate_factors, temperature)


def ode_rhs_vector(t: float, y: np.ndarray, kp: KineticParams,
                   profile: TemperatureProfile) -> np.ndarray:
    if not np.all(np.isfinite(y)):
        raise NumericsError(f"non-finite ODE state at t={t}")
    X, N, E, S, O = y
    T = temperature(profile, t)
    fac = rate_factors(kp, N, E, S, O, T)
    phi = death_phi(kp, E)
    return np.array([
        (fac["rt_eps"] - phi - kp.kd) * X,
        -kp.k1 * fac["rt_eps"] * X,
        fac["qE"] * X,
        -(kp.k2 * fac["qE"] + kp.k3 * fac["rt_eps"]) * X,
        -kp.k4 * fac["rt"] * X,
    ])


def ode_jacobian_vector(t: float, y: np.ndarray, kp: KineticParams,
                        profile: TemperatureProfile) -> np.ndarray:
    X, N, E, S, O = y
    T = temperature(profile, t)
    fac = rate_factors(kp, N, E, S, O, T)
    phi = death_phi(kp, E)
    dphi = death_phi_prime(kp, E)
    dN, dS, dO = fac["drt_eps"]
    rN, rS, rO = fac["drt"]

    J = np.zeros((5, 5))
    J[0] = (fac["rt_eps"] - phi - kp.kd, X * dN, -X * dphi, X * dS, X * dO)
    J[1] = (-kp.k1 * fac["rt_eps"], -kp.k1 * X * dN, 0.0, -kp.k1 * X * dS, -kp.k1 * X * dO)
    J[2] = (fac["qE"], 0.0, X * fac["dqE_dE"], X * fac["dqE_dS"], 0.0)
    J[3] = (-(kp.k2 * fac["qE"] + kp.k3 * fac["rt_eps"]),
            -kp.k3 * X * dN,
            -kp.k2 * X * fac["dqE_dE"],
            -X * (kp.k2 * fac["dqE_dS"] + kp.k3 * dS),
            -kp.k3 * X * dO)
    J[4] = (-kp.k4 * fac["rt"], -kp.k4 * X * rN, 0.0, -kp.k4 * X * rS, -kp.k4 * X * rO)
    return J


def run_ode(y0: np.ndarray, t_final: float, h: float, kp: KineticParams,
            profile: TemperatureProfile, cfg: NewtonConfig = NewtonConfig()) -> Trajectory:
    return integrate(lambda t, y: ode_rhs_vector(t, y, kp, profile),
                     lambda t, y: ode_jacobian_vector(t, y, kp, profile),
                     y0, t_final, h, cfg)
