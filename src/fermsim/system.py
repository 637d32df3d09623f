"""Semidiscrete right-hand side f(t, y) of the coupled system and its Jacobian.

State layout: y = (w_0 .. w_{C-1}, N, E, S, O).  Densities w are in
10^6 cells/ml per unit scaled mass; with that unit the substrate moment
sum(centers * w * dm) is the biomass concentration in g/l and the
tabulated yield coefficients apply without conversion factors.

Advection uses the first-order upwind flux with the growth velocity
evaluated at cell edges; the domain boundaries carry zero inflow (left)
and zero outflow (right) fluxes.  The substrate sums run over interior
cells i = 1 .. C-2 only.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError
from .kinetics import (
    KineticParams,
    TemperatureProfile,
    death_phi,
    death_phi_prime,
    rate_factors,
    temperature,
)
from .operator import DiscreteOperator


def rhs_vector(t: float, y: np.ndarray, op: DiscreteOperator,
               kp: KineticParams, profile: TemperatureProfile) -> np.ndarray:
    """Time derivative of the packed state vector."""
    if not np.all(np.isfinite(y)):
        bad = np.flatnonzero(~np.isfinite(y))
        raise NumericsError(f"non-finite state entries at indices {bad[:8].tolist()} (t={t})")
    grid = op.grid
    C = grid.n_cells
    w = y[:C]
    N, E, S, O = y[C], y[C + 1], y[C + 2], y[C + 3]
    T = temperature(profile, t)
    fac = rate_factors(kp, N, E, S, O, T)
    phi = death_phi(kp, E)

    v = fac["rt_eps"] * grid.edges          # edge velocities, C+1
    flux = np.zeros(C + 1)
    flux[1:C] = v[1:C] * w[:C - 1]          # upwind; zero in/outflow at ends

    wdot = ((-(flux[1:] - flux[:-1]) + 2.0 * (op.K @ w) - op.gamma_int * w)
            / grid.dm - (phi + kp.kd) * w)

    moment = grid.dm * float(np.dot(grid.centers[1:C - 1], w[1:C - 1]))
    Ndot = -kp.k1 * fac["rt_eps"] * moment
    Edot = fac["qE"] * moment
    Sdot = -(kp.k2 * fac["qE"] + kp.k3 * fac["rt_eps"]) * moment
    Odot = -kp.k4 * fac["rt"] * moment

    out = np.empty_like(y)
    out[:C] = wdot
    out[C:] = (Ndot, Edot, Sdot, Odot)
    return out


def jacobian_vector(t: float, y: np.ndarray, op: DiscreteOperator,
                    kp: KineticParams, profile: TemperatureProfile) -> np.ndarray:
    """Analytic Jacobian of :func:`rhs_vector` with respect to y."""
    if not np.all(np.isfinite(y)):
        bad = np.flatnonzero(~np.isfinite(y))
        raise NumericsError(f"non-finite state entries at indices {bad[:8].tolist()} (t={t})")
    grid = op.grid
    C = grid.n_cells
    e = grid.edges
    dm = grid.dm
    w = y[:C]
    N, E, S, O = y[C], y[C + 1], y[C + 2], y[C + 3]
    T = temperature(profile, t)
    fac = rate_factors(kp, N, E, S, O, T)
    phi = death_phi(kp, E)
    dphi = death_phi_prime(kp, E)

    J = np.zeros((C + 4, C + 4))

    # densities block: birth kernel plus upwind transport and loss terms
    J[:C, :C] = (2.0 / dm) * op.K
    diag = np.arange(C)
    J[diag, diag] -= op.gamma_int / dm + phi + kp.kd
    J[diag[:-1], diag[:-1]] -= fac["rt_eps"] * e[1:C] / dm   # outflow, not in last cell
    J[diag[1:], diag[:-1]] += fac["rt_eps"] * e[1:C] / dm    # inflow from the left

    # net upwind flux divided by rt_eps; carries the velocity derivatives
    G = e[1:] * w
    G[-1] = 0.0
    G[1:] -= e[1:C] * w[:C - 1]

    dN, dS, dO = fac["drt_eps"]
    J[:C, C] = -(G / dm) * dN
    J[:C, C + 1] = -dphi * w
    J[:C, C + 2] = -(G / dm) * dS
    J[:C, C + 3] = -(G / dm) * dO

    # substrate rows; moment sums over interior cells only
    ci = grid.centers.copy()
    ci[0] = 0.0
    ci[-1] = 0.0
    cw = ci * dm
    moment = float(np.dot(ci, w)) * dm

    J[C, :C] = -kp.k1 * fac["rt_eps"] * cw
    J[C, C] = -kp.k1 * moment * dN
    J[C, C + 2] = -kp.k1 * moment * dS
    J[C, C + 3] = -kp.k1 * moment * dO

    J[C + 1, :C] = fac["qE"] * cw
    J[C + 1, C + 1] = moment * fac["dqE_dE"]
    J[C + 1, C + 2] = moment * fac["dqE_dS"]

    J[C + 2, :C] = -(kp.k2 * fac["qE"] + kp.k3 * fac["rt_eps"]) * cw
    J[C + 2, C] = -kp.k3 * moment * dN
    J[C + 2, C + 1] = -kp.k2 * moment * fac["dqE_dE"]
    J[C + 2, C + 2] = -moment * (kp.k2 * fac["dqE_dS"] + kp.k3 * dS)
    J[C + 2, C + 3] = -kp.k3 * moment * dO

    rN, rS, rO = fac["drt"]
    J[C + 3, :C] = -kp.k4 * fac["rt"] * cw
    J[C + 3, C] = -kp.k4 * moment * rN
    J[C + 3, C + 2] = -kp.k4 * moment * rS
    J[C + 3, C + 3] = -kp.k4 * moment * rO

    return J

