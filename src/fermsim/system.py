"""Semidiscrete right-hand side f(t, y) of the coupled system and its Jacobian.

State layout: y = (w_0 .. w_{C-1}, N, E, S, O).  Densities w are in
10^6 cells/ml per unit scaled mass; with that unit the substrate moment
sum(centers * w * dm) is the biomass concentration in g/l and the
tabulated yield coefficients apply without conversion factors.

Given the growth velocity v and the death rate phi, the density rhs is
linear in w: w' = A w - v D w - (phi + kd) w, with A = (2 K - diag
gamma_int) / dm and D the first-order upwind transport at the edge
velocity, with zero end fluxes; both come from
:func:`fermsim.operator.assemble_operator`.  The substrate rates are the
per-biomass rates b of :func:`fermsim.kinetics.rates` times the first
moment over interior cells i = 1 .. C-2 only, so they match the reduced
model's b*X.
"""

from __future__ import annotations

import numpy as np

from .kinetics import (
    KineticParams,
    TemperatureProfile,
    death_phi,
    death_phi_prime,
    rate_jacobian,
    rates,
    temperature,
)
from .operator import DiscreteOperator


def _transport(op: DiscreteOperator, w: np.ndarray) -> np.ndarray:
    """D w: each cell's net upwind outflow per unit velocity; no end fluxes."""
    flux = op.transport * w[:-1]
    out = np.zeros(len(w))
    out[:-1] = flux
    out[1:] -= flux
    return out


def rhs_vector(t: float, y: np.ndarray, op: DiscreteOperator,
               kp: KineticParams, profile: TemperatureProfile) -> np.ndarray:
    """Time derivative of the packed state vector."""
    C = op.grid.n_cells
    w = y[:C]
    N, E, S, O = y[C:].tolist()
    v, b = rates(kp, N, E, S, O, temperature(profile, t))

    out = np.empty(C + 4)
    wdot = np.dot(op.A, w, out=out[:C])
    wdot -= v * _transport(op, w)
    wdot -= (death_phi(kp, E) + kp.kd) * w

    moment = op.grid.dm * float(np.dot(op.moment_weights, w))
    out[C:] = [rate * moment for rate in b]
    return out


def jacobian_vector(t: float, y: np.ndarray, op: DiscreteOperator,
                    kp: KineticParams, profile: TemperatureProfile) -> np.ndarray:
    """Analytic Jacobian of :func:`rhs_vector` with respect to y."""
    C = op.grid.n_cells
    w = y[:C]
    N, E, S, O = y[C:].tolist()
    T = temperature(profile, t)
    v, b = rates(kp, N, E, S, O, T)
    dv, db = rate_jacobian(kp, N, E, S, O, T)

    J = np.empty((C + 4, C + 4))  # every entry is written below

    # densities block A - v D - (phi + kd) I, and the velocity column -D w dv
    J[:C, :C] = op.A
    diag = np.arange(C)
    J[diag, diag] -= death_phi(kp, E) + kp.kd
    J[diag[:-1], diag[:-1]] -= v * op.transport   # outflow, not in last cell
    J[diag[1:], diag[:-1]] += v * op.transport    # inflow from the left
    J[:C, C:] = np.outer(-_transport(op, w), dv)
    J[:C, C + 1] = -death_phi_prime(kp, E) * w

    # substrate rows; moment over interior cells only
    moment = op.grid.dm * float(np.dot(op.moment_weights, w))
    J[C:, :C] = np.outer(b, op.grid.dm * op.moment_weights)
    J[C:, C:] = moment * db

    return J
