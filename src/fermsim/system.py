"""Semidiscrete right-hand side f(t, y) of the coupled system and its Jacobian.

State layout: y = (w_0 .. w_{C-1}, N, E, S, O).  Densities w are in
10^6 cells/ml per unit scaled mass; with that unit the substrate moment
sum(centers * w * dm) is the biomass concentration in g/l and the
tabulated yield coefficients apply without conversion factors.

Advection uses the first-order upwind flux with the growth velocity
evaluated at cell edges; the domain boundaries carry zero inflow (left)
and zero outflow (right) fluxes.  The substrate rates are the per-biomass
rates b of :func:`fermsim.kinetics.rates` times the first moment over
interior cells i = 1 .. C-2 only, so they match the reduced model's b*X.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError
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


def _check_finite(t: float, y: np.ndarray) -> None:
    """Raise NumericsError if y holds nan or +-inf.

    A finite sum means every entry is finite; only a sum that is not
    finite, which finite entries can also give by overflowing, needs the
    full scan.
    """
    if math.isfinite(y.sum()):
        return
    bad = np.flatnonzero(~np.isfinite(y))
    if len(bad):
        raise NumericsError(f"non-finite state entries at indices {bad[:8].tolist()} (t={t})")


def rhs_vector(t: float, y: np.ndarray, op: DiscreteOperator,
               kp: KineticParams, profile: TemperatureProfile) -> np.ndarray:
    """Time derivative of the packed state vector."""
    _check_finite(t, y)
    grid = op.grid
    C = grid.n_cells
    w = y[:C]
    N, E, S, O = y[C:].tolist()
    v, b = rates(kp, N, E, S, O, temperature(profile, t))
    phi = death_phi(kp, E)

    # Upwind fluxes through the C-1 interior edges; the end edges carry no
    # flux.  The steps below round as the expression
    #   (-(flux[1:] - flux[:-1]) + 2 K w - gamma w) / dm - (phi + kd) w
    # over the zero-padded flux does (-a + b is b - a, signed zeros too).
    flux = v * grid.edges[1:C]
    flux *= w[:C - 1]
    out = np.empty(C + 4)
    wdot = out[:C]
    wdot[0] = flux[0]
    np.subtract(flux[1:], flux[:-1], out=wdot[1:C - 1])
    wdot[C - 1] = 0.0 - flux[-1]
    term = op.K @ w
    term *= 2.0
    np.subtract(term, wdot, out=wdot)
    np.multiply(op.gamma_int, w, out=term)
    wdot -= term
    wdot /= grid.dm
    np.multiply(phi + kp.kd, w, out=term)
    wdot -= term

    moment = grid.dm * float(np.dot(grid.centers[1:C - 1], w[1:C - 1]))
    out[C:] = [rate * moment for rate in b]
    return out


def jacobian_vector(t: float, y: np.ndarray, op: DiscreteOperator,
                    kp: KineticParams, profile: TemperatureProfile) -> np.ndarray:
    """Analytic Jacobian of :func:`rhs_vector` with respect to y."""
    _check_finite(t, y)
    grid = op.grid
    C = grid.n_cells
    e = grid.edges
    dm = grid.dm
    w = y[:C]
    N, E, S, O = y[C], y[C + 1], y[C + 2], y[C + 3]
    T = temperature(profile, t)
    v, b = rates(kp, N, E, S, O, T)
    dv, db = rate_jacobian(kp, N, E, S, O, T)
    phi = death_phi(kp, E)

    J = np.empty((C + 4, C + 4))  # every entry is written below

    # densities block: birth kernel plus upwind transport and loss terms
    np.multiply(2.0 / dm, op.K, out=J[:C, :C])
    diag = np.arange(C)
    J[diag, diag] -= op.gamma_int / dm + phi + kp.kd
    J[diag[:-1], diag[:-1]] -= v * e[1:C] / dm   # outflow, not in last cell
    J[diag[1:], diag[:-1]] += v * e[1:C] / dm    # inflow from the left

    # net upwind flux divided by v; carries the velocity derivatives
    G = e[1:] * w
    G[-1] = 0.0
    G[1:] -= e[1:C] * w[:C - 1]
    J[:C, C:] = np.outer(-G / dm, dv)
    J[:C, C + 1] = -death_phi_prime(kp, E) * w

    # substrate rows; moment sums over interior cells only
    ci = grid.centers.copy()
    ci[0] = 0.0
    ci[-1] = 0.0
    moment = float(np.dot(ci, w)) * dm
    J[C:, :C] = np.outer(b, ci * dm)
    J[C:, C:] = moment * db

    return J

