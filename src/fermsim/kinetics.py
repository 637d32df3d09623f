"""Continuous model functions of the fermentation population-balance model.

Everything here is a pure function of its arguments: the one rate law
of both models (``rates``: Michaelis--Menten growth rate and the four
substrate rates per unit biomass, with their derivatives in
``rate_jacobian``), the ethanol-related death function, the cell division
rate and daughter-mass partitioning density, and the linear temperature
dependencies of the kinetic coefficients.

Units
-----
time in days, concentrations in g/l, cell mass as the dimensionless
scaled mass on [0.001, 0.999] (one scaled-mass unit corresponds to
1e-9 g of physical cell mass).  Cell number densities are measured in
10^6 cells/ml per unit scaled mass, which makes the substrate equations
dimensionally consistent with the tabulated yield coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class KineticParams:
    """Kinetic constants of the reaction-rate model.

    ``mu1``/``mu2``, ``beta1``/``beta2`` and ``KE1``/``KE2`` are the
    slope/offset pairs of the temperature-linear coefficients
    mu_max(T), beta_max(T) and K_E(T).  ``k2`` and ``k3`` (sugar
    yields) are calibration values, see the config reference.
    """

    mu1: float = 0.1681      # 1/(day degC)
    mu2: float = 0.0         # 1/day
    beta1: float = 0.1348    # 1/(day degC)
    beta2: float = 0.0       # 1/day
    KE1: float = 0.2616      # g/(l degC)
    KE2: float = 38.90       # g/l
    KN: float = 0.1096       # g/l
    KS1: float = 29.5        # g/l
    KS2: float = 4.3262      # g/l
    KO: float = 0.0007       # g/l
    k1: float = 0.018
    k2: float = 1.86
    k3: float = 0.003
    k4: float = 0.0006
    kd: float = 0.01         # 1/day
    kd1: float = 99.86
    kd2: float = 0.0021      # l^2/(g^2 day)
    tol: float = 70.0        # g/l
    eps: float = 0.02

    def __post_init__(self):
        for name in ("mu1", "mu2", "beta1", "beta2", "KE1", "KE2", "k1",
                     "k2", "k3", "k4", "kd", "kd1", "kd2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"kinetic.{name} must be >= 0")
        for name in ("KN", "KS1", "KS2", "KO"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"kinetic.{name} must be > 0")
        if self.eps <= 0:
            raise ConfigError("kinetic.eps must be > 0")
        if self.tol <= 0:
            raise ConfigError("kinetic.tol must be > 0")

    def check_temperature_range(self, T_low, T_high):
        """Raise ConfigError naming the coefficient if mu_max, beta_max or
        K_E is negative on [T_low, T_high].

        The coefficients are linear in T, so the endpoints cover the
        interval, and ``temperature`` never leaves it: a config that passes
        here gives non-negative coefficients at every rhs call.
        """
        for T in (T_low, T_high):
            for coefficient in (mu_max, beta_max, K_E):
                value = coefficient(self, T)
                if value < 0:
                    raise ConfigError(f"{coefficient.__name__}({T}) = {value} < 0")


@dataclass(frozen=True)
class DivisionParams:
    """Cell division parameters: division rate and daughter partitioning."""

    gamma: float = 200.0     # 1/day
    delta: float = 50.0      # 1/mass^2
    beta: float = 400.0      # 1/mass^2
    m_t: float = 0.3784      # scaled transition mass
    m_d: float = 0.8525      # scaled division mass

    def __post_init__(self):
        if self.gamma <= 0 or self.delta <= 0 or self.beta <= 0:
            raise ConfigError("division.gamma, division.delta and division.beta must be > 0")
        if not 0.0 < self.m_t < self.m_d:
            raise ConfigError("division masses must satisfy 0 < m_t < m_d")

    @property
    def lam(self) -> float:
        """Partition amplitude (1/mass), derived from beta so p integrates to one."""
        return compute_lambda(self.beta)


@dataclass(frozen=True)
class TemperatureProfile:
    """Piecewise-linear fermentation temperature: low, ramp, high."""

    T_low: float = 15.0
    T_high: float = 18.0
    t_ramp_start: float = 9.5
    t_ramp_end: float = 10.5

    def __post_init__(self):
        if not 0.0 <= self.t_ramp_start <= self.t_ramp_end:
            raise ConfigError("temperature profile requires 0 <= t_ramp_start <= t_ramp_end")


def temperature(profile: TemperatureProfile, t: float) -> float:
    """Temperature in degC at time t >= 0 (days); T_high after the ramp."""
    if t < 0.0:
        raise DomainError(f"t={t} is negative")
    if t <= profile.t_ramp_start:
        return profile.T_low
    if t >= profile.t_ramp_end:
        return profile.T_high
    frac = (t - profile.t_ramp_start) / (profile.t_ramp_end - profile.t_ramp_start)
    return profile.T_low + frac * (profile.T_high - profile.T_low)


def mu_max(p: KineticParams, T: float) -> float:
    """Maximum specific growth rate mu1*T - mu2 (1/day)."""
    return p.mu1 * T - p.mu2


def beta_max(p: KineticParams, T: float) -> float:
    """Maximum ethanol production rate beta1*T - beta2 (1/day)."""
    return p.beta1 * T - p.beta2


def K_E(p: KineticParams, T: float) -> float:
    """Ethanol inhibition constant -KE1*T + KE2 (g/l)."""
    return -p.KE1 * T + p.KE2


def _michaelis(kp: KineticParams, N, E, S, O, T):
    """Temperature coefficients and Michaelis factors at one point.

    No argument is checked: Newton iterates may transiently leave the
    physical region, a non-finite value fails the Newton residual, and
    the coefficient signs were checked when the config was loaded
    (:meth:`KineticParams.check_temperature_range`).
    """
    mu, bm, ke = mu_max(kp, T), beta_max(kp, T), K_E(kp, T)
    return (mu, bm, ke, N / (kp.KN + N), ke / (ke + E),
            S / (kp.KS1 + S), S / (kp.KS2 + S), O / (kp.KO + O))


def rates(kp: KineticParams, N, E, S, O, T):
    """The one rate law of both models: ``(v, b)`` at one point.

    ``v`` is the specific growth rate with the anaerobic floor eps (the
    mass velocity of the full model).  ``b`` holds the N, E, S, O rates per
    g/l of biomass: nitrogen uptake k1*v, ethanol production qE, sugar
    uptake k2*qE + k3*v and oxygen uptake k4*rt, where rt is the growth
    rate without the floor.
    """
    mu, bm, _, gN, gKE, gS1, gS2, gO = _michaelis(kp, N, E, S, O, T)
    v = mu * gN * gS1 * (gO + kp.eps)
    rt = mu * gN * gS1 * gO
    qE = bm * gS2 * gKE
    return v, (-kp.k1 * v, qE, -(kp.k2 * qE + kp.k3 * v), -kp.k4 * rt)


def rate_jacobian(kp: KineticParams, N, E, S, O, T):
    """Derivatives ``(dv, db)`` of :func:`rates` over (N, E, S, O).

    ``dv`` has shape (4,) and ``db`` shape (4, 4); the yields enter once,
    by the chain rule on 4-vectors.
    """
    mu, bm, ke, gN, gKE, gS1, gS2, gO = _michaelis(kp, N, E, S, O, T)
    dgN = kp.KN / (kp.KN + N) ** 2
    dgS1 = kp.KS1 / (kp.KS1 + S) ** 2
    dgS2 = kp.KS2 / (kp.KS2 + S) ** 2
    dgO = kp.KO / (kp.KO + O) ** 2
    dgKE = -ke / (ke + E) ** 2

    dv = np.array([mu * dgN * gS1 * (gO + kp.eps), 0.0,
                   mu * gN * dgS1 * (gO + kp.eps), mu * gN * gS1 * dgO])
    drt = np.array([mu * dgN * gS1 * gO, 0.0, mu * gN * dgS1 * gO, mu * gN * gS1 * dgO])
    dqE = np.array([0.0, bm * gS2 * dgKE, bm * dgS2 * gKE, 0.0])
    return dv, np.array([-kp.k1 * dv, dqE, -(kp.k2 * dqE + kp.k3 * dv), -kp.k4 * drt])


def death_phi(p: KineticParams, E: float) -> float:
    """Ethanol-related death rate Phi(E) (1/day); zero at E = tol."""
    d = E - p.tol
    return (0.5 + math.atan(p.kd1 * d) / math.pi) * p.kd2 * d * d


def death_phi_prime(p: KineticParams, E: float) -> float:
    """Derivative of the death function with respect to E."""
    d = E - p.tol
    return (p.kd1 * p.kd2 * d * d / (math.pi * (1.0 + p.kd1 ** 2 * d * d))
            + 2.0 * p.kd2 * d * (0.5 + math.atan(p.kd1 * d) / math.pi))


def partition(d: DivisionParams, m, m_prime):
    """Daughter-mass partitioning density p(m, m'); two Gaussian peaks.

    Vanishes unless m' > m and m' > m_t.  Satisfies the biomass symmetry
    p(m, m') = p(m' - m, m') exactly.  Accepts arrays (broadcast).  The
    kernel assembly does not call it (it sums shift tables of the same
    exponentials); it is the pointwise reference the oracles and tests
    check the assembled kernel against.
    """
    m = np.asarray(m, dtype=float)
    mp = np.asarray(m_prime, dtype=float)
    active = (mp > m) & (mp > d.m_t)
    val = d.lam * (np.exp(-d.beta * (m - d.m_t) ** 2)
                   + np.exp(-d.beta * (m - mp + d.m_t) ** 2))
    out = np.where(active, val, 0.0)
    return float(out) if out.ndim == 0 else out


def division_rate(d: DivisionParams, m):
    """Division rate (breakage frequency) Gamma(m); accepts arrays."""
    m = np.asarray(m, dtype=float)
    ramp = d.gamma * np.exp(-d.delta * (m - d.m_d) ** 2)
    out = np.where(m <= d.m_t, 0.0, np.where(m < d.m_d, ramp, d.gamma))
    return float(out) if out.ndim == 0 else out


def compute_lambda(beta: float) -> float:
    """Partition amplitude making the two-Gaussian density integrate to one."""
    if beta <= 0:
        raise DomainError("beta must be > 0")
    return 0.5 * math.sqrt(beta / math.pi)


def normalize_mass(value, from_lo, from_hi, to_lo, to_hi):
    """Rescale a mass value between intervals.

    Uses the span-ratio form (to_hi - to_lo)/(from_hi - from_lo) * (value
    - from_lo); the target offset is deliberately not added, matching how
    the reference values m_t = 0.3784 and m_d = 0.8525 were produced.
    """
    if from_hi <= from_lo:
        raise DomainError("source interval must have positive width")
    return (to_hi - to_lo) / (from_hi - from_lo) * (value - from_lo)
