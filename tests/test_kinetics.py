import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermsim import (ConfigError, DivisionParams, DomainError, KineticParams,
                     ModelValidityError, TemperatureProfile, compute_lambda,
                     division_rate, normalize_mass, partition, rate_jacobian,
                     rates, temperature)
from fermsim.kinetics import K_E, beta_max, death_phi, death_phi_prime, mu_max
from fermsim.oracles import check_partition_normalization
from fermsim.reduced import ode_rhs_vector

conc = st.floats(min_value=0.0, max_value=250.0)
temp = st.floats(min_value=10.0, max_value=25.0)
mass = st.floats(min_value=0.001, max_value=0.999)


# --- temperature-linear coefficients ---------------------------------------

def test_temperature_profile_phases(profile):
    assert temperature(profile, 0.0) == 15.0
    assert temperature(profile, 9.5) == 15.0
    assert temperature(profile, 10.0) == pytest.approx(16.5)
    assert temperature(profile, 10.5) == 18.0
    assert temperature(profile, 20.0) == 18.0


def test_temperature_monotone_on_ramp(profile):
    ts = np.linspace(9.5, 10.5, 50)
    values = [temperature(profile, t) for t in ts]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_coefficients_at_reference_temperatures(kp):
    assert mu_max(kp, 15.0) == pytest.approx(0.1681 * 15.0)
    assert beta_max(kp, 18.0) == pytest.approx(0.1348 * 18.0)
    assert K_E(kp, 15.0) == pytest.approx(-0.2616 * 15.0 + 38.90)


def test_negative_coefficient_rejected(kp):
    with pytest.raises(ModelValidityError):
        mu_max(kp, -1.0)
    with pytest.raises(ModelValidityError):
        K_E(kp, 1000.0)  # K_E turns negative for large T


def test_temperature_range_check(kp):
    kp.check_temperature_range(15.0, 18.0)
    with pytest.raises(ConfigError):
        kp.check_temperature_range(15.0, 200.0)


# --- reaction rates ---------------------------------------------------------

def constant_profile(T):
    """A profile that holds T over the whole horizon."""
    return TemperatureProfile(T_low=T, T_high=T)


@given(N=conc, S=conc, O=conc, T=temp)
def test_growth_oxygen_floor(N, S, O, T):
    kp = KineticParams()
    v, b = rates(kp, N, 0.0, S, O, T)
    rt = -b[3] / kp.k4          # growth rate without the floor
    assert v >= rt >= 0.0
    assert v - rt == pytest.approx(
        mu_max(kp, T) * (N / (kp.KN + N)) * (S / (kp.KS1 + S)) * kp.eps)


@given(N=conc, S=conc, E=conc, O=conc, T=temp, m=mass)
def test_growth_rate_linear_in_mass(N, S, E, O, T, m):
    # every reduced-model rate is a per-unit-mass rate times the biomass
    kp = KineticParams()
    profile = constant_profile(T)
    per_unit = ode_rhs_vector(0.0, np.array([1.0, N, E, S, O]), kp, profile)
    scaled = ode_rhs_vector(0.0, np.array([m, N, E, S, O]), kp, profile)
    assert np.allclose(scaled, m * per_unit, rtol=1e-12, atol=0.0)
    assert per_unit[0] == pytest.approx(
        rates(kp, N, E, S, O, T)[0] - death_phi(kp, E) - kp.kd)


@given(S=conc, E=conc, T=temp)
def test_ethanol_rate_bounded_and_inhibited(S, E, T):
    kp = KineticParams()
    q = rates(kp, 0.4, E, S, 0.01, T)[1][1]
    assert 0.0 <= q <= beta_max(kp, T)
    assert rates(kp, 0.4, E + 10.0, S, 0.01, T)[1][1] <= q  # product inhibition


@given(S=conc, E=conc, N=conc, O=conc, T=temp, m=mass)
def test_sugar_rate_is_yield_combination(S, E, N, O, T, m):
    # sugar feeds ethanol (yield k2) and growth (yield k3, as nitrogen does with k1)
    kp = KineticParams()
    _, Ndot, Edot, Sdot, _ = ode_rhs_vector(
        0.0, np.array([m, N, E, S, O]), kp, constant_profile(T))
    assert Sdot == pytest.approx(-kp.k2 * Edot + kp.k3 / kp.k1 * Ndot)


@given(N=conc, E=conc, S=conc, O=conc, T=temp)
@settings(max_examples=100)
def test_rate_jacobian_matches_central_differences(N, E, S, O, T):
    kp = KineticParams()
    x = np.array([N, E, S, O])
    half_sat = (kp.KN, K_E(kp, T), kp.KS2, kp.KO)
    dv, db = rate_jacobian(kp, N, E, S, O, T)
    assert dv.shape == (4,) and db.shape == (4, 4)
    for j in range(4):
        # a step small against the Michaelis constant resolves the curvature
        # near 0; round-off in rates of size <= ~10 limits the absolute error
        h = 1e-4 * (half_sat[j] + x[j])
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        (v1, b1), (v0, b0) = rates(kp, *up, T), rates(kp, *down, T)
        fd = (np.array([v1, *b1]) - np.array([v0, *b0])) / (2.0 * h)
        assert np.array([dv[j], *db[:, j]]) == pytest.approx(fd, rel=1e-5, abs=1e-14 / h)


# --- ethanol toxicity -------------------------------------------------------

@given(E=st.floats(min_value=0.0, max_value=300.0))
def test_death_phi_nonnegative(E):
    assert death_phi(KineticParams(), E) >= 0.0


def test_death_phi_zero_at_threshold(kp):
    assert death_phi(kp, kp.tol) == 0.0
    assert death_phi(kp, kp.tol + 20.0) > death_phi(kp, kp.tol + 10.0) > 0.0


@given(E=st.floats(min_value=0.0, max_value=300.0))
@settings(max_examples=50)
def test_death_phi_prime_matches_finite_difference(E):
    kp = KineticParams()
    h = 1e-6 * max(1.0, abs(E))
    fd = (death_phi(kp, E + h) - death_phi(kp, E - h)) / (2.0 * h)
    assert death_phi_prime(kp, E) == pytest.approx(fd, abs=1e-5, rel=1e-5)


# --- division and partitioning ----------------------------------------------

def test_compute_lambda_closed_form():
    assert compute_lambda(400.0) == pytest.approx(0.5 * math.sqrt(400.0 / math.pi))
    assert DivisionParams().lam == pytest.approx(compute_lambda(400.0))


def test_lambda_follows_a_replaced_beta():
    """lambda is derived from beta, so it cannot go stale and p stays normalized."""
    dp = dataclasses.replace(DivisionParams(), beta=100.0)
    assert dp.lam == compute_lambda(100.0)
    # m' = 0.7 and 0.999; at m' = 0.5 the wider Gaussians spill 6% past [0, m']
    at_07, at_0999 = check_partition_normalization(dp)[1:]
    assert at_07.passed and at_0999.passed


def test_division_rate_piecewise(dp):
    assert division_rate(dp, 0.1) == 0.0
    assert division_rate(dp, dp.m_t) == 0.0
    assert division_rate(dp, 0.95) == dp.gamma
    ramp = division_rate(dp, 0.5 * (dp.m_t + dp.m_d))
    assert 0.0 < ramp < dp.gamma


@given(m=mass)
def test_division_rate_bounds(m):
    dp = DivisionParams()
    assert 0.0 <= division_rate(dp, m) <= dp.gamma


@given(m_prime=mass,
       frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_partition_symmetry(m_prime, frac):
    dp = DivisionParams()
    m = frac * m_prime
    lhs = partition(dp, m, m_prime)
    rhs = partition(dp, m_prime - m, m_prime)
    assert abs(lhs - rhs) <= 16.0 * np.finfo(float).eps * 2.0 * dp.lam
    assert lhs >= 0.0


@given(m=mass, m_prime=mass)
def test_partition_support(m, m_prime):
    dp = DivisionParams()
    value = partition(dp, m, m_prime)
    if m_prime <= m or m_prime <= dp.m_t:
        assert value == 0.0
    else:
        assert value > 0.0


def test_partition_vectorized_matches_scalar(dp):
    m = np.array([0.1, 0.3, 0.45])
    value = partition(dp, m, 0.9)
    for mi, vi in zip(m, value):
        assert vi == partition(dp, float(mi), 0.9)


# --- mass rescaling ---------------------------------------------------------

def test_normalize_mass_reference_chain():
    assert normalize_mass(4.55e-13, 0.0, 12e-13, 0.0, 1e-9) == pytest.approx(
        3.7917e-10, abs=1e-13)
    assert normalize_mass(10.25e-13, 0.0, 12e-13, 0.0, 1e-9) == pytest.approx(
        8.5417e-10, abs=1e-13)


@given(a=st.floats(min_value=-10, max_value=10),
       b=st.floats(min_value=-10, max_value=10))
def test_normalize_mass_monotone(a, b):
    lo, hi = sorted((a, b))
    if hi - lo < 1e-6:
        return
    x1 = normalize_mass(lo, lo, hi, 0.0, 1.0)
    x2 = normalize_mass(hi, lo, hi, 0.0, 1.0)
    assert x2 > x1


def test_normalize_mass_rejects_empty_interval():
    with pytest.raises(DomainError):
        normalize_mass(0.5, 1.0, 1.0, 0.0, 1.0)
