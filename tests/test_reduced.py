import numpy as np
import pytest

from fermsim import NewtonConfig, NumericsError, run_ode
from fermsim.oracles import fd_jacobian, jacobian_deviation
from fermsim.reduced import ode_jacobian_vector, ode_rhs_vector
from fermsim.system import rhs_vector


def test_rhs_signs(kp, profile):
    y = np.array([0.5, 0.40, 10.0, 150.0, 0.005])
    dy = ode_rhs_vector(0.0, y, kp, profile)
    assert dy[0] > 0.0   # biomass grows while substrate is plentiful
    assert dy[1] < 0.0   # nitrogen consumed
    assert dy[2] > 0.0   # ethanol produced
    assert dy[3] < 0.0   # sugar consumed
    assert dy[4] < 0.0   # oxygen consumed


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", range(5))
def test_rhs_rejects_non_finite_entry(kp, profile, value, index):
    y = np.array([0.5, 0.40, 10.0, 150.0, 0.005])
    y[index] = value
    with pytest.raises(NumericsError):
        ode_rhs_vector(0.0, y, kp, profile)


def test_rhs_accepts_finite_state_whose_sum_overflows(kp, profile):
    y = np.array([1e308, 0.40, 10.0, 1e308, 0.005])
    with np.errstate(over="ignore"):
        assert not np.isfinite(y.sum())
    ode_rhs_vector(0.0, y, kp, profile)


def test_zero_biomass_is_stationary_for_substrates(kp, profile):
    y = np.array([0.0, 0.4, 0.0, 193.0, 0.012])
    dy = ode_rhs_vector(0.0, y, kp, profile)
    assert np.all(dy == 0.0)


def test_substrate_rates_equal_full_model_at_same_biomass(op30, kp, profile):
    # both models multiply the one per-biomass rate vector by the biomass,
    # so at a density whose interior first moment is X they agree exactly
    grid = op30.grid
    C = grid.n_cells
    rng = np.random.default_rng(11)
    for t in (0.0, 10.0, 20.0):
        w = rng.uniform(0.0, 3.0, C)
        X = grid.dm * float(np.dot(grid.centers[1:C - 1], w[1:C - 1]))
        substrates = np.array([rng.uniform(0.0, 0.5), rng.uniform(0.0, 110.0),
                               rng.uniform(0.0, 200.0), rng.uniform(0.0, 0.02)])
        full = rhs_vector(t, np.concatenate([w, substrates]), op30, kp, profile)
        reduced = ode_rhs_vector(t, np.array([X, *substrates]), kp, profile)
        assert np.all(reduced[1:] != 0.0)
        assert np.array_equal(full[C:], reduced[1:])


def test_jacobian_matches_finite_differences(kp, profile):
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = np.array([rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.5),
                      rng.uniform(0.0, 110.0), rng.uniform(0.0, 200.0),
                      rng.uniform(0.0, 0.02)])
        t = rng.uniform(0.0, 20.0)
        analytic = ode_jacobian_vector(t, y, kp, profile)
        approx = fd_jacobian(
            t, y, lambda tt, yy: ode_rhs_vector(tt, yy, kp, profile), 1e-7)
        assert jacobian_deviation(analytic, approx) <= 1e-5


def test_twenty_day_run_depletes_substrates(kp, profile):
    y0 = np.array([0.5, 0.40, 0.0, 193.0, 0.012])   # X, N, E, S, O
    traj = run_ode(y0, 20.0, 1.0 / 192.0, kp, profile, NewtonConfig())
    assert traj.completed
    X, N, E, S, O = traj.states[-1]
    assert E > 80.0
    assert S < 30.0
    assert O < 0.01 * y0[4]
    assert np.all(np.diff(traj.states[:, 2]) >= -1e-12)   # E nondecreasing
    assert np.all(np.diff(traj.states[:, 3]) <= 1e-12)    # S nonincreasing
