"""Acceptance gate: one test per release criterion, pinned tolerances."""

import numpy as np
import pytest

from fermsim import (DivisionParams, NewtonConfig, build_grid, compute_lambda,
                     integrate, normalize_mass, partition)
from fermsim.distributions import DistributionSpec, build_initial_density
from fermsim.oracles import (fd_jacobian, jacobian_deviation,
                             quadrature_oracle, random_admissible_state)
from fermsim.simulate import DENSITY_SCALE
from fermsim.system import jacobian_vector, rhs_vector

from conftest import (concentration_block, density_block, interior_maxima,
                      run_with)


def test_criterion_01_lambda_normalization():
    assert abs(compute_lambda(400.0) - 5.6419) <= 1e-3


def test_criterion_02_mass_scaling_chain():
    for raw, expected in ((4.55e-13, 0.3784), (10.25e-13, 0.8525)):
        mid = normalize_mass(raw, 0.0, 12e-13, 0.0, 1e-9)
        final = normalize_mass(mid, 0.0, 1e-9, 0.001, 0.999)
        assert abs(final - expected) <= 1e-4


@pytest.mark.parametrize("m_prime", [0.5, 0.7, 0.999])
def test_criterion_03_partition_normalization(dp, m_prime):
    integral = quadrature_oracle(
        lambda m: float(partition(dp, np.asarray(m), np.asarray(m_prime))),
        0.001, 0.999, 30)
    assert abs(integral - 1.0) <= 1e-3


def test_criterion_04_biomass_symmetry(dp):
    rng = np.random.default_rng(42)
    m_prime = rng.uniform(0.001, 0.999, size=10_000)
    m = rng.uniform(0.0, 1.0, size=10_000) * m_prime
    dev = np.abs(partition(dp, m, m_prime) - partition(dp, m_prime - m, m_prime))
    # zero to machine precision: the float-evaluated complement m' - m
    # rounds, leaving at most a few ulp of the partition scale (~11).
    assert float(dev.max()) <= 16.0 * np.finfo(float).eps * 2.0 * dp.lam


@pytest.mark.parametrize("op_fixture", ["op30", "op150"])
def test_criterion_05_jacobian_vs_finite_differences(request, kp, profile,
                                                     op_fixture):
    op = request.getfixturevalue(op_fixture)
    rng = np.random.default_rng(11)
    n_cells = op.grid.n_cells
    for _ in range(20):
        y = random_admissible_state(rng, n_cells)
        t = rng.uniform(0.0, 20.0)
        analytic = jacobian_vector(t, y, op, kp, profile)
        approx = fd_jacobian(
            t, y, lambda tt, yy: rhs_vector(tt, yy, op, kp, profile), 1e-6)
        assert jacobian_deviation(analytic, approx) <= 1e-5


def test_criterion_06_temporal_order(grid30, op30, kp, profile):
    # frozen-coefficient problem: density transport/division with the
    # concentrations held at their initial values (linear in w)
    frozen = np.array([0.40, 0.0, 193.0, 0.012])
    C = grid30.n_cells
    w0 = build_initial_density(DistributionSpec(kind="constant"), grid30) / DENSITY_SCALE

    def f(t, y):
        return rhs_vector(0.0, np.concatenate([y, frozen]), op30, kp, profile)[:C]

    def jac(t, y):
        return jacobian_vector(0.0, np.concatenate([y, frozen]),
                               op30, kp, profile)[:C, :C]

    reference = integrate(f, jac, w0, 1.0, 1.0 / 6144.0, NewtonConfig()).states[-1]
    errors = [np.max(np.abs(
        integrate(f, jac, w0, 1.0, 1.0 / h_inv, NewtonConfig()).states[-1]
        - reference)) for h_inv in (48, 96, 192)]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2


def test_criterion_07_newton_behavior(default_run):
    records = default_run.trajectory.records
    assert default_run.trajectory.completed
    assert all(r.converged for r in records)
    assert all(r.residual_norm <= 1e-10 for r in records)
    assert all(r.newton_iterations <= 100 for r in records)
    assert np.median([r.newton_iterations for r in records]) <= 5


def test_criterion_08_positivity(distribution_runs):
    for kind, result in distribution_runs.items():
        _, w = density_block(result)
        assert w.min() >= -1e-9 * w.max(), f"negative density for {kind!r}"


def test_criterion_09_qualitative_dynamics(default_run):
    times, N, E, S, O = concentration_block(default_run)
    tiny = 1e-12
    assert np.all(np.diff(E) >= -tiny * max(1.0, E.max()))
    for name, col in (("S", S), ("N", N), ("O", O)):
        assert np.all(np.diff(col) <= tiny * max(1.0, col.max())), name

    # oxygen is consumed within the first few days
    day5 = int(np.argmin(np.abs(times - 5.0)))
    assert O[day5] < 0.01 * O[0]

    t_arr, w = density_block(default_run)
    cfg = default_run.config
    grid_centers = build_grid(cfg.m_min, cfg.m_max, cfg.n_cells).centers
    day10 = int(np.argmin(np.abs(t_arr - 10.0)))
    peaks = interior_maxima(w[day10])
    assert len(peaks) == 2


def test_criterion_09_late_small_mass_peak_dominance(default_run):
    # After day ten the small-mass peak is required to exceed the
    # medium-mass peak.  KNOWN FAILURE: with the pinned division
    # parameters the two-peak profile reaches a quasi-steady shape whose
    # medium-mass peak stays taller.  Under the generous reading used
    # below (max density below the transition mass vs max at or above
    # it) the ratio plateaus at 0.92-0.96; comparing the two interior
    # local maxima directly gives ~0.45.  This holds across all four
    # initial distributions, all tested calibrations, and finer grids;
    # post-day-10 growth at the residual-nutrient floor is ~3e-3/day, far
    # too slow to push medium-mass cells into the division zone within
    # the horizon.  The check is kept as stated rather than weakened.
    t_arr, w = density_block(default_run)
    cfg = default_run.config
    grid_centers = build_grid(cfg.m_min, cfg.m_max, cfg.n_cells).centers
    m_t = DivisionParams().m_t
    small = grid_centers < m_t
    exceeded = False
    for t_check in (15.0, 20.0):
        idx = int(np.argmin(np.abs(t_arr - t_check)))
        exceeded = exceeded or w[idx][small].max() > w[idx][~small].max()
    assert exceeded


def test_criterion_10_final_values(default_run):
    _, N, E, S, _ = concentration_block(default_run)
    assert abs(S[-1] - 18.0) <= 3.0
    assert abs(E[-1] - 99.0) <= 10.0
    assert abs(N[-1] - 0.019) <= 0.01


def test_criterion_11_ide_vs_ode_agreement(default_run, ode_run):
    _, N, E, S, O = concentration_block(default_run)
    ode = ode_run.trajectory.states  # columns X, N, E, S, O
    assert np.allclose(default_run.trajectory.times, ode_run.trajectory.times)
    for k, col in enumerate((N, E, S, O), start=1):
        # relative to the trajectory scale so states that decay to the
        # round-off floor (oxygen) are compared meaningfully
        scale = max(float(np.max(np.abs(col))), 1e-300)
        rel = abs(col[-1] - ode[-1, k]) / scale
        assert rel <= 0.05


def test_criterion_12_grid_refinement(tmp_path, default_run):
    finals = {}
    for n_cells, h_inv in ((30, 48), (50, 72), (100, 144)):
        result = run_with(tmp_path / f"c{n_cells}", n_cells=n_cells,
                          dt=1.0 / h_inv)
        C = n_cells
        finals[n_cells] = result.trajectory.states[-1, C:]
    finals[150] = default_run.trajectory.states[-1, 150:]
    reference = finals[150]
    for k in range(4):
        deviations = [abs(finals[c][k] - reference[k]) for c in (30, 50, 100)]
        assert deviations[0] >= deviations[1] >= deviations[2]
        rel = deviations[2] / max(abs(reference[k]), 1e-300)
        assert rel <= 0.02
