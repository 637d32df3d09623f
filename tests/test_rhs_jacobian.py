import numpy as np
import pytest

from fermsim import NumericsError
from fermsim.kinetics import mu_max, temperature
from fermsim.oracles import (fd_jacobian, jacobian_deviation,
                             random_admissible_state)
from fermsim.system import jacobian_vector, rhs_vector


def state_vector(op, seed=0):
    return random_admissible_state(np.random.default_rng(seed),
                                   op.grid.n_cells)


def test_rhs_shape(op30, kp, profile):
    y = state_vector(op30)
    dy = rhs_vector(1.0, y, op30, kp, profile)
    assert dy.shape == y.shape


def test_rhs_rejects_nonfinite(op30, kp, profile):
    y = state_vector(op30)
    y[3] = np.nan
    with pytest.raises(NumericsError):
        rhs_vector(0.0, y, op30, kp, profile)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_guard_finds_non_finite_entry_anywhere(op30, kp, profile, value):
    C = op30.grid.n_cells
    for index in (0, C - 1, C, C + 1, C + 2, C + 3):
        y = state_vector(op30)
        y[index] = value
        for fn in (rhs_vector, jacobian_vector):
            with pytest.raises(NumericsError, match=f"indices \\[{index}\\]"):
                fn(0.0, y, op30, kp, profile)


def test_guard_passes_finite_state_whose_sum_overflows(op30, kp, profile):
    y = state_vector(op30)
    y[0] = y[1] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(y.sum())
        rhs_vector(0.0, y, op30, kp, profile)
        jacobian_vector(0.0, y, op30, kp, profile)


def test_no_mass_enters_or_leaves_through_boundaries(op30, kp, profile):
    # With division and death switched off, pure growth transport cannot
    # create cells: zero inflow at the left edge and zero outflow at the
    # right edge make the total cell count exactly conserved.
    import dataclasses

    from fermsim import DivisionParams, assemble_operator
    kp0 = dataclasses.replace(kp, kd=0.0)
    dead = dataclasses.replace(DivisionParams(), gamma=1e-300)
    op = assemble_operator(op30.grid, dead, op30.n_quad)
    y = state_vector(op)
    y[op.grid.n_cells + 1] = kp.tol  # toxicity is exactly zero at E = tol
    dy = rhs_vector(0.0, y, op, kp0, profile)
    assert float(dy[:op.grid.n_cells].sum()) * op.grid.dm == pytest.approx(
        0.0, abs=1e-12)


def test_density_block_is_affine_in_w(op30, kp, profile):
    # for frozen concentrations the density equations are linear in w, so
    # the analytic w-block applied to basis vectors reproduces the rhs
    C = op30.grid.n_cells
    y = state_vector(op30, seed=3)
    J = jacobian_vector(2.0, y, op30, kp, profile)
    base = np.concatenate([np.zeros(C), y[C:]])
    offset = rhs_vector(2.0, base, op30, kp, profile)[:C]
    reconstructed = J[:C, :C] @ y[:C] + offset
    direct = rhs_vector(2.0, y, op30, kp, profile)[:C]
    assert np.allclose(reconstructed, direct, rtol=1e-12, atol=1e-12)


def test_substrate_rows_exclude_boundary_cells(op30, kp, profile):
    # cells in the first and last mass cell do not feed the substrate
    # balances; their Jacobian entries in the N/E/S/O rows vanish
    C = op30.grid.n_cells
    y = state_vector(op30, seed=4)
    J = jacobian_vector(0.0, y, op30, kp, profile)
    assert np.all(J[C:, 0] == 0.0)
    assert np.all(J[C:, C - 1] == 0.0)


def test_nitrogen_consumption_sign(op30, kp, profile):
    y = state_vector(op30, seed=5)
    dy = rhs_vector(0.0, y, op30, kp, profile)
    C = op30.grid.n_cells
    assert dy[C] <= 0.0      # nitrogen consumed
    assert dy[C + 1] >= 0.0  # ethanol produced
    assert dy[C + 2] <= 0.0  # sugar consumed
    assert dy[C + 3] <= 0.0  # oxygen consumed


def test_upwind_flux_uses_edge_velocity(op30, kp, profile):
    # a density concentrated in one interior cell advects only into its
    # right neighbour under pure growth (no division below m_t)
    C = op30.grid.n_cells
    k = 5  # well below the transition mass
    y = np.zeros(C + 4)
    y[k] = 1.0
    y[C:] = [0.4, 0.0, 193.0, 0.012]   # N, E, S, O
    dy = rhs_vector(0.0, y, op30, kp, profile)
    grid = op30.grid
    # growth rate with the anaerobic floor, written out independently
    N, S, O = 0.4, 193.0, 0.012
    growth = (mu_max(kp, temperature(profile, 0.0)) * N / (kp.KN + N)
              * S / (kp.KS1 + S) * (O / (kp.KO + O) + kp.eps))
    v_edge = grid.edges[k + 1] * growth
    from fermsim.kinetics import death_phi
    assert dy[k] == pytest.approx(-(v_edge / grid.dm) - kp.kd - death_phi(kp, 0.0))
    assert dy[k + 1] == pytest.approx(v_edge / grid.dm)
    assert np.all(dy[:k] == 0.0)
    assert np.all(dy[k + 2:C] == 0.0)


def test_jacobian_matches_finite_differences(op30, kp, profile):
    rng = np.random.default_rng(123)
    for _ in range(5):
        y = random_admissible_state(rng, op30.grid.n_cells)
        t = rng.uniform(0.0, 20.0)
        analytic = jacobian_vector(t, y, op30, kp, profile)
        approx = fd_jacobian(
            t, y, lambda tt, yy: rhs_vector(tt, yy, op30, kp, profile), 1e-6)
        assert jacobian_deviation(analytic, approx) <= 1e-5


def test_fd_step_sweep_has_v_shape(op30, kp, profile):
    # sanity of the oracle itself: error vs analytic first shrinks then
    # grows again as h_fd passes through the round-off optimum
    y = state_vector(op30, seed=9)
    analytic = jacobian_vector(0.0, y, op30, kp, profile)
    devs = []
    for h_fd in (1e-3, 1e-6, 1e-12):
        approx = fd_jacobian(
            0.0, y, lambda tt, yy: rhs_vector(tt, yy, op30, kp, profile), h_fd)
        devs.append(jacobian_deviation(analytic, approx))
    assert devs[1] < devs[0]
    assert devs[1] < devs[2]
