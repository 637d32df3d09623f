"""Independent verification oracles.

Brute-force recomputations used by the test suite and the ``verify`` CLI
subcommand.  These deliberately avoid the production right-hand-side,
Jacobian and kernel-assembly code paths: the quadrature here is a plain
scalar composite trapezoid, and the Jacobian oracle is a central finite
difference of the production rhs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import default_config
from .grid import build_grid
from .integrator import NewtonConfig, StepState
from .kinetics import (DivisionParams, KineticParams, TemperatureProfile,
                       compute_lambda, division_rate, normalize_mass, partition)
from .operator import assemble_operator
from .simulate import march
from .system import jacobian_vector, rhs_vector


@dataclass(frozen=True)
class OracleReport:
    name: str
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} measured={self.measured:.6e} bound={self.bound:.6e}"


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def quadrature_oracle(fn, a: float, b: float, n: int) -> float:
    """Composite trapezoidal rule with n subintervals, plain scalar loop."""
    if n < 1:
        raise ValueError("n must be >= 1")
    h = (b - a) / n
    total = 0.5 * (fn(a) + fn(b))
    for k in range(1, n):
        total += fn(a + k * h)
    return total * h


def fd_jacobian(t: float, y: np.ndarray, f, h_fd: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of ``f(t, y)`` with scale-aware steps."""
    if h_fd <= 0:
        raise ValueError("h_fd must be > 0")
    y = np.asarray(y, dtype=float)
    n = y.size
    J = np.empty((n, n))
    for k in range(n):
        h = h_fd * max(1.0, abs(y[k]))
        yp = y.copy()
        ym = y.copy()
        yp[k] += h
        ym[k] -= h
        J[:, k] = (f(t, yp) - f(t, ym)) / (2.0 * h)
    return J


def jacobian_deviation(analytic: np.ndarray, approx: np.ndarray) -> float:
    """Max entrywise |difference| / max(1, |analytic entry|)."""
    return float(np.max(np.abs(analytic - approx) /
                        np.maximum(1.0, np.abs(analytic))))


def random_admissible_state(rng: np.random.Generator, n_cells: int) -> np.ndarray:
    """Random positive density plus physically plausible concentrations."""
    w = rng.uniform(0.1, 2.0, size=n_cells)
    N = rng.uniform(0.0, 0.5)
    E = rng.uniform(0.0, 110.0)
    S = rng.uniform(0.0, 200.0)
    O = rng.uniform(0.0, 0.02)
    return np.concatenate([w, [N, E, S, O]])


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_lambda() -> OracleReport:
    return OracleReport("lambda_normalization_constant",
                        abs(compute_lambda(400.0) - 5.6419), 1e-3)


def check_mass_scaling() -> list:
    """Replay the documented mass-rescaling chain for m_t and m_d."""
    reports = []
    for name, raw, expected in (("m_t", 4.55e-13, 0.3784),
                                ("m_d", 10.25e-13, 0.8525)):
        mid = normalize_mass(raw, 0.0, 12e-13, 0.0, 1e-9)
        final = normalize_mass(mid, 0.0, 1e-9, 0.001, 0.999)
        reports.append(OracleReport(f"mass_scaling_{name}",
                                    abs(final - expected), 1e-4))
    return reports


def check_partition_normalization(dp: DivisionParams = None) -> list:
    """|∫ p(m, m') dm − 1| over the mass domain, 30-interval trapezoid."""
    dp = dp or DivisionParams()
    reports = []
    for m_prime in (0.5, 0.7, 0.999):
        integral = quadrature_oracle(
            lambda m: float(partition(dp, np.asarray(m), np.asarray(m_prime))),
            0.001, 0.999, 30)
        reports.append(OracleReport(f"partition_normalization_mprime_{m_prime}",
                                    abs(integral - 1.0), 1e-3))
    return reports


def check_partition_symmetry(dp: DivisionParams = None) -> OracleReport:
    """Exact daughter-mass symmetry p(m, m') = p(m' − m, m') at 10^4 pairs."""
    dp = dp or DivisionParams()
    rng = np.random.default_rng(2024)
    m_prime = rng.uniform(0.001, 0.999, size=10_000)
    m = rng.uniform(0.0, 1.0, size=10_000) * m_prime
    dev = np.abs(partition(dp, m, m_prime) - partition(dp, m_prime - m, m_prime))
    # The identity is exact in real arithmetic; the float-evaluated
    # complement m' - m rounds, so allow a few ulp of the p scale.
    bound = 16.0 * np.finfo(float).eps * 2.0 * dp.lam
    return OracleReport("partition_symmetry_max_abs_dev", float(dev.max()), bound)


def _daughters_fit(grid, dp: DivisionParams, j: int) -> bool:
    """True when cell j's daughters' partition mass lies inside the domain.

    The small daughter's Gaussian sits at m' - m_t; for mothers just above
    m_t it spills below m_min, so the number/biomass balances only hold
    for columns a few partition widths above the transition mass.
    """
    margin = 4.0 / np.sqrt(dp.beta)
    return grid.edges[j] - dp.m_t > grid.m_min + margin


def check_kernel_row_sums() -> OracleReport:
    """Column sums of the birth kernel vs the per-column division integral.

    Since the daughter-mass density integrates to 1 and the factor 2 of
    the birth term lives outside the kernel, each admissible column of K
    sums to the division-rate integral over that mother cell.
    """
    grid = build_grid(0.001, 0.999, 30)
    dp = DivisionParams()
    op = assemble_operator(grid, dp, 30)
    worst = 0.0
    for j in range(1, grid.n_cells - 1):
        expected = quadrature_oracle(
            lambda m: float(division_rate(dp, np.asarray(m))),
            grid.edges[j], grid.edges[j + 1], 4 * 30)
        if expected < 1e-12 or not _daughters_fit(grid, dp, j):
            continue
        worst = max(worst, abs(op.K[:, j].sum() - expected) / expected)
    return OracleReport("kernel_column_sum_rel_dev", worst, 1e-3)


def check_kernel_refinement() -> OracleReport:
    """K entries at 4x quadrature resolution vs production resolution."""
    grid = build_grid(0.001, 0.999, 30)
    dp = DivisionParams()
    coarse = assemble_operator(grid, dp, 30).K
    fine = assemble_operator(grid, dp, 4 * 30).K
    interior = slice(1, grid.n_cells - 1)
    scale = np.maximum(np.abs(fine[interior, interior]), np.max(np.abs(fine)))
    dev = np.abs(coarse[interior, interior] - fine[interior, interior]) / scale
    return OracleReport("kernel_quadrature_refinement_rel_dev", float(dev.max()), 1e-4)


#: (i, j) samples of the 30-cell kernel: far above the diagonal, on the
#: three central diagonals (around the transition mass and the top cell),
#: and far below the diagonal.  Every sample below the diagonal, the
#: sub-diagonal ones included, is an exact zero of K.
_KERNEL_SAMPLES = (
    (0, 29), (2, 14), (5, 20), (11, 13), (12, 25), (13, 15), (16, 27), (20, 29),
    (11, 11), (11, 12), (12, 11), (12, 12), (12, 13), (13, 12),
    (20, 20), (20, 21), (21, 20), (28, 28), (28, 29), (29, 28),
    (14, 11), (20, 12), (25, 23), (29, 0),
)


def check_kernel_entries() -> OracleReport:
    """Sampled K entries vs scalar double quadrature, max |dK| / max |K|.

    The samples cover each region the assembly computes differently.
    """
    grid = build_grid(0.001, 0.999, 30)
    dp = DivisionParams()
    K = assemble_operator(grid, dp, 30).K

    def entry(i, j):
        def inner(m):
            return quadrature_oracle(
                lambda mp: float(partition(dp, np.asarray(m), np.asarray(mp))
                                 * division_rate(dp, np.asarray(mp))),
                grid.edges[j], grid.edges[j + 1], 30)
        return quadrature_oracle(inner, grid.edges[i], grid.edges[i + 1], 30)

    worst = max(abs(entry(i, j) - K[i, j]) for i, j in _KERNEL_SAMPLES)
    return OracleReport("kernel_entries_vs_scalar_quadrature_rel_dev",
                        worst / float(np.max(np.abs(K))), 1e-12)


def check_division_biomass_balance() -> OracleReport:
    """Discrete biomass balance of division: daughters carry the mother mass."""
    grid = build_grid(0.001, 0.999, 150)
    dp = DivisionParams()
    op = assemble_operator(grid, dp, 30)
    centers = grid.centers
    worst = 0.0
    for j in range(grid.n_cells):
        produced = 2.0 * float(np.dot(centers, op.K[:, j]))
        removed = centers[j] * op.gamma_int[j]
        if removed < 1e-10 or not _daughters_fit(grid, dp, j):
            continue
        worst = max(worst, abs(produced - removed) / removed)
    return OracleReport("division_biomass_balance_rel_dev", worst, 1e-2)


def check_jacobian() -> OracleReport:
    """Analytic Jacobian vs central finite differences of the rhs at 5 states."""
    grid = build_grid(0.001, 0.999, 30)
    op = assemble_operator(grid, DivisionParams(), 30)
    kp = KineticParams()
    profile = TemperatureProfile()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        y = random_admissible_state(rng, grid.n_cells)
        t = rng.uniform(0.0, 20.0)
        analytic = jacobian_vector(t, y, op, kp, profile)
        approx = fd_jacobian(t, y, lambda tt, yy: rhs_vector(tt, yy, op, kp, profile))
        worst = max(worst, jacobian_deviation(analytic, approx))
    return OracleReport("jacobian_vs_fd_rel_dev", worst, 1e-5)


def check_newton_inverse() -> OracleReport:
    """Block-eliminated inverse of N = I - (h/2) J vs one dense solve at 3 states.

    The march rebuilds its Newton inverse by block elimination over the
    cells that never divide; the reference solves N against the identity.
    """
    grid = build_grid(0.001, 0.999, 30)
    op = assemble_operator(grid, DivisionParams(), 30)
    kp = KineticParams()
    profile = TemperatureProfile()
    h = default_config().dt
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(3):
        y = random_admissible_state(rng, grid.n_cells)
        t = rng.uniform(0.0, 20.0)
        J = jacobian_vector(t, y, op, kp, profile)
        identity = np.identity(len(y))
        dense = np.linalg.solve(identity - 0.5 * h * J, identity)
        state = StepState(None, lambda tt, yy: J, NewtonConfig(), lead=op.first)
        state.rebuild(t, y, h)
        worst = max(worst, float(np.max(np.abs(state.inverse - dense)) / np.max(np.abs(dense))))
    return OracleReport("newton_block_inverse_vs_dense_rel_dev", worst, 1e-12)


def check_trajectory_positivity() -> OracleReport:
    """The default 20-day run: number density stays nonnegative up to round-off.

    The run is the driver's own march, so it is the run users get.
    """
    config = default_config()
    trajectory, _ = march(config)
    w = trajectory.states[:, :config.n_cells]
    value = max(0.0, -float(w.min())) / float(w.max()) if trajectory.completed else math.inf
    return OracleReport("trajectory_positivity_neg_fraction", value, 1e-9)


def run_all() -> list:
    """Full oracle suite, ending with the 20-day positivity run."""
    reports = [check_lambda()]
    reports += check_mass_scaling()
    reports.append(check_partition_symmetry())
    reports += check_partition_normalization()
    reports.append(check_division_biomass_balance())
    reports.append(check_kernel_row_sums())
    reports.append(check_kernel_refinement())
    reports.append(check_kernel_entries())
    reports.append(check_jacobian())
    reports.append(check_newton_inverse())
    reports.append(check_trajectory_positivity())
    return reports
