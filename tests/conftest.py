import dataclasses

import numpy as np
import pytest

from fermsim import (DistributionSpec, DivisionParams, KineticParams,
                     NewtonConfig, TemperatureProfile, assemble_operator,
                     build_grid, default_config)
from fermsim import simulate as sim


@pytest.fixture(scope="session")
def kp():
    return KineticParams()


@pytest.fixture(scope="session")
def dp():
    return DivisionParams()


@pytest.fixture(scope="session")
def profile():
    return TemperatureProfile()


@pytest.fixture(scope="session")
def grid150():
    return build_grid(0.001, 0.999, 150)


@pytest.fixture(scope="session")
def op150(grid150, dp):
    return assemble_operator(grid150, dp, 30)


@pytest.fixture(scope="session")
def grid30():
    return build_grid(0.001, 0.999, 30)


@pytest.fixture(scope="session")
def op30(grid30, dp):
    return assemble_operator(grid30, dp, 30)


def run_with(tmp_root, **overrides):
    """Run the driver with field overrides applied to the default config."""
    config = dataclasses.replace(default_config(), output_dir=str(tmp_root),
                                 **overrides)
    return sim.run(config)


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """The default 20-day run: C=150, h=1/192, constant distribution."""
    return run_with(tmp_path_factory.mktemp("default_run"))


@pytest.fixture(scope="session")
def distribution_runs(tmp_path_factory, default_run):
    """20-day runs for all four initial distributions."""
    runs = {"constant": default_run}
    for kind in ("beta", "small_to_medium", "two_normal_peak"):
        runs[kind] = run_with(tmp_path_factory.mktemp(f"run_{kind}"),
                              distribution=DistributionSpec(kind=kind))
    return runs


@pytest.fixture(scope="session")
def ode_run(tmp_path_factory):
    """Reduced-model run, moment-matched to the constant distribution."""
    return run_with(tmp_path_factory.mktemp("ode_run"), model="ode")


def density_block(result):
    """(times, w) matrix of a completed full-model run, in cells/ml."""
    C = result.config.n_cells
    return result.trajectory.times, sim.DENSITY_SCALE * result.trajectory.states[:, :C]


def concentration_block(result):
    """(times, N, E, S, O) columns of a completed full-model run."""
    C = result.config.n_cells
    s = result.trajectory.states
    return (result.trajectory.times, s[:, C], s[:, C + 1], s[:, C + 2],
            s[:, C + 3])


#: Relative size below which a value or a deviation is round-off: a
#: hundredth of the Newton tolerance of 1e-10 relative to the state scales
#: of the default run.  It is not a bound on how far a change of the
#: Newton path (predictor, matrix refreshes) moves the solution: such
#: changes have moved the IDE finals by up to ~2e-11 of each column's run
#: maximum, within the tolerance but above this floor.
ROUND_OFF_FLOOR = 1e-12


def interior_maxima(values):
    """Indices of strict interior local maxima of a 1-D array.

    A maximum counts only where the value exceeds ROUND_OFF_FLOOR of the
    array's peak, so wiggles in a round-off tail are not peaks.
    """
    values = np.asarray(values)
    floor = ROUND_OFF_FLOOR * values.max()
    idx = []
    for i in range(1, len(values) - 1):
        if values[i] > floor and values[i] > values[i - 1] and values[i] > values[i + 1]:
            idx.append(i)
    return idx


def falls_with_refinement(deviations, scale):
    """True when ``deviations`` do not rise from one entry to the next.

    Deviations below ROUND_OFF_FLOOR of ``scale`` (the column's run
    maximum) are treated as equal.
    """
    floored = np.maximum(deviations, ROUND_OFF_FLOOR * scale)
    return bool(np.all(np.diff(floored) <= 0.0))


def relative_deviation(deviation, reference):
    """|deviation| relative to |reference|, or to the Newton tolerance
    where |reference| is smaller.

    The solver meets max|g| <= tolerance on every step, so values far
    below the tolerance (the oxygen tail, ~1e-15 g/l at day 20) are not
    resolved: two equally converged runs may differ in them by their own
    size.
    """
    return abs(deviation) / max(abs(reference), NewtonConfig().tolerance)
