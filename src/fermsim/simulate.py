"""Simulation driver: run a configured model and emit CSV artifacts.

Outputs in ``config.output_dir``:

* ``trajectory.csv`` — one row per time step.  Full model columns:
  ``t,N,E,S,O,total_cells,log10_total_cells,T,newton_iters``; reduced
  model columns: ``t,X,N,E,S,O,T,newton_iters``.
* ``density_t<time>.csv`` — density snapshots (``m_center,w``) at the
  configured snapshot times, matched to the nearest integration step
  (full model only).
* ``run_summary.txt`` — final values, wall time, step statistics.

Internally the number density is carried in units of 1e6 cells/ml so the
g/l substrate balances close with the standard yield constants; the
public artifacts are in cells/ml.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig
from .distributions import build_initial_density
from .errors import ConfigError, IntegrationFailure
from .grid import build_grid
from .integrator import Trajectory, integrate
from .kinetics import temperature
from .operator import assemble_operator
from .reduced import run_ode
from .system import jacobian_vector, rhs_vector

#: internal density unit, cells/ml
DENSITY_SCALE = 1.0e6

#: trajectory columns that are not model states; the run summary reports
#: the final value of every other column and compare skips them
_NON_STATE = {"t", "T", "newton_iters", "log10_total_cells"}


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path: str, header, rows) -> None:
    """Write ``header`` and the 2-D array ``rows``, values as ``_fmt`` gives them."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(line % tuple(row.tolist()) for row in rows)


def read_csv(path: str):
    """Read one of our CSV artifacts -> (header list, float array).

    Raises ConfigError naming the file when it does not hold a header and
    at least one row of numbers under it.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file without rows
            header = handle.readline().strip().split(",")
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
        if data.shape[0] == 0 or data.shape[1] != len(header):
            raise ValueError(f"expected rows of {len(header)} numbers under the header, "
                             f"got data of shape {data.shape}")
    except ValueError as exc:
        raise ConfigError(f"malformed CSV file {path}: {exc}") from None
    return header, data


@dataclass
class RunResult:
    config: SimulationConfig
    trajectory: Trajectory
    output_dir: str
    wall_time: float
    files: list


def initial_biomass(config: SimulationConfig) -> float:
    """First moment of the configured initial distribution, in g/l."""
    grid = build_grid(config.m_min, config.m_max, config.n_cells)
    w0 = build_initial_density(config.distribution, grid) / DENSITY_SCALE
    return float(grid.dm * np.dot(grid.centers, w0))


def _newton_column(trajectory: Trajectory) -> np.ndarray:
    iters = np.zeros(len(trajectory.times))
    for k, record in enumerate(trajectory.records, start=1):
        iters[k] = record.newton_iterations
    return iters


def _nearest(times: np.ndarray, targets) -> np.ndarray:
    """Rows of the ascending ``times`` nearest each of ``targets``; a tie
    picks the earlier row, as ``argmin`` of the distances does."""
    after = np.searchsorted(times, targets)
    left = np.maximum(after - 1, 0)
    right = np.minimum(after, len(times) - 1)
    return np.where(targets - times[left] <= times[right] - targets, left, right)


def _summary_lines(config, trajectory, finals, wall_time):
    iters = [r.newton_iterations for r in trajectory.records]
    lines = [
        f"model = {config.model}",
        f"completed = {trajectory.completed}",
        f"t_final_reached = {_fmt(trajectory.times[-1])}",
        f"wall_time_seconds = {wall_time:.3f}",
        f"steps = {len(trajectory.records)}",
    ]
    if iters:
        lines += [
            f"newton_iterations_median = {float(np.median(iters)):g}",
            f"newton_iterations_max = {max(iters)}",
            # records hold the accepted steps only; an aborted run's last step failed
            f"newton_all_converged = {trajectory.completed}",
        ]
    lines += [f"final_{name} = {_fmt(value)}" for name, value in finals]
    if trajectory.failure:
        lines.append(f"failure = {trajectory.failure}")
    return lines


def march(config: SimulationConfig):
    """Integrate the configured model from its initial state; writes nothing.

    Returns ``(trajectory, grid)``.  A failed step ends the trajectory
    early (``trajectory.completed`` is False) instead of raising.  numpy's
    float warnings are off, so a failure prints one line; a non-finite
    value still fails the Newton residual test, which holds y and f(y),
    or ``build_initial_density`` (a total that is not > 0).
    """
    with np.errstate(all="ignore"):
        grid = build_grid(config.m_min, config.m_max, config.n_cells)
        kp, profile, ini = config.kinetic, config.profile, config.initial
        substrates = [ini.N0, ini.E0, ini.S0, ini.O0]
        if config.model == "ode":
            y0 = np.array([initial_biomass(config), *substrates])
            return run_ode(y0, config.t_final, config.dt, kp, profile, config.newton), grid
        op = assemble_operator(grid, config.division, config.n_quad)
        w0 = build_initial_density(config.distribution, grid) / DENSITY_SCALE
        trajectory = integrate(lambda t, y: rhs_vector(t, y, op, kp, profile),
                               lambda t, y: jacobian_vector(t, y, op, kp, profile),
                               np.concatenate([w0, substrates]), config.t_final, config.dt,
                               config.newton, lead=op.first)
    return trajectory, grid


def run(config: SimulationConfig) -> RunResult:
    """Run the configured simulation and write artifacts.

    Raises IntegrationFailure after writing partial artifacts if a time
    step fails to converge.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    start = time.perf_counter()
    trajectory, grid = march(config)
    wall = time.perf_counter() - start

    times, states = trajectory.times, trajectory.states
    if config.model == "ode":
        names, columns = ["X", "N", "E", "S", "O"], list(states.T)
    else:
        C = config.n_cells
        total = DENSITY_SCALE * grid.dm * states[:, :C].sum(axis=1)
        with np.errstate(divide="ignore"):
            log_total = np.where(total > 0.0, np.log10(np.maximum(total, 1e-300)), -math.inf)
        names = ["N", "E", "S", "O", "total_cells", "log10_total_cells"]
        columns = list(states[:, C:].T) + [total, log_total]
    temps = np.array([temperature(config.profile, t) for t in times])
    header = ["t", *names, "T", "newton_iters"]
    rows = np.column_stack([times, *columns, temps, _newton_column(trajectory)])
    files = [os.path.join(config.output_dir, "trajectory.csv")]
    _write_csv(files[0], header, rows)

    if config.model == "ide":
        snapshots = dict(zip(config.snapshot_times, _nearest(times, config.snapshot_times)))
        for t_req, idx in snapshots.items():
            if t_req > times[-1] + 0.5 * config.dt:
                continue  # not reached (partial trajectory)
            path = os.path.join(config.output_dir, f"density_t{t_req:g}.csv")
            w = DENSITY_SCALE * states[idx, :C]
            _write_csv(path, ["m_center", "w"], np.column_stack([grid.centers, w]))
            files.append(path)

    finals = [(name, value) for name, value in zip(header, rows[-1])
              if name not in _NON_STATE]
    files.append(os.path.join(config.output_dir, "run_summary.txt"))
    with open(files[-1], "w", encoding="utf-8") as handle:
        handle.write("\n".join(_summary_lines(config, trajectory, finals, wall)) + "\n")
    if not trajectory.completed:
        raise IntegrationFailure(
            f"integration aborted at t={trajectory.times[-1]:g}: {trajectory.failure}")
    return RunResult(config, trajectory, config.output_dir, wall, files)


# ---------------------------------------------------------------------------
# comparison of two completed runs
# ---------------------------------------------------------------------------

_COMPARE_TIMES = (0.0, 5.0, 10.0, 15.0, 20.0)


def compare(dir_a: str, dir_b: str, out_path: str) -> list:
    """Write a per-state relative-difference table for two completed runs.

    States are matched by trajectory column name (time and bookkeeping
    columns excluded).  The relative difference at time t is
    |a(t) - b(t)| / max_t |a(t)|: differences are scaled by the size of
    the reference trajectory, which keeps states that decay to ~0 (e.g.
    dissolved oxygen) from reporting meaningless ratios of round-off
    tails.  It is reported at those of the days 0, 5, 10, 15 and 20 that
    both runs reach, each matched to the nearest row of either run (a tie
    goes to the earlier row).  Output rows: state, t, value_a, value_b,
    rel_diff; one extra row per state with t = -1 holding the max over
    the whole horizon.  Returns the rows.
    """
    runs = []
    for run_dir in (dir_a, dir_b):
        path = os.path.join(run_dir, "trajectory.csv")
        header, data = read_csv(path)
        if "t" not in header or not np.all(np.diff(data[:, header.index("t")]) > 0):
            raise ConfigError(f"malformed CSV file {path}: no strictly increasing t column")
        runs.append((header, data, data[:, header.index("t")]))
    (header_a, data_a, t_a), (header_b, data_b, t_b) = runs
    shared = [c for c in header_a if c in header_b and c not in _NON_STATE]
    if not shared:
        raise ConfigError("trajectories share no state columns")
    horizon = min(t_a[-1], t_b[-1])
    times = [t for t in _COMPARE_TIMES if t <= horizon] or [horizon]

    # b sampled at the requested times and at a's time points via nearest rows
    ia_req, ib_req, ib_all = _nearest(t_a, times), _nearest(t_b, times), _nearest(t_b, t_a)
    rows = []
    for state in shared:
        col_a = data_a[:, header_a.index(state)]
        col_b = data_b[:, header_b.index(state)]
        scale = max(float(np.max(np.abs(col_a))), 1e-300)
        for ia, ib in zip(ia_req, ib_req):
            rel = abs(col_a[ia] - col_b[ib]) / scale
            rows.append((state, t_a[ia], col_a[ia], col_b[ib], rel))
        # max over the horizon on a's time points
        rel_all = np.abs(col_a - col_b[ib_all]) / scale
        max_rel = float(np.max(rel_all))
        rows.append((state, -1.0, col_a[-1], col_b[ib_all[-1]], max_rel))

    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("state,t,value_a,value_b,rel_diff\n")
        for state, t, va, vb, rel in rows:
            handle.write(f"{state},{_fmt(t)},{_fmt(va)},{_fmt(vb)},{_fmt(rel)}\n")
    return rows
