"""The benchmark's workloads: seeded config files and per-run output checks.

The program sees only the generated ``key = value`` config files; the
seed stays in the benchmark.  Each workload is one operation made of one
or more members (one ``fermsim simulate`` call each).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import numpy as np

from spans import Hook

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

KINDS = ("constant", "beta", "small_to_medium", "two_normal_peak")
# Ranges of the calibration grid in scripts/calibrate_defaults.py.
N0_RANGE = (0.30, 0.45)
S0_RANGE = (188.0, 198.0)
O0_RANGE = (0.008, 0.016)
K2_RANGE = (1.80, 1.90)
SWEEP_MEMBERS = 8
T_FINAL = 20.0
SNAPSHOT_TIMES = (0.0, 5.0, 10.0, 15.0, 20.0)

IDE_COLUMNS = ["t", "N", "E", "S", "O", "total_cells", "log10_total_cells", "T",
               "newton_iters"]
ODE_COLUMNS = ["t", "X", "N", "E", "S", "O", "T", "newton_iters"]
# Final values compared against reference.json on ide_default.
REFERENCE_COLUMNS = ("N", "E", "S", "O", "total_cells")

# The integrate hook is the only one in an untraced run.  Each model's
# run function looks the name up in its own module.
IDE_INTEGRATE = Hook("integrator.integrate", "fermsim.simulate", "integrate", keep_result=True)
ODE_INTEGRATE = Hook("integrator.integrate", "fermsim.reduced", "integrate", keep_result=True)
COMMON_TRACE = (
    Hook("simulate.run", "fermsim.simulate", "run"),
    Hook("integrator.step", "fermsim.integrator", "trapezoid_step"),
    Hook("integrator.linsolve", "numpy.linalg", "solve"),
)
IDE_TRACE = COMMON_TRACE + (
    Hook("system.rhs", "fermsim.simulate", "rhs_vector"),
    Hook("system.jacobian", "fermsim.simulate", "jacobian_vector"),
    Hook("operator.assemble", "fermsim.simulate", "assemble_operator"),
)
ODE_TRACE = COMMON_TRACE + (
    Hook("reduced.rhs", "fermsim.reduced", "ode_rhs_vector"),
    Hook("reduced.jacobian", "fermsim.reduced", "ode_jacobian_vector"),
)


@dataclass(frozen=True)
class Member:
    """One simulate call: its config file text and what it must produce."""

    model: str
    config_text: str
    n_cells: int
    dt: float

    @property
    def n_steps(self) -> int:
        return int(round(T_FINAL / self.dt))


@dataclass(frozen=True)
class Workload:
    members: tuple
    integrate_hook: Hook
    trace_hooks: tuple
    check_reference: bool = False


def _config_text(**keys) -> str:
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def _ide(n_cells, dt, kind, N0=None, S0=None, O0=None) -> Member:
    keys = {"model": "ide", "grid.n_cells": n_cells, "dt": repr(dt),
            "distribution.kind": kind}
    for name, value in (("N0", N0), ("S0", S0), ("O0", O0)):
        if value is not None:
            keys[f"initial.{name}"] = repr(value)
    return Member("ide", _config_text(**keys), n_cells, dt)


def build(name: str, seed: int) -> Workload:
    """Workload ``name`` with inputs drawn from ``seed``."""
    rng = random.Random(seed)
    if name == "ide_default":
        return Workload((_ide(150, 1.0 / 192.0, "constant"),),
                        IDE_INTEGRATE, IDE_TRACE, check_reference=True)
    if name == "ide_fine":
        member = _ide(300, 1.0 / 192.0, rng.choice(KINDS), N0=rng.uniform(*N0_RANGE),
                      S0=rng.uniform(*S0_RANGE), O0=rng.uniform(*O0_RANGE))
        return Workload((member,), IDE_INTEGRATE, IDE_TRACE)
    if name == "ode_sweep":
        members = []
        for _ in range(SWEEP_MEMBERS):
            text = _config_text(model="ode", dt=repr(1.0 / 192.0),
                                **{"initial.N0": repr(rng.uniform(*N0_RANGE)),
                                   "initial.S0": repr(rng.uniform(*S0_RANGE)),
                                   "initial.O0": repr(rng.uniform(*O0_RANGE)),
                                   "kinetic.k2": repr(rng.uniform(*K2_RANGE))})
            members.append(Member("ode", text, 0, 1.0 / 192.0))
        return Workload(tuple(members), ODE_INTEGRATE, ODE_TRACE)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("ide_default", "ide_fine", "ode_sweep")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _read_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    return header, data


def _nonnegative(w) -> bool:
    # Same round-off allowance as the program's positivity oracle.
    return float(w.min()) >= -1e-9 * max(float(w.max()), 0.0)


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def reference_from_trajectory(path) -> dict:
    """Final values and whole-run scales of the reference columns."""
    header, data = _read_csv(path)
    cols = [header.index(c) for c in REFERENCE_COLUMNS]
    return {
        "columns": list(REFERENCE_COLUMNS),
        "final": [float(data[-1, i]) for i in cols],
        "scale": [float(np.max(np.abs(data[:, i]))) for i in cols],
    }


def check_member(member: Member, out_dir: str, trajectory, reference=None) -> list:
    """Problems with one completed simulate call; an empty list means correct.

    ``trajectory`` is the Trajectory the integrator returned.
    """
    problems = []
    if trajectory is None:
        return ["integrator returned no trajectory"]
    n_rows = member.n_steps + 1
    if not trajectory.completed:
        problems.append(f"trajectory not completed: {trajectory.failure}")
    states = trajectory.states
    if states.shape[0] != n_rows:
        problems.append(f"trajectory has {states.shape[0]} states, expected {n_rows}")
    if not np.all(np.isfinite(states)):
        problems.append("non-finite state")
    density = states[:, :member.n_cells] if member.model == "ide" else states[:, :1]
    if density.size and not _nonnegative(density):
        problems.append(f"negative density {float(density.min()):.3e}")

    traj_path = os.path.join(out_dir, "trajectory.csv")
    try:
        header, data = _read_csv(traj_path)
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable trajectory.csv: {exc}"]
    expected = IDE_COLUMNS if member.model == "ide" else ODE_COLUMNS
    if header != expected:
        problems.append(f"trajectory.csv header {header}")
    elif data.shape[0] != n_rows or abs(data[-1, 0] - T_FINAL) > 1e-9:
        problems.append(f"trajectory.csv has {data.shape[0]} rows ending at t={data[-1, 0]}")
    elif not np.all(np.isfinite(data)):
        problems.append("non-finite value in trajectory.csv")

    try:
        with open(os.path.join(out_dir, "run_summary.txt"), "r", encoding="utf-8") as handle:
            summary = handle.read().splitlines()
    except OSError as exc:
        summary = []
        problems.append(f"unreadable run_summary.txt: {exc}")
    if summary and "completed = True" not in summary:
        problems.append("run_summary.txt does not report completed = True")

    if member.model == "ide":
        for t in SNAPSHOT_TIMES:
            path = os.path.join(out_dir, f"density_t{t:g}.csv")
            try:
                _, snap = _read_csv(path)
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable {os.path.basename(path)}: {exc}")
                continue
            w = snap[:, 1]
            if snap.shape[0] != member.n_cells or not np.all(np.isfinite(w)) \
                    or not _nonnegative(w):
                problems.append(f"bad density snapshot {os.path.basename(path)}")

    if reference is not None and not problems:
        for name, ref, scale in zip(reference["columns"], reference["final"],
                                    reference["scale"]):
            got = float(data[-1, header.index(name)])
            rel = abs(got - ref) / scale
            if not rel <= reference["tolerance"]:
                problems.append(f"final {name} = {got!r} differs from reference "
                                f"{ref!r} by {rel:.3e} of its scale")
    return problems


def output_bytes(out_dir: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file())


def simulated_days(trajectory) -> float:
    if trajectory is None or not len(trajectory.times):
        return 0.0
    return float(trajectory.times[-1])
