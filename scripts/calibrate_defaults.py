#!/usr/bin/env python3
"""Calibration search for the five free inputs (N0, S0, O0, k2, k3).

These are not fixed by the standard parameter tables; the packaged
defaults were frozen with this script.  It grid-searches the fast
reduced model for combinations whose 20-day finals land near the
reference values (S ~= 18 g/l, E ~= 99 g/l, N ~= 0.019 g/l, oxygen
depleted within days), then re-scores the best candidates with the full
model.

Usage: python3 scripts/calibrate_defaults.py [--full-model-topk K]
"""

import argparse
import dataclasses
import itertools

import numpy as np

from fermsim import (KineticParams, NewtonConfig, TemperatureProfile,
                     default_config, run_ode)
from fermsim import simulate as sim

TARGETS = {"S": 18.0, "E": 99.0, "N": 0.019}

N0_GRID = (0.30, 0.35, 0.40, 0.45)
S0_GRID = (188.0, 193.0, 198.0)
O0_GRID = (0.008, 0.012, 0.016)
K2_GRID = (1.80, 1.86, 1.90)
K3_GRID = (0.003,)


def score(finals):
    _, N, E, S, _ = finals
    return (abs(S - TARGETS["S"]) / 3.0 + abs(E - TARGETS["E"]) / 10.0
            + abs(N - TARGETS["N"]) / 0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full-model-topk", type=int, default=3)
    args = parser.parse_args()

    profile = TemperatureProfile()
    X0 = sim.initial_biomass(default_config())  # g/l, moment-matched to the IDE run
    candidates = []
    for N0, S0, O0, k2, k3 in itertools.product(N0_GRID, S0_GRID, O0_GRID,
                                                K2_GRID, K3_GRID):
        kp = KineticParams(k2=k2, k3=k3)
        traj = run_ode(np.array([X0, N0, 0.0, S0, O0]),
                       20.0, 1.0 / 96.0, kp, profile, NewtonConfig())
        if not traj.completed:
            continue
        finals = traj.states[-1]
        o_depleted = np.any(traj.states[traj.times <= 5.0, 4] < 0.01 * O0)
        if not o_depleted:
            continue
        candidates.append((score(finals), (N0, S0, O0, k2, k3), finals))

    candidates.sort(key=lambda item: item[0])
    print(f"{len(candidates)} oxygen-consistent candidates; best by score:")
    for s, inputs, finals in candidates[:10]:
        N0, S0, O0, k2, k3 = inputs
        print(f"score={s:.3f} N0={N0} S0={S0} O0={O0} k2={k2} k3={k3} "
              f"-> N={finals[1]:.4f} E={finals[2]:.2f} S={finals[3]:.2f}")

    print("\nre-scoring the top candidates with the full model:")
    for s, inputs, _ in candidates[:args.full_model_topk]:
        N0, S0, O0, k2, k3 = inputs
        config = dataclasses.replace(
            default_config(),
            kinetic=KineticParams(k2=k2, k3=k3),
            initial=dataclasses.replace(default_config().initial,
                                        N0=N0, S0=S0, O0=O0),
            output_dir=f"output/calibration/N0{N0}_S0{S0}_O0{O0}_k2{k2}")
        result = sim.run(config)
        C = config.n_cells
        finals = result.trajectory.states[-1, C:]
        print(f"N0={N0} S0={S0} O0={O0} k2={k2} k3={k3} -> "
              f"N={finals[0]:.4f} E={finals[1]:.2f} S={finals[2]:.2f} "
              f"({result.wall_time:.1f}s)")


if __name__ == "__main__":
    main()
