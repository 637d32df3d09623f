#!/usr/bin/env python3
"""Track the two density peaks of the default run over time.

Reports, for each snapshot day, the positions and heights of the
small-mass peak (below the transition mass) and the medium-mass peak
(at or above it), plus their height ratio.  Documents the known-failing
acceptance check: with the default division parameters the ratio
plateaus at ~0.92-0.96 and the small-mass peak never overtakes.

Usage: python3 scripts/peak_dynamics.py [--distribution KIND]
"""

import argparse
import dataclasses

import numpy as np

from fermsim import DistributionSpec, DivisionParams, build_grid, default_config
from fermsim import simulate as sim


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--distribution", default="constant")
    parser.add_argument("--output-dir", default="output/peak_dynamics")
    args = parser.parse_args()

    config = dataclasses.replace(
        default_config(),
        distribution=DistributionSpec(kind=args.distribution),
        snapshot_times=tuple(float(d) for d in range(0, 21, 2)),
        output_dir=f"{args.output_dir}/{args.distribution}")
    result = sim.run(config)

    grid = build_grid(config.m_min, config.m_max, config.n_cells)
    small = grid.centers < DivisionParams().m_t
    times = result.trajectory.times
    w_all = result.trajectory.states[:, :config.n_cells] * sim.DENSITY_SCALE

    print("day  small-peak(m, w)        medium-peak(m, w)       ratio")
    for day in config.snapshot_times:
        idx = int(np.argmin(np.abs(times - day)))
        w = w_all[idx]
        i_s = int(np.argmax(np.where(small, w, -np.inf)))
        i_m = int(np.argmax(np.where(~small, w, -np.inf)))
        ratio = w[i_s] / w[i_m] if w[i_m] > 0 else float("nan")
        print(f"{day:4.0f}  ({grid.centers[i_s]:.3f}, {w[i_s]:10.4g})   "
              f"({grid.centers[i_m]:.3f}, {w[i_m]:10.4g})   {ratio:.4f}")


if __name__ == "__main__":
    main()
