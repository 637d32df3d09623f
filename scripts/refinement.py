#!/usr/bin/env python3
"""Grid refinement of the full model and its gap to the reduced model.

Runs the reduced model once, then the full model at 50, 100, 150 and 300
cells (dt = 1/192 day). Each row gives, per cell count:

* the final N, E, S, O;
* their deviation from the 300-cell finals, over the 300-cell run's
  maximum of each column;
* the largest full-vs-reduced gap over the horizon per substrate (the
  t = -1 rows of ``fermsim compare``).

The gap halves with each doubling of the cell count: it is the
first-order discretization error of the upwind flux, not a difference
between the models.

Usage: python3 scripts/refinement.py [--t-final DAYS] [--output-dir DIR]
"""

import argparse
import dataclasses

import numpy as np

from fermsim import load_config
from fermsim import simulate as sim

CELLS = (50, 100, 150, 300)
SUBSTRATES = ("N", "E", "S", "O")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-final", default="20")
    parser.add_argument("--output-dir", default="output/refinement")
    args = parser.parse_args()

    base = load_config(overrides={"t_final": args.t_final})
    dir_ode = f"{args.output_dir}/ode"
    sim.run(dataclasses.replace(base, model="ode", output_dir=dir_ode))

    runs = {}
    for n_cells in CELLS:
        run_dir = f"{args.output_dir}/c{n_cells}"
        result = sim.run(dataclasses.replace(base, n_cells=n_cells, output_dir=run_dir))
        rows = sim.compare(run_dir, dir_ode, f"{args.output_dir}/ide_vs_ode_c{n_cells}.csv")
        gaps = {state: rel for state, t, _, _, rel in rows if t < 0}
        runs[n_cells] = (result.trajectory.states[:, n_cells:], [gaps[s] for s in SUBSTRATES])

    finest = runs[CELLS[-1]][0]
    scale = np.maximum(np.max(np.abs(finest), axis=0), 1e-300)
    print(f"{'cells':>5} " + " ".join(f"{s:>10}" for s in SUBSTRATES)
          + " " + " ".join(f"{'dev_' + s:>9}" for s in SUBSTRATES)
          + " " + " ".join(f"{'gap_' + s:>9}" for s in SUBSTRATES))
    for n_cells, (substrates, gaps) in runs.items():
        finals = substrates[-1]
        deviations = np.abs(finals - finest[-1]) / scale
        print(f"{n_cells:>5} " + " ".join(f"{v:10.4g}" for v in finals)
              + " " + " ".join(f"{v:9.2e}" for v in deviations)
              + " " + " ".join(f"{v:9.2e}" for v in gaps))


if __name__ == "__main__":
    main()
