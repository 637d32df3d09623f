"""Property test of the command-line front door: any valid config either
completes or fails with a documented exit code, never a traceback."""

import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermsim.cli import main
from fermsim.config import _TABLE
from fermsim.distributions import KINDS

#: numeric model inputs a config may set; every other key is fixed below
MODEL_KEYS = sorted(key for key in _TABLE
                    if key.split(".")[0] in ("kinetic", "division", "initial",
                                             "temperature", "distribution")
                    and key != "distribution.kind")
EXTREMES = (0.0, 1e-12, -1e-12, 1e-300, 1e300, -1.0, 0.999)


def simulate_exit_code(model, n_cells, dt, n_quad, kind, extremes):
    with tempfile.TemporaryDirectory() as out:
        lines = [f"model = {model}", f"grid.n_cells = {n_cells}", "t_final = 0.5",
                 f"dt = {dt}", f"n_quad = {n_quad}", f"distribution.kind = {kind}",
                 *(f"{key} = {value!r}" for key, value in extremes.items())]
        path = f"{out}/run.cfg"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return main(["simulate", "--config", path, "--output-dir", f"{out}/run"])


@given(model=st.sampled_from(("ide", "ode")),
       n_cells=st.integers(3, 20),
       dt=st.sampled_from((0.5, 0.25, 0.125, 0.015625)),
       n_quad=st.sampled_from((2, 3, 30)),
       kind=st.sampled_from(KINDS),
       extremes=st.dictionaries(st.sampled_from(MODEL_KEYS), st.sampled_from(EXTREMES),
                                min_size=1, max_size=3))
# kd1 ** 2 overflows while the Jacobian is built
@example(model="ide", n_cells=20, dt=0.015625, n_quad=30, kind="constant",
         extremes={"kinetic.kd1": 1e300})
@example(model="ode", n_cells=20, dt=0.015625, n_quad=30, kind="constant",
         extremes={"kinetic.kd1": 1e300})
# float64 overflows in the rhs flux and in the kernel assembly
@example(model="ide", n_cells=20, dt=0.015625, n_quad=30, kind="constant",
         extremes={"kinetic.mu1": 1e300})
@example(model="ide", n_cells=20, dt=0.015625, n_quad=30, kind="constant",
         extremes={"division.m_d": 1e300})
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
def test_simulate_never_raises(model, n_cells, dt, n_quad, kind, extremes):
    assert simulate_exit_code(model, n_cells, dt, n_quad, kind, extremes) in (0, 1, 2)
