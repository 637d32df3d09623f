"""The benchmark's hooks still find and wrap the names the program calls.

``perfbench/`` times each layer by replacing functions with wrappers in the
module namespace where the caller looks them up, and it exits 2 when a
wrapped name is missing or never called.  A short run of each workload's
model under that workload's hooks catches a refactor that moves one of
those names here, not in the benchmark.
"""

import dataclasses
import os
import sys

import pytest

from fermsim import default_config
from fermsim import simulate as sim

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_hooks_fire(name, tmp_path):
    workload = workloads.build(name, seed=1)
    config = dataclasses.replace(default_config(), model=workload.members[0].model,
                                 n_cells=20, t_final=0.25, snapshot_times=(0.25,),
                                 output_dir=str(tmp_path))
    with Recorder((workload.integrate_hook,) + workload.trace_hooks) as recorder:
        result = sim.run(config)
        spans, _ = recorder.take()
    assert result.trajectory.completed
    recorder.check_fired(spans)
