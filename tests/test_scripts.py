"""Smoke tests of the scripts under ``scripts/``."""

import math
import os
import runpy
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def test_refinement_prints_one_row_per_cell_count(tmp_path, monkeypatch, capsys):
    script = os.path.join(SCRIPTS, "refinement.py")
    monkeypatch.setattr(sys, "argv", [script, "--t-final", "0.25",
                                      "--output-dir", str(tmp_path)])
    namespace = runpy.run_path(script, run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    rows = {int(line.split()[0]): [float(v) for v in line.split()[1:]]
            for line in lines[1:]}
    assert list(rows) == list(namespace["CELLS"])
    for values in rows.values():
        gaps = values[-4:]
        assert len(values) == 12
        assert all(math.isfinite(gap) for gap in gaps)


def test_peak_dynamics_prints_one_row_per_even_day(tmp_path, monkeypatch, capsys):
    script = os.path.join(SCRIPTS, "peak_dynamics.py")
    monkeypatch.setattr(sys, "argv", [script, "--output-dir", str(tmp_path)])
    runpy.run_path(script, run_name="__main__")
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(row.split()[0]) for row in rows] == list(range(0, 21, 2))
    assert all(math.isfinite(float(row.split()[-1])) for row in rows)
