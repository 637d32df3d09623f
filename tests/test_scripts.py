"""Smoke tests of the scripts under ``scripts/``."""

import math
import os
import runpy
import sys

import pytest

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


def test_bench_pairs_claims_only_clear_gains():
    # the claim rule of scripts/bench_pairs.py: >= 10 pairs, >= 9/10 won and
    # the medians apart by more than the parent's interquartile range
    namespace = runpy.run_path(os.path.join(SCRIPTS, "bench_pairs.py"))
    verdict = namespace["verdict"]
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    faster = [1.2 * p for p in parent]
    result = verdict(parent, faster, "higher")
    assert result["parent"] == [99.25, 100.0, 101.0]
    assert result["change"] == pytest.approx([119.1, 120.0, 121.2])
    assert (result["won"], result["pairs"], result["clears"]) == (10, 10, True)
    assert verdict(parent, faster, "lower")["won"] == 0
    assert not verdict(parent[:3], faster[:3], "higher")["clears"]  # too few pairs
    assert not verdict(parent, list(parent), "higher")["clears"]  # a self-pair: all ties
    nudged = [p + 0.5 for p in parent]  # 10/10 won, medians 0.5 apart, IQR 1.75
    assert verdict(parent, nudged, "higher")["won"] == 10
    assert not verdict(parent, nudged, "higher")["clears"]
    metrics = namespace["end_to_end_metrics"]()  # read from BENCHMARK.json
    assert (metrics["sim_days_per_s"], metrics["wall_s"]) == ("higher", "lower")
