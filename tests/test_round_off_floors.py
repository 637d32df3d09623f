"""The round-off floors of the acceptance helpers still catch real failures."""

import numpy as np

from conftest import (ROUND_OFF_FLOOR, falls_with_refinement, interior_maxima,
                      relative_deviation)


def test_tail_wiggles_are_not_peaks():
    m = np.linspace(0.0, 1.0, 150)
    profile = 3.9e6 * (np.exp(-((m - 0.16) / 0.05) ** 2) + np.exp(-((m - 0.39) / 0.05) ** 2))
    assert interior_maxima(profile) == [24, 58]
    # round-off in a ~1e-145 tail leaves a strict maximum at cell 148
    profile[146:] = [6.9e-146, 1.9e-145, 4.0e-145, -3.0e-145]
    assert profile[147] < profile[148] > profile[149]
    assert interior_maxima(profile) == [24, 58]


def test_three_peaks_above_the_floor_count_three():
    m = np.linspace(0.0, 1.0, 150)
    peak = lambda c: np.exp(-((m - c) / 0.04) ** 2)
    # the third peak is 1e-9 of the others, still far above the floor
    profile = peak(0.16) + peak(0.39) + 1e-9 * peak(0.9)
    assert interior_maxima(profile) == [24, 58, 134]


def test_floor_ignores_round_off_but_not_real_deviations():
    scale = 0.012
    # round-off: final-O deviations of order 1e-16 in any order pass
    assert falls_with_refinement([3.9e-16, 2.4e-16, 1.4e-15], scale)
    # a seeded non-monotone deviation above the floor still fails
    rng = np.random.default_rng(12)
    deviations = np.sort(rng.uniform(10, 100, 3))[::-1] * ROUND_OFF_FLOOR * scale
    assert falls_with_refinement(deviations, scale)
    deviations[2] = 1.5 * deviations[1]
    assert not falls_with_refinement(deviations, scale)
    assert not falls_with_refinement([3.5e-5, 1.6e-5, 1.7e-5], 0.4)


def test_relative_check_floors_at_the_newton_tolerance():
    # a resolved final 3% off still fails the 2% check
    assert relative_deviation(0.03 * 0.4, 0.4) > 0.02
    # O-like finals ~1e-15 g/l, far below the tolerance of 1e-10, pass
    assert relative_deviation(2.2e-15 - 1.4e-15, 1.4e-15) <= 0.02
    # an O-like final 1e-11 off is above 2% of the tolerance and fails
    assert relative_deviation(1e-11, 1.4e-15) > 0.02
