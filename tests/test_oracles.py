import numpy as np
import pytest

from fermsim import Trajectory
from fermsim.oracles import (OracleReport, check_division_biomass_balance,
                             check_jacobian, check_kernel_entries,
                             check_kernel_refinement, check_kernel_row_sums,
                             check_lambda, check_mass_scaling,
                             check_newton_inverse,
                             check_partition_normalization,
                             check_partition_symmetry, quadrature_oracle)


def test_report_pass_flag_matches_bound():
    assert OracleReport("x", 0.5, 1.0).passed
    assert not OracleReport("x", 2.0, 1.0).passed
    assert "PASS" in OracleReport("x", 0.5, 1.0).line()
    assert "FAIL" in OracleReport("x", 2.0, 1.0).line()


def test_quadrature_exact_for_linear():
    for n in (1, 7, 30):
        assert quadrature_oracle(lambda x: x, 0.0, 1.0, n) == pytest.approx(0.5)


def test_quadrature_known_error_for_quadratic():
    # closed-form trapezoid error: 1/3 + (b-a) h^2 f''/12 with h = 1/30
    value = quadrature_oracle(lambda x: x * x, 0.0, 1.0, 30)
    assert value == pytest.approx(1.0 / 3.0 + 1.0 / 5400.0, abs=1e-12)


def test_quadrature_rejects_bad_subdivision():
    with pytest.raises(ValueError):
        quadrature_oracle(lambda x: x, 0.0, 1.0, 0)


def test_individual_checks_pass():
    reports = [check_lambda(), check_partition_symmetry(),
               check_kernel_row_sums(), check_kernel_refinement(),
               check_kernel_entries(), check_division_biomass_balance(),
               check_jacobian(), check_newton_inverse()]
    reports += check_mass_scaling()
    reports += check_partition_normalization()
    for report in reports:
        assert report.passed, report.line()


def test_incomplete_positivity_march_fails_under_the_same_name(monkeypatch):
    from fermsim import oracles

    def incomplete(config):
        trajectory = Trajectory(times=np.zeros(1), states=np.ones((1, config.n_cells + 4)),
                                records=[], completed=False, failure="step failed")
        return trajectory, None

    monkeypatch.setattr(oracles, "march", incomplete)
    report = oracles.check_trajectory_positivity()
    assert report.name == "trajectory_positivity_neg_fraction"
    assert not report.passed
