import warnings

import numpy as np
import pytest

from fermsim import ConfigError, default_config, load_config
from fermsim.cli import main
from fermsim.simulate import compare, read_csv


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- config parsing ----------------------------------------------------------

def test_empty_file_is_default_config(tmp_path):
    config = load_config(write(tmp_path, ""))
    assert config == default_config()
    assert config.n_cells == 150
    assert config.dt == pytest.approx(1.0 / 192.0)
    assert config.t_final == 20.0
    assert config.distribution.kind == "constant"
    assert config.distribution.total_cells == 1e6


def test_dotted_keys_and_comments(tmp_path):
    config = load_config(write(tmp_path, """
# reproduction of the alternate toxicity threshold
kinetic.tol = 79       # g/l
division.gamma = 150
grid.n_cells = 50
snapshot_times = 0, 2.5, 5
"""))
    assert config.kinetic.tol == 79.0
    assert config.division.gamma == 150.0
    assert config.n_cells == 50
    assert config.snapshot_times == (0.0, 2.5, 5.0)


def test_bare_aliases(tmp_path):
    config = load_config(write(tmp_path, """
tol = 79
gamma = 180
beta = 380
N0 = 0.3
distribution = beta
cells = 40
"""))
    assert config.kinetic.tol == 79.0
    assert config.division.gamma == 180.0
    assert config.division.beta == 380.0
    assert config.initial.N0 == 0.3
    assert config.distribution.kind == "beta"
    assert config.n_cells == 40


def test_new_partition_width_recomputes_normalization(tmp_path):
    from fermsim import compute_lambda
    config = load_config(write(tmp_path, "beta = 100\n"))
    assert config.division.lam == pytest.approx(compute_lambda(100.0))


def test_settable_keys_are_pinned():
    """Every config key, derived from the dataclass fields; a new field adds
    a key only together with this list."""
    from fermsim.config import _TABLE
    assert sorted(_TABLE) == sorted([
        *(f"kinetic.{name}" for name in (
            "mu1", "mu2", "beta1", "beta2", "KE1", "KE2", "KN", "KS1", "KS2", "KO",
            "k1", "k2", "k3", "k4", "kd", "kd1", "kd2", "tol", "eps")),
        *(f"division.{name}" for name in ("gamma", "delta", "beta", "m_t", "m_d")),
        *(f"temperature.{name}" for name in ("T_low", "T_high", "t_ramp_start", "t_ramp_end")),
        "grid.m_min", "grid.m_max", "grid.n_cells",
        *(f"distribution.{name}" for name in (
            "kind", "total_cells", "beta_a", "beta_b", "cutoff", "smoothness",
            "mean1", "mean2", "std1", "std2", "weight")),
        *(f"initial.{name}" for name in ("N0", "S0", "O0", "E0")),
        "newton.tolerance", "newton.max_iterations",
        "dt", "t_final", "n_quad", "snapshot_times", "output_dir", "model",
    ])
    # parsers follow the default's type; every other key takes a float
    assert {key: entry[2].__name__ for key, entry in _TABLE.items()
            if entry[2].__name__ != "_float"} == {
        "grid.n_cells": "_int", "n_quad": "_int", "newton.max_iterations": "_int",
        "distribution.kind": "_string", "model": "_string", "output_dir": "_string",
        "snapshot_times": "_float_list"}


def test_unknown_key_names_offender(tmp_path):
    with pytest.raises(ConfigError, match="frobnicate"):
        load_config(write(tmp_path, "frobnicate = 1\n"))


def test_type_mismatch_names_key(tmp_path):
    with pytest.raises(ConfigError, match="dt"):
        load_config(write(tmp_path, "dt = fast\n"))
    with pytest.raises(ConfigError, match="n_cells"):
        load_config(write(tmp_path, "grid.n_cells = 10.5\n"))


def test_invariant_violations(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "dt = -1\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "model = pde\n"))
    with pytest.raises(ConfigError):
        # K_E(T) < 0 at this temperature: rejected at load
        load_config(write(tmp_path, "temperature.T_high = 200\n"))


def test_t_final_rescales_default_ramp(tmp_path):
    # the rule holds for a file line and for a flag alike
    for config in (load_config(write(tmp_path, "t_final = 10\n")),
                   load_config(overrides={"t_final": "10"})):
        assert config.profile.t_ramp_start == pytest.approx(4.75)
        assert config.profile.t_ramp_end == pytest.approx(5.25)


def test_flag_t_final_keeps_ramp_the_file_gave(tmp_path):
    # the layers are merged before the ramp rule runs, so a temperature
    # key in the file keeps its ramp under a t_final flag
    cfg = write(tmp_path, "temperature.t_ramp_start = 5\ntemperature.t_ramp_end = 6\n")
    config = load_config(cfg, {"t_final": "30"})
    assert config.t_final == 30.0
    assert (config.profile.t_ramp_start, config.profile.t_ramp_end) == (5.0, 6.0)


def test_apply_overrides_preserves_other_fields():
    config = load_config(overrides={"model": "ode", "grid.n_cells": "60"})
    assert config.model == "ode"
    assert config.n_cells == 60
    assert config.dt == default_config().dt


# --- CSV output --------------------------------------------------------------

def test_csv_writer_matches_per_value_formatting(tmp_path):
    from fermsim.simulate import _write_csv
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((3841, 8)) * 10.0 ** rng.integers(-300, 301, (3841, 8))
    rows[0] = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e300]
    rows[1] = [-1e-300, 1.7976931348623157e308, 1.0 / 3.0, 1e16, 123456789.0, 0.1, -2.5, 3]
    header = ["a", "b", "c", "d", "e", "f", "g", "h"]
    path = tmp_path / "rows.csv"
    _write_csv(str(path), header, rows)
    expected = ",".join(header) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("utf-8")


# --- CLI ---------------------------------------------------------------------

SHORT = "t_final = 1\ndt = 0.0625\nsnapshot_times = 0, 0.5, 1\ngrid.n_cells = 20\n"


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = write(tmp_path, SHORT)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
    header, data = read_csv(out / "trajectory.csv")
    assert header == ["t", "N", "E", "S", "O", "total_cells",
                      "log10_total_cells", "T", "newton_iters"]
    assert data.shape[0] == 1 + round(1.0 / 0.0625)  # t_final/dt + 1 rows
    assert data[0, header.index("total_cells")] == pytest.approx(1e6)
    assert (out / "density_t0.csv").exists()
    assert (out / "density_t0.5.csv").exists()
    assert (out / "density_t1.csv").exists()
    assert (out / "run_summary.txt").exists()
    # monotone ethanol column
    E = data[:, header.index("E")]
    assert np.all(np.diff(E) >= 0.0)


def test_simulate_is_deterministic(tmp_path):
    cfg = write(tmp_path, SHORT)
    for name in ("one", "two"):
        main(["simulate", "--config", cfg, "--output-dir",
              str(tmp_path / name)])
    assert ((tmp_path / "one" / "trajectory.csv").read_bytes()
            == (tmp_path / "two" / "trajectory.csv").read_bytes())


def test_ode_model_has_no_snapshots(tmp_path):
    cfg = write(tmp_path, SHORT)
    out = tmp_path / "ode"
    assert main(["simulate", "--config", cfg, "--model", "ode",
                 "--output-dir", str(out)]) == 0
    header, data = read_csv(out / "trajectory.csv")
    assert header == ["t", "X", "N", "E", "S", "O", "T", "newton_iters"]
    assert not list(out.glob("density_*"))


def test_ode_model_coarse_step_reaches_final_time(tmp_path):
    # t_n + h accumulated at dt = 0.1 used to overshoot t_final = 20
    out = tmp_path / "ode_coarse"
    assert main(["simulate", "--config", write(tmp_path, ""), "--model", "ode",
                 "--dt", "0.1", "--output-dir", str(out)]) == 0
    _, data = read_csv(out / "trajectory.csv")
    assert data.shape[0] == 201
    assert data[-1, 0] == 20.0


def test_cli_flags_override_config(tmp_path):
    cfg = write(tmp_path, SHORT)
    out = tmp_path / "flags"
    assert main(["simulate", "--config", cfg, "--cells", "12", "--dt",
                 "0.125", "--t-final", "0.5", "--distribution", "beta",
                 "--output-dir", str(out)]) == 0
    _, data = read_csv(out / "trajectory.csv")
    assert data.shape[0] == 5
    assert data[-1, 0] == pytest.approx(0.5)


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "no_such_key = 1\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_tiny_quadrature_is_config_error_before_output(tmp_path, capsys):
    out = tmp_path / "never"

    def config_file(text, name):
        return ["simulate", "--config", write(tmp_path, text, name), "--output-dir", str(out)]

    short = config_file(SHORT, "run.cfg")
    cases = [
        (config_file(SHORT + "n_quad = 1\n", "quad.cfg"), "n_quad must be >= 2"),
        (config_file(SHORT + "n_quad = 1e300\n", "huge_quad.cfg"),
         "n_quad 1e+300 is more than the 1000 allowed"),
        (short + ["--cells", "1e300"], "grid.n_cells 1e+300 is more than the 4096 allowed"),
        (short + ["--cells", "5000"], "grid.n_cells 5000 is more than the 4096 allowed"),
        # lambda follows from division.beta and is not a key
        (config_file("division.lam = 3\n", "lam.cfg"), "unknown key 'division.lam'"),
        (config_file("lambda = 3\n", "lambda.cfg"), "unknown key 'lambda'"),
        # the horizon is t_final alone
        (config_file("temperature.t_final = 20\n", "horizon.cfg"),
         "unknown key 'temperature.t_final'"),
        (short + ["--dt", "0.3"], "step size 0.3 does not divide t_final 1"),
        (short + ["--model", "ode", "--t-final", "1e-12"],
         "t_final 1e-12 is shorter than half the step size"),
        (short + ["--dt", "1e-300"], "more than the 1000000 allowed"),
        (short + ["--dt", "1e-7"], "step size 1e-07 gives 1e+07 steps"),
        # bad flag values are config errors, as in a file
        (short + ["--cells", "abc"], "expected a number, got 'abc'"),
        (short + ["--cells", "2.5"], "expected an integer, got '2.5'"),
        (short + ["--dt", "x"], "expected a number, got 'x'"),
        (short + ["--model", "foo"], "model must be one of"),
        # usage errors
        (short + ["--cels", "12"], "unrecognized arguments: --cels 12"),
        (["compare", "--b", str(out), "--out", str(out / "cmp.csv")],
         "the following arguments are required: --a"),
        ([], "the following arguments are required: command"),
    ]
    for argv, message in cases:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize("text, flags", [
    ("", ["--dt", "nan"]),
    ("newton.tolerance = nan\n", []),
    ("kinetic.kd = nan\n", []),
    ("division.gamma = nan\n", []),
    ("grid.n_cells = inf\n", []),
    ("grid.n_cells = nan\n", []),
    ("newton.max_iterations = inf\n", []),
    ("initial.S0 = -inf\n", []),
    ("snapshot_times = 0, inf\n", []),
])
def test_non_finite_number_is_config_error_before_output(tmp_path, capsys, text, flags):
    out = tmp_path / "never"
    cfg = write(tmp_path, SHORT + text)
    assert main(["simulate", "--config", cfg, *flags, "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "expected a finite number" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_horizon_past_day_20_keeps_given_ramp(tmp_path):
    # a temperature key keeps the ramp as given; T_high then holds to t_final
    cfg = write(tmp_path, "t_final = 30\ntemperature.T_high = 19\n"
                          "dt = 0.25\ngrid.n_cells = 20\n")
    out = tmp_path / "long"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
    header, data = read_csv(out / "trajectory.csv")
    assert data[-1, 0] == 30.0
    assert data[-1, header.index("T")] == 19.0


def test_python_api_horizon_past_day_20(tmp_path):
    from conftest import run_with
    result = run_with(tmp_path, t_final=30.0, n_cells=20, dt=0.25)
    assert result.trajectory.completed
    assert result.trajectory.times[-1] == 30.0


def test_missing_config_exit_code(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 1


def test_compare_run_against_itself_is_zero(tmp_path):
    cfg = write(tmp_path, SHORT)
    out = tmp_path / "self"
    main(["simulate", "--config", cfg, "--output-dir", str(out)])
    report = tmp_path / "cmp.csv"
    assert main(["compare", "--a", str(out), "--b", str(out),
                 "--out", str(report)]) == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "state,t,value_a,value_b,rel_diff"
    assert len(lines) > 1
    assert all(float(line.rsplit(",", 1)[1]) == 0.0 for line in lines[1:])


def test_compare_nearest_rows_match_argmin(tmp_path):
    # day 5 and a's rows at odd days lie exactly midway between two of b's:
    # ties go to the earlier row
    dirs = [tmp_path / "fine", tmp_path / "coarse"]
    for out, dt in zip(dirs, ("0.25", "2")):
        assert main(["simulate", "--config", write(tmp_path, "t_final = 6\n"),
                     "--model", "ode", "--dt", dt, "--output-dir", str(out)]) == 0
    (header_a, a), (header_b, b) = (read_csv(d / "trajectory.csv") for d in dirs)
    t_a, t_b = a[:, 0], b[:, 0]
    times = (0.0, 5.0)  # the compare days within the 6-day horizon
    rows = compare(str(dirs[0]), str(dirs[1]), str(tmp_path / "cmp.csv"))
    nearest = lambda t, x: int(np.argmin(np.abs(t - x)))
    expected = []
    for state in ("X", "N", "E", "S", "O"):
        col_a, col_b = a[:, header_a.index(state)], b[:, header_b.index(state)]
        scale = np.max(np.abs(col_a))
        for t in times:
            ia, ib = nearest(t_a, t), nearest(t_b, t)
            expected.append((state, t_a[ia], col_a[ia], col_b[ib],
                             abs(col_a[ia] - col_b[ib]) / scale))
        ib_all = [nearest(t_b, t) for t in t_a]
        expected.append((state, -1.0, col_a[-1], col_b[ib_all[-1]],
                         float(np.max(np.abs(col_a - col_b[ib_all]) / scale))))
    assert rows == expected


def test_compare_malformed_trajectory_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, SHORT)
    good = tmp_path / "good"
    main(["simulate", "--config", cfg, "--model", "ode", "--output-dir", str(good)])
    capsys.readouterr()
    bad = tmp_path / "bad"
    bad.mkdir()
    for text in ("t,X\n0,abc\n", "t,X,N\n0,1\n", "t,X\n", "X,N\n1,2\n",
                 "t,X\n1,1\n0,2\n", "t,X\n0,1\n0,2\n"):
        (bad / "trajectory.csv").write_text(text)
        assert main(["compare", "--a", str(good), "--b", str(bad),
                     "--out", str(tmp_path / "cmp.csv")]) == 1
        err = capsys.readouterr().err
        assert str(bad / "trajectory.csv") in err
        assert len(err.strip().splitlines()) == 1


def test_compare_two_distributions_snapshots_have_two_peaks(tmp_path):
    from conftest import interior_maxima
    text = ("t_final = 10\ndt = 0.020833333333333332\n"
            "snapshot_times = 10\ngrid.n_cells = 150\n")
    peaks = {}
    for kind in ("constant", "beta"):
        out = tmp_path / kind
        main(["simulate", "--config", write(tmp_path, text),
              "--distribution", kind, "--output-dir", str(out)])
        _, density = read_csv(out / "density_t10.csv")
        peaks[kind] = interior_maxima(density[:, 1])
    assert len(peaks["constant"]) == 2
    assert len(peaks["beta"]) == 2


def test_verify_default_runs_the_positivity_march(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines
            if line.split()[1] == "trajectory_positivity_neg_fraction"] == ["PASS"]


@pytest.mark.parametrize("model", ["ide", "ode"])
def test_overflowing_rate_constant_is_integration_failure(tmp_path, capsys, model):
    # kd1 ** 2 overflows a Python float while the Jacobian is built
    cfg = write(tmp_path, f"model = {model}\nkinetic.kd1 = 1e300\n")
    assert main(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("integration failure: ")
    assert "OverflowError" in err


@pytest.mark.parametrize("model", ["ide", "ode"])
@pytest.mark.parametrize("key, code", [
    ("kinetic.k2", 2), ("kinetic.k3", 2), ("kinetic.mu1", 2), ("kinetic.kd", 2),
    ("division.m_d", 0), ("distribution.mean1", 0)])
def test_overflowing_input_prints_no_warning(tmp_path, capsys, model, key, code):
    # each value overflows a float64 in the rhs, the Jacobian, the Newton
    # update, the kernel assembly or the initial shape; numpy must print no
    # RuntimeWarning, so a failure stays one line
    kind = "two_normal_peak" if key == "distribution.mean1" else "constant"
    cfg = write(tmp_path, f"model = {model}\ngrid.n_cells = 20\nt_final = 0.5\n"
                          f"dt = 0.015625\ndistribution.kind = {kind}\n{key} = 1e300\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == code
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == (1 if code == 2 else 0)


def test_aborted_run_summary_reads_not_converged(tmp_path):
    cfg = write(tmp_path, "model = ode\ngrid.n_cells = 20\nnewton.max_iterations = 1\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 2
    summary = (out / "run_summary.txt").read_text().splitlines()
    assert "completed = False" in summary
    assert "newton_all_converged = False" in summary
    assert any(line.startswith("failure = Newton failed") for line in summary)
