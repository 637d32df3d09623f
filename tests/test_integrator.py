import numpy as np
import pytest

from fermsim import (ConfigError, DistributionSpec, DomainError, KineticParams,
                     NewtonConfig, NumericsError, StepFailure,
                     build_initial_density, integrate)
from fermsim.integrator import trapezoid_step
from fermsim.simulate import DENSITY_SCALE
from fermsim.system import jacobian_vector, rhs_vector


def linear_system():
    A = np.array([[-2.0, 1.0], [0.5, -3.0]])
    f = lambda t, y: A @ y
    jac = lambda t, y: A
    return A, f, jac


def test_linear_system_matches_matrix_exponential():
    # Richardson comparison against the exact propagator (eigendecomposition)
    A, f, jac = linear_system()
    y0 = np.array([1.0, -0.5])
    eigvals, V = np.linalg.eig(A)
    exact = (V @ np.diag(np.exp(2.0 * eigvals)) @ np.linalg.inv(V) @ y0).real
    errors = []
    for h in (0.02, 0.01):
        traj = integrate(f, jac, y0, 2.0, h)
        errors.append(np.max(np.abs(traj.states[-1] - exact)))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)


def test_nonlinear_second_order():
    # logistic growth with closed-form solution
    f = lambda t, y: y * (1.0 - y)
    jac = lambda t, y: np.array([[1.0 - 2.0 * y[0]]])
    y0 = np.array([0.1])
    exact = 1.0 / (1.0 + 9.0 * np.exp(-4.0))
    errors = []
    for h in (1.0 / 48.0, 1.0 / 96.0, 1.0 / 192.0):
        traj = integrate(f, jac, y0, 4.0, h)
        errors.append(abs(traj.states[-1, 0] - exact))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders)


def test_single_step_record():
    _, f, jac = linear_system()
    y1, record = trapezoid_step(np.array([1.0, 1.0]), 0.0, 0.01, f, jac,
                                NewtonConfig())
    assert record.converged
    assert record.residual_norm <= 1e-10
    assert record.newton_iterations >= 1
    assert record.t == pytest.approx(0.01)


def test_stationary_problem_converges_immediately():
    f = lambda t, y: np.zeros_like(y)
    jac = lambda t, y: np.zeros((2, 2))
    y0 = np.array([3.0, 4.0])
    traj = integrate(f, jac, y0, 1.0, 0.25)
    assert np.all(traj.states == y0)
    assert all(r.newton_iterations == 1 for r in traj.records)


def test_step_must_divide_horizon():
    _, f, jac = linear_system()
    with pytest.raises(ConfigError):
        integrate(f, jac, np.array([1.0, 1.0]), 1.0, 0.3)
    # a positive horizon that rounds to zero steps is rejected too
    with pytest.raises(ConfigError, match="shorter than half the step size"):
        integrate(f, jac, np.array([1.0, 1.0]), 1e-12, 1.0 / 192.0)
    # so is a step size that is not positive
    for h in (-0.25, 0.0, float("nan")):
        with pytest.raises(ConfigError, match="step size must be > 0"):
            integrate(f, jac, np.array([1.0, 1.0]), 1.0, h)


def test_nonconvergence_yields_partial_trajectory():
    # rhs blows up in finite time; Newton eventually stops converging
    f = lambda t, y: y ** 2
    jac = lambda t, y: np.diag(2.0 * y)
    traj = integrate(f, jac, np.array([1.0]), 4.0, 0.5)
    assert not traj.completed
    assert traj.failure
    assert traj.times[-1] < 4.0
    assert len(traj.states) == len(traj.times)


def test_step_failure_carries_record():
    f = lambda t, y: y ** 2
    jac = lambda t, y: np.diag(2.0 * y)
    with pytest.raises(StepFailure) as excinfo:
        trapezoid_step(np.array([100.0]), 0.0, 10.0, f, jac,
                       NewtonConfig(max_iterations=3))
    assert not excinfo.value.record.converged


def test_determinism(op30, kp, profile):
    from fermsim.oracles import random_admissible_state
    from fermsim.system import jacobian_vector, rhs_vector
    y0 = random_admissible_state(np.random.default_rng(0), op30.grid.n_cells)
    run = lambda: integrate(
        lambda t, y: rhs_vector(t, y, op30, kp, profile),
        lambda t, y: jacobian_vector(t, y, op30, kp, profile),
        y0, 0.5, 1.0 / 48.0)
    a, b = run(), run()
    assert np.array_equal(a.states, b.states)


# --- stage times and the exit-code contract -----------------------------------

# Step sizes 1/k (k = 10 .. 400) at which t_n + h with t_n = (n - 1) h
# overshoots t_final = 20 in floating point.  Marching all 391 step sizes
# would take 1.6 million steps, too many for this suite; at the others the
# last stage time cannot leave [0, 20].
OVERSHOOT_K = [k for k in range(10, 401)
               if (20 * k - 1) * (1.0 / k) + 1.0 / k > 20.0]


def test_stage_times_stay_inside_horizon():
    assert len(OVERSHOOT_K) == 44
    seen = []
    zero = np.zeros(1)

    def f(t, y):
        seen.append(t)
        return zero

    jac = lambda t, y: np.zeros((1, 1))
    for k in OVERSHOOT_K:
        seen.clear()
        traj = integrate(f, jac, np.ones(1), 20.0, 1.0 / k)
        assert traj.completed
        assert 0.0 <= min(seen) and max(seen) <= 20.0, k
        assert traj.times[-1] == 20.0


@pytest.mark.parametrize("error", [NumericsError, DomainError, ZeroDivisionError])
def test_model_errors_inside_a_step_end_the_run_cleanly(error):
    def f(t, y):
        if not np.all(np.isfinite(y)):
            raise error(f"non-finite state at t={t}")
        return y ** 2

    jac = lambda t, y: np.diag(2.0 * y)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(f, jac, np.array([1e200]), 1.0, 0.5)
    assert not traj.completed
    assert "non-finite" in traj.failure
    assert len(traj.states) == len(traj.times) == 1


# --- the simplified Newton scheme ---------------------------------------------

def op30_problem(op30, kp, profile):
    w0 = build_initial_density(DistributionSpec(), op30.grid) / DENSITY_SCALE
    y0 = np.concatenate([w0, [0.4, 0.0, 193.0, 0.012]])
    f = lambda t, y: rhs_vector(t, y, op30, kp, profile)
    jac = lambda t, y: jacobian_vector(t, y, op30, kp, profile)
    return f, jac, y0


def test_every_accepted_step_solves_the_trapezoid_equation(op30, kp, profile):
    f, jac, y0 = op30_problem(op30, kp, profile)
    h = 1.0 / 192.0
    traj = integrate(f, jac, y0, 1.0, h)
    assert traj.completed
    t, y = traj.times, traj.states
    for k in range(len(t) - 1):
        g = y[k + 1] - y[k] - 0.5 * h * (f(t[k + 1], y[k + 1]) + f(t[k], y[k]))
        assert np.max(np.abs(g)) <= 1e-10, t[k + 1]


def test_reused_output_buffers_give_the_same_trajectory(op30, kp, profile):
    # f and jac hand back one buffer each, rewritten on every call; the
    # stepper must neither write into them nor keep f's output by reference
    f, jac, y0 = op30_problem(op30, kp, profile)
    buffers = {"f": np.empty(len(y0)), "jac": np.empty((len(y0), len(y0)))}
    last = {}

    def shared(name, fn):
        def call(t, y):
            buf = buffers[name]
            if name in last:
                assert np.array_equal(buf, last[name])  # untouched since the last call
            buf[...] = fn(t, y)
            last[name] = buf.copy()
            return buf
        return call

    fresh = integrate(f, jac, y0, 0.25, 1.0 / 192.0)
    reused = integrate(shared("f", f), shared("jac", jac), y0, 0.25, 1.0 / 192.0)
    assert fresh.completed and reused.completed
    assert np.array_equal(reused.states, fresh.states)
    assert [r.newton_iterations for r in reused.records] == \
        [r.newton_iterations for r in fresh.records]
    for name in buffers:
        assert np.array_equal(buffers[name], last[name])


def test_iteration_matrix_is_reused_across_steps(op30, kp, profile):
    f, jac, y0 = op30_problem(op30, kp, profile)
    calls = {"f": 0, "jac": 0}

    def counted(name, fn):
        def wrapper(t, y):
            calls[name] += 1
            return fn(t, y)
        return wrapper

    traj = integrate(counted("f", f), counted("jac", jac), y0, 1.0, 1.0 / 192.0)
    steps = len(traj.records)
    assert traj.completed and steps == 192
    assert 1 <= calls["jac"] <= steps // 10
    # f(t_n, y_n) is the previous step's accepted evaluation: one call per
    # Newton update plus one per step, plus f(0, y0)
    updates = sum(r.newton_iterations for r in traj.records)
    assert calls["f"] == 1 + steps + updates


@pytest.mark.parametrize("a_late", [1.5, 50.0])
def test_sharp_jacobian_change_rebuilds_the_matrix(a_late):
    # y' = -a(t) y with a jump in a at t = 1: the carried matrix contracts
    # slowly (a_late = 1.5) or diverges (a_late = 50) after the jump
    a = lambda t: 1.0 if t <= 1.0 else a_late
    jac_times = []

    def jac(t, y):
        jac_times.append(t)
        return np.array([[-a(t)]])

    h = 0.1
    traj = integrate(lambda t, y: -a(t) * y, jac, np.array([1.0]), 2.0, h)
    assert traj.completed
    assert all(r.converged for r in traj.records)
    assert any(t > 1.0 for t in jac_times)
    expected = 1.0
    for t0, t1 in zip(traj.times[:-1], traj.times[1:]):
        expected *= (1.0 - 0.5 * h * a(t0)) / (1.0 + 0.5 * h * a(t1))
    assert traj.states[-1, 0] == pytest.approx(expected, rel=1e-9)
