import weakref

import numpy as np
import pytest

from fermsim import (ConfigError, DistributionSpec, DomainError, KineticParams,
                     NewtonConfig, NumericsError, StepFailure,
                     build_initial_density, integrate)
from fermsim.integrator import StepState, trapezoid_step
from fermsim.reduced import ode_jacobian_vector, ode_rhs_vector
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
    state = StepState(f, jac, NewtonConfig())
    y1, record = trapezoid_step(np.array([1.0, 1.0]), 0.0, 0.01, 0.01, state)
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
    assert all(r.newton_iterations == 0 for r in traj.records)


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
        trapezoid_step(np.array([100.0]), 0.0, 10.0, 10.0,
                       StepState(f, jac, NewtonConfig(max_iterations=3)))
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


@pytest.mark.parametrize("error", [NumericsError, DomainError, ZeroDivisionError, None])
def test_model_errors_inside_a_step_end_the_run_cleanly(error):
    # error None: f returns inf, and the Newton residual catches it
    def f(t, y):
        if error is not None and not np.all(np.isfinite(y)):
            raise error(f"non-finite state at t={t}")
        return y ** 2

    jac = lambda t, y: np.diag(2.0 * y)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(f, jac, np.array([1e200]), 1.0, 0.5)
    assert not traj.completed
    assert "non-finite" in traj.failure
    assert len(traj.states) == len(traj.times) == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("model", ["ide", "ode"])
@pytest.mark.parametrize("entry", ["density", "N", "E", "S", "O"])
def test_non_finite_initial_entry_fails_the_first_step(op30, kp, profile, model, entry, value):
    # the rhs and Jacobian check nothing: y and f(y) both enter the Newton
    # residual, which fails the step and then its restart
    if model == "ide":
        f, jac, y0 = op30_problem(op30, kp, profile)
    else:
        f = lambda t, y: ode_rhs_vector(t, y, kp, profile)
        jac = lambda t, y: ode_jacobian_vector(t, y, kp, profile)
        y0 = np.array([0.5, 0.4, 0.0, 193.0, 0.012])
    index = 0 if entry == "density" else len(y0) - 4 + "NESO".index(entry)
    y0[index] = value
    with np.errstate(all="ignore"):  # as simulate.march runs it
        traj = integrate(f, jac, y0, 1.0, 1.0 / 192.0)
    assert not traj.completed
    # the restart iterates from y0 itself, so y names exactly the entry
    assert f"non-finite Newton residual after 0 iterations: y is non-finite at [{index}]" \
        in traj.failure
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


def jump_problem(a_late):
    """y' = -a(t) y with a jump in a at t = 1, the times of the Jacobian
    calls, and the exact trapezoid product for a step h."""
    a = lambda t: 1.0 if t <= 1.0 else a_late
    jac_times = []

    def jac(t, y):
        jac_times.append(t)
        return np.array([[-a(t)]])

    def exact(times, h):
        expected = 1.0
        for t0, t1 in zip(times[:-1], times[1:]):
            expected *= (1.0 - 0.5 * h * a(t0)) / (1.0 + 0.5 * h * a(t1))
        return expected

    return lambda t, y: -a(t) * y, jac, jac_times, exact


@pytest.mark.parametrize("a_late", [1.5, 50.0])
def test_sharp_jacobian_change_rebuilds_the_matrix(a_late):
    # the carried matrix contracts slowly (a_late = 1.5) or diverges
    # (a_late = 50) after the jump
    f, jac, jac_times, exact = jump_problem(a_late)
    h = 0.1
    traj = integrate(f, jac, np.array([1.0]), 2.0, h)
    assert traj.completed
    assert all(r.converged for r in traj.records)
    assert any(t > 1.0 for t in jac_times)
    assert traj.states[-1, 0] == pytest.approx(exact(traj.times, h), rel=1e-9)


def test_a_rebuild_holds_one_inverse_at_a_time(monkeypatch):
    # when J is evaluated for a new matrix, no earlier inverse is still
    # referenced: a second one held would be 0.7 MB at 300 cells
    inverses, solve = [], np.linalg.solve

    def recorded(*args):
        inverse = solve(*args)
        inverses.append(weakref.ref(inverse))
        return inverse

    monkeypatch.setattr(np.linalg, "solve", recorded)
    f, jac, jac_times, _ = jump_problem(1.5)

    def checked(t, y):
        assert all(ref() is None for ref in inverses)
        return jac(t, y)

    traj = integrate(f, checked, np.array([1.0]), 2.0, 0.1)
    # the first matrix, then the rebuild at a slowly contracting carried one
    assert traj.completed and len(inverses) == 2 and jac_times[1] > 1.0


@pytest.mark.parametrize("theta_max, rebuilds_after_jump", [(None, True), (0.1, False)])
def test_rebuild_threshold_is_the_callers(theta_max, rebuilds_after_jump, monkeypatch):
    # after the jump to a_late = 1.5 the stale matrix contracts the
    # residual by ~0.024 per update: a rebuild under the default 1e-2,
    # none under 0.1; integrator.THETA_MAX is read at call time
    from fermsim import integrator
    if theta_max is not None:
        monkeypatch.setattr(integrator, "THETA_MAX", theta_max)
    f, jac, jac_times, exact = jump_problem(1.5)
    h = 0.1
    traj = integrate(f, jac, np.array([1.0]), 2.0, h)
    assert traj.completed
    assert any(t > 1.0 for t in jac_times) == rebuilds_after_jump
    # the ten steps after the jump each solve their equation to 1e-10, so
    # together they stay within 1e-9 of the exact product (rel=1e-9 would
    # ask for 8e-11 at y(2) ~ 0.084)
    assert traj.states[-1, 0] == pytest.approx(exact(traj.times, h), abs=1e-9)


# --- the extrapolated predictor -----------------------------------------------

def polynomial_in_t(coeffs, seen=None):
    """f(t, y) = sum_k coeffs[k] t^k, recording the time of each call (and
    the first state f sees at each time in ``seen``)."""
    times = []

    def f(t, y):
        if seen is not None:
            seen.setdefault(t, y.copy())
        times.append(t)
        return sum(c * t ** k for k, c in enumerate(coeffs))

    return f, times


def linear_in_t(a, b, seen=None):
    """f(t, y) = a + b t, as ``polynomial_in_t`` records it."""
    return polynomial_in_t((a, b), seen)


def test_ab2_predictor_is_exact_when_f_is_linear_in_t():
    # AB2 extrapolates f linearly, so after the Euler start-up every
    # predictor already solves the trapezoid equation: zero updates, and
    # one f call per step
    a, b = np.array([1.0, -2.0]), np.array([3.0, 0.5])
    f, times = linear_in_t(a, b)
    jac = lambda t, y: np.zeros((2, 2))
    traj = integrate(f, jac, np.array([0.0, 1.0]), 2.0, 0.1)
    steps = len(traj.records)
    assert traj.completed and steps == 20
    assert [r.newton_iterations for r in traj.records] == [1] + [0] * (steps - 1)
    updates = 1  # the Euler start-up step only
    assert len(times) == 1 + steps + updates
    assert [times.count(t) for t in traj.times[1:3]] == [2, 1]
    t = traj.times
    np.testing.assert_allclose(traj.states, np.outer(t, a) + np.outer(0.5 * t ** 2, b)
                               + np.array([0.0, 1.0]), rtol=0, atol=1e-12)


#: (h/2)-weights on f_n, f_{n-1}, ... of the predictor with 1, 2, 3 and 4
#: values of f held: explicit Euler, AB2, then the quadratic and the cubic
#: extrapolation of f to t_{n+1}
PREDICTOR_ROWS = ((2.0,), (3.0, -1.0), (4.0, -3.0, 1.0), (5.0, -6.0, 4.0, -1.0))


def test_predictor_history_fills_and_is_dropped():
    # f cubic in t and J = 0: Euler, AB2 and the quadratic each leave a
    # residual and take one update; the cubic extrapolation is exact, so
    # from the fourth step of a history on each step takes 0 updates and
    # one f call.  A change of h and a restart drop the whole history.
    coeffs = (np.array([1.0]), np.array([2.0]), np.array([3.0]), np.array([1.0]))
    value = lambda t: sum(c * t ** k for k, c in enumerate(coeffs))
    seen = {}
    cubic, times = polynomial_in_t(coeffs, seen)

    def f(t, y):
        if t > 1.15 and not failed:
            failed.append(t)
            times.append(t)
            raise DomainError("forced restart")
        return cubic(t, y)

    jac = lambda t, y: np.zeros((1, 1))
    state = StepState(f, jac, NewtonConfig())
    y, t, failed = np.zeros(1), 0.0, []
    held, updates, per_step = [], [], []
    for k, h in enumerate([0.1] * 6 + [0.05] * 6 + [0.1] * 8):
        before = len(times)
        y_n, (y, record) = y, trapezoid_step(y, t, t + h, h, state)
        assert record.converged
        updates.append(record.newton_iterations)
        per_step.append(len(times) - before)
        if record.t in failed:
            restarted_at, held = k, []
        else:
            if k in (0, 6, 12):
                held = [value(t)]
            row = PREDICTOR_ROWS[len(held) - 1]
            predictor = y_n + 0.5 * h * sum(w * fk for w, fk in zip(row, held))
            assert seen[record.t] == pytest.approx(predictor, rel=1e-14), k
        held = [value(record.t)] + held[:3]
        t = record.t
    # f(0, y0) first; the restarted step makes the failed call, f(y_n)
    # and one update
    assert restarted_at == 14
    assert updates == [1, 1, 1, 0, 0, 0] * 2 + [1, 1, 1, 1, 1, 1, 0, 0]
    assert per_step == [3, 2, 2, 1, 1, 1] + [2, 2, 2, 1, 1, 1] + [2, 2, 3, 2, 2, 2, 1, 1]


def test_stiff_mode_follows_the_trapezoid_product():
    # hλ = -200/192 ~ -1.04: the extrapolation alone amplifies the stiff
    # mode's error from step to step, so a predictor that meets the
    # tolerance is still corrected by the frozen matrix; y1 then follows
    # R^n to round-off, where an uncorrected predictor left ~1e-11
    h = 1.0 / 192.0
    f = lambda t, y: np.array([-200.0 * y[0], 1.0])
    jac = lambda t, y: np.array([[-200.0, 0.0], [0.0, 0.0]])
    traj = integrate(f, jac, np.array([1.0, 0.0]), 2.0, h)
    assert traj.completed and len(traj.records) == 384
    R = (1.0 - 100.0 * h) / (1.0 + 100.0 * h)
    exact = R ** np.arange(len(traj.times))
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-15
    np.testing.assert_allclose(traj.states[:, 1], traj.times, rtol=0, atol=1e-12)


def euler(y, t, h, a, b):
    return y + h * (a + b * t)


def test_change_of_h_falls_back_to_euler():
    a, b, seen = np.array([1.0]), np.array([2.0]), {}
    f, times = linear_in_t(a, b, seen)
    jac = lambda t, y: np.zeros((1, 1))
    state, y, t = StepState(f, jac, NewtonConfig()), np.zeros(1), 0.0
    per_step = []
    for k, h in enumerate((0.1, 0.1, 0.1, 0.05, 0.05, 0.05)):
        before = len(times)
        y_n, (y, record) = y, trapezoid_step(y, t, t + h, h, state)
        assert record.converged
        per_step.append(len(times) - before)
        if k == 3:
            # the predictor f first sees is explicit Euler, not AB2
            assert seen[record.t] == pytest.approx(euler(y_n, t, h, a, b), rel=1e-15)
        t += h
    # f(0, y0), then Euler (two calls) at the start and after h changes
    assert per_step == [3, 1, 1, 2, 1, 1]


def test_restarted_step_is_followed_by_euler():
    a, b, seen = np.array([1.0]), np.array([2.0]), {}
    g, times = linear_in_t(a, b, seen)
    h = 0.1
    fail_at = 5 * h

    def f(t, y):
        if t == fail_at and fail_at not in times:
            times.append(t)
            raise DomainError("forced restart")
        return g(t, y)

    traj = integrate(f, lambda t, y: np.zeros((1, 1)), np.zeros(1), 1.0, h)
    assert traj.completed
    calls = [times.count(t) for t in traj.times[1:]]
    # the failed first call, then f(y_n) and one update; Euler on the next step
    assert calls == [2, 1, 1, 1, 3, 2, 1, 1, 1, 1]
    assert traj.times[5] == fail_at
    t5, y5 = traj.times[5], traj.states[5]
    assert seen[traj.times[6]] == pytest.approx(euler(y5, t5, h, a, b), rel=1e-15)


@pytest.mark.parametrize("drop", ["change of h", "restart"])
def test_dropped_history_gets_no_predictor_weight(drop):
    # f is 1e4 before t = 0.35 and a + b t (~1) after.  The f values held
    # before the drop stay in the history's rows, and any weight on one of
    # them would move the predictor by ~(h/2) 1e4; it must be Euler on the
    # first step after the drop and AB2 on the second.
    a, b, seen = np.array([1.0]), np.array([2.0]), {}
    g, times = linear_in_t(a, b, seen)
    fail_at = 0.5

    def f(t, y):
        if drop == "restart" and t == fail_at and fail_at not in times:
            times.append(t)
            raise DomainError("forced restart")
        return np.full(1, 1e4) if t < 0.35 else g(t, y)

    steps = [0.1] * 4 + [0.05] * 3 if drop == "change of h" else [0.1] * 7
    first = 4 if drop == "change of h" else 5
    state, y, t = StepState(f, lambda t, y: np.zeros((1, 1)), NewtonConfig()), np.zeros(1), 0.0
    for k, h in enumerate(steps):
        y_n, (y, record) = y, trapezoid_step(y, t, t + h, h, state)
        assert record.converged
        if k == first:
            assert seen[record.t] == pytest.approx(euler(y_n, t, h, a, b), rel=1e-15)
        if k == first + 1:
            ab2 = y_n + 0.5 * h * (3.0 * (a + b * t) - (a + b * (t - h)))
            assert seen[record.t] == pytest.approx(ab2, rel=1e-15)
        t = record.t
    assert abs(y[0]) > 1e3  # the march did go through the large values


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper counting its calls in a list."""
    fn, calls = getattr(module, name), [0]

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def two_day_run(model):
    """Steps of a 2-day, dt = 1/192 march of ``model`` on 60 cells."""
    from fermsim import load_config
    from fermsim import simulate as sim
    config = load_config(None, {"model": model, "grid.n_cells": "60", "t_final": "2"})
    trajectory, _ = sim.march(config)
    steps = len(trajectory.records)
    assert trajectory.completed and steps == 384
    return steps


@pytest.mark.parametrize("model, bound", [("ide", 1.7), ("ode", 0.7)])
def test_extrapolated_predictor_cuts_newton_updates(model, bound, monkeypatch):
    # 2-day runs at dt = 1/192 under the rebuild threshold 1e-3: the
    # Euler predictor needed 2.54 (60 cells) and 2.16 (ODE) updates per
    # step, AB2 2.03 and 1.77, the cubic extrapolation with its corrected
    # acceptance 1.54 and 0.54
    from fermsim import integrator, reduced
    from fermsim import simulate as sim
    monkeypatch.setattr(integrator, "THETA_MAX", 1e-3)
    module, name = (sim, "rhs_vector") if model == "ide" else (reduced, "ode_rhs_vector")
    calls = count_calls(monkeypatch, module, name)
    steps = two_day_run(model)
    assert (calls[0] - 1 - steps) / steps <= bound


def test_dense_march_trades_updates_for_rebuilds(monkeypatch):
    # the 60-cell run above under THETA_MAX = 1e-2: 4 matrix rebuilds at
    # 1.79 updates per step, where 1e-3 takes 18 at 1.54
    from fermsim import simulate as sim
    rhs_calls = count_calls(monkeypatch, sim, "rhs_vector")
    jac_calls = count_calls(monkeypatch, sim, "jacobian_vector")
    steps = two_day_run("ide")
    assert jac_calls[0] <= 8
    assert (rhs_calls[0] - 1 - steps) / steps <= 2.5
