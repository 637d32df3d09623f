"""Implicit trapezoidal time stepping with a simplified Newton solve per step.

The stepper is generic: it works on plain numpy vectors given callables
f(t, y) and J(t, y).  The nonlinear equation per step is

    g(y) = y - y_n - h/2 * (f(t_{n+1}, y) + f(t_n, y_n)) = 0

solved to max|g| <= tolerance by simplified Newton (Hairer & Wanner,
*Solving ODEs II*, IV.8).  The iteration matrix I - (h/2) J is inverted
with numpy.linalg.solve and the inverse is applied by a matrix-vector
product, frozen across iterations and across steps.  It is rebuilt at the
current iterate at the first step, when h changes, and whenever one
iteration shrinks max|g| by less than the factor THETA_MAX.  Each step
starts from the explicit Euler predictor y_n + h f(t_n, y_n), and f at the
accepted iterate is the next step's f(t_n, y_n).  The stepper copies what
f returns before it keeps it and writes into no array that f or J
returns, so both may hand back one reused buffer.

A step whose iteration diverges with a matrix carried over from an earlier
step, reaches a non-finite residual, hits a singular matrix or makes f or
J raise NumericsError, DomainError or ZeroDivisionError (a rate law on
Python floats whose denominator is exactly zero) starts over once from
y_n with a matrix built there, the start of a full Newton iteration.  If
that fails as well, or max_iterations updates pass, the step raises
StepFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericsError, StepFailure

#: Rebuild the iteration matrix when one iteration shrinks max|g| by less
#: than this factor (the RADAU5 default).
THETA_MAX = 1e-3

#: Most steps one march may take.  ``integrate`` holds every state of the
#: march, (n_steps + 1) x (C + 4) floats (1.2 GB at 150 cells for this
#: many steps), and each step costs tens of microseconds of Python at
#: least, so a march this long already takes minutes.
MAX_STEPS = 1_000_000

_STEP_ERRORS = (NumericsError, DomainError, ZeroDivisionError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class NewtonConfig:
    tolerance: float = 1e-10
    max_iterations: int = 100

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ConfigError("newton.tolerance must be > 0")
        if self.max_iterations < 1:
            raise ConfigError("newton.max_iterations must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    t: float
    newton_iterations: int
    residual_norm: float
    converged: bool


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (n_times, dim)
    records: list
    completed: bool = True
    failure: str = None


class StepState:
    """What one step hands to the next of the same march.

    ``inverse`` is the frozen inverse of I - (h/2) J, built for step size
    ``h``; ``f`` is f at the last accepted iterate, i.e. the next step's
    f(t_n, y_n).
    """

    def __init__(self):
        self.inverse = None
        self.h = None
        self.f = None
        self.identity = None

    def rebuild(self, jac, t: float, y: np.ndarray, h: float) -> None:
        self.inverse = None  # drop the old inverse before building the new one
        A = -0.5 * h * np.asarray(jac(t, y), dtype=float)
        A.flat[::len(A) + 1] += 1.0
        if self.identity is None or len(self.identity) != len(A):
            self.identity = np.identity(len(A))
        self.inverse = np.linalg.solve(A, self.identity)
        self.h = h


def trapezoid_step(y_n: np.ndarray, t_n: float, h: float, f, jac,
                   cfg: NewtonConfig = NewtonConfig(), *, t1: float = None,
                   state: StepState = None):
    """Advance one implicit trapezoidal step; returns (y_{n+1}, StepRecord).

    ``t1`` is the stage time (default ``t_n + h``).  ``state`` is the
    StepState left by the step that accepted ``y_n``, or None; it is
    updated in place.
    """
    if h <= 0:
        raise ConfigError("step size must be > 0")
    y_n = np.asarray(y_n, dtype=float)
    t1 = t_n + h if t1 is None else t1
    state = StepState() if state is None else state
    if state.h != h:
        state.inverse = None
    updates, res, res_prev = 0, math.inf, None

    def failed(message):
        rec = StepRecord(t=t1, newton_iterations=updates, residual_norm=res,
                         converged=False)
        return StepFailure(message, record=rec)

    try:
        f_n = state.f if state.f is not None else np.array(f(t_n, y_n), dtype=float)
        y = y_n + h * f_n
    except _STEP_ERRORS as exc:
        raise failed(f"step failed at t={t1}: {exc}") from exc
    stale = state.inverse is not None
    restarted = False
    while True:
        try:
            f1 = np.asarray(f(t1, y), dtype=float)
            # g = (y - y_n) - (h/2) (f1 + f_n), rounded in that order
            g = y - y_n
            half_h_f = f1 + f_n
            half_h_f *= 0.5 * h
            g -= half_h_f
            res = float(np.abs(g).max())
            if res <= cfg.tolerance:
                state.f = f1.copy()
                return y, StepRecord(t=t1, newton_iterations=max(updates, 1),
                                     residual_norm=res, converged=True)
            if updates >= cfg.max_iterations:
                raise failed(f"Newton failed at t={t1}: residual {res:.3e} "
                             f"after {updates} iterations")
            if not math.isfinite(res):
                raise NumericsError(f"non-finite Newton residual after {updates} iterations")
            if res_prev is not None and res > THETA_MAX * res_prev:
                if stale and res >= res_prev:
                    raise NumericsError(f"Newton iteration diverged: residual {res:.3e}")
                state.rebuild(jac, t1, y, h)
                stale = False
            elif state.inverse is None:
                state.rebuild(jac, t1, y, h)
        except _STEP_ERRORS as exc:
            if restarted:
                what = ("singular Newton matrix" if isinstance(exc, np.linalg.LinAlgError)
                        else "step failed")
                raise failed(f"{what} at t={t1}: {exc}") from exc
            restarted, stale, res_prev = True, False, None
            state.inverse = None
            y = y_n.copy()
            continue
        y = y - state.inverse @ g
        res_prev = res
        updates += 1


def step_count(t_final: float, h: float) -> int:
    """Number of steps of size ``h`` that march [0, t_final].

    Raises ConfigError unless ``h`` is positive and divides ``t_final``,
    when a positive ``t_final`` is too short for one step, or when the
    march would take more than MAX_STEPS steps.
    """
    if not h > 0:
        raise ConfigError(f"step size must be > 0, got {h}")
    if t_final < 0:
        raise ConfigError("t_final must be >= 0")
    if t_final == 0:
        return 0
    ratio = t_final / h
    if not ratio < MAX_STEPS + 0.5:
        raise ConfigError(f"step size {h} gives {ratio:.3g} steps over t_final {t_final}, "
                          f"more than the {MAX_STEPS} allowed")
    n_steps = int(round(ratio))
    if n_steps == 0:
        raise ConfigError(f"t_final {t_final} is shorter than half the step size {h}")
    if abs(n_steps * h - t_final) > 1e-9 * max(1.0, t_final):
        raise ConfigError(f"step size {h} does not divide t_final {t_final}")
    return n_steps


def integrate(f, jac, y0: np.ndarray, t_final: float, h: float,
              cfg: NewtonConfig = NewtonConfig()) -> Trajectory:
    """Fixed-step march over [0, t_final]; aborts cleanly on step failure.

    Stage times come from the same ``times`` array the trajectory holds,
    so the last stage is exactly ``t_final``.
    """
    y0 = np.asarray(y0, dtype=float)
    n_steps = step_count(t_final, h)

    states = np.empty((n_steps + 1, len(y0)))
    states[0] = y0
    times = h * np.arange(n_steps + 1)
    times[-1] = t_final if n_steps else 0.0
    records = []
    state = StepState()
    for k in range(n_steps):
        try:
            y_new, rec = trapezoid_step(states[k], times[k], h, f, jac, cfg,
                                        t1=times[k + 1], state=state)
        except StepFailure as exc:
            return Trajectory(times=times[:k + 1], states=states[:k + 1],
                              records=records, completed=False, failure=str(exc))
        states[k + 1] = y_new
        records.append(rec)
    return Trajectory(times=times, states=states, records=records)

