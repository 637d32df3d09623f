"""Implicit trapezoidal time stepping with a simplified Newton solve per step.

The stepper is generic: it works on plain numpy vectors given callables
f(t, y) and J(t, y).  The nonlinear equation per step is

    g(y) = y - y_n - h/2 * (f(t_{n+1}, y) + f(t_n, y_n)) = 0

solved to max|g| <= tolerance by simplified Newton (Hairer & Wanner,
*Solving ODEs II*, IV.8).  The iteration matrix I - (h/2) J is inverted
with numpy.linalg.solve, and the inverse M is applied as M.dot(g): the
same gemv as M @ g, bit for bit, without the matmul ufunc's dispatch.
M is frozen across iterations and across steps.  It is rebuilt at the
current iterate at the first step, when h changes, and whenever one
iteration shrinks max|g| by less than the factor THETA_MAX = 1e-2.
RADAU5 uses 1e-3 for small systems and Hairer & Wanner raise it (to
0.1, say) when a rebuild is costly; 1e-2 serves both models: the
population balance, whose rebuild is a dense O(C^3) inversion, and the
5-state reduced model, where it trades a few rebuilds for a few more
updates.  f at the accepted iterate is the next step's f(t_n, y_n).

Extrapolated predictor, never accepted uncorrected: each step starts
from y_n + (h/2)(5 f_n - 6 f_{n-1} + 4 f_{n-2} - f_{n-3}), the trapezoid
rule with f(t_{n+1}) extrapolated by the cubic through the last four
accepted values of f.  While that history fills (first step, after a
change of h, after a step that restarted) it uses the values it has:
explicit Euler, then Adams-Bashforth 2, then the quadratic.  The values
sit in a ring of four rows: an accepted step writes its f over the
oldest row and moves the head there, and the predictor is one product
of the ring with a precomputed weight row per (values held, head),
zero on rows not yet filled or dropped.  The extrapolation alone is
unstable on stiff modes (on a real mode its root leaves the unit disc
at h*lambda ~ -0.25 and is -2.9 at the division modes' h*lambda ~
-1.04), so a step never ends at it: a predictor that already meets the
tolerance is corrected once by the frozen inverse M, y -= M g, without
a new f call (Shampine 1980), and f there is carried
as f(y~) - (2/h)(M g - g), exact for f linear with the matrix's J since
(I - (h/2) J) M = I.  That step records 0 updates; the correction is
skipped only while no matrix has been built.  The stepper copies what f
returns before it keeps it and writes into no array that f or J returns,
so both may hand back one reused buffer.

A step whose iteration diverges with a matrix carried over from an earlier
step, reaches a non-finite residual (g holds y and f(y), so this is where
a non-finite state or rate is caught; J is only built at an iterate whose
residual was finite), hits a singular matrix or makes f or J raise
NumericsError, DomainError or ArithmeticError (a rate law on
Python floats that divides by zero or overflows) starts over once from
y_n with a matrix built there, the start of a full Newton iteration.  If
that fails as well, or max_iterations updates pass, the step raises
StepFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, NumericsError, StepFailure

#: Rebuild the iteration matrix when one iteration shrinks max|g| by
#: less than this factor; read at each step.
THETA_MAX = 1e-2

#: Most steps one march may take.  ``integrate`` holds every state of the
#: march, (n_steps + 1) x (C + 4) floats (1.2 GB at 150 cells for this
#: many steps), and each step costs tens of microseconds of Python at
#: least, so a march this long already takes minutes.
MAX_STEPS = 1_000_000

_STEP_ERRORS = (NumericsError, DomainError, ArithmeticError, np.linalg.LinAlgError)

_max = np.maximum.reduce

#: Rows of f values the predictor extrapolates through.
_RING = 4


def _ring_row(coeffs, head):
    """Weights ``coeffs`` on f_n, f_{n-1}, ... placed on the ring's rows
    when f_n is row ``head``; every other row gets weight 0."""
    row = np.zeros(_RING)
    row[(head - np.arange(len(coeffs))) % _RING] = coeffs
    return row


#: _WEIGHTS[filled - 1][head] weights the ring's rows for the predictor
#: y_{n+1} ~ y_n + (h/2) (weights . history): the trapezoid rule with
#: f(t_{n+1}) extrapolated by the polynomial through the ``filled`` newest
#: values of f (explicit Euler, AB2, the quadratic, the cubic).
_WEIGHTS = tuple(tuple(_ring_row(coeffs, head) for head in range(_RING))
                 for coeffs in ((2.0,), (3.0, -1.0), (4.0, -3.0, 1.0), (5.0, -6.0, 4.0, -1.0)))


@dataclass(frozen=True)
class NewtonConfig:
    tolerance: float = 1e-10
    max_iterations: int = 100

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ConfigError("newton.tolerance must be > 0")
        if self.max_iterations < 1:
            raise ConfigError("newton.max_iterations must be >= 1")


class StepRecord(NamedTuple):
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
    """One march: its fixed f, jac and cfg, and what each step hands to
    the next.

    ``h`` is the size of the last step; ``inverse`` is the frozen inverse
    of I - (h/2) J; ``history`` is a ring of 4 rows holding f at the last
    accepted iterates: row ``head`` is the next step's f(t_n, y_n), row
    head - 1 (mod 4) the f before it, and so on.  ``filled`` counts its
    valid rows, at most 4: 0 before the first step, 1 after a step that
    restarted, cut to 1 when h changes.  Rows dropped by a restart or a
    change of h stay in the ring with predictor weight 0 until they are
    overwritten.
    """

    def __init__(self, f, jac, cfg: NewtonConfig):
        self.f, self.jac, self.cfg = f, jac, cfg
        self.inverse = None
        self.h = None
        self.history = None
        self.head = 0
        self.filled = 0

    def rebuild(self, t: float, y: np.ndarray, h: float) -> None:
        self.inverse = None  # drop the old inverse before building the new one
        A = np.multiply(-0.5 * h, self.jac(t, y))  # a new array, not what jac returned
        A.flat[::len(A) + 1] += 1.0
        self.inverse = np.linalg.solve(A, np.identity(len(y)))


def _non_finite(y: np.ndarray, f1: np.ndarray) -> str:
    """Which of y and f(y) is non-finite, y first, and up to 8 of its indices."""
    for name, values in (("y", y), ("f(y)", f1)):
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            more = f" and {len(bad) - 8} more" if len(bad) > 8 else ""
            return f"{name} is non-finite at {bad[:8].tolist()}{more}"
    return "y and f(y) are finite"


def _failed(message: str, t1: float, updates: int, res: float) -> StepFailure:
    return StepFailure(message, record=StepRecord(t1, updates, res, False))


def trapezoid_step(y_n: np.ndarray, t_n: float, t1: float, h: float, state: StepState):
    """Advance one implicit trapezoidal step; returns (y_{n+1}, StepRecord).

    ``y_n`` is a float array, ``t1`` the stage time and ``h`` > 0 the
    step size.  ``state`` is the march's StepState, left by the step that
    accepted ``y_n``; it is updated in place.
    """
    f, cfg = state.f, state.cfg
    tolerance, max_iterations = cfg.tolerance, cfg.max_iterations
    if state.h != h:
        state.h, state.inverse, state.filled = h, None, min(state.filled, 1)
    updates, res, res_prev = 0, math.inf, None
    half_h = 0.5 * h
    try:
        if not state.filled:
            state.history = np.zeros((_RING, len(y_n)))
            state.history[0] = f(t_n, y_n)
            state.head, state.filled = 0, 1
        history, head, filled = state.history, state.head, state.filled
        f_n = history[head]
        y = _WEIGHTS[filled - 1][head].dot(history)
        y *= half_h
        y += y_n
    except _STEP_ERRORS as exc:
        raise _failed(f"step failed at t={t1}: {type(exc).__name__}: {exc}",
                      t1, updates, res) from exc
    inverse = state.inverse
    stale = inverse is not None
    restarted = False
    while True:
        try:
            f1 = np.asarray(f(t1, y), dtype=float)
            # g = (y - y_n) - (h/2) (f1 + f_n), rounded in that order
            g = y - y_n
            half_h_f = f1 + f_n
            half_h_f *= half_h
            g -= half_h_f
            # NaN if g holds one, as max would give
            res = _max(np.abs(g, out=half_h_f))
            if res <= tolerance:
                head = (head + 1) % _RING  # the oldest row, or one no weight reads
                state.head, state.filled = head, 1 if restarted else min(filled + 1, _RING)
                if updates == 0 and inverse is not None:
                    # correct the predictor once: y -= M g, f += (2/h)(g - M g)
                    correction = inverse.dot(g)
                    y -= correction
                    g -= correction
                    g /= half_h
                    np.add(f1, g, out=history[head])
                else:
                    history[head] = f1
                return y, StepRecord(t1, updates, res, True)
            if updates >= max_iterations:
                raise _failed(f"Newton failed at t={t1}: residual {res:.3e} "
                              f"after {updates} iterations", t1, updates, res)
            if not math.isfinite(res):
                raise NumericsError(f"non-finite Newton residual after {updates} "
                                    f"iterations: {_non_finite(y, f1)}")
            if res_prev is not None and res > THETA_MAX * res_prev:
                if stale and res >= res_prev:
                    raise NumericsError(f"Newton iteration diverged: residual {res:.3e}")
                # let go of the old inverse, so two are never held at once
                inverse, stale = None, False
            if inverse is None:
                state.rebuild(t1, y, h)
                inverse = state.inverse
        except _STEP_ERRORS as exc:
            if restarted:
                what = ("singular Newton matrix" if isinstance(exc, np.linalg.LinAlgError)
                        else "step failed")
                raise _failed(f"{what} at t={t1}: {type(exc).__name__}: {exc}",
                              t1, updates, res) from exc
            restarted, stale, res_prev = True, False, None
            state.inverse = inverse = None
            y = y_n.copy()
            continue
        y -= inverse.dot(g)  # y is this step's own array
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
    stage_times = times.tolist()
    records = []
    state = StepState(f, jac, cfg)
    y = y0
    for k in range(n_steps):
        try:
            y, rec = trapezoid_step(y, stage_times[k], stage_times[k + 1], h, state)
        except StepFailure as exc:
            return Trajectory(times=times[:k + 1], states=states[:k + 1],
                              records=records, completed=False, failure=str(exc))
        states[k + 1] = y
        records.append(rec)
    return Trajectory(times=times, states=states, records=records)

