"""Simulation configuration: dataclass plus a flat ``key = value`` file format.

The config file is plain text: one ``key = value`` pair per line, ``#``
starts a comment, blank lines are ignored.  Nested structure uses dotted
keys (``division.gamma = 200``), one per dataclass field; lambda follows
from ``division.beta`` and is not a key.  The bare names of the standard
model parameters (``mu1``, ``gamma``, ``tol``, ...) are accepted as
aliases for their dotted forms.  Values are finite decimal or
scientific-notation numbers (nan and inf are rejected); ``snapshot_times``
takes a comma-separated list; ``model``, ``distribution.kind`` and
``output_dir`` take strings.

An empty file yields the full default configuration: the standard
parameter set, 150 mass cells on [0.001, 0.999], h = 1/192 day, 20 days,
constant initial distribution with 1e6 cells/ml, and the calibrated
initial concentrations / sugar yields documented in the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .distributions import DistributionSpec
from .errors import ConfigError
from .grid import build_grid
from .integrator import NewtonConfig, step_count
from .kinetics import DivisionParams, KineticParams, TemperatureProfile
from .operator import check_n_quad

MODELS = ("ide", "ode")


@dataclass(frozen=True)
class InitialConcentrations:
    """Initial substrate/product concentrations in g/l.

    ``N0``, ``S0`` and ``O0`` are calibration choices (together with the
    sugar yields ``k2``/``k3``), selected by a grid search on the reduced
    ODE model so the default 20-day run lands near the reference final
    values.  See the README config reference.
    """

    N0: float = 0.40
    S0: float = 193.0
    O0: float = 0.012
    E0: float = 0.0

    def __post_init__(self):
        for name in ("N0", "S0", "O0", "E0"):
            if getattr(self, name) < 0:
                raise ConfigError(f"initial.{name} must be >= 0")


@dataclass(frozen=True)
class SimulationConfig:
    kinetic: KineticParams = field(default_factory=KineticParams)
    division: DivisionParams = field(default_factory=DivisionParams)
    profile: TemperatureProfile = field(default_factory=TemperatureProfile)
    m_min: float = 0.001
    m_max: float = 0.999
    n_cells: int = 150
    dt: float = 1.0 / 192.0
    t_final: float = 20.0
    distribution: DistributionSpec = field(default_factory=DistributionSpec)
    initial: InitialConcentrations = field(default_factory=InitialConcentrations)
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    n_quad: int = 30
    snapshot_times: tuple = (0.0, 5.0, 10.0, 15.0, 20.0)
    output_dir: str = "output"
    model: str = "ide"

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        build_grid(self.m_min, self.m_max, self.n_cells)
        if self.t_final <= 0:
            raise ConfigError("t_final must be > 0")
        step_count(self.t_final, self.dt)
        check_n_quad(self.n_quad)
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.t_final:
                raise ConfigError(
                    f"snapshot_times entry {t} outside [0, t_final={self.t_final}]")
        # Rate coefficients must stay nonnegative over the temperature range.
        self.kinetic.check_temperature_range(self.profile.T_low, self.profile.T_high)


def default_config() -> SimulationConfig:
    return SimulationConfig()


# ---------------------------------------------------------------------------
# key = value parsing
# ---------------------------------------------------------------------------

def _float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: expected a finite number, got {raw!r}")
    return value


def _int(key, raw):
    value = _float(key, raw)
    if value != int(value):
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}")
    return int(value)


def _string(key, raw):
    return raw


def _float_list(key, raw):
    return tuple(_float(key, part.strip()) for part in raw.split(",") if part.strip())


_PARSERS = {int: _int, str: _string, tuple: _float_list}


def _registry():
    """{dotted key: (section or None, field name, parser)} for every field of
    SimulationConfig and of its dataclass sections (``profile`` is keyed
    ``temperature``, the grid fields ``grid.``); the parser follows the
    type of the default value, numbers for float and None."""
    table = {}
    default = SimulationConfig()
    for f in fields(default):
        value = getattr(default, f.name)
        if is_dataclass(value):
            prefix = "temperature" if f.name == "profile" else f.name
            for g in fields(value):
                parser = _PARSERS.get(type(getattr(value, g.name)), _float)
                table[f"{prefix}.{g.name}"] = (f.name, g.name, parser)
        else:
            key = f"grid.{f.name}" if f.name in ("m_min", "m_max", "n_cells") else f.name
            table[key] = (None, f.name, _PARSERS.get(type(value), _float))
    return table


_TABLE = _registry()

# bare-name shortcuts for the standard parameter tables
_ALIASES = {f.name: f"kinetic.{f.name}" for f in fields(KineticParams)}
_ALIASES.update({
    "gamma": "division.gamma",
    "delta": "division.delta",
    "m_t": "division.m_t",
    "m_d": "division.m_d",
    "N0": "initial.N0",
    "S0": "initial.S0",
    "O0": "initial.O0",
    "E0": "initial.E0",
    "distribution": "distribution.kind",
    "total_cells": "distribution.total_cells",
    "cells": "grid.n_cells",
    "n_cells": "grid.n_cells",
})
# Table 2's beta is the partition-width parameter; the kinetic slopes are
# beta1/beta2, so the bare name is unambiguous.
_ALIASES["beta"] = "division.beta"


def _parse(key: str, raw: str, where: str = ""):
    """(canonical key, parsed value) of one ``key = value`` assignment."""
    canonical = _ALIASES.get(key, key)
    if canonical not in _TABLE:
        raise ConfigError(f"{where}unknown key {key!r}")
    return canonical, _TABLE[canonical][2](key, raw)


def parse_assignments(text: str) -> dict:
    """Parse flat ``key = value`` text into {canonical key: parsed value}."""
    parsed = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        canonical, value = _parse(key, raw, f"line {lineno}: ")
        parsed[canonical] = value
    return parsed


def _apply(config: SimulationConfig, layers: list) -> SimulationConfig:
    """``config`` with the assignment dicts of ``layers`` applied, later
    layers winning, and the ramp and snapshot rules applied once."""
    merged = {}
    for layer in layers:
        merged.update(layer)
    sections = {}
    top = {}
    for canonical, value in merged.items():
        section, name, _ = _TABLE[canonical]
        if section is None:
            top[name] = value
        else:
            sections.setdefault(section, {})[name] = value
    if "t_final" in top:
        tf = top["t_final"]
        # Without an explicit temperature key in any layer, keep the default
        # ramp window at [0.475, 0.525] of the horizon ...
        if "profile" not in sections:
            sections["profile"] = {"t_ramp_start": 0.475 * tf, "t_ramp_end": 0.525 * tf}
        # ... and drop snapshot times beyond the new horizon unless the layer
        # that sets t_final, or a later one, gives them.
        last = max(i for i, layer in enumerate(layers) if "t_final" in layer)
        if not any("snapshot_times" in layer for layer in layers[last:]):
            kept = tuple(t for t in top.get("snapshot_times", config.snapshot_times) if t <= tf)
            top["snapshot_times"] = kept or (tf,)
    try:
        kwargs = dict(top)
        for section, values in sections.items():
            kwargs[section] = replace(getattr(config, section), **values)
        return replace(config, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str = None, overrides: dict = None) -> SimulationConfig:
    """The default config, then the ``key = value`` file at ``path``, then
    ``overrides`` ({key: raw string}, e.g. command-line flags).  The layers
    are merged, later keys winning, and the result is validated once."""
    layers = []
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        layers.append(parse_assignments(text))
    if overrides:
        layers.append(dict(_parse(key, raw) for key, raw in overrides.items()))
    return _apply(default_config(), layers)
