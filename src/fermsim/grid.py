"""Uniform cell-mass mesh for the finite-volume discretization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

#: Most mass cells a grid may have: the full model's dense (C+4)^2 Jacobian,
#: its inverse and the kernel matrix K are each about 134 MB at this many.
MAX_CELLS = 4096


@dataclass(frozen=True)
class MassGrid:
    m_min: float
    m_max: float
    n_cells: int
    edges: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
    dm: float


def build_grid(m_min: float, m_max: float, n_cells: int) -> MassGrid:
    """Uniform mesh of ``n_cells`` (3 to MAX_CELLS) control volumes on [m_min, m_max]."""
    if n_cells < 3:
        raise ConfigError("grid.n_cells must be >= 3")
    if n_cells > MAX_CELLS:
        raise ConfigError(f"grid.n_cells {n_cells:.6g} is more than the {MAX_CELLS} allowed")
    if not m_max > m_min:
        raise ConfigError("grid.m_max must exceed grid.m_min")
    edges = np.linspace(m_min, m_max, n_cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dm = (m_max - m_min) / n_cells
    return MassGrid(m_min=m_min, m_max=m_max, n_cells=n_cells,
                    edges=edges, centers=centers, dm=dm)
