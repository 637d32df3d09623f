"""Precomputed division/partition kernel matrix and per-cell division integrals.

K[i, j] is the double integral of p(m, m') * Gamma(m') over cell_i x cell_j,
gamma_int[i] the integral of Gamma over cell_i; both via the composite
trapezoidal rule (tensor-product in the 2D case) on the nodes of
``_cell_nodes_weights``.

The march (:mod:`fermsim.system`) reads three arrays built here from them
and the grid: A = (2 K - diag gamma_int) / dm, the upwind transport weights
edges[1:C] / dm and the interior moment weights (the centers, 0 at both ends).

The assembly uses the structure of the kernel instead of evaluating p at
every daughter node against every mother node.  With g[j, b] =
Gamma(m'_jb) * w_b (zero at and below m_t, so the m' > m_t condition of p
adds nothing), K splits into three regions:

* i > j: every daughter node lies at or above every mother node, so
  p = 0 and K[i, j] = 0.  Cell i's last node is ``edges[i + 1]``, the
  same float as cell i+1's first node, so the strict m' > m test of p
  excludes the shared edge exactly.
* j >= i + 2: every mother node lies above every daughter node, so
  p = lam * (E1(m) + E2(m - m' + m_t)) with E1(x) = exp(-beta (x - m_t)^2)
  and E2(x) = exp(-beta x^2), and

      K[i, j] = lam * (e1[i] * gamma_int[j] + sum_b T[j - i, b] * g[j, b])

  with e1[i] = sum_a w_a E1(m_ia).  On the uniform grid
  m_ia - m'_jb + m_t = m_t - k dm + (r_a - r_b) dm for k = j - i, so T is a
  (C, q+1) table and the region costs O(C q^2) exponentials plus one
  matrix-vector product per column.
* j in {i, i + 1}: the m' > m cut runs through these cell pairs, so p is
  evaluated directly on the same node arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import MassGrid
from .kinetics import DivisionParams, division_rate, partition

#: Most trapezoid subintervals per cell: assembly costs O(C q^2) exponentials,
#: about 7 s for 150 cells at this many (one Xeon core), 6 ms at the default 30.
MAX_QUAD = 1000


@dataclass(frozen=True)
class DiscreteOperator:
    K: np.ndarray = field(repr=False)           # (C, C), mass/day
    gamma_int: np.ndarray = field(repr=False)   # (C,), mass/day
    A: np.ndarray = field(repr=False)           # (C, C), 1/day
    transport: np.ndarray = field(repr=False)   # (C-1,), 1/mass
    moment_weights: np.ndarray = field(repr=False)  # (C,), mass
    grid: MassGrid
    n_quad: int


def _cell_nodes_weights(grid: MassGrid, n_quad: int):
    """Trapezoid nodes (C, n_quad+1) and weights (n_quad+1,) per cell."""
    rel = np.linspace(0.0, 1.0, n_quad + 1)
    nodes = grid.edges[:-1, None] + grid.dm * rel[None, :]
    nodes[:, -1] = grid.edges[1:]                     # shared edges are one float
    weights = np.full(n_quad + 1, grid.dm / n_quad)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return nodes, weights


def check_n_quad(n_quad: int) -> None:
    """Raise ConfigError unless 2 <= n_quad <= MAX_QUAD."""
    if n_quad < 2:
        raise ConfigError("n_quad must be >= 2")
    if n_quad > MAX_QUAD:
        raise ConfigError(f"n_quad {n_quad:.6g} is more than the {MAX_QUAD} allowed")


def assemble_operator(grid: MassGrid, d: DivisionParams, n_quad: int) -> DiscreteOperator:
    """Assemble the kernel matrix, division integrals and derived arrays on ``grid``."""
    check_n_quad(n_quad)
    lam = d.lam
    nodes, wq = _cell_nodes_weights(grid, n_quad)
    C = grid.n_cells
    rel = np.linspace(0.0, 1.0, n_quad + 1)
    k_dm = np.arange(C)[:, None] * grid.dm           # (C, 1), k dm for k = j - i

    gamma_nodes = division_rate(d, nodes)            # (C, q+1)
    gamma_int = gamma_nodes @ wq                     # (C,)
    g = gamma_nodes * wq                             # (C, q+1)
    e1 = np.exp(-d.beta * (nodes - d.m_t) ** 2) @ wq  # (C,)

    T = np.zeros((C, n_quad + 1))
    diag = np.zeros(C)
    upper = np.zeros(C - 1)                          # K[i, i + 1]
    for a in range(n_quad + 1):
        m = nodes[:, a:a + 1]                        # daughter node a of every cell
        shift = d.m_t + (rel[a] - rel) * grid.dm     # (q+1,)
        T += wq[a] * np.exp(-d.beta * (shift - k_dm) ** 2)
        diag += wq[a] * np.einsum("ib,ib->i", partition(d, m, nodes), g)
        upper += wq[a] * np.einsum("ib,ib->i", partition(d, m[:-1], nodes[1:]), g[1:])

    K = np.zeros((C, C))
    for j in range(2, C):                            # rows i = 0 .. j-2, k = j .. 2
        K[:j - 1, j] = lam * (e1[:j - 1] * gamma_int[j] + T[j:1:-1] @ g[j])
    np.fill_diagonal(K, diag)
    np.fill_diagonal(K[:, 1:], upper)
    A = np.multiply(2.0 / grid.dm, K)
    np.fill_diagonal(A, (2.0 * diag - gamma_int) / grid.dm)
    return DiscreteOperator(K=K, gamma_int=gamma_int, A=A, transport=grid.edges[1:C] / grid.dm,
                            moment_weights=np.pad(grid.centers[1:-1], 1), grid=grid, n_quad=n_quad)
