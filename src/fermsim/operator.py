"""Precomputed division/partition kernel matrix and per-cell division integrals.

K[i, j] is the double integral of p(m, m') * Gamma(m') over cell_i x cell_j,
gamma_int[i] the integral of Gamma over cell_i; both via the composite
trapezoidal rule (tensor-product in the 2D case) on the nodes of
``_cell_nodes_weights``.

The march (:mod:`fermsim.system`) reads three arrays built here from them
and the grid: the division operator A = (2 K - diag gamma_int) / dm, the
upwind transport weights edges[1:C] / dm and the interior moment weights
(the centers, 0 at both ends).  Cells whose trapezoid nodes all lie at or
below m_t never divide, so A's columns before ``first``, the first cell
with a nonzero Gamma node, are exact zeros.  Only A's dividing columns
A[:, first:] are stored, as the contiguous ``block``; the full A is a
property built from it for tests and oracles.

The assembly never evaluates p node pair by node pair; that is what
:func:`fermsim.kinetics.partition` does, and the oracles and tests use it
as the reference.  Where m' > m and m' > m_t, p = lam * (E1(m) +
E2(m - m' + m_t)) with E1(x) = exp(-beta (x - m_t)^2) and E2(x) =
exp(-beta x^2).  Let g[j, b] = Gamma(m'_jb) * w_b (zero at and below m_t,
so the m' > m_t condition adds nothing) and e1[i] = sum_a w_a E1(m_ia).
On the uniform grid the E2 argument m_ia - m'_jb + m_t = m_t - k dm +
(a - b) dm / q depends on a node pair only through k = j - i and a - b,
so K comes from these node tables and two shift-invariant ones,

    G[k, a - b] = E2(m_t - k dm + (a - b) dm / q)   k < C, |a - b| <= q
    T[k, b] = sum_a w_a G[k, a - b]

(C (2q + 1) exponentials), region by region:

* i > j: every daughter node lies at or above every mother node, so
  p = 0 and K[i, j] = 0.  Cell i's last node is ``edges[i + 1]``, the
  same float as cell i+1's first node, so the strict m' > m test of p
  excludes the shared edge exactly.
* j >= i + 2: every mother node lies above every daughter node, so
  K[i, j] = lam * (e1[i] * gamma_int[j] + sum_b T[j - i, b] * g[j, b]),
  filled only in the dividing columns (g[j] not all zero).
* j = i: only the pairs with b > a count (m' > m inside one cell), so
  K[i, i] = lam * sum_b g[i, b] * sum_{a<b} w_a (E1(m_ia) + G[0, a - b]).
* j = i + 1: every pair counts but the shared edge node (a = q, b = 0),
  so K[i, i + 1] = lam * sum_b g[i + 1, b] * (e1[i] + T[1, b]) with the
  b = 0 term summed over a < q only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import MassGrid
from .kinetics import DivisionParams, division_rate

#: Most trapezoid subintervals per cell: assembly costs O(C q) exponentials
#: and O(C^2 q) multiply-adds, about 50 ms for 150 cells at this many (one
#: Xeon core), 1.5 ms at the default 30.
MAX_QUAD = 1000


@dataclass(frozen=True)
class DiscreteOperator:
    K: np.ndarray = field(repr=False)           # (C, C), mass/day
    gamma_int: np.ndarray = field(repr=False)   # (C,), mass/day
    block: np.ndarray = field(repr=False)       # A[:, first:], (C, C - first), 1/day
    transport: np.ndarray = field(repr=False)   # (C-1,), 1/mass
    moment_weights: np.ndarray = field(repr=False)  # (C,), mass
    grid: MassGrid
    n_quad: int
    first: int                                  # first dividing cell, C if none

    @property
    def A(self) -> np.ndarray:
        """The full (C, C) division operator: zeros, then ``block``."""
        A = np.zeros((self.grid.n_cells, self.grid.n_cells))
        A[:, self.first:] = self.block
        return A


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
    q, C, dm = n_quad, grid.n_cells, grid.dm
    lam = d.lam
    nodes, wq = _cell_nodes_weights(grid, q)

    gamma_nodes = division_rate(d, nodes)            # (C, q+1)
    gamma_int = gamma_nodes @ wq                     # (C,)
    lg = lam * wq * gamma_nodes                      # lam * g, (C, q+1)
    e1w = np.exp(-d.beta * (nodes - d.m_t) ** 2) * wq  # w_a E1(m_ia), (C, q+1)
    e1 = e1w.sum(axis=1)
    below = np.zeros_like(e1w)                       # sum_{a<b} w_a E1(m_ia)
    np.cumsum(e1w[:, :-1], axis=1, out=below[:, 1:])

    # G[k, a - b + q] and T[k, b] of the docstring; T is filled through a
    # reversed view so that Tr[C - 1 - k] = T[k] is contiguous for the columns
    shift = d.m_t + np.arange(-q, q + 1) * (dm / q)   # (2q+1,)
    G = np.exp(-d.beta * (shift - np.arange(C)[:, None] * dm) ** 2)  # (C, 2q+1)
    Tr = np.empty((C, q + 1))
    T = Tr[::-1]
    c0 = np.empty(q + 1)                             # sum_{a<b} w_a G[0, a - b]
    for b in range(q + 1):
        window = G[:, q - b:2 * q + 1 - b]           # a = 0 .. q
        T[:, b] = window @ wq
        c0[b] = window[0, :b] @ wq[:b]
    c1 = G[1, q:2 * q] @ wq[:q]                      # T[1, 0] over a < q

    diag = np.einsum("ib,ib->i", lg, below + c0)
    upper = (lg[1:, 1:] @ T[1, 1:] + e1[:-1] * lg[1:, 1:].sum(axis=1)
             + lg[1:, 0] * (below[:-1, q] + c1))    # K[i, i + 1]

    K = np.zeros((C, C))
    dividing = np.flatnonzero(gamma_nodes.any(axis=1))
    first = int(dividing[0]) if len(dividing) else C
    for j in dividing[dividing >= 2].tolist():       # rows i = 0 .. j-2, k = j .. 2
        K[:j - 1, j] = Tr[C - 1 - j:C - 2] @ lg[j] + e1[:j - 1] * (lam * gamma_int[j])
    np.fill_diagonal(K, diag)
    np.fill_diagonal(K[:, 1:], upper)
    block = np.multiply(2.0 / dm, K[:, first:])      # A[:, first:], a new contiguous array
    np.fill_diagonal(block[first:], (2.0 * diag[first:] - gamma_int[first:]) / dm)
    return DiscreteOperator(K=K, gamma_int=gamma_int, block=block,
                            transport=grid.edges[1:C] / dm,
                            moment_weights=np.pad(grid.centers[1:-1], 1), grid=grid,
                            n_quad=n_quad, first=first)
