import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermsim import ConfigError, assemble_operator, build_grid
from fermsim.oracles import quadrature_oracle


def test_grid_geometry(grid150):
    assert grid150.n_cells == 150
    assert grid150.edges[0] == 0.001
    assert grid150.edges[-1] == 0.999
    assert grid150.dm == pytest.approx((0.999 - 0.001) / 150)
    assert np.allclose(grid150.centers,
                       0.5 * (grid150.edges[:-1] + grid150.edges[1:]))


@given(n=st.integers(min_value=3, max_value=400))
@settings(max_examples=25)
def test_grid_edges_cover_domain(n):
    grid = build_grid(0.001, 0.999, n)
    assert len(grid.edges) == n + 1
    assert np.all(np.diff(grid.edges) > 0)
    assert grid.edges[-1] == pytest.approx(0.999)


def test_grid_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        build_grid(0.001, 0.999, 2)
    with pytest.raises(ConfigError):
        build_grid(0.9, 0.1, 10)


def test_operator_shapes_and_signs(op150):
    C = op150.grid.n_cells
    assert op150.K.shape == (C, C)
    assert op150.gamma_int.shape == (C,)
    assert np.all(op150.K >= 0.0)
    assert np.all(op150.gamma_int >= 0.0)


def test_operator_columns_vanish_below_transition(op150, dp):
    # mothers at or below m_t never divide: zero kernel column and
    # zero division integral
    below = op150.grid.edges[1:] <= dp.m_t
    assert np.all(op150.K[:, below] == 0.0)
    assert np.all(op150.gamma_int[below] == 0.0)


def test_gamma_integrals_match_scalar_quadrature(op30, dp):
    from fermsim import division_rate
    grid = op30.grid
    for j in (0, 10, 20, 29):
        expected = quadrature_oracle(
            lambda m: float(division_rate(dp, np.asarray(m))),
            grid.edges[j], grid.edges[j + 1], op30.n_quad)
        assert op30.gamma_int[j] == pytest.approx(expected, abs=1e-12)


def test_kernel_entry_matches_scalar_double_quadrature(op30, dp):
    from fermsim import division_rate, partition
    grid = op30.grid
    q = op30.n_quad
    i, j = 12, 25  # daughter cell near m_t, dividing mother

    def inner(m):
        return quadrature_oracle(
            lambda mp: float(partition(dp, np.asarray(m), np.asarray(mp))
                             * division_rate(dp, np.asarray(mp))),
            grid.edges[j], grid.edges[j + 1], q)

    expected = quadrature_oracle(inner, grid.edges[i], grid.edges[i + 1], q)
    assert op30.K[i, j] == pytest.approx(expected, rel=1e-12)


def test_operator_rejects_tiny_quadrature(grid30, dp):
    with pytest.raises(ConfigError):
        assemble_operator(grid30, dp, 1)


def _reference_assembly(grid, d, n_quad):
    """Column-by-column assembly evaluating p at every node pair."""
    from fermsim import division_rate, partition
    from fermsim.operator import _cell_nodes_weights
    nodes, wq = _cell_nodes_weights(grid, n_quad)
    C = grid.n_cells
    gamma_nodes = division_rate(d, nodes)
    gamma_int = gamma_nodes @ wq
    m_flat = nodes.reshape(-1)
    K = np.empty((C, C))
    for j in range(C):
        pk = partition(d, m_flat[:, None], nodes[j][None, :])
        inner = pk @ (gamma_nodes[j] * wq)
        K[:, j] = inner.reshape(C, -1) @ wq
    return K, gamma_int


@pytest.mark.parametrize("grid_args, division, n_quad", [
    ((0.001, 0.999, 3), {}, 2),
    ((0.001, 0.999, 30), {}, 30),
    ((0.001, 0.999, 60), {}, 30),
    ((0.001, 0.999, 150), {}, 30),
    ((0.0, 1.0, 97), {"m_t": 0.2, "beta": 150.0}, 11),
    ((0.05, 2.0, 120), {"beta": 900.0}, 30),
], ids=["3cells_q2", "30cells", "60cells", "150cells", "97cells_q11", "120cells_lam"])
def test_structured_assembly_matches_reference(grid_args, division, n_quad):
    from fermsim import DivisionParams
    grid = build_grid(*grid_args)
    d = DivisionParams(**division)
    K_ref, gamma_ref = _reference_assembly(grid, d, n_quad)
    op = assemble_operator(grid, d, n_quad)
    scale = np.max(np.abs(K_ref))
    assert np.max(np.abs(op.K - K_ref)) <= 1e-13 * scale
    assert np.array_equal(op.K == 0.0, K_ref == 0.0)
    assert np.all(np.tril(op.K, -1) == 0.0)
    assert np.array_equal(op.gamma_int, gamma_ref)
    # the march reads A = (2K - diag gamma_int)/dm and the moment weights,
    # so tie them to the K checked above
    off = ~np.eye(grid.n_cells, dtype=bool)
    assert np.array_equal(op.A[off], (2.0 / grid.dm * op.K)[off])
    assert np.array_equal(op.A[off] == 0.0, op.K[off] == 0.0)
    diag = (2.0 * np.diag(op.K) - op.gamma_int) / grid.dm
    assert np.all(np.abs(np.diag(op.A) - diag) <= np.spacing(np.abs(diag)))
    assert op.moment_weights[0] == op.moment_weights[-1] == 0.0
    assert np.array_equal(op.moment_weights[1:-1], grid.centers[1:-1])
