"""Invariants of the reduction and the closed-form variance over random grids.

Permutation equivariance, quadratic sigma scaling, Laplacian
preservation, and the blockwise linearization and one-buffer factor
matching their dense references bit for bit, checked with hypothesis on
seeded random connected grids.
Examples are derandomized and bounded so the suite's time stays flat.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from conftest import dense_reference, random_connected_grid
from kronred.grid import Grid, assemble_linearized, build_jacobian, linearize, with_sigma
from kronred.reduction import factor_fast_block, reduce_grid
from kronred import simulate
from kronred.simulate import linearize_and_reduce
from kronred.variance import coi_variance, eigendecompose_reduced

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def grids(draw, max_buses=16):
    """Homogeneous random grid with at least two slow and one fast bus."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(3, max_buses))
    n_slow = draw(st.integers(2, n - 1))
    return random_connected_grid(np.random.default_rng(seed), n, n_slow=n_slow,
                                 homogeneous=True, sigma_range=(0.002, 0.02))


def analyze(grid):
    red = reduce_grid(grid, dense_reference(grid)[1])
    return red, coi_variance(red, eigendecompose_reduced(red.j_red))


@PROPERTY_SETTINGS
@given(grid=grids(), data=st.data())
def test_bus_permutation_permutes_reduction_and_variance(grid, data):
    order = data.draw(st.permutations(range(grid.n_buses)))
    permuted = Grid(buses=tuple(grid.buses[k] for k in order), lines=grid.lines)
    red, report = analyze(grid)
    red_p, report_p = analyze(permuted)

    pos_s = {bid: k for k, bid in enumerate(red.slow_ids)}
    pos_f = {bid: k for k, bid in enumerate(red.fast_ids)}
    s = [pos_s[bid] for bid in red_p.slow_ids]
    f = [pos_f[bid] for bid in red_p.fast_ids]
    scale = np.abs(red.j_red).max()
    assert np.abs(red_p.j_red - red.j_red[np.ix_(s, s)]).max() <= 1e-12 * scale
    assert np.abs(red_p.noise_gain - red.noise_gain[np.ix_(s, f)]).max() <= 1e-12
    np.testing.assert_allclose(report_p.var_total, report.var_total[s], rtol=1e-9)


@PROPERTY_SETTINGS
@given(grid=grids(), c=st.floats(0.1, 10.0))
def test_variance_scales_quadratically_with_sigma(grid, c):
    _, report = analyze(grid)
    _, scaled = analyze(with_sigma(grid, c * grid.param_vector("sigma")))
    np.testing.assert_allclose(scaled.var_total, c**2 * report.var_total, rtol=1e-12)


@PROPERTY_SETTINGS
@given(grid=grids(max_buses=30))
def test_reduction_preserves_laplacian(grid):
    red, _ = analyze(grid)
    j_red = red.j_red
    scale = np.abs(j_red).max()
    np.testing.assert_array_equal(j_red, j_red.T)
    assert np.abs(j_red.sum(axis=1)).max() <= 1e-10 * scale
    off_diagonal = j_red[~np.eye(red.n_slow, dtype=bool)]
    assert off_diagonal.min() >= -1e-12 * scale
    # every fast bus's noise reaches the slow buses in full: K's columns sum to 1
    np.testing.assert_allclose(red.noise_gain.sum(axis=0), 1.0, rtol=0, atol=1e-10)


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), data=st.data(),
       epsilon=st.floats(0.01, 1.0))
def test_pipeline_matches_dense_reference_bit_for_bit(seed, n, data, epsilon):
    # the blocks scattered from the edge list are build_jacobian's slices,
    # full-linear's dense Jacobian is its permutation, the one-buffer
    # factor is cho_factor's, and the reduction is the textbook
    # J_SS - J_SF W, K = -W^T; heterogeneous grids, slow and fast buses
    # interleaved, an empty fast set included
    n_slow = data.draw(st.integers(1, n))
    grid = random_connected_grid(np.random.default_rng(seed), n, n_slow=n_slow)
    op, red = linearize_and_reduce(grid)
    sys = linearize(grid, op)
    dense = build_jacobian(grid, op)
    ref = assemble_linearized(grid, dense, epsilon)
    for name in ("j_ss", "j_sf", "j_fs", "j_ff"):
        assert_same_bits(getattr(sys, name), getattr(ref, name))
    assert (sys.slow_ids, sys.fast_ids) == (ref.slow_ids, ref.fast_ids)
    order = grid.ordering()
    assert_same_bits(simulate._full_linear_system(grid, op, epsilon)[0],
                     dense[np.ix_(order, order)])
    if sys.n_fast == 0:
        assert factor_fast_block(sys.j_ff) is None
        return
    factor, lower = factor_fast_block(sys.j_ff)
    factor_ref, lower_ref = cho_factor(-ref.j_ff)
    assert lower == lower_ref and factor.flags.f_contiguous
    assert_same_bits(factor, factor_ref)
    w = -cho_solve((factor_ref, lower_ref), ref.j_fs)
    j_red = ref.j_ss - ref.j_sf @ w
    assert_same_bits(red.j_red, 0.5 * (j_red + j_red.T))
    assert_same_bits(red.noise_gain, -w.T)
