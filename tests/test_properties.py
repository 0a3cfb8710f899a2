"""Invariants of the reduction and the closed-form variance over random grids.

Permutation equivariance, quadratic sigma scaling, Laplacian
preservation, and the linearization's entries, the one-buffer factor and
the reduction matching their dense references bit for bit, checked with
hypothesis on seeded random connected grids and on hand-built edge cases.
Examples are derandomized and bounded so the suite's time stays flat.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from conftest import dense_reference, make_grid, random_connected_grid
from kronred.errors import NumericsError
from kronred.grid import (FAST, SLOW, Grid, assemble_linearized, build_jacobian, linearize,
                          solve_fixed_point, with_sigma)
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


def dense_blocks(grid, op):
    """The dense Jacobian's slow/fast slices: J_SS, J_SF, J_FS, J_FF."""
    dense = build_jacobian(grid, op)
    order = grid.ordering()
    s, f = order[:len(grid.slow_ids)], order[len(grid.slow_ids):]
    return tuple(dense[np.ix_(r, c)] for r, c in ((s, s), (s, f), (f, s), (f, f)))


def assert_reduction_is_the_dense_reference(grid, op, red):
    """``red`` against the textbook reduction of the dense Jacobian's
    slices, W = cho_solve(cho_factor(-J_FF), J_FS) negated, J_red the
    symmetrized J_SS - J_SF W and K = -W^T, bit for bit, signed zeros
    included; the reduction of ``assemble_linearized``'s entries too."""
    j_ss, j_sf, j_fs, j_ff = dense_blocks(grid, op)
    if j_ff.size:
        w = -cho_solve(cho_factor(-j_ff), j_fs)
        j_red, k = j_ss - j_sf @ w, -w.T
    else:
        j_red, k = j_ss, np.zeros((len(j_ss), 0))
    for reduced in (red, reduce_grid(grid, assemble_linearized(grid, build_jacobian(grid, op),
                                                                1.0))):
        assert_same_bits(reduced.j_red, 0.5 * (j_red + j_red.T))
        assert_same_bits(reduced.noise_gain, k)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), data=st.data(),
       epsilon=st.floats(0.01, 1.0))
def test_pipeline_matches_dense_reference_bit_for_bit(seed, n, data, epsilon):
    # the blocks scattered from the entries are build_jacobian's slices, as
    # are those of assemble_linearized's entries, full-linear's dense
    # Jacobian is its permutation, the one-buffer factor is cho_factor's,
    # and the reduction is the textbook J_SS - J_SF W, K = -W^T;
    # heterogeneous grids, slow and fast buses interleaved, an empty fast
    # set included
    n_slow = data.draw(st.integers(1, n))
    grid = random_connected_grid(np.random.default_rng(seed), n, n_slow=n_slow)
    op, red = linearize_and_reduce(grid)
    sys = linearize(grid, op)
    dense = build_jacobian(grid, op)
    ref = assemble_linearized(grid, dense, epsilon)
    for name, block in zip(("j_ss", "j_sf", "j_fs", "j_ff"), dense_blocks(grid, op)):
        assert_same_bits(getattr(sys, name), block)
        assert_same_bits(getattr(ref, name), block)
    assert (sys.slow_ids, sys.fast_ids) == (ref.slow_ids, ref.fast_ids)
    order = grid.ordering()
    assert_same_bits(simulate._full_linear_system(grid, op, epsilon)[0],
                     dense[np.ix_(order, order)])
    assert_reduction_is_the_dense_reference(grid, op, red)
    if sys.n_fast == 0:
        assert factor_fast_block(sys) is None
        return
    factor, lower = factor_fast_block(sys)
    factor_ref, lower_ref = cho_factor(-ref.j_ff)
    assert lower == lower_ref and factor.flags.f_contiguous
    assert_same_bits(factor, factor_ref)


def test_reduction_matches_dense_reference_where_the_buffers_hold_zeros():
    # fast buses 3 and 7 have no slow neighbour, and the fast clusters
    # {2, 3, 4} and {6, 7} each reach only some slow buses, so J_FS, the
    # solve and K hold exact zeros, compared with their signs; and a grid
    # with no fast bus (N_F = 0)
    p = [0.1, -0.05, 0.0, -0.05, 0.1, -0.05, -0.05]
    classes = [SLOW, FAST, FAST, FAST, SLOW, FAST, FAST]
    lines = [(1, 2, 1.0), (2, 3, 1.5), (3, 4, 0.7), (4, 5, 1.2), (5, 6, 0.9), (6, 7, 1.1)]
    chain = make_grid([(k + 1, cls, p[k]) for k, cls in enumerate(classes)], lines)
    all_slow = make_grid([(k + 1, SLOW, p[k]) for k in range(7)], lines)
    for grid in (chain, all_slow):
        op = solve_fixed_point(grid)
        red = reduce_grid(grid, linearize(grid, op))
        assert_reduction_is_the_dense_reference(grid, op, red)
    op = solve_fixed_point(chain)
    k = reduce_grid(chain, linearize(chain, op)).noise_gain
    assert (k == 0).sum() == 2  # bus 1 gets no noise from buses 6 and 7


@pytest.mark.parametrize("weak, accepted", [(2e-6 + 1e-9, True), (1e-6, False)])
def test_failed_certificate_falls_back_to_the_reference_decision(monkeypatch, weak, accepted):
    # slow 1 -weak- fast 2 =1e6= fast 3 -weak- slow 4: -J_FF has eigenvalues
    # weak and 2e6 + weak, so the gate asks for weak above 2e-6 and the
    # shifted Cholesky for weak above about 2.0027e-6: both weights fail the
    # certificate, and the eigenvalues accept the first and reject the second
    grid = make_grid([(1, SLOW, 0.0), (2, FAST, 0.0), (3, FAST, 0.0), (4, SLOW, 0.0)],
                     [(1, 2, weak), (2, 3, 1e6), (3, 4, weak)])
    op = solve_fixed_point(grid)
    eigs = np.linalg.eigvalsh(dense_blocks(grid, op)[3])
    assert (eigs.max() < -1e-12 * max(1.0, float(np.abs(eigs).max()))) == accepted
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    sys = linearize(grid, op)
    if accepted:
        red = reduce_grid(grid, sys)
        assert len(calls) == 1
        assert_reduction_is_the_dense_reference(grid, op, red)
    else:
        message = f"fast block not negative definite: offending eigenvalue {eigs.max():.6e}"
        with pytest.raises(NumericsError, match=re.escape(message)):
            reduce_grid(grid, sys)
        assert len(calls) == 1
