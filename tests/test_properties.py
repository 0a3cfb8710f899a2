"""Invariants of the reduction and the closed-form variance over random grids.

Permutation equivariance, quadratic sigma scaling, Laplacian
preservation, and the linearization's entries, the one-buffer factor and
the reduction matching their dense references bit for bit, checked with
hypothesis on seeded random connected grids and on hand-built edge cases.
Examples are derandomized and bounded so the suite's time stays flat.
"""

import re
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_bits, dense_reference, make_grid, random_connected_grid
from kronred.errors import NumericsError
from kronred.grid import (FAST, SLOW, Grid, assemble_linearized, build_jacobian, linearize,
                          solve_fixed_point, with_sigma)
from kronred.reduction import (_triangular_solve, factor_fast_block, make_star_grid,
                               reduce_grid, xi_covariance)
from kronred import simulate
from kronred.simulate import SimConfig, integrate, linearize_and_reduce
from kronred.variance import (coi_variance, eigendecompose_reduced, gamma_matrix,
                              lyapunov_oracle_variance)

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
    return red, coi_variance(red)


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
@given(grid=grids(), seed=st.integers(0, 2**32 - 1))
def test_uniform_damping_ratio_matches_oracle(grid, seed):
    # each slow bus's m and d scaled by its own draw, so d/m stays uniform
    # while m does not, and every bus's tau drawn from three values in
    # both classes: the closed form is the dense Lyapunov solve's value
    rng = np.random.default_rng(seed)
    buses = tuple(replace(bus, tau=float(tau), **({"m": bus.m * c, "d": bus.d * c}
                                                 if bus.speed_class == SLOW else {}))
                  for bus, c, tau in zip(grid.buses, rng.uniform(0.3, 3.0, grid.n_buses),
                                         rng.choice((0.05, 0.1, 0.3), grid.n_buses)))
    red, report = analyze(Grid(buses=buses, lines=grid.lines))
    np.testing.assert_allclose(report.var_total, lyapunov_oracle_variance(red), rtol=1e-6)


@PROPERTY_SETTINGS
@given(grid=grids(max_buses=30))
def test_reduction_preserves_laplacian(grid):
    red, _ = analyze(grid)
    j_red = red.j_red
    scale = np.abs(j_red).max()
    # J_red, Gamma and Sigma_xi are Gram products, exactly symmetric
    for sym in (j_red, gamma_matrix(red, eigendecompose_reduced(j_red, red.m_slow)[1]),
                xi_covariance(red)):
        np.testing.assert_array_equal(sym, sym.T)
    assert np.abs(j_red.sum(axis=1)).max() <= 1e-10 * scale
    off_diagonal = j_red[~np.eye(red.n_slow, dtype=bool)]
    assert off_diagonal.min() >= -1e-12 * scale
    # every fast bus's noise reaches the slow buses in full: K's columns sum to 1
    np.testing.assert_allclose(red.noise_gain.sum(axis=0), 1.0, rtol=0, atol=1e-10)


def dense_blocks(grid, op):
    """The dense Jacobian's slow/fast slices: J_SS, J_SF, J_FS, J_FF."""
    dense = build_jacobian(grid, op)
    order = grid.ordering()
    s, f = order[:len(grid.slow_ids)], order[len(grid.slow_ids):]
    return tuple(dense[np.ix_(r, c)] for r, c in ((s, s), (s, f), (f, s), (f, f)))


def dense_elimination_reference(grid, op):
    """The reduction by its own arithmetic on the dense Jacobian J in slot
    order: fast buses of current degree <= 3 taken off a queue in slot
    order and eliminated one at a time (J_ik += w_fi w_fk / p_f over each
    pair of neighbours, p_f = -J_ff), the core C that remains factored by
    L = np.linalg.cholesky(-J_CC), the blocked triangular solve
    Y = L^-1 J_CS on a Fortran-ordered J_CS, J_red = Y^T Y + J_SS (J_SS
    alone when C is empty), the core's rows of K^T the same solve's
    backward sweep L^-T Y,
    and each eliminated bus's row of K^T its slow neighbours' weights and
    then its fast neighbours' rows, weighted, in reverse elimination
    order.  Returns (records, core, L, J_red, K)."""
    order = grid.ordering()
    n_s, n = len(grid.slow_ids), grid.n_buses
    j = build_jacobian(grid, op)[np.ix_(order, order)]
    edge = (j != 0) | np.signbit(j)
    np.fill_diagonal(edge, False)
    queue, records, done = deque(range(n_s, n)), [], set()
    while queue:
        f = queue.popleft()
        nbrs = np.flatnonzero(edge[f]).tolist()
        if f in done or len(nbrs) > 3:
            continue
        p = -j[f, f]
        w = [j[f, i] for i in nbrs]
        for a, i in enumerate(nbrs):
            for b, k in enumerate(nbrs[a:], a):
                t = w[a] * w[b] / p
                j[i, k] += t
                if k != i:
                    j[k, i] += t
                    edge[i, k] = edge[k, i] = True
        edge[f] = edge[:, f] = False
        done.add(f)
        records.append((f, tuple((i, x / p) for i, x in zip(nbrs, w))))
        queue.extend(i for i in nbrs if i >= n_s and edge[i].sum() <= 3)
    core = [f for f in range(n_s, n) if f not in done]
    s = list(range(n_s))
    k_t = np.zeros((n - n_s, n_s))
    if core:
        factor = np.linalg.cholesky(-j[np.ix_(core, core)])
        y = _triangular_solve(factor, np.asfortranarray(j[np.ix_(core, s)]))
        j_red = y.T @ y + j[:n_s, :n_s]
        k_t[np.subtract(core, n_s)] = _triangular_solve(factor, y, transpose=True)
    else:
        factor, j_red = np.zeros((0, 0)), j[:n_s, :n_s].copy()
    for f, nbrs in records:
        for i, c in nbrs:
            if i < n_s:
                k_t[f - n_s, i] = c
    for f, nbrs in reversed(records):
        for i, c in nbrs:
            if i >= n_s:
                k_t[f - n_s] += c * k_t[i - n_s]
    return records, core, factor, j_red, k_t.T


def assert_reduction_is_the_dense_reference(grid, op, red):
    """``red``, and the reduction of ``assemble_linearized``'s entries,
    against ``dense_elimination_reference``, bit for bit, signed zeros
    included; and the elimination and the core factor of both against
    the reference's."""
    records, core, factor, j_red, k = dense_elimination_reference(grid, op)
    ref = assemble_linearized(grid, build_jacobian(grid, op), 1.0)
    for sys in (linearize(grid, op), ref):
        fast = factor_fast_block(sys)
        assert (fast.eliminated, fast.core) == (records, core)
        assert_same_bits(fast.factor, factor)
    for reduced in (red, reduce_grid(grid, ref)):
        assert_same_bits(reduced.j_red, j_red)
        assert_same_bits(reduced.noise_gain, k)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), data=st.data(),
       epsilon=st.floats(0.01, 1.0))
def test_pipeline_matches_dense_reference_bit_for_bit(seed, n, data, epsilon):
    # the blocks scattered from the entries are build_jacobian's slices, as
    # are those of assemble_linearized's entries, full-linear's dense
    # Jacobian is its permutation, J_SS is symmetric and J_SF is J_FS^T bit
    # for bit, and the elimination, the core factor (np.linalg.cholesky's)
    # and the reduction are those of the dense reference, from either
    # entries; heterogeneous grids, slow and fast buses interleaved, an
    # empty fast set included
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
    assert_same_bits(sys.j_ss, sys.j_ss.T)
    assert_same_bits(sys.j_sf, sys.j_fs.T)
    order = grid.ordering()
    assert_same_bits(simulate._full_linear_system(grid, op, epsilon)[0],
                     dense[np.ix_(order, order)])
    assert_reduction_is_the_dense_reference(grid, op, red)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 24), data=st.data(),
       model=st.sampled_from(["full-linear", "reduced-xi", "reduced-naive"]),
       epsilon=st.sampled_from([1.0, 0.3, 1e-3]))
def test_modal_steps_match_dense_steps(seed, n, data, model, epsilon):
    # a linear model with one damping ratio steps in its modes; its dense
    # maps step the same member within 1e-11 of each column's largest
    # value, and within 1e-8 at epsilon = 1e-3, where the fast modes are
    # stiff.  Unequal inertia at that one ratio, a start off the operating
    # point, several chunks
    rng = np.random.default_rng(seed)
    grid = random_connected_grid(rng, n, n_slow=data.draw(st.integers(2, n - 1)))
    grid = replace(grid, buses=tuple(replace(bus, m=bus.m * c, d=bus.d * c) for bus, c in
                                     zip(grid.buses, rng.uniform(0.5, 2.0, n))))
    op, red = linearize_and_reduce(grid)
    cfg = SimConfig(dt_max=0.01, t_end=3.0, burn_in=0.0, epsilon=epsilon)
    half = n if model == "full-linear" else red.n_slow
    noise = rng.normal(0.0, 0.1, (300, n))
    x0, v0 = rng.normal(0.0, 0.05, (2, half))
    assert simulate._layout(grid, red, [model], epsilon)[1] == (True,)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_BATCH_BYTES", 2**15)
        modal = integrate(grid, op, red, model, cfg, noise, x0=x0, v0=v0)
        patch.setattr(simulate, "_uniform_ratio", lambda m, d: None)
        dense = integrate(grid, op, red, model, cfg, noise, x0=x0, v0=v0)
    bound = 1e-8 if epsilon < 0.3 else 1e-11
    for name in ("x", "xdot", "y", "ydot"):
        got, want = getattr(modal, name), getattr(dense, name)
        if want is None:
            assert got is None
            continue
        assert np.all(np.abs(got - want) <= bound * np.abs(want).max(axis=0)), name


def test_reduction_matches_dense_reference_where_the_buffers_hold_zeros():
    # chain: fast buses 3 and 7 have no slow neighbour, and the fast
    # clusters {2, 3, 4} and {6, 7} each reach only some slow buses, so K
    # holds exact zeros, compared with their signs; all of them are
    # eliminated.  clusters: two complete graphs of five fast buses
    # (degree >= 4, so the core is every fast bus), each joined to one
    # slow bus, so J_CS, the solves and K hold exact zeros.  And a grid
    # with no fast bus (N_F = 0)
    p = [0.1, -0.05, 0.0, -0.05, 0.1, -0.05, -0.05]
    classes = [SLOW, FAST, FAST, FAST, SLOW, FAST, FAST]
    lines = [(1, 2, 1.0), (2, 3, 1.5), (3, 4, 0.7), (4, 5, 1.2), (5, 6, 0.9), (6, 7, 1.1)]
    chain = make_grid([(k + 1, cls, p[k]) for k, cls in enumerate(classes)], lines)
    all_slow = make_grid([(k + 1, SLOW, p[k]) for k in range(7)], lines)
    clique = [(a, b, 1.0 + 0.1 * (a + b)) for a in range(3, 8) for b in range(a + 1, 8)]
    clusters = make_grid(
        [(1, SLOW, 0.05), (2, SLOW, -0.05), *((k, FAST, 0.0) for k in range(3, 13))],
        [(1, 2, 1.0), (1, 3, 0.8), (2, 8, 1.3), *clique,
         *((a + 5, b + 5, w) for a, b, w in clique)])
    for grid, zeros, n_core in ((chain, 2, 0), (all_slow, 0, 0), (clusters, 10, 10)):
        op = solve_fixed_point(grid)
        red = reduce_grid(grid, linearize(grid, op))
        assert_reduction_is_the_dense_reference(grid, op, red)
        assert (red.noise_gain == 0).sum() == zeros  # e.g. bus 1 gets no noise from 6 and 7
        fast = factor_fast_block(linearize(grid, op))
        assert len(fast.core) == n_core


@st.composite
def elimination_grids(draw):
    """(family, grid, core size) over grids that walk every path of the
    elimination, with zero injections and couplings in [0.5, 2]:
    fast-bus chains hanging off a path of slow buses (leaves, then the
    buses they hung from: an empty core); fast buses of degree 2 whose
    two neighbours are already joined (the fill merges into the line
    between them); two slow buses joined only through chains of fast
    buses (their coupling in J_red is all fill); the star grids (an
    empty core, or the one fast centre of more than three buses); a
    complete graph of five or more fast buses (a core of every fast bus);
    and random grids, a few of each mixed."""
    family = draw(st.sampled_from(["leaf chains", "joined neighbours", "through fast",
                                   "star", "complete core", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 6))
    classes, lines = [], []

    def bus(cls):
        classes.append(cls)
        return len(classes)

    def line(a, b):
        lines.append((a, b, float(rng.uniform(0.5, 2.0))))

    if family == "star":
        center = SLOW if rng.random() < 0.5 else FAST
        return family, make_star_grid(size, center, b=float(rng.uniform(0.5, 2.0))), int(
            center == FAST and size > 3)
    if family == "random":
        n = size + 4 * int(rng.integers(1, 6))
        grid = random_connected_grid(rng, n, n_slow=int(rng.integers(1, n)))
        return family, grid, None
    if family == "leaf chains":
        slow = [bus(SLOW) for _ in range(int(rng.integers(1, 4)))]
        for a, b in zip(slow, slow[1:]):
            line(a, b)
        for _ in range(size):
            at = int(rng.integers(1, len(classes) + 1))
            for _ in range(int(rng.integers(1, 5))):
                new = bus(FAST)
                line(at, new)
                at = new
        n_core = 0
    elif family == "joined neighbours":
        line(bus(SLOW), bus(SLOW))
        for _ in range(size):
            a, b = lines[int(rng.integers(len(lines)))][:2]
            new = bus(FAST)
            line(a, new)
            line(b, new)
        n_core = 0
    elif family == "through fast":
        ends = bus(SLOW), bus(SLOW)
        for _ in range(size):
            at = ends[0]
            for _ in range(int(rng.integers(1, 4))):
                new = bus(FAST)
                line(at, new)
                at = new
            line(at, ends[1])
        n_core = 0
    else:  # complete core
        fast = [bus(FAST) for _ in range(size + 4)]
        for at, a in enumerate(fast):
            for b in fast[at + 1:]:
                line(a, b)
        for _ in range(int(rng.integers(1, 4))):
            line(bus(SLOW), int(rng.choice(fast)))
        n_core = len(fast)
    grid = make_grid([(k + 1, cls, 0.0) for k, cls in enumerate(classes)], lines)
    return family, grid, n_core


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=elimination_grids())
def test_elimination_matches_the_dense_schur_complement(case):
    # J_red = J_SS + J_SF W and K = W^T with W = -J_FF^-1 J_FS solved
    # densely, to 1e-12 of the largest |J| and |W| (J_red is 0 with one
    # slow bus); J_red exactly symmetric; and each family's core as built
    family, grid, n_core = case
    op = solve_fixed_point(grid)
    sys = linearize(grid, op)
    red = reduce_grid(grid, sys)
    j_ss, j_sf, j_fs, j_ff = dense_blocks(grid, op)
    w = np.linalg.solve(-j_ff, j_fs)
    j_red = j_ss + j_sf @ w
    assert np.abs(red.j_red - j_red).max() <= 1e-12 * np.abs(sys.diag).max()
    assert np.abs(red.noise_gain - w.T).max() <= 1e-12 * np.abs(w).max()
    np.testing.assert_array_equal(red.j_red, red.j_red.T)
    fast = factor_fast_block(sys)
    if n_core is not None:
        assert len(fast.core) == n_core, family
    if family == "through fast":
        assert red.j_red[0, 1] > 0.0 and sys.j_ss[0, 1] == 0.0


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
