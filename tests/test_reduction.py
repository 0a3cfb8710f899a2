"""Kron reduction: Schur complement, noise map, effective covariance."""

import json
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import kronred.grid
import kronred.reduction
import kronred.simulate
from conftest import dense_reference, make_grid, path3_grid, random_connected_grid, two_bus_grid
from kronred.errors import InputError, NumericsError
from kronred.grid import FAST, SLOW, LinearizedSystem, build_jacobian, solve_fixed_point
from kronred.reduction import (factor_fast_block, make_star_grid, reduce_grid,
                               reduced_system_to_dict, xi_covariance)
from kronred.simulate import OUSpec, linearize_and_reduce, make_time_grid, ou_sample_path


def linearize(grid):
    return dense_reference(grid)[1]


def diagonal_fast_block(neg_diag):
    """A linearization whose every bus is fast, J_FF = -diag(neg_diag)."""
    none = np.zeros(0, dtype=np.intp)
    return LinearizedSystem(slow_ids=(), fast_ids=tuple(range(len(neg_diag))), rows=none,
                            cols=none, off=np.zeros(0), diag=-np.asarray(neg_diag, dtype=float))


def reduce_pipeline(grid):
    sys = linearize(grid)
    return sys, reduce_grid(grid, sys)


class TestSchurReduce:
    def test_two_bus_leaf_reduction(self):
        _, red = reduce_pipeline(two_bus_grid())
        np.testing.assert_allclose(red.j_red, [[0.0]], atol=1e-15)

    def test_path_hand_schur(self):
        # J_SS - J_SF J_FF^-1 J_FS = diag(-1,-1) - [1;1](-1/2)[1,1]
        _, red = reduce_pipeline(path3_grid())
        np.testing.assert_allclose(red.j_red, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-15)

    def test_star_load_center_rank_one_update(self):
        n = 5
        _, red = reduce_pipeline(make_star_grid(n, center_class=FAST))
        expected = -np.eye(n) + np.full((n, n), 1.0 / n)
        np.testing.assert_allclose(red.j_red, expected, atol=1e-14)

    def test_no_fast_buses_identity_reduction(self):
        grid = path3_grid()
        # all-slow version of the path
        g = make_grid([(1, SLOW, 0.0), (2, SLOW, 0.0), (3, SLOW, 0.0)],
                      [(1, 2, 1.0), (2, 3, 1.0)])
        _, red = reduce_pipeline(g)
        np.testing.assert_allclose(red.j_red, build_jacobian(g, solve_fixed_point(g)))
        assert red.noise_gain.shape == (3, 0)

    def test_blocks_of_the_linearization_are_not_written(self):
        # J_SS made asymmetric by one more entry: symmetrizing a block the
        # reduction was handed, rather than one it scattered itself, would
        # change the entries or the blocks read back from them
        all_slow = make_grid([(1, SLOW, 0.0), (2, SLOW, 0.0), (3, SLOW, 0.0)],
                             [(1, 2, 1.0), (2, 3, 1.0)])
        for grid in (path3_grid(), all_slow):
            sys = linearize(grid)
            sys = replace(sys, rows=np.append(sys.rows, 0),
                          cols=np.append(sys.cols, sys.n_slow - 1), off=np.append(sys.off, 0.25))
            assert (sys.j_ss[0, -1], sys.j_ss[-1, 0]) == (0.25, 0.0)
            names = ("rows", "cols", "off", "diag", "j_ss", "j_sf", "j_fs", "j_ff")
            before = [getattr(sys, name).tobytes() for name in names]
            reduce_grid(grid, sys)
            assert [getattr(sys, name).tobytes() for name in names] == before

    def test_indefinite_fast_block_reports_eigenvalue(self):
        sys = linearize(path3_grid())
        bad = LinearizedSystem(
            slow_ids=sys.slow_ids, fast_ids=sys.fast_ids, rows=sys.rows, cols=sys.cols,
            off=sys.off, diag=np.array([*sys.diag[:sys.n_slow], 0.5]))
        assert bad.j_ff.tolist() == [[0.5]]
        with pytest.raises(NumericsError, match=r"not negative definite.*5\.0"):
            reduce_grid(path3_grid(), bad)

    def test_linearization_of_another_grid_rejected(self):
        # the blocks come from the linearization, every per-bus parameter
        # from the grid: the two must name the same slow and fast buses
        with pytest.raises(InputError, match="does not belong to this grid"):
            reduce_grid(two_bus_grid(), linearize(path3_grid()))

    def test_definiteness_certified_without_eigenvalues(self, monkeypatch):
        # a grid's fast block passes on the shifted Cholesky alone; a margin
        # inside the Cholesky's error allowance goes to the eigenvalues, which
        # accept it above the gate and reject it below
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        sys = linearize(random_connected_grid(np.random.default_rng(2), 30))
        assert sys.n_fast > 1
        factor_fast_block(sys)
        assert calls == []
        # g = 1e6: the gate needs eigenvalues of -J_FF above 1e-6, and the
        # Cholesky's allowance adds about 1.3e-9 to its shift
        factor, _ = factor_fast_block(diagonal_fast_block([1e6, 1e-6 + 1e-10]))
        assert len(calls) == 1
        np.testing.assert_allclose(np.abs(np.diag(factor)), np.sqrt([1e6, 1e-6 + 1e-10]))
        with pytest.raises(NumericsError, match="not negative definite"):
            factor_fast_block(diagonal_fast_block([1e6, 0.999e-6]))
        assert len(calls) == 2


class TestMemory:
    def test_pipeline_holds_one_fast_buffer_and_the_solve(self):
        # linearize_and_reduce holds the Jacobian's entries (O(lines)), one
        # N_F x N_F buffer for the certificate and the factor of -J_FF, the
        # N_F x N_S solve, then J_SF and the N_S x N_S products; a dense
        # J_FF beside the buffer, or four dense blocks, exceeds it
        grid = random_connected_grid(np.random.default_rng(5), 800, n_slow=240)
        n_s = len(grid.slow_ids)
        n_f = grid.n_buses - n_s
        tracemalloc.start()
        try:
            linearize_and_reduce(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n_f * n_f + 2 * n_f * n_s + 4 * n_s * n_s) + 2**20, peak

    @pytest.mark.parametrize("n_slow", [12, 40])
    def test_setup_keeps_no_linearization_alive(self, monkeypatch, n_slow):
        # the run setup is (op, red): the LinearizedSystem it reduced and
        # its entries are dead once linearize_and_reduce returns, a
        # grid without fast buses (J_red from J_SS alone) included
        refs = []
        linearize = kronred.simulate.linearize

        def recorded(*args):
            result = linearize(*args)
            refs.extend(weakref.ref(obj) for obj in (result, result.rows, result.cols,
                                                      result.off, result.diag))
            return result
        monkeypatch.setattr(kronred.simulate, "linearize", recorded)
        setup = linearize_and_reduce(random_connected_grid(np.random.default_rng(5), 40,
                                                           n_slow=n_slow))
        assert len(setup) == 2 and len(refs) == 5
        alive = [name for name, ref in zip(("system", "rows", "cols", "off", "diag"), refs)
                 if ref() is not None]
        assert not alive, alive


class TestNoiseMap:
    def test_two_bus_full_inheritance(self):
        _, red = reduce_pipeline(two_bus_grid())
        np.testing.assert_allclose(red.noise_gain, [[1.0]])

    def test_path_half_half(self):
        _, red = reduce_pipeline(path3_grid())
        np.testing.assert_allclose(red.noise_gain, [[0.5], [0.5]])


class TestEffectiveNoiseCovariance:
    def test_path_fully_correlated(self):
        _, red = reduce_pipeline(path3_grid(sigma_slow=0.0, sigma_fast=1.0))
        np.testing.assert_allclose(xi_covariance(red), 0.25 * np.ones((2, 2)), atol=1e-15)

    def test_no_fast_noise_means_diagonal(self):
        _, red = reduce_pipeline(path3_grid(sigma_slow=0.3, sigma_fast=0.0))
        sigma_xi = xi_covariance(red)
        np.testing.assert_allclose(sigma_xi, np.diag([0.09, 0.09]))
        assert sigma_xi[0, 1] == 0.0

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            grid = random_connected_grid(rng, int(rng.integers(3, 20)), homogeneous=True)
            _, red = reduce_pipeline(grid)
            eigs = np.linalg.eigvalsh(xi_covariance(red))
            assert eigs.min() > -1e-12


class TestLaplacianPreservation:
    def test_reduced_laplacian_properties(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            grid = random_connected_grid(rng, int(rng.integers(3, 30)), homogeneous=True)
            _, red = reduce_pipeline(grid)
            j_red = red.j_red
            assert np.abs(j_red - j_red.T).max() < 1e-12
            assert np.abs(j_red.sum(axis=1)).max() < 1e-10
            eigs = np.sort(np.linalg.eigvalsh(j_red))[::-1]
            assert abs(eigs[0]) < 1e-10
            if len(eigs) > 1:
                assert np.all(eigs[1:] < 0)


class TestXiMonteCarlo:
    def test_sampled_xi_covariance_converges(self):
        # stationary OU snapshots of eta combined through K against Sigma_xi
        grid = path3_grid(sigma_slow=1.0, sigma_fast=1.0)
        _, red = reduce_pipeline(grid)
        n_samples = 100_000
        spec = OUSpec(sigma=np.concatenate([red.sigma_slow, red.sigma_fast]),
                      tau=np.concatenate([red.tau_slow, red.tau_fast]), seed=123)
        t = make_time_grid(t_end=n_samples * 0.05, dt_max=0.05)
        eta = ou_sample_path(spec, t)[:n_samples]
        xi = eta[:, :2] + eta[:, 2:] @ red.noise_gain.T
        emp = xi.T @ xi / n_samples
        sigma_xi = xi_covariance(red)
        rel = np.linalg.norm(emp - sigma_xi) / np.linalg.norm(sigma_xi)
        assert rel < 0.05


class TestMakeStarGrid:
    def test_center_fast_blocks(self):
        sys = linearize(make_star_grid(5, center_class=FAST))
        np.testing.assert_allclose(sys.j_ss, -np.eye(5))
        np.testing.assert_allclose(sys.j_ff, [[-5.0]])
        np.testing.assert_allclose(sys.j_sf, np.ones((5, 1)))

    def test_center_slow_blocks(self):
        sys = linearize(make_star_grid(5, center_class=SLOW))
        np.testing.assert_allclose(sys.j_ss, [[-5.0]])
        np.testing.assert_allclose(sys.j_ff, -np.eye(5))

    def test_degenerate_single_outer(self):
        grid = make_star_grid(1, center_class=SLOW)
        assert grid.n_buses == 2

    def test_above_bus_limit_refused_before_any_bus(self, monkeypatch):
        monkeypatch.setattr(kronred.grid, "MAX_BUSES", 8)
        monkeypatch.setattr(kronred.reduction, "Bus", None)  # building one fails
        with pytest.raises(InputError, match="9 buses, above the limit of 8"):
            make_star_grid(8, center_class=SLOW)

    def test_uniform_mode_noise_power_scales_with_loads(self):
        # generator center: u^T K diag(sigma^2) K^T u = sigma^2 N_F exactly
        sigma = 0.01
        for n_f in (4, 8, 16):
            sys, red = reduce_pipeline(make_star_grid(n_f, center_class=SLOW, sigma=sigma))
            u = np.ones(1)
            value = float(u @ (red.noise_gain * red.sigma_fast**2) @ red.noise_gain.T @ u)
            assert value == pytest.approx(sigma**2 * n_f, rel=1e-14)


class TestSerialization:
    def test_round_trip(self):
        _, red = reduce_pipeline(path3_grid(sigma_slow=0.2, sigma_fast=0.7))
        doc = json.loads(json.dumps(reduced_system_to_dict(red)))
        assert list(doc) == [f.name for f in fields(red)] + ["sigma_xi"]
        np.testing.assert_array_equal(doc["j_red"], red.j_red)
        np.testing.assert_array_equal(doc["noise_gain"], red.noise_gain)
        np.testing.assert_array_equal(doc["sigma_xi"], xi_covariance(red))
        assert doc["slow_ids"] == list(red.slow_ids)
