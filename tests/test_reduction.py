"""Kron reduction: Schur complement, noise map, effective covariance."""

import tracemalloc
import weakref

import numpy as np
import pytest

import kronred.grid
import kronred.reduction
import kronred.simulate
from conftest import path3_grid, random_connected_grid, two_bus_grid
from kronred.errors import InputError, NumericsError
from kronred.grid import FAST, SLOW, LinearizedSystem, assemble_linearized, \
    build_jacobian, solve_fixed_point
from kronred.reduction import (factor_fast_block, make_star_grid, reduce_grid,
                               reduced_system_from_dict, reduced_system_to_dict)
from kronred.simulate import OUSpec, linearize_and_reduce, make_time_grid, ou_sample_path


def linearize(grid):
    op = solve_fixed_point(grid)
    return assemble_linearized(grid, build_jacobian(grid, op), 1.0)


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
        from conftest import make_grid
        g = make_grid([(1, SLOW, 0.0), (2, SLOW, 0.0), (3, SLOW, 0.0)],
                      [(1, 2, 1.0), (2, 3, 1.0)])
        _, red = reduce_pipeline(g)
        np.testing.assert_allclose(red.j_red, build_jacobian(g, solve_fixed_point(g)))
        assert red.noise_gain.shape == (3, 0)

    def test_indefinite_fast_block_reports_eigenvalue(self):
        sys = linearize(path3_grid())
        bad = LinearizedSystem(
            slow_ids=sys.slow_ids, fast_ids=sys.fast_ids, j_ss=sys.j_ss,
            j_sf=sys.j_sf, j_fs=sys.j_fs, j_ff=np.array([[0.5]]))
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
        factor_fast_block(sys.j_ff)
        assert calls == []
        # g = 1e6: the gate needs eigenvalues of -J_FF above 1e-6, and the
        # Cholesky's allowance adds about 1.3e-9 to its shift
        factor, _ = factor_fast_block(-np.diag([1e6, 1e-6 + 1e-10]))
        assert len(calls) == 1
        np.testing.assert_allclose(np.abs(np.diag(factor)), np.sqrt([1e6, 1e-6 + 1e-10]))
        with pytest.raises(NumericsError, match="not negative definite"):
            factor_fast_block(-np.diag([1e6, 0.999e-6]))
        assert len(calls) == 2


class TestMemory:
    def test_pipeline_holds_blocks_and_one_fast_buffer(self):
        # linearize_and_reduce holds the four Jacobian blocks (n^2 floats),
        # one N_F x N_F buffer for the certificate and the factor of -J_FF,
        # and a few N_F x N_S arrays (the solve, its products; here
        # N_S^2 <= N_F N_S); a dense n x n Jacobian beside the blocks, or a
        # second copy of -J_FF, exceeds it
        grid = random_connected_grid(np.random.default_rng(5), 800, n_slow=240)
        n, n_s = grid.n_buses, len(grid.slow_ids)
        n_f = n - n_s
        tracemalloc.start()
        try:
            linearize_and_reduce(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * n + n_f * n_f + 3 * n_f * n_s), peak

    @pytest.mark.parametrize("n_slow", [12, 40])
    def test_setup_keeps_no_linearization_alive(self, monkeypatch, n_slow):
        # the run setup is (op, red): the LinearizedSystem it reduced and
        # its four blocks are dead once linearize_and_reduce returns, a
        # grid without fast buses (J_red from J_SS alone) included
        refs = []
        linearize = kronred.simulate.linearize

        def recorded(*args):
            result = linearize(*args)
            refs.extend(weakref.ref(obj) for obj in (result, result.j_ss, result.j_sf,
                                                      result.j_fs, result.j_ff))
            return result
        monkeypatch.setattr(kronred.simulate, "linearize", recorded)
        setup = linearize_and_reduce(random_connected_grid(np.random.default_rng(5), 40,
                                                           n_slow=n_slow))
        assert len(setup) == 2 and len(refs) == 5
        alive = [name for name, ref in zip(("system", "j_ss", "j_sf", "j_fs", "j_ff"), refs)
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
        np.testing.assert_allclose(red.sigma_xi, 0.25 * np.ones((2, 2)), atol=1e-15)

    def test_no_fast_noise_means_diagonal(self):
        _, red = reduce_pipeline(path3_grid(sigma_slow=0.3, sigma_fast=0.0))
        np.testing.assert_allclose(red.sigma_xi, np.diag([0.09, 0.09]))
        assert red.sigma_xi[0, 1] == 0.0

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            grid = random_connected_grid(rng, int(rng.integers(3, 20)), homogeneous=True)
            _, red = reduce_pipeline(grid)
            eigs = np.linalg.eigvalsh(red.sigma_xi)
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
        rel = np.linalg.norm(emp - red.sigma_xi) / np.linalg.norm(red.sigma_xi)
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
        doc = reduced_system_to_dict(red)
        again = reduced_system_from_dict(doc)
        np.testing.assert_array_equal(again.j_red, red.j_red)
        np.testing.assert_array_equal(again.noise_gain, red.noise_gain)
        np.testing.assert_array_equal(again.sigma_xi, red.sigma_xi)
        assert again.slow_ids == red.slow_ids

    def test_missing_field_rejected(self):
        _, red = reduce_pipeline(path3_grid())
        doc = reduced_system_to_dict(red)
        del doc["j_red"]
        with pytest.raises(InputError, match="j_red"):
            reduced_system_from_dict(doc)
