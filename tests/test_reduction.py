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
from conftest import (assert_same_bits, dense_reference, make_grid, path3_grid,
                      random_connected_grid, ring_lattice_grid, two_bus_grid)
from kronred.errors import InputError, NumericsError
from kronred.grid import FAST, SLOW, LinearizedSystem, build_jacobian, solve_fixed_point
from kronred.reduction import (_SOLVE_ROWS, factor_fast_block, make_star_grid, reduce_grid,
                               reduced_system_to_dict, xi_covariance)
from kronred.simulate import OUSpec, linearize_and_reduce, make_time_grid, ou_sample_path


def linearize(grid):
    return dense_reference(grid)[1]


def diagonal_fast_block(neg_diag):
    """A linearization whose every bus is fast, J_FF = -diag(neg_diag)."""
    return LinearizedSystem(slow_ids=(), fast_ids=tuple(range(len(neg_diag))),
                            neighbours=tuple({} for _ in neg_diag),
                            diag=-np.asarray(neg_diag, dtype=float))


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

    def test_no_fast_bus_takes_the_general_path(self, monkeypatch):
        # nothing is eliminated and the core is empty; J_red is scattered
        # from the entries, as for every grid, and no block is read
        grid = make_grid([(1, SLOW, 0.0), (2, SLOW, 0.0), (3, SLOW, 0.0)],
                         [(1, 2, 1.0), (2, 3, 1.0)])
        sys = linearize(grid)
        fast = factor_fast_block(sys)
        assert (fast.eliminated, fast.core, fast.factor.shape) == ([], [], (0, 0))
        for name in ("j_ss", "j_sf", "j_fs", "j_ff"):
            monkeypatch.setattr(LinearizedSystem, name,
                                property(lambda self: pytest.fail("a block was read")))
        red = reduce_grid(grid, sys)
        np.testing.assert_allclose(red.j_red, build_jacobian(grid, solve_fixed_point(grid)))

    def test_blocks_of_the_linearization_are_not_written(self):
        # J_SS made asymmetric by one more neighbour: eliminating on the
        # rows the reduction was handed, adding to a block it was handed
        # rather than one it scattered itself, or returning it as J_red,
        # would change the rows (their repr shows a sign and the order of
        # the neighbours too) or the blocks read back from them
        all_slow = make_grid([(1, SLOW, 0.0), (2, SLOW, 0.0), (3, SLOW, 0.0)],
                             [(1, 2, 1.0), (2, 3, 1.0)])
        for grid in (path3_grid(), all_slow):
            sys = linearize(grid)
            neighbours = tuple(dict(row) for row in sys.neighbours)
            neighbours[0][sys.n_slow - 1] = 0.25
            sys = replace(sys, neighbours=neighbours)
            assert (sys.j_ss[0, -1], sys.j_ss[-1, 0]) == (0.25, 0.0)
            names = ("diag", "j_ss", "j_sf", "j_fs", "j_ff")
            def state():
                return [repr(sys.neighbours)] + [getattr(sys, name).tobytes() for name in names]
            before = state()
            reduce_grid(grid, sys)
            assert state() == before

    def test_blocked_solve_matches_dense_solve(self):
        # N_F = 300, every fast bus of degree >= 4, so none is eliminated
        # and the core is all of them: three diagonal blocks of the
        # substitutions, the last a partial one, so the updates of the
        # rows below and above run too; the factor is LAPACK's bit for
        # bit, and lower triangular with exact zeros
        grid = ring_lattice_grid(np.random.default_rng(7), 300, 120)
        sys = linearize(grid)
        reference = np.linalg.solve(-sys.j_ff, sys.j_fs)  # -W, of which K is the transpose
        k = reduce_grid(grid, sys).noise_gain
        assert np.abs(k.T - reference).max() <= 1e-12 * np.abs(reference).max()
        rhs = np.random.default_rng(8).standard_normal((300, 7))
        fast = factor_fast_block(sys)
        assert (fast.eliminated, fast.core) == ([], list(range(120, 420)))
        factor = fast.factor
        assert_same_bits(factor, np.linalg.cholesky(-sys.j_ff))
        assert not np.triu(factor, 1).any()
        half = kronred.reduction._triangular_solve(factor, np.asfortranarray(rhs))
        reference = np.linalg.solve(factor, rhs)  # Y = L^-1 b, pinned on its own
        assert np.abs(half - reference).max() <= 1e-12 * np.abs(reference).max()
        solved = kronred.reduction._triangular_solve(factor, half, transpose=True)
        reference = np.linalg.solve(-sys.j_ff, rhs)
        assert np.abs(solved - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_indefinite_fast_block_reports_eigenvalue(self):
        sys = linearize(path3_grid())
        bad = LinearizedSystem(
            slow_ids=sys.slow_ids, fast_ids=sys.fast_ids, neighbours=sys.neighbours,
            diag=np.array([*sys.diag[:sys.n_slow], 0.5]))
        assert bad.j_ff.tolist() == [[0.5]]
        with pytest.raises(NumericsError, match=r"not negative definite.*5\.0"):
            reduce_grid(path3_grid(), bad)

    def test_linearization_of_another_grid_rejected(self):
        # the blocks come from the linearization, every per-bus parameter
        # from the grid: the two must name the same slow and fast buses
        with pytest.raises(InputError, match="does not belong to this grid"):
            reduce_grid(two_bus_grid(), linearize(path3_grid()))

    def test_definiteness_certified_without_eigenvalues(self, monkeypatch):
        # a grid's fast block passes on the shifted elimination and core
        # factor alone; a margin inside their error allowance goes to the
        # eigenvalues, which accept it above the gate and reject it below
        calls, cores = [], []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: cores.append(len(a)) or cholesky(a))
        sys = linearize(random_connected_grid(np.random.default_rng(2), 30))
        assert sys.n_fast > 1
        fast = factor_fast_block(sys)
        assert calls == [] and cores == [len(fast.core)] * 2
        # g = 1e6: the gate needs eigenvalues of -J_FF above 1e-6, and the
        # allowance adds about 1.3e-9 to the shift.  Both buses have no
        # neighbour and are eliminated: the shifted pivot of the second is
        # <= 0, so no core is factored until the eigenvalues have accepted
        cores.clear()
        fast = factor_fast_block(diagonal_fast_block([1e6, 1e-6 + 1e-10]))
        assert len(calls) == 1 and cores == [0]
        assert fast.eliminated == [(0, ()), (1, ())] and fast.core == []
        np.testing.assert_allclose(fast.diag, [-1e6, -1e-6 - 1e-10], rtol=0)
        with pytest.raises(NumericsError, match="not negative definite"):
            factor_fast_block(diagonal_fast_block([1e6, 0.999e-6]))
        assert len(calls) == 2 and cores == [0]

    @pytest.mark.parametrize("margin, accepted", [(3e-12, True), (0.3e-12, False),
                                                  (-1e-3, False)])
    def test_certificate_fails_on_the_core_and_the_eigenvalues_decide(
            self, monkeypatch, margin, accepted):
        # N_F = 300, every fast bus of degree >= 4, so the core is all of
        # them, and no slow bus joined to the last 50; -J_FF shifted so its
        # smallest eigenvalue, which lives on those 50, is margin x its
        # largest: nothing is eliminated, so the shifted pass fails in the
        # one Cholesky factorization of the 300 x 300 core.
        # 3e-12 lies inside the allowance (about 2e-11 here) and above the
        # gate (1e-12), so the eigenvalues accept it and the unshifted
        # core is factored; 0.3e-12 is below the gate and -1e-3 is
        # indefinite
        outcomes = []
        cholesky = np.linalg.cholesky

        def recorded(a):
            try:
                factor = cholesky(a)
            except np.linalg.LinAlgError:
                outcomes.append((len(a), False))
                raise
            outcomes.append((len(a), True))
            return factor
        sys = linearize(ring_lattice_grid(np.random.default_rng(7), 300, 120, anchors=250))
        eigs = np.linalg.eigvalsh(-sys.j_ff)
        n_s, shift = sys.n_slow, eigs.min() - margin * eigs.max()
        weak = replace(sys, diag=np.concatenate([sys.diag[:n_s], sys.diag[n_s:] + shift]))
        monkeypatch.setattr(np.linalg, "cholesky", recorded)
        certificate = [(300, False)]
        if accepted:
            fast = factor_fast_block(weak)
            assert outcomes == certificate + [(300, True)]
            assert len(fast.core) == 300
            j_ff = weak.j_ff  # near singular: L is checked by its backward error
            assert np.abs(fast.factor @ fast.factor.T + j_ff).max() <= 1e-13 * np.abs(j_ff).max()
        else:
            with pytest.raises(NumericsError, match="not negative definite"):
                factor_fast_block(weak)
            assert outcomes == certificate

    @pytest.mark.parametrize("owner, failing", [(kronred.reduction, "_eliminate"),
                                                (np.linalg, "cholesky")],
                             ids=["_eliminate", "cholesky"])
    def test_breakdown_after_the_gate_accepts_is_a_numerics_error(self, monkeypatch, owner,
                                                                  failing):
        # the certificate passes, then the unshifted pass meets a pivot
        # <= 0 (_eliminate returns None) or its core factorization breaks
        # down: a NumericsError, not a LinAlgError
        original = getattr(owner, failing)
        calls = []

        def second_fails(*args):
            calls.append(failing)
            if len(calls) == 2:
                if failing == "_eliminate":
                    return None
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return original(*args)
        monkeypatch.setattr(owner, failing, second_fails)
        grid = ring_lattice_grid(np.random.default_rng(3), 12, 4)
        with pytest.raises(NumericsError, match="fast block not negative definite"):
            reduce_grid(grid, linearize(grid))
        assert len(calls) == 2


class TestMemory:
    def test_factor_holds_one_fast_buffer(self, monkeypatch):
        # np.linalg.cholesky runs once per pass, on the n_C x n_C buffer
        # -J_CC is scattered into, and every np.linalg.solve operand of the
        # reduction spans at most _SOLVE_ROWS rows or columns; the factor
        # stage holds that buffer, LAPACK's copy and the factor, beside
        # temporaries of _SOLVE_ROWS columns and the rows of the entries
        # (O(lines)), with no N_F x N_F array
        grid = random_connected_grid(np.random.default_rng(5), 1400, n_slow=400)
        operands = {"cholesky": [], "solve": []}
        for name, shapes in operands.items():
            def recorded(*args, _original=getattr(np.linalg, name), _shapes=shapes):
                _shapes.extend(np.shape(a) for a in args)
                return _original(*args)
            monkeypatch.setattr(np.linalg, name, recorded)
        linearize_and_reduce(grid)
        solves = operands["solve"]
        assert len(solves) > 10 and max(min(shape) for shape in solves) <= _SOLVE_ROWS
        monkeypatch.undo()
        sys = kronred.grid.linearize(grid, solve_fixed_point(grid))
        assert sys.n_fast == 1000
        tracemalloc.start()
        try:
            n_c = len(factor_fast_block(sys).core)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert operands["cholesky"] == [(n_c, n_c)] * 2
        assert 2 * _SOLVE_ROWS < n_c < 500  # three diagonal blocks
        assert peak <= 8 * (n_c * n_c + 4 * _SOLVE_ROWS * n_c) + 2**20, peak

    def test_pipeline_holds_one_fast_buffer_and_the_solve(self):
        # linearize_and_reduce holds the Jacobian's entries and their rows
        # (O(lines)), the n_C x n_C buffer of -J_CC that the factor is made
        # in, the n_C x N_S solve, K^T (N_F x N_S) and the N_S x N_S
        # products; an N_F x N_F array beside those exceeds it
        grid = random_connected_grid(np.random.default_rng(5), 800, n_slow=240)
        n_s = len(grid.slow_ids)
        n_f = grid.n_buses - n_s
        n_c = len(factor_fast_block(kronred.grid.linearize(grid, solve_fixed_point(grid))).core)
        tracemalloc.start()
        try:
            linearize_and_reduce(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * n_f * n_f > 2**20 + 8 * n_c * n_c
        assert peak <= 8 * (n_c * n_c + (n_f + n_c) * n_s + 4 * n_s * n_s) + 2**20, peak

    @pytest.mark.parametrize("n_slow", [12, 40])
    def test_setup_keeps_no_linearization_alive(self, monkeypatch, n_slow):
        # the run setup is (op, red): the LinearizedSystem it reduced, its
        # diagonal and its rows are dead once linearize_and_reduce returns,
        # a grid without fast buses (J_red from J_SS alone) included.  A
        # dict or tuple takes no weak reference, so each row is handed on
        # as a dict subclass that does; the tuple of rows holds every row,
        # so their deaths are its death too
        class Row(dict):
            pass

        refs = []
        linearize = kronred.simulate.linearize

        def recorded(*args):
            result = linearize(*args)
            result = replace(result, neighbours=tuple(Row(row) for row in result.neighbours))
            refs.extend(weakref.ref(obj) for obj in (result, result.diag, *result.neighbours))
            return result
        monkeypatch.setattr(kronred.simulate, "linearize", recorded)
        setup = linearize_and_reduce(random_connected_grid(np.random.default_rng(5), 40,
                                                           n_slow=n_slow))
        assert len(setup) == 2 and len(refs) == 2 + 40
        names = ["system", "diag"] + [f"row {i}" for i in range(40)]
        alive = [name for name, ref in zip(names, refs) if ref() is not None]
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
