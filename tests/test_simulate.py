"""OU sampling, integrators, ensemble statistics."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

import kronred.simulate as simulate
from conftest import dense_coupling, make_grid, path3_grid, random_connected_grid, two_bus_grid
from kronred.errors import InputError, NumericsError
from kronred.grid import SLOW, FAST, assemble_linearized, build_jacobian, solve_fixed_point
from kronred.reduction import reduce_grid
from kronred.simulate import (EnsembleStats, MemberBatch, OUSpec, SimConfig, Trajectory,
                              coi_frequency_variance_estimate, default_dt_max,
                              integrate_full_linear, integrate_full_nonlinear,
                              integrate_reduced, make_time_grid, ou_sample_path,
                              ou_spec_for_grid, run_ensemble, run_model_ensemble)
from kronred.variance import coi_variance, eigendecompose_reduced, gamma_matrix, \
    modal_trajectory


def reduced_of(grid, epsilon=1.0):
    op = solve_fixed_point(grid)
    sys = assemble_linearized(grid, build_jacobian(grid, op), epsilon)
    return op, sys, reduce_grid(grid, sys)


class TestOUSampling:
    def test_zero_sigma_zero_path(self):
        spec = OUSpec(sigma=[0.0, 0.0], tau=[0.1, 0.2], seed=1)
        path = ou_sample_path(spec, make_time_grid(10.0, 0.01))
        np.testing.assert_array_equal(path, 0.0)

    def test_stationary_variance(self):
        tau = 0.1
        spec = OUSpec(sigma=[1.0], tau=[tau], seed=2024)
        t = make_time_grid(200_000 * tau / 4, tau / 4)
        path = ou_sample_path(spec, t)[:, 0]
        assert path.var() == pytest.approx(1.0, rel=0.02)

    def test_autocorrelation_profile(self):
        tau, dt = 0.1, 0.025
        spec = OUSpec(sigma=[0.7], tau=[tau], seed=7)
        t = make_time_grid(200_000 * dt, dt)
        path = ou_sample_path(spec, t)[:, 0]
        n = len(path)
        var = path.var()
        for lag_steps in (1, 4, 8, 12):
            emp = np.mean(path[:n - lag_steps] * path[lag_steps:]) / var
            assert emp == pytest.approx(math.exp(-lag_steps * dt / tau), abs=0.02)

    def test_transition_matches_euler_maruyama_oracle(self):
        # fine-step EM over one coarse interval against the exact coefficients
        sigma, tau, dt = 0.8, 0.2, 0.05
        eta0 = 1.3
        rng = np.random.default_rng(99)
        n_paths, n_sub = 40_000, 200
        h = dt / n_sub
        eta = np.full(n_paths, eta0)
        for _ in range(n_sub):
            eta += -eta * h / tau + sigma * math.sqrt(2 * h / tau) * rng.standard_normal(n_paths)
        a = math.exp(-dt / tau)
        exact_mean = a * eta0
        exact_var = sigma**2 * (1 - a * a)
        assert eta.mean() == pytest.approx(exact_mean, abs=4 * eta.std() / math.sqrt(n_paths))
        assert eta.var() == pytest.approx(exact_var, rel=0.05)

    def test_deterministic_for_fixed_seed(self):
        spec = OUSpec(sigma=[1.0, 0.5], tau=[0.1, 0.3], seed=5)
        t = make_time_grid(1.0, 0.01)
        np.testing.assert_array_equal(ou_sample_path(spec, t), ou_sample_path(spec, t))

    def test_nonuniform_grid_rejected(self):
        spec = OUSpec(sigma=[1.0], tau=[0.1], seed=0)
        with pytest.raises(InputError, match="uniform"):
            ou_sample_path(spec, np.array([0.0, 0.1, 0.3]))

    def test_draw_order_and_recurrence(self):
        # initial state first, then all step innovations in row order
        spec = OUSpec(sigma=[1.0, 0.5, 2.0], tau=[0.1, 0.3, 0.05], seed=11)
        t = make_time_grid(2.0, 0.01)
        rng = np.random.default_rng(11)
        eta = spec.sigma * rng.standard_normal(3)
        z = rng.standard_normal((len(t) - 1, 3))
        a = np.exp(-(t[1] - t[0]) / spec.tau)
        b = spec.sigma * np.sqrt(1.0 - a * a)
        expected = [eta]
        for k in range(len(t) - 1):
            eta = a * eta + b * z[k]
            expected.append(eta)
        np.testing.assert_allclose(ou_sample_path(spec, t), np.array(expected),
                                   rtol=1e-13, atol=1e-15)

    @staticmethod
    def scalar_recurrence(sigma, tau, seed, t):
        """y = a*y + b*z in plain Python floats over the path's draws, with
        a and b from math."""
        dt = t[1] - t[0]
        rng = np.random.default_rng(seed)
        y0 = np.asarray(sigma) * rng.standard_normal(len(sigma))
        z = rng.standard_normal((len(t) - 1, len(sigma)))
        expected = np.empty((len(t), len(sigma)))
        for j in range(len(sigma)):
            a = math.exp(-dt / tau[j])
            b = sigma[j] * math.sqrt(1.0 - a * a)
            y = expected[0, j] = float(y0[j])
            for k in range(len(t) - 1):
                y = expected[k + 1, j] = a * y + b * float(z[k, j])
        return expected

    def test_bit_equal_to_scalar_recurrence(self):
        # exactness, not closeness
        sigma, tau = [1.0, 0.5, 0.0, 2.0], [0.1, 0.3, 0.1, 0.3]
        t = make_time_grid(5.0, 0.01)
        path = ou_sample_path(OUSpec(sigma=sigma, tau=tau, seed=13), t)
        assert np.array_equal(path, self.scalar_recurrence(sigma, tau, 13, t))
        assert not path[:, 2].any()

    @staticmethod
    def chunked_path(sigma, tau, seeds, dt, n_rows, rows):
        """The chunks of the ensemble runs' sampler, copied and joined."""
        chunks = simulate._ou_chunks(np.array(sigma), np.array(tau), seeds, dt, n_rows, rows)
        return np.concatenate([chunk.copy() for chunk in chunks])

    @pytest.mark.parametrize("offset", [-1, 0, 1, "multiple"])
    def test_chunked_path_bit_equal_at_chunk_boundaries(self, offset):
        # the ensemble runs sample in chunks of rows; a path that ends one
        # row short of, on, one row past, or on a later chunk boundary
        # equals the scalar recurrence all the same
        sigma, tau, rows = [1.0, 0.0, 2.0], [0.1, 0.3, 0.05], 7
        n_rows = 3 * rows if offset == "multiple" else rows + offset
        t = np.arange(n_rows) * 0.01
        path = self.chunked_path(sigma, tau, (17,), 0.01, n_rows, rows)
        assert np.array_equal(path, self.scalar_recurrence(sigma, tau, 17, t))

    def test_members_of_a_chunked_batch_are_their_own_paths(self):
        # member i of a batch fills columns i*C .. (i+1)*C - 1 with the path
        # of its own seed, bit for bit, across several chunks
        sigma, tau, seeds = [1.0, 0.0, 2.0], [0.1, 0.3, 0.05], (17, 2**63 + 5, 0)
        t = np.arange(23) * 0.01
        joined = self.chunked_path(sigma, tau, seeds, 0.01, len(t), 7)
        assert joined.shape == (23, 9)
        for i, seed in enumerate(seeds):
            alone = ou_sample_path(OUSpec(sigma=sigma, tau=tau, seed=seed), t)
            assert np.array_equal(joined[:, 3 * i:3 * i + 3], alone)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_is_input_error(self, seed):
        with pytest.raises(InputError, match="seed must be in"):
            OUSpec(sigma=[1.0], tau=[0.1], seed=seed)

    def test_peak_memory_is_one_path(self):
        # innovations are drawn into the path itself, not into a second array
        spec = OUSpec(sigma=np.full(10, 0.5), tau=np.full(10, 0.1), seed=3)
        t = make_time_grid(200.0, 0.01)
        tracemalloc.start()
        try:
            path = ou_sample_path(spec, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * path.nbytes


class TestTimeGrid:
    def test_step_bounded(self):
        t = make_time_grid(1.0, 0.03)
        assert np.diff(t).max() <= 0.03 + 1e-15
        assert t[0] == 0.0 and t[-1] == 1.0

    @pytest.mark.parametrize("t_end,dt", [(math.inf, 0.01), (200.0, 1e-300), (math.nan, 0.1)])
    def test_oversized_or_non_finite_refused(self, t_end, dt):
        with pytest.raises(InputError, match="steps"):
            make_time_grid(t_end, dt)

    @pytest.mark.parametrize("field", ["t_end", "dt_max", "burn_in"])
    def test_sim_config_rejects_non_finite(self, field):
        kwargs = dict(model="reduced-xi", dt_max=0.01, t_end=10.0, burn_in=1.0)
        kwargs[field] = math.inf
        with pytest.raises(InputError, match=f"{field} must be finite"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_sim_config_rejects_seed_out_of_range(self, seed):
        with pytest.raises(InputError, match="base_seed must be in"):
            SimConfig(model="reduced-xi", dt_max=0.01, t_end=1.0, burn_in=0.0, base_seed=seed)
        SimConfig(model="reduced-xi", dt_max=0.01, t_end=1.0, burn_in=0.0, base_seed=2**64 - 1)

    def test_sim_config_refuses_ensemble_over_step_budget(self):
        # 10 steps per trajectory, but 10^10 steps for the whole ensemble
        with pytest.raises(InputError, match="ensemble_size x steps"):
            SimConfig(model="reduced-xi", dt_max=0.001, t_end=0.01, burn_in=0.0,
                      ensemble_size=10**9)

    @pytest.mark.parametrize("model,width", [("full-nonlinear", 18), ("full-linear", 18),
                                             ("reduced-xi", 12), ("reduced-naive", 12)])
    def test_member_byte_budget(self, monkeypatch, model, width):
        # 9 buses, 6 slow, 1000 steps.  Every model's batch holds chunk
        # buffers of (rows + 20 padding rows) x members x (2 x 9 channels
        # + state width + 6 + 1) x 8 B, at least one member and one row.
        # `simulate` also keeps member 0's slow record, 1001 x 2 x 6 x 8 B.
        grid = random_connected_grid(np.random.default_rng(3), 9)
        op, sys, red = simulate.linearize_and_reduce(grid, 1.0)
        assert red.n_slow == 6 and simulate._PAD_ROWS == 20
        cfg = SimConfig(model=model, dt_max=0.01, t_end=10.0, burn_in=0.0)
        held = (1 + 20) * (2 * 9 + width + 6 + 1) * 8
        for keep_first, kept in ((False, 0), (True, 1001 * 2 * 6 * 8)):
            monkeypatch.setattr(simulate, "MAX_MEMBER_BYTES", held + kept)
            simulate.make_builder(grid, op, sys, red, cfg, keep_first=keep_first)
            monkeypatch.setattr(simulate, "MAX_MEMBER_BYTES", held + kept - 1)
            with pytest.raises(InputError, match="buffers, above the limit"):
                simulate.make_builder(grid, op, sys, red, cfg, keep_first=keep_first)

    @pytest.mark.parametrize("budget", [2**20, 2**30])
    def test_large_ensemble_split_into_batches_within_budget(self, monkeypatch, budget):
        # arithmetic only: 10^6 one-step members are never stepped here
        grid = random_connected_grid(np.random.default_rng(3), 9)
        op, sys, red = simulate.linearize_and_reduce(grid, 1.0)
        monkeypatch.setattr(simulate, "MAX_MEMBER_BYTES", budget)
        cfg = SimConfig(model="full-linear", dt_max=0.01, t_end=0.01, burn_in=0.0,
                        ensemble_size=10**6)
        _, batch = simulate.make_builder(grid, op, sys, red, cfg, keep_first=True)
        row_bytes = (2 * 9 + 18 + 6 + 1) * 8
        assert 1 < batch < cfg.ensemble_size
        assert (1 + 20) * batch * row_bytes + 2 * 2 * 6 * 8 <= min(budget, simulate._BATCH_BYTES)

    def test_batch_peak_memory_within_budgeted_bytes(self):
        # what make_builder counts bounds what a batch really allocates
        grid = random_connected_grid(np.random.default_rng(1), 40)
        cfg = SimConfig(model="full-linear", dt_max=0.01, t_end=20.0, burn_in=5.0,
                        ensemble_size=3, base_seed=2)
        op, sys, red = simulate.linearize_and_reduce(grid, cfg.epsilon)
        builder, batch = simulate.make_builder(grid, op, sys, red, cfg)
        row_bytes = simulate._row_bytes(2 * grid.n_buses, grid.n_buses, red.n_slow)
        rows = simulate._batch_shape(2000, cfg.ensemble_size, row_bytes, simulate._BATCH_BYTES)[1]
        tracemalloc.start()
        try:
            coi_frequency_variance_estimate(run_ensemble(builder, cfg, batch), cfg.burn_in)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch == 3 and rows < 2000
        assert peak <= (rows + simulate._PAD_ROWS) * batch * row_bytes

    def test_default_dt_caps_at_fast_relaxation(self):
        grid = two_bus_grid()
        assert default_dt_max(grid, 1.0) == pytest.approx(0.01)  # tau/10
        assert default_dt_max(grid, 1e-3) == pytest.approx(1e-3 * 4.0)  # eps * m/d


class TestFullNonlinear:
    def test_stays_at_fixed_point_without_noise(self):
        grid = two_bus_grid(p=0.5)
        op = solve_fixed_point(grid)
        cfg = SimConfig(model="full-nonlinear", dt_max=0.01, t_end=10.0, burn_in=0.0)
        traj = integrate_full_nonlinear(grid, op, cfg, np.zeros((1000, 2)))
        assert np.abs(traj.x).max() < 1e-9
        assert np.abs(traj.xdot).max() < 1e-9

    def test_perturbation_decays_with_monotone_energy(self):
        grid = two_bus_grid(p=0.3)
        op = solve_fixed_point(grid)
        cfg = SimConfig(model="full-nonlinear", dt_max=0.002, t_end=10.0, burn_in=0.0)
        traj = integrate_full_nonlinear(grid, op, cfg, np.zeros((5001, 2)),
                                        x0=np.array([0.05, -0.05]))
        # swing energy: kinetic + coupling potential - injection work
        m = grid.param_vector("m")
        p = grid.param_vector("p")
        b = dense_coupling(grid)
        theta = np.column_stack([traj.x, traj.y]) + op.theta[None, :]
        omega = np.column_stack([traj.xdot, traj.ydot])
        kin = 0.5 * (m * omega**2).sum(axis=1)
        diff = theta[:, :, None] - theta[:, None, :]
        pot = 0.5 * (b * (1 - np.cos(diff))).sum(axis=(1, 2)) - theta @ p
        energy = kin + pot
        assert np.all(np.diff(energy) <= 1e-9 * max(1.0, energy[0] - energy[-1]))
        assert np.abs(traj.x[-1]).max() < np.abs(traj.x[0]).max() * 0.6

    def test_matches_linear_model_for_small_noise(self):
        grid = path3_grid(sigma_slow=1.0, sigma_fast=1.0)  # scaled below
        op = solve_fixed_point(grid)
        sys = assemble_linearized(grid, build_jacobian(grid, op), 1.0)
        cfg = SimConfig(model="full-nonlinear", dt_max=0.01, t_end=20.0, burn_in=0.0)
        t = make_time_grid(cfg.t_end, cfg.dt_max)
        base = ou_sample_path(OUSpec(sigma=np.ones(3), tau=np.full(3, 0.1), seed=3), t)[:-1]
        errs = []
        for scale in (0.01, 0.001):
            noise = scale * base
            nl = integrate_full_nonlinear(grid, op, cfg, noise)
            lin = integrate_full_linear(sys, cfg, noise)
            num = np.abs(nl.x - lin.x).max()
            den = np.abs(lin.x).max()
            errs.append(num / den)
        assert errs[1] < 0.2 * errs[0]  # linearization error shrinks with amplitude

    def test_divergence_flagged(self):
        grid = two_bus_grid(p=0.0)
        op = solve_fixed_point(grid)
        cfg = SimConfig(model="full-nonlinear", dt_max=0.01, t_end=50.0, burn_in=0.0)
        shove = np.tile([5.0, -5.0], (5000, 1))  # far beyond the b=1 line capacity
        with pytest.raises(NumericsError, match="divergence|Newton"):
            integrate_full_nonlinear(grid, op, cfg, shove)


def theta_method_residuals(grid, op, cfg, noise, traj):
    """Per-step max-norm residual of the theta-method equation, recomputed
    from the returned states with a dense drift written out here."""
    order = grid.ordering()
    n_s = len(grid.slow_ids)
    b = dense_coupling(grid)[np.ix_(order, order)]
    p = grid.param_vector("p")[order]
    scale = np.where(np.arange(grid.n_buses) < n_s, 1.0, cfg.epsilon)
    m = grid.param_vector("m")[order] * scale
    d = grid.param_vector("d")[order] * scale
    ang = np.column_stack([traj.x, traj.y]) + op.theta[order][None, :]
    omega = np.column_stack([traj.xdot, traj.ydot])

    def drift(a, w):
        flow = (b[None, :, :] * np.sin(a[:, :, None] - a[:, None, :])).sum(axis=2)
        return w, (p - flow - d * w) / m

    dt = traj.t[1] - traj.t[0]
    th = cfg.theta
    va, vw = drift(ang, omega)
    res_ang = ang[1:] - ang[:-1] - dt * ((1 - th) * va[:-1] + th * va[1:])
    res_w = (omega[1:] - omega[:-1] - dt * ((1 - th) * vw[:-1] + th * vw[1:])
             - dt * noise / m)
    return np.maximum(np.abs(res_ang).max(axis=1), np.abs(res_w).max(axis=1))


class TestFullNonlinearStepper:
    # the cases with a large initial deviation drive the iterate far from
    # the operating point, where the chord matrix must be rebuilt
    @pytest.mark.parametrize("theta,seed,epsilon,deviation", [
        (0.5, 12, 0.1, 0.0), (1.0, 12, 0.1, 0.0), (0.5, 3, 0.05, 1.2), (1.0, 12, 0.1, 1.6)])
    def test_steps_solve_theta_method_equation(self, theta, seed, epsilon, deviation,
                                               monkeypatch):
        grid = random_connected_grid(np.random.default_rng(seed), 7, injection_scale=0.3)
        op = solve_fixed_point(grid)
        cfg = SimConfig(model="full-nonlinear", dt_max=0.01, t_end=3.0, burn_in=0.0,
                        epsilon=epsilon, theta=theta)
        n = grid.n_buses
        noise = np.random.default_rng(5).normal(0.0, 0.05, (300, n))
        x0 = deviation * np.cos(np.arange(n))
        builds = []
        jacobian = simulate._angle_jacobian

        def counting_jacobian(*args):
            builds.append(args)
            return jacobian(*args)

        monkeypatch.setattr(simulate, "_angle_jacobian", counting_jacobian)
        traj = integrate_full_nonlinear(grid, op, cfg, noise, x0=x0)
        assert theta_method_residuals(grid, op, cfg, noise, traj).max() <= 1e-10
        np.testing.assert_array_equal(traj.x[0], x0[:len(grid.slow_ids)])
        if deviation:
            assert len(builds) > 1

    def test_chunk_edges_leave_a_member_unchanged(self, monkeypatch):
        # chunks of 7 rows against one chunk: the state, its drift and the
        # chord matrix rebuilt far from the operating point carry over
        # every chunk edge
        grid = random_connected_grid(np.random.default_rng(3), 7, injection_scale=0.3)
        op = solve_fixed_point(grid)
        cfg = SimConfig(model="full-nonlinear", dt_max=0.01, t_end=3.0, burn_in=0.0,
                        epsilon=0.05)
        n, n_s = grid.n_buses, len(grid.slow_ids)
        noise = np.random.default_rng(5).normal(0.0, 0.05, (300, n))
        x0 = 1.2 * np.cos(np.arange(n))
        whole = integrate_full_nonlinear(grid, op, cfg, noise, x0=x0)
        assert simulate._batch_shape(300, 1, simulate._row_bytes(2 * n, n, n_s),
                                     simulate._BATCH_BYTES)[1] == 300
        builds = []
        jacobian = simulate._angle_jacobian

        def counting_jacobian(*args):
            builds.append(args)
            return jacobian(*args)

        monkeypatch.setattr(simulate, "_angle_jacobian", counting_jacobian)
        monkeypatch.setattr(simulate, "_BATCH_BYTES",
                            (7 + simulate._PAD_ROWS) * simulate._row_bytes(2 * n, n, n_s))
        chunked = integrate_full_nonlinear(grid, op, cfg, noise, x0=x0)
        assert len(builds) > 1
        for name in ("x", "xdot", "y", "ydot"):
            np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))

    def test_ensemble_bit_identical_for_fixed_seed(self):
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        cfg = SimConfig(model="full-nonlinear", dt_max=0.01, t_end=10.0, burn_in=2.0,
                        ensemble_size=2, base_seed=31)
        s1 = run_model_ensemble(grid, cfg)
        s2 = run_model_ensemble(grid, cfg)
        np.testing.assert_array_equal(s1.variance, s2.variance)
        np.testing.assert_array_equal(s1.stderr, s2.stderr)


class TestFullLinear:
    def test_zero_noise_zero_state(self):
        grid = path3_grid()
        _, sys, _ = reduced_of(grid)
        cfg = SimConfig(model="full-linear", dt_max=0.01, t_end=5.0, burn_in=0.0)
        traj = integrate_full_linear(sys, cfg, np.zeros((500, 3)))
        np.testing.assert_array_equal(traj.x, 0.0)
        np.testing.assert_array_equal(traj.y, 0.0)

    def test_sinusoidal_forcing_matches_transfer_function(self):
        grid = path3_grid()
        _, sys, _ = reduced_of(grid)
        omega = 2.0
        dt, t_end = 0.005, 100.0
        cfg = SimConfig(model="full-linear", dt_max=dt, t_end=t_end, burn_in=0.0)
        t = make_time_grid(t_end, dt)
        noise = np.zeros((len(t) - 1, 3))
        noise[:, 2] = np.sin(omega * t[:-1])  # drive the fast bus

        traj = integrate_full_linear(sys, cfg, noise)
        window = t >= 70.0  # transient decays as e^{-gamma t/2}, gamma/2 = 0.125
        # constant column absorbs the startup offset of the uniform angle mode
        basis_fit = np.column_stack([np.sin(omega * t[window]), np.cos(omega * t[window]),
                                     np.ones(window.sum())])
        amp_sim = []
        for i in range(2):
            coef, *_ = np.linalg.lstsq(basis_fit, traj.x[window, i], rcond=None)
            amp_sim.append(np.hypot(coef[0], coef[1]))

        # frequency-domain solve of the full linearized system
        jac = np.block([[sys.j_ss, sys.j_sf], [sys.j_fs, sys.j_ff]])
        m_eff = np.concatenate([sys.m_slow, sys.epsilon * sys.m_fast])
        d_eff = np.concatenate([sys.d_slow, sys.epsilon * sys.d_fast])
        lhs = -omega**2 * np.diag(m_eff) + 1j * omega * np.diag(d_eff) - jac
        response = np.linalg.solve(lhs, np.array([0.0, 0.0, 1.0]))
        amp_exact = np.abs(response[:2])
        np.testing.assert_allclose(amp_sim, amp_exact, rtol=2e-3)


class TestLinearRecord:
    """Both linear models step one state record in place."""

    @staticmethod
    def linear_model(model, sys, red, epsilon):
        if model == "full-linear":
            jac = np.block([[sys.j_ss, sys.j_sf], [sys.j_fs, sys.j_ff]])
            m = np.concatenate([sys.m_slow, epsilon * sys.m_fast])
            d = np.concatenate([sys.d_slow, epsilon * sys.d_fast])
            return jac, m, d, np.eye(len(m))
        k = np.zeros_like(red.noise_gain) if model == "reduced-naive" else red.noise_gain
        return red.j_red, red.m_slow, red.d_slow, np.hstack([np.eye(red.n_slow), k])

    @pytest.mark.parametrize("model", ["full-linear", "reduced-xi", "reduced-naive"])
    def test_states_equal_step_recurrence(self, model):
        grid = random_connected_grid(np.random.default_rng(4), 9)
        _, sys, red = reduced_of(grid, 0.3)
        cfg = SimConfig(model=model, dt_max=0.01, t_end=3.0, burn_in=0.0, epsilon=0.3)
        t = make_time_grid(cfg.t_end, cfg.dt_max)
        noise = np.random.default_rng(8).normal(0.0, 0.1, (len(t) - 1, grid.n_buses))
        integrate = integrate_full_linear if model == "full-linear" else integrate_reduced
        traj = integrate(sys if model == "full-linear" else red, cfg, noise)

        jac, m, d, gain = self.linear_model(model, sys, red, cfg.epsilon)
        n, n_s = len(m), red.n_slow
        b = np.zeros((2 * n, gain.shape[1]))
        b[n:] = gain / m[:, None]
        step, g = simulate._linear_step_maps(simulate._second_order_matrix(jac, m, d), b,
                                             t[1] - t[0], cfg.theta)
        # the batched loop's arithmetic for one member: one forcing product
        # over the chunk (here the whole path), then per step the row
        # (1, width) times step.T, added to the step's forcing
        forced = noise @ g.T
        state = np.zeros((1, 2 * n))
        states = [state]
        for k in range(len(t) - 1):
            state = forced[k] + np.dot(state, step.T)
            states.append(state)
        states = np.concatenate(states)
        np.testing.assert_array_equal(traj.x, states[:, :n_s])
        np.testing.assert_array_equal(traj.xdot, states[:, n:n + n_s])
        if model == "full-linear":
            np.testing.assert_array_equal(traj.y, states[:, n_s:n])
            np.testing.assert_array_equal(traj.ydot, states[:, n + n_s:])
        else:
            assert traj.y is None and traj.ydot is None

    @pytest.mark.parametrize("model,bound", [("full-linear", 2.0), ("reduced-xi", 2.5)])
    def test_peak_memory_of_one_trajectory(self, model, bound):
        # noise path plus one record: the state is not also kept in
        # forcing and per-half position/velocity buffers
        grid = random_connected_grid(np.random.default_rng(1), 40)
        _, sys, red = reduced_of(grid)
        assert red.n_slow == 20
        cfg = SimConfig(model=model, dt_max=0.01, t_end=200.0, burn_in=0.0)
        noise = ou_spec_for_grid(grid, seed=2)
        integrate = integrate_full_linear if model == "full-linear" else integrate_reduced
        tracemalloc.start()
        try:
            traj = integrate(sys if model == "full-linear" else red, cfg, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dim = 2 * grid.n_buses if model == "full-linear" else 2 * red.n_slow
        record_bytes = len(traj.t) * dim * 8
        assert peak <= bound * record_bytes


class TestIntegrateReduced:
    def test_naive_with_zero_slow_noise_is_identically_zero(self):
        grid = path3_grid(sigma_slow=0.0, sigma_fast=1.0)
        _, _, red = reduced_of(grid)
        cfg = SimConfig(model="reduced-naive", dt_max=0.01, t_end=5.0, burn_in=0.0)
        traj = integrate_reduced(red, cfg, ou_spec_for_grid(grid, 4))
        np.testing.assert_array_equal(traj.x, 0.0)

    def test_xi_mode_carries_fast_noise(self):
        grid = path3_grid(sigma_slow=0.0, sigma_fast=1.0)
        _, _, red = reduced_of(grid)
        cfg = SimConfig(model="reduced-xi", dt_max=0.01, t_end=5.0, burn_in=0.0)
        traj = integrate_reduced(red, cfg, ou_spec_for_grid(grid, 4))
        assert np.abs(traj.xdot).max() > 0

    def test_spec_and_array_noise_agree(self):
        grid = path3_grid(sigma_slow=0.3, sigma_fast=1.0)
        _, _, red = reduced_of(grid)
        cfg = SimConfig(model="reduced-xi", dt_max=0.01, t_end=2.0, burn_in=0.0)
        spec = ou_spec_for_grid(grid, 11)
        t = make_time_grid(cfg.t_end, cfg.dt_max)
        path = ou_sample_path(spec, t)[:-1]
        a = integrate_reduced(red, cfg, spec)
        b = integrate_reduced(red, cfg, path)
        np.testing.assert_array_equal(a.x, b.x)

    def test_converges_to_modal_trajectory_as_dt_shrinks(self):
        grid = path3_grid(sigma_slow=0.4, sigma_fast=0.8)
        _, _, red = reduced_of(grid)
        basis = eigendecompose_reduced(red.j_red)
        coarse_dt = 0.02
        t_coarse = make_time_grid(8.0, coarse_dt)
        rng = np.random.default_rng(21)
        xi_coarse = rng.normal(0.0, 0.3, (len(t_coarse) - 1, 2))

        exact = modal_trajectory(red, basis, xi_coarse, t_coarse)
        exact_x = exact.x - exact.x.mean(axis=1, keepdims=True)

        errors = []
        for refine in (1, 2):
            dt = coarse_dt / refine
            t = make_time_grid(8.0, dt)
            xi = np.repeat(xi_coarse, refine, axis=0)
            noise = np.hstack([xi, np.zeros((len(xi), 1))])  # fast channel silent
            cfg = SimConfig(model="reduced-xi", dt_max=dt, t_end=8.0, burn_in=0.0)
            traj = integrate_reduced(red, cfg, noise)
            x = traj.x[::refine] - traj.x[::refine].mean(axis=1, keepdims=True)
            errors.append(np.abs(x - exact_x).max())
        assert errors[1] <= 0.55 * errors[0]


class TestCoiEstimate:
    def test_uniform_drift_gives_zero(self):
        t = make_time_grid(1.0, 0.1)
        xdot = np.tile(np.linspace(0, 1, len(t))[:, None], (1, 3))
        traj = Trajectory(t=t, x=np.zeros_like(xdot), xdot=xdot)
        stats = coi_frequency_variance_estimate([traj], burn_in=0.0)
        assert np.all(stats.variance < 1e-30)  # exact up to mean-subtraction roundoff

    def test_single_bus_identically_zero(self):
        t = make_time_grid(1.0, 0.1)
        xdot = np.random.default_rng(1).normal(size=(len(t), 1))
        traj = Trajectory(t=t, x=np.zeros_like(xdot), xdot=xdot)
        stats = coi_frequency_variance_estimate([traj], burn_in=0.0)
        np.testing.assert_array_equal(stats.variance, 0.0)

    def test_iid_normal_projection_identity(self):
        # COI projection of iid N(0, v) frequencies has variance v (N-1)/N
        rng = np.random.default_rng(8)
        v, n_bus = 2.5, 4
        t = make_time_grid(2000.0, 0.1)
        xdot = rng.normal(0.0, math.sqrt(v), (len(t), n_bus))
        traj = Trajectory(t=t, x=np.zeros_like(xdot), xdot=xdot)
        stats = coi_frequency_variance_estimate([traj], burn_in=0.0)
        expected = v * (n_bus - 1) / n_bus
        np.testing.assert_allclose(stats.variance, expected, rtol=0.05)
        assert np.all(np.abs(stats.variance - expected) < 4 * stats.stderr)

    def test_empty_window_rejected(self):
        t = make_time_grid(1.0, 0.1)
        traj = Trajectory(t=t, x=np.zeros((len(t), 2)), xdot=np.zeros((len(t), 2)))
        with pytest.raises(InputError, match="burn_in"):
            coi_frequency_variance_estimate([traj], burn_in=5.0)

    def test_mismatched_grids_rejected(self):
        t1 = make_time_grid(1.0, 0.1)
        t2 = make_time_grid(2.0, 0.1)
        mk = lambda t: Trajectory(t=t, x=np.zeros((len(t), 2)), xdot=np.zeros((len(t), 2)))
        with pytest.raises(InputError, match="share"):
            coi_frequency_variance_estimate([mk(t1), mk(t2)], burn_in=0.0)

    def test_non_finite_estimate_is_numerics_error(self):
        t = make_time_grid(1.0, 0.1)
        xdot = np.zeros((len(t), 2))
        xdot[3] = [1e200, -1e200]  # its square overflows
        traj = Trajectory(t=t, x=np.zeros_like(xdot), xdot=xdot)
        with pytest.raises(NumericsError, match="not finite"):
            coi_frequency_variance_estimate([traj], burn_in=0.0)


class TestEnsembleRun:
    def test_bit_identical_for_fixed_seed(self):
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        cfg = SimConfig(model="reduced-xi", dt_max=0.01, t_end=20.0, burn_in=5.0,
                        ensemble_size=3, base_seed=77)
        s1 = run_model_ensemble(grid, cfg)
        s2 = run_model_ensemble(grid, cfg)
        np.testing.assert_array_equal(s1.variance, s2.variance)
        np.testing.assert_array_equal(s1.stderr, s2.stderr)

    def test_distinct_seeds_distinct_results(self):
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        cfg1 = SimConfig(model="reduced-xi", dt_max=0.01, t_end=20.0, burn_in=5.0,
                         ensemble_size=2, base_seed=1)
        cfg2 = SimConfig(model="reduced-xi", dt_max=0.01, t_end=20.0, burn_in=5.0,
                         ensemble_size=2, base_seed=2)
        assert not np.array_equal(run_model_ensemble(grid, cfg1).variance,
                                  run_model_ensemble(grid, cfg2).variance)

    def test_failure_propagates_with_index(self):
        calls = []

        def builder(seeds):
            calls.append(seeds)
            if len(calls) == 3:
                raise ValueError("boom")
            t = make_time_grid(1.0, 0.1)
            return simulate._as_batch(
                Trajectory(t=t, x=np.zeros((len(t), 2)), xdot=np.zeros((len(t), 2))))

        cfg = SimConfig(model="reduced-xi", dt_max=0.1, t_end=1.0, burn_in=0.0,
                        ensemble_size=4, base_seed=0)
        with pytest.raises(NumericsError, match="trajectory 2"):
            list(run_ensemble(builder, cfg))

    def test_input_error_passes_through(self):
        def builder(seeds):
            raise InputError("bad input")

        cfg = SimConfig(model="reduced-xi", dt_max=0.1, t_end=1.0, burn_in=0.0)
        with pytest.raises(InputError, match="bad input"):
            list(run_ensemble(builder, cfg))

    def test_stream_builds_lazily_and_holds_no_member(self):
        built = []

        def builder(seeds):
            # every member handed out before has been released
            assert all(ref() is None for ref in built)
            t = make_time_grid(1.0, 0.1)
            record = np.ones((len(t), 4)) * seeds[0]
            built.append(weakref.ref(record))
            return simulate._as_batch(Trajectory(t=t, x=record[:, :2], xdot=record[:, 2:]))

        cfg = SimConfig(model="reduced-xi", dt_max=0.1, t_end=1.0, burn_in=0.0,
                        ensemble_size=5, base_seed=0)
        stream = run_ensemble(builder, cfg)
        assert built == []
        stats = coi_frequency_variance_estimate(stream, burn_in=0.0)
        assert len(built) == 5 and stats.n_samples == 5 * 11
        np.testing.assert_array_equal(stats.variance, 0.0)

    def test_batch_failure_while_stepping_names_its_members(self):
        t = make_time_grid(1.0, 0.1)

        def chunks():
            yield 0, np.zeros((5, 2, 3)), np.zeros((5, 2, 3))
            raise FloatingPointError("overflow")

        cfg = SimConfig(model="reduced-xi", dt_max=0.1, t_end=1.0, burn_in=0.0,
                        ensemble_size=4, base_seed=8)
        stream = run_ensemble(lambda seeds: MemberBatch(t=t, n_slow=3, chunks=chunks()), cfg, 2)
        with pytest.raises(NumericsError, match=r"trajectories 0-1 \(seeds 8, 9\) failed: overflow"):
            coi_frequency_variance_estimate(stream, burn_in=0.0)

    def test_streamed_statistics_equal_pooled_formula(self, monkeypatch):
        for chunked in (False, True):
            if chunked:
                # two members per batch, chunks of 23 rows: chunk edges fall
                # inside the 94-row time batches and the ensemble is split
                monkeypatch.setattr(simulate, "_MIN_CHUNK_ROWS", 10)
                monkeypatch.setattr(simulate, "_BATCH_BYTES", 9000)
            self.check_pooled_formula(chunked)

    @staticmethod
    def check_pooled_formula(chunked):
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        cfg = SimConfig(model="reduced-xi", dt_max=0.01, t_end=20.0, burn_in=5.0,
                        ensemble_size=3, base_seed=9)
        op, sys, red = simulate.linearize_and_reduce(grid, cfg.epsilon)
        builder, batch = simulate.make_builder(grid, op, sys, red, cfg)
        assert batch == (2 if chunked else 3)
        stats = coi_frequency_variance_estimate(run_ensemble(builder, cfg, batch), cfg.burn_in,
                                                bus_ids=red.slow_ids)

        # the same members, collected whole and pooled here
        members = []
        for run in run_ensemble(builder, cfg, batch):
            blocks = [(k, x.copy(), v.copy()) for k, x, v in run.chunks]
            assert len(blocks) > (16 if chunked else 0)
            x = np.concatenate([b[1] for b in blocks])
            xdot = np.concatenate([b[2] for b in blocks])
            members += [Trajectory(t=run.t, x=x[:, i], xdot=xdot[:, i])
                        for i in range(xdot.shape[1])]
        assert len(members) == cfg.ensemble_size
        squares = []
        for traj in members:
            keep = traj.t >= cfg.burn_in
            xdot = traj.xdot[keep]
            squares.append((xdot - xdot.mean(axis=1, keepdims=True))**2)
        n_time = len(squares[0])
        sq_sum = np.zeros(red.n_slow)
        for sq in squares:
            sq_sum += sq.sum(axis=0)
        batch_means = np.array([chunk.mean(axis=0) for sq in squares
                                for chunk in np.array_split(sq, 16, axis=0)])
        np.testing.assert_array_equal(stats.variance, sq_sum / (n_time * cfg.ensemble_size))
        # stream member i is the member integrated on its own from seed
        # 9 ^ i: batching changes only the rounding of the products
        for seed, traj in zip((9, 8, 11), members):
            alone = integrate_reduced(red, cfg, ou_spec_for_grid(grid, seed))
            for got, want in ((traj.x, alone.x), (traj.xdot, alone.xdot)):
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())
        np.testing.assert_array_equal(
            stats.stderr, batch_means.std(axis=0, ddof=1) / math.sqrt(len(batch_means)))
        assert stats.n_samples == n_time * cfg.ensemble_size
        assert stats.bus_ids == red.slow_ids
        # any iterable: a plain generator of the same whole members folds alike
        again = coi_frequency_variance_estimate(iter(members), cfg.burn_in)
        np.testing.assert_array_equal(again.variance, stats.variance)
        np.testing.assert_array_equal(again.stderr, stats.stderr)

    @pytest.mark.parametrize("model", simulate.MODELS)
    def test_one_member_ensemble_is_the_collector(self, model):
        # integrate_* and the ensemble run are one loop: member 0 kept by
        # tee_first_member equals the one-member collector bit for bit
        grid = random_connected_grid(np.random.default_rng(4), 9)
        cfg = SimConfig(model=model, dt_max=0.01, t_end=30.0, burn_in=1.0, base_seed=5,
                        epsilon=0.3)
        op, sys, red = simulate.linearize_and_reduce(grid, cfg.epsilon)
        builder, batch = simulate.make_builder(grid, op, sys, red, cfg, keep_first=True)
        members, first = simulate.tee_first_member(run_ensemble(builder, cfg, batch))
        coi_frequency_variance_estimate(members, cfg.burn_in)
        noise = ou_spec_for_grid(grid, 5)
        if model == "full-nonlinear":
            traj = integrate_full_nonlinear(grid, op, cfg, noise)
        elif model == "full-linear":
            traj = integrate_full_linear(sys, cfg, noise)
        else:
            traj = integrate_reduced(red, cfg, noise)
        np.testing.assert_array_equal(first.x, traj.x)
        np.testing.assert_array_equal(first.xdot, traj.xdot)

    def test_peak_memory_of_streamed_ensemble(self):
        # the fold holds one batch's chunk buffers, never a whole record
        grid = random_connected_grid(np.random.default_rng(1), 40)
        cfg = SimConfig(model="full-linear", dt_max=0.01, t_end=50.0, burn_in=5.0,
                        ensemble_size=4, base_seed=2)
        op, sys, red = simulate.linearize_and_reduce(grid, cfg.epsilon)
        builder, batch = simulate.make_builder(grid, op, sys, red, cfg)
        tracemalloc.start()
        try:
            coi_frequency_variance_estimate(run_ensemble(builder, cfg, batch), cfg.burn_in)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record_bytes = len(make_time_grid(cfg.t_end, cfg.dt_max)) * 2 * grid.n_buses * 8
        assert peak <= 2.5 * record_bytes

    def test_peak_memory_does_not_grow_with_t_end(self, monkeypatch):
        self.check_peak_memory_does_not_grow("full-linear", 40, 4, (50.0, 200.0))
        # the nonlinear steps cost more: chunks of 179 rows, so short runs span several
        monkeypatch.setattr(simulate, "_BATCH_BYTES", 2**16)
        self.check_peak_memory_does_not_grow("full-nonlinear", 9, 1, (5.0, 20.0))

    @staticmethod
    def check_peak_memory_does_not_grow(model, n_buses, ensemble, t_ends):
        grid = random_connected_grid(np.random.default_rng(1), n_buses)
        peaks = []
        for t_end in t_ends:
            cfg = SimConfig(model=model, dt_max=0.01, t_end=t_end, burn_in=1.0,
                            ensemble_size=ensemble, base_seed=2)
            op, sys, red = simulate.linearize_and_reduce(grid, cfg.epsilon)
            row_bytes = simulate._row_bytes(2 * n_buses, n_buses, red.n_slow)
            n_steps = round(t_end / cfg.dt_max)
            rows = simulate._batch_shape(n_steps, ensemble, row_bytes, simulate._BATCH_BYTES)[1]
            assert rows < n_steps
            builder, batch = simulate.make_builder(grid, op, sys, red, cfg)
            tracemalloc.start()
            try:
                coi_frequency_variance_estimate(run_ensemble(builder, cfg, batch), cfg.burn_in)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_stderr_shrinks_with_ensemble(self):
        grid = path3_grid(sigma_slow=0.05, sigma_fast=0.02)
        mk = lambda ens: SimConfig(model="reduced-xi", dt_max=0.01, t_end=100.0,
                                   burn_in=10.0, ensemble_size=ens, base_seed=5)
        s1 = run_model_ensemble(grid, mk(1))
        s4 = run_model_ensemble(grid, mk(4))
        ratio = s1.stderr.mean() / s4.stderr.mean()
        assert 1.2 < ratio < 3.5  # ~2 expected from 4x the batches


class TestStatisticalConsistency:
    def test_reduced_xi_matches_analytic_variance(self):
        rng = np.random.default_rng(40)
        grid = random_connected_grid(rng, 8, homogeneous=True,
                                     sigma_range=(0.005, 0.02))
        op = solve_fixed_point(grid)
        sys = assemble_linearized(grid, build_jacobian(grid, op), 1.0)
        red = reduce_grid(grid, sys)
        basis = eigendecompose_reduced(red.j_red)
        gam = gamma_matrix(red, basis)
        analytic = coi_variance(red, basis, gam).var_total

        cfg = SimConfig(model="reduced-xi", dt_max=0.01, t_end=800.0, burn_in=40.0,
                        ensemble_size=4, base_seed=3)
        stats = run_model_ensemble(grid, cfg)
        assert np.all(np.abs(stats.variance - analytic) < 3 * stats.stderr)
