"""OU sampling, integrators, ensemble statistics."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import kronred.simulate as simulate
from conftest import (assert_same_bits, dense_coupling, dense_reference, path3_grid,
                      random_connected_grid, two_bus_grid)
from kronred.errors import InputError, NumericsError
from kronred.grid import (FAST, SLOW, ClassDefaults, Grid, parse_matpower_case, solve_fixed_point,
                          with_sigma)
from kronred.reduction import reduce_grid
from kronred.simulate import (OUSpec, SimConfig, Trajectory, default_dt_max, integrate,
                              make_time_grid, ou_sample_path, ou_spec_for_grid,
                              run_model_ensemble)
from kronred.variance import coi_variance, eigendecompose_reduced, modal_trajectory


def fold_whole(trajs, burn_in):
    """COI statistics of whole Trajectories on one grid, each folded as a
    one-member batch of one chunk."""
    n_slow = trajs[0].xdot.shape[1]
    fold = simulate._CoiFold(trajs[0].t, n_slow, burn_in)
    for traj in trajs:
        fold.begin(1)
        fold.add(fold.start, traj.xdot[fold.start:, None])
        fold.end()
    return fold.stats(tuple(range(n_slow)))


def scaled_masses(grid, epsilon):
    """Inertia and damping of every bus, slow then fast, the fast ones
    times epsilon: the full models' m and d, read from the grid."""
    order = grid.ordering()
    n_s = len(grid.slow_ids)
    m, d = grid.param_vector("m")[order], grid.param_vector("d")[order]
    return (np.concatenate([m[:n_s], epsilon * m[n_s:]]),
            np.concatenate([d[:n_s], epsilon * d[n_s:]]))


def reduced_of(grid):
    """A run setup (op, red), reduced from the dense reference."""
    op, sys = dense_reference(grid)
    return op, reduce_grid(grid, sys)


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
        for t in ([0.0, 0.1, 0.3], [0.0, math.inf], [0.0, math.nan], [math.inf, math.inf],
                  ["a", "b"]):
            with pytest.raises(InputError, match="uniform"):
                ou_sample_path(spec, t)

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

    @pytest.mark.parametrize("seed", [-1, 2**64, np.int64(-1), "1", None, 1.5, True])
    def test_seed_out_of_range_is_input_error(self, seed):
        # integers out of range, a numpy one too; then values that are not integers
        problem = "must be in" if seed in (-1, 2**64) else "must be an integer"
        with pytest.raises(InputError, match=f"seed {problem}"):
            OUSpec(sigma=[1.0], tau=[0.1], seed=seed)
        assert OUSpec(sigma=[1.0], tau=[0.1], seed=np.uint64(2**64 - 1)).seed == 2**64 - 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "a"])
    @pytest.mark.parametrize("name", ["sigma", "tau"])
    def test_non_finite_parameter_is_input_error(self, name, value):
        params = {"sigma": [1.0, 0.5], "tau": [0.1, 0.2]}
        params[name][1] = value
        with pytest.raises(InputError, match=f"^{name} must be finite numbers"):
            OUSpec(**params, seed=0)

    @pytest.mark.parametrize("two_d", [("sigma",), ("tau",), ("sigma", "tau")])
    def test_parameter_of_more_dimensions_is_input_error(self, two_d):
        # one value per channel: a 2-D sigma or tau is refused by its
        # shape, sigma's first, not left to fail when the path is drawn
        params = {"sigma": [0.1, 0.2], "tau": [1.0, 1.0]}
        for name in two_d:
            params[name] = [params[name]]
        with pytest.raises(InputError, match=rf"^{two_d[0]} must be one value per channel, "
                                             r"got shape \(1, 2\)$"):
            OUSpec(**params, seed=0)

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
        for value in (math.inf, "a", None):  # no number at all is no finite one either
            kwargs = dict(dt_max=0.01, t_end=10.0, burn_in=1.0)
            kwargs[field] = value
            with pytest.raises(InputError, match=f"{field} must be finite"):
                SimConfig(**kwargs)

    @pytest.mark.parametrize("epsilon", [0.0, 1.5, math.nan, "a"])
    def test_sim_config_rejects_epsilon_outside_unit_interval(self, epsilon):
        with pytest.raises(InputError, match=r"epsilon must be in \(0, 1\]"):
            SimConfig(dt_max=0.01, t_end=1.0, burn_in=0.0, epsilon=epsilon)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "1", None, False])
    def test_sim_config_rejects_seed_out_of_range(self, seed):
        problem = "must be in" if seed in (-1, 2**64) else "must be an integer"
        with pytest.raises(InputError, match=f"base_seed {problem}"):
            SimConfig(dt_max=0.01, t_end=1.0, burn_in=0.0, base_seed=seed)
        SimConfig(dt_max=0.01, t_end=1.0, burn_in=0.0, base_seed=2**64 - 1)

    @pytest.mark.parametrize("size", [0, np.int64(-2), 2.5, 2.0, "2", True])
    def test_sim_config_rejects_bad_ensemble_size(self, size):
        # a count must be an integer: 2.5 members would fail later with a
        # bare TypeError, and 2.0 is refused with it
        problem = "must be >= 1" if size in (0, -2) else "must be an integer"
        with pytest.raises(InputError, match=f"ensemble_size {problem}"):
            SimConfig(dt_max=0.01, t_end=1.0, burn_in=0.0, ensemble_size=size)
        cfg = SimConfig(dt_max=0.01, t_end=1.0, burn_in=0.0, ensemble_size=np.int32(3))
        assert type(cfg.ensemble_size) is int and cfg.ensemble_size == 3

    def test_sim_config_refuses_ensemble_over_step_budget(self):
        # 10 steps per trajectory, but 10^10 steps for the whole ensemble
        with pytest.raises(InputError, match="ensemble_size x steps"):
            SimConfig(dt_max=0.001, t_end=0.01, burn_in=0.0, ensemble_size=10**9)

    @pytest.mark.parametrize("model,width", [("full-nonlinear", 18), ("full-linear", 18),
                                             ("reduced-xi", 12), ("reduced-naive", 12)])
    def test_member_byte_budget(self, monkeypatch, model, width):
        # 9 buses, 6 slow, 1000 steps, one damping ratio.  Every model's
        # batch holds chunk buffers of (rows + 20 padding rows) x members x
        # (2 x 9 channels + state width + 6 + 1) x 8 B, at least one member
        # and one row; a linear model, which steps in its modes, reads 6
        # slow velocities per row and member more.  While the batch builds
        # its step maps it holds the Jacobian ((width / 2) squared) and
        # noise gain (width / 2 x 9) they come from and, for the nonlinear
        # model, the half-width implicit matrix ((width / 2) squared) and
        # LAPACK's copy of it, the right-hand side, its copy and the
        # velocity rows solved for (each width / 2 x (width + 9)); for a
        # linear model, the mass-scaled Jacobian, LAPACK's copy and
        # workspace and the eigenvectors (five (width / 2) squared), the
        # modes' forcing and its stacked copy (two width / 2 x 9), x 8 B.
        # The nonlinear model's members also hold Picard window arrays of
        # (64 + 1) rows x (8 x 9 + lines) x 8 B each, and its batch the
        # 9 x lines incidence and outflow matrices x 8 B.  `simulate` also
        # keeps member 0's slow record, 1001 x 2 x 6 x 8 B.
        grid = random_connected_grid(np.random.default_rng(3), 9)
        op, red = simulate.linearize_and_reduce(grid)
        assert red.n_slow == 6 and simulate._PAD_ROWS == 20 and simulate._WINDOW_ROWS == 64
        cfg = SimConfig(dt_max=0.01, t_end=10.0, burn_in=0.0)
        half = width // 2
        if model == "full-nonlinear":
            held = (1 + 20) * (2 * 9 + width + 6 + 1) * 8 \
                + (2 * half * half + 3 * half * (width + 9) + half * half + half * 9) * 8 \
                + 65 * (8 * 9 + len(grid.lines)) * 8 + 9 * 2 * len(grid.lines) * 8
        else:
            held = (1 + 20) * (2 * 9 + width + 2 * 6 + 1) * 8 \
                + (half * half + half * 9 + 5 * half * half + 2 * half * 9) * 8
        for keep_first, kept in ((False, 0), (True, 1001 * 2 * 6 * 8)):
            monkeypatch.setattr(simulate, "MAX_MEMBER_BYTES", held + kept)
            simulate.run_models(grid, op, red, cfg, [model], keep_first=keep_first)
            monkeypatch.setattr(simulate, "MAX_MEMBER_BYTES", held + kept - 1)
            with pytest.raises(InputError, match="buffers, above the limit"):
                simulate.run_models(grid, op, red, cfg, [model], keep_first=keep_first)

    @pytest.mark.parametrize("model", simulate.MODELS)
    def test_step_maps_counted_before_they_are_built(self, monkeypatch, model):
        # a limit that the buffers and record fit but the step maps do not:
        # the run is refused from its dimensions, before any map is built
        grid = random_connected_grid(np.random.default_rng(3), 9)
        op, red = simulate.linearize_and_reduce(grid)
        cfg = SimConfig(dt_max=0.01, t_end=10.0, burn_in=0.0)
        width = 12 if model.startswith("reduced") else 18
        buffers = (1 + 20) * (2 * 9 + width + 6 + 1) * 8 + 1001 * 2 * 6 * 8
        if model == "full-nonlinear":
            buffers += 65 * (8 * 9 + len(grid.lines)) * 8

        def no_maps(*args):
            raise AssertionError("step maps built")

        monkeypatch.setattr(simulate, "_linear_maps", no_maps)
        monkeypatch.setattr(simulate, "_modal_maps", no_maps)
        monkeypatch.setattr(simulate, "MAX_MEMBER_BYTES", buffers + width * (width + 9) * 8 - 1)
        with pytest.raises(InputError, match="buffers, above the limit"):
            simulate.run_models(grid, op, red, cfg, [model], keep_first=True)

    @pytest.mark.parametrize("model", simulate.MODELS)
    def test_collector_refused_before_it_allocates(self, monkeypatch, model):
        # 20 000 steps: the whole record fits the limit, the record and
        # the batch it is stepped through do not
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        op, red = reduced_of(grid)
        cfg = SimConfig(dt_max=0.01, t_end=200.0, burn_in=0.0)
        width = 4 if model.startswith("reduced") else 6
        record = 20_001 * width * 8
        monkeypatch.setattr(simulate, "MAX_MEMBER_BYTES", record + 1)
        noise = ou_spec_for_grid(grid, 1)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="buffers, above the limit"):
                integrate(grid, op, red, model, cfg, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < record // 10

    @pytest.mark.parametrize("model", simulate.MODELS)
    def test_batch_peak_within_plan(self, model, ieee118_text):
        # the plan counts what a batch really holds: its step maps and
        # what building them takes, chunk buffers and Picard windows
        # (one ieee118 member)
        grid = parse_matpower_case(ieee118_text, slow=ClassDefaults(m=0.2, d=0.05, tau=0.1),
                                   fast=ClassDefaults(m=0.002, d=0.0005, tau=0.1))
        grid = with_sigma(grid, np.random.default_rng(1).uniform(0.0, 0.01, grid.n_buses))
        op, red = simulate.linearize_and_reduce(grid)
        cfg = SimConfig(dt_max=0.01, t_end=3.0, burn_in=1.5, base_seed=1)
        width = 2 * (red.n_slow if model.startswith("reduced") else grid.n_buses)
        n_lines = len(grid.lines) if model == "full-nonlinear" else None
        modal = simulate._layout(grid, red, [model], cfg.epsilon)[1]  # the linear models' modes
        assert modal == (model != "full-nonlinear",)
        batch, _, held = simulate._plan_batch((width,), grid.n_buses, red.n_slow, n_lines, 300, 1,
                                              0, modal)
        tracemalloc.start()
        try:
            simulate.run_models(grid, op, red, cfg, [model])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch == 1 and peak <= held

    @pytest.mark.parametrize("budget", [2**20, 2**30])
    def test_large_ensemble_split_into_batches_within_budget(self, monkeypatch, budget):
        # arithmetic only: the plan of 10^6 one-step full-linear members of
        # a 9-bus grid with 6 slow buses, member 0's slow record kept
        monkeypatch.setattr(simulate, "MAX_MEMBER_BYTES", budget)
        batch = simulate._plan_batch((18,), 9, 6, None, 1, 10**6, 2 * 2 * 6 * 8)[0]
        row_bytes = (2 * 9 + 18 + 6 + 1) * 8
        assert 1 < batch < 10**6
        assert (1 + 20) * batch * row_bytes + 2 * 2 * 6 * 8 <= min(budget, simulate._BATCH_BYTES)

    def test_batch_peak_memory_within_budgeted_bytes(self):
        # what the plan counts bounds what a batch really allocates,
        # the nonlinear model's Picard window arrays included
        for model in ("full-linear", "full-nonlinear"):
            self.check_batch_peak_memory(model)

    @staticmethod
    def check_batch_peak_memory(model):
        grid = random_connected_grid(np.random.default_rng(1), 40)
        cfg = SimConfig(dt_max=0.01, t_end=20.0, burn_in=5.0, ensemble_size=3, base_seed=2)
        op, red = simulate.linearize_and_reduce(grid)
        n_lines = len(grid.lines) if model == "full-nonlinear" else None
        batch, rows, _ = simulate._plan_batch((2 * grid.n_buses,), grid.n_buses, red.n_slow,
                                              n_lines, 2000, cfg.ensemble_size, 0)
        # per row and member: noise and draws, state, squares and row means;
        # per member: the Picard window arrays of 64 + 1 rows
        row_bytes = 8 * (2 * grid.n_buses + 2 * grid.n_buses + red.n_slow + 1)
        window_bytes = 0 if n_lines is None else 8 * 65 * (8 * grid.n_buses + n_lines)
        tracemalloc.start()
        try:
            simulate.run_models(grid, op, red, cfg, [model])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch == 3 and rows < 2000
        assert peak <= ((rows + simulate._PAD_ROWS) * row_bytes + window_bytes) * batch

    def test_default_dt_caps_at_fast_relaxation(self):
        grid = two_bus_grid()
        assert default_dt_max(grid, 1.0) == pytest.approx(0.01)  # tau/10
        assert default_dt_max(grid, 1e-3) == pytest.approx(1e-3 * 4.0)  # eps * m/d


class TestFullNonlinear:
    def test_stays_at_fixed_point_without_noise(self):
        grid = two_bus_grid(p=0.5)
        cfg = SimConfig(dt_max=0.01, t_end=10.0, burn_in=0.0)
        traj = integrate(grid, *reduced_of(grid), "full-nonlinear", cfg, np.zeros((1000, 2)))
        assert np.abs(traj.x).max() < 1e-9
        assert np.abs(traj.xdot).max() < 1e-9

    def test_perturbation_decays_with_monotone_energy(self):
        grid = two_bus_grid(p=0.3)
        op, red = reduced_of(grid)
        cfg = SimConfig(dt_max=0.002, t_end=10.0, burn_in=0.0)
        traj = integrate(grid, op, red, "full-nonlinear", cfg, np.zeros((5001, 2)),
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
        setup = reduced_of(grid)
        cfg = SimConfig(dt_max=0.01, t_end=20.0, burn_in=0.0)
        t = make_time_grid(cfg.t_end, cfg.dt_max)
        base = ou_sample_path(OUSpec(sigma=np.ones(3), tau=np.full(3, 0.1), seed=3), t)[:-1]
        errs = []
        for scale in (0.01, 0.001):
            noise = scale * base
            nl = integrate(grid, *setup, "full-nonlinear", cfg, noise)
            lin = integrate(grid, *setup, "full-linear", cfg, noise)
            num = np.abs(nl.x - lin.x).max()
            den = np.abs(lin.x).max()
            errs.append(num / den)
        assert errs[1] < 0.2 * errs[0]  # linearization error shrinks with amplitude

    def test_divergence_flagged(self):
        grid = two_bus_grid(p=0.0)
        cfg = SimConfig(dt_max=0.01, t_end=50.0, burn_in=0.0)
        shove = np.tile([5.0, -5.0], (5000, 1))  # far beyond the b=1 line capacity
        # the first step past pi, as the per-step chord-Newton stepper reported it
        with pytest.raises(NumericsError, match=r"divergence detected at t=0\.54: "):
            integrate(grid, *reduced_of(grid), "full-nonlinear", cfg, shove)


def trapezoid_residuals(grid, op, cfg, noise, traj):
    """Per-step max-norm residual of the trapezoid equation, recomputed
    from the returned states with a dense drift written out here."""
    order = grid.ordering()
    b = dense_coupling(grid)[np.ix_(order, order)]
    p = grid.param_vector("p")[order]
    m, d = scaled_masses(grid, cfg.epsilon)
    ang = np.column_stack([traj.x, traj.y]) + op.theta[order][None, :]
    omega = np.column_stack([traj.xdot, traj.ydot])

    def drift(a, w):
        flow = (b[None, :, :] * np.sin(a[:, :, None] - a[:, None, :])).sum(axis=2)
        return w, (p - flow - d * w) / m

    dt = traj.t[1] - traj.t[0]
    va, vw = drift(ang, omega)
    res_ang = ang[1:] - ang[:-1] - dt * (va[:-1] + va[1:]) / 2
    res_w = omega[1:] - omega[:-1] - dt * (vw[:-1] + vw[1:]) / 2 - dt * noise / m
    return np.maximum(np.abs(res_ang).max(axis=1), np.abs(res_w).max(axis=1))


class TestFullNonlinearStepper:
    # the cases with a large initial deviation drive the iterate far from
    # the operating point: their Picard windows stall down to one row,
    # where the step maps must be rebuilt.  The ids keep the theta of the
    # theta method, 0.5: the trapezoid
    @pytest.mark.parametrize("seed,epsilon,deviation", [(12, 0.1, 0.0), (3, 0.05, 1.2)],
                             ids=["0.5-12-0.1-0.0", "0.5-3-0.05-1.2"])
    def test_steps_solve_theta_method_equation(self, seed, epsilon, deviation, monkeypatch):
        grid = random_connected_grid(np.random.default_rng(seed), 7, injection_scale=0.3)
        cfg = SimConfig(dt_max=0.01, t_end=3.0, burn_in=0.0, epsilon=epsilon)
        op, red = reduced_of(grid)
        n = grid.n_buses
        noise = np.random.default_rng(5).normal(0.0, 0.05, (300, n))
        x0 = deviation * np.cos(np.arange(n))
        builds = []
        jacobian = simulate._angle_jacobian

        def counting_jacobian(*args):
            builds.append(args)
            return jacobian(*args)

        monkeypatch.setattr(simulate, "_angle_jacobian", counting_jacobian)
        traj = integrate(grid, op, red, "full-nonlinear", cfg, noise, x0=x0)
        assert trapezoid_residuals(grid, op, cfg, noise, traj).max() <= 1e-10
        np.testing.assert_array_equal(traj.x[0], x0[:len(grid.slow_ids)])
        if deviation:
            assert len(builds) > 1

    @pytest.mark.parametrize("epsilon", [1.0, 0.05], ids=["1.0-0.5", "0.05-0.5"])
    def test_batched_members_solve_theta_method_equation(self, epsilon):
        # three members stepped together, each with its own noise, each
        # checked on its own against the dense residual
        grid = random_connected_grid(np.random.default_rng(12), 7, injection_scale=0.3)
        op = solve_fixed_point(grid)
        cfg = SimConfig(dt_max=0.01, t_end=3.0, burn_in=0.0, epsilon=epsilon)
        n, n_s = grid.n_buses, len(grid.slow_ids)
        t = make_time_grid(cfg.t_end, cfg.dt_max)
        noise = np.random.default_rng(5).normal(0.0, 0.05, (300, 3, n))
        blocks = [block.copy() for _, block in simulate._nonlinear_chunks(
            grid, op, cfg, t, [noise.reshape(300, 3 * n)], np.zeros((3, 2 * n)), 300)]
        states = np.concatenate(blocks)
        assert states.shape == (301, 3, 2 * n)
        for i in range(3):
            s = states[:, i]
            traj = Trajectory(t=t, x=s[:, :n_s], xdot=s[:, n:n + n_s], y=s[:, n_s:n],
                              ydot=s[:, n + n_s:])
            assert trapezoid_residuals(grid, op, cfg, noise[:, i], traj).max() <= 1e-10
        assert not np.array_equal(states[:, 0], states[:, 1])

    def test_chunk_edges_leave_a_member_unchanged(self, monkeypatch):
        # chunks of one Picard window (64 rows) against one chunk: the
        # state, its flows and the step maps rebuilt far from the operating
        # point carry over every chunk edge
        grid = random_connected_grid(np.random.default_rng(3), 7, injection_scale=0.3)
        cfg = SimConfig(dt_max=0.01, t_end=3.0, burn_in=0.0, epsilon=0.05)
        setup = reduced_of(grid)
        n, n_s = grid.n_buses, len(grid.slow_ids)
        noise = np.random.default_rng(5).normal(0.0, 0.05, (300, n))
        x0 = 1.2 * np.cos(np.arange(n))
        whole = integrate(grid, *setup, "full-nonlinear", cfg, noise, x0=x0)

        def plan():
            return simulate._plan_batch((2 * n,), n, n_s, len(grid.lines), 300, 1, 301 * 2 * n * 8)

        assert plan()[1] == 300
        builds = []
        jacobian = simulate._angle_jacobian

        def counting_jacobian(*args):
            builds.append(args)
            return jacobian(*args)

        monkeypatch.setattr(simulate, "_angle_jacobian", counting_jacobian)
        monkeypatch.setattr(simulate, "_BATCH_BYTES", 2**16)
        assert plan()[1] == simulate._WINDOW_ROWS
        chunked = integrate(grid, *setup, "full-nonlinear", cfg, noise, x0=x0)
        assert len(builds) > 1
        for name in ("x", "xdot", "y", "ydot"):
            np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))

    def test_ensemble_bit_identical_for_fixed_seed(self):
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        cfg = SimConfig(dt_max=0.01, t_end=10.0, burn_in=2.0, ensemble_size=2, base_seed=31)
        s1 = run_model_ensemble(grid, "full-nonlinear", cfg)
        s2 = run_model_ensemble(grid, "full-nonlinear", cfg)
        np.testing.assert_array_equal(s1.variance, s2.variance)
        np.testing.assert_array_equal(s1.stderr, s2.stderr)


class TestFullLinear:
    def test_zero_noise_zero_state(self):
        grid = path3_grid()
        cfg = SimConfig(dt_max=0.01, t_end=5.0, burn_in=0.0)
        traj = integrate(grid, *reduced_of(grid), "full-linear", cfg, np.zeros((500, 3)))
        np.testing.assert_array_equal(traj.x, 0.0)
        np.testing.assert_array_equal(traj.y, 0.0)

    def test_sinusoidal_forcing_matches_transfer_function(self):
        grid = path3_grid()
        op, sys = dense_reference(grid)
        red = reduce_grid(grid, sys)
        omega = 2.0
        dt, t_end = 0.005, 100.0
        cfg = SimConfig(dt_max=dt, t_end=t_end, burn_in=0.0)
        t = make_time_grid(t_end, dt)
        noise = np.zeros((len(t) - 1, 3))
        noise[:, 2] = np.sin(omega * t[:-1])  # drive the fast bus

        traj = integrate(grid, op, red, "full-linear", cfg, noise)
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
        m_eff, d_eff = scaled_masses(grid, cfg.epsilon)
        lhs = -omega**2 * np.diag(m_eff) + 1j * omega * np.diag(d_eff) - jac
        response = np.linalg.solve(lhs, np.array([0.0, 0.0, 1.0]))
        amp_exact = np.abs(response[:2])
        np.testing.assert_allclose(amp_sim, amp_exact, rtol=2e-3)

    @pytest.mark.parametrize("epsilon", [1.0, 1e-3, 1e-5, 1e-6, 1e-7])
    def test_closed_form_takes_the_steps_modes(self, epsilon, ieee118_text):
        # the full Jacobian's modes under eigendecompose_reduced, whose
        # zero-mode check reads the scale of the mass-scaled matrix, are
        # the simulator's, the uniform mode first rather than last
        grid = parse_matpower_case(ieee118_text, slow=ClassDefaults(m=0.2, d=0.05, tau=0.1),
                                   fast=ClassDefaults(m=0.002, d=0.0005, tau=0.1))
        op, _ = simulate.linearize_and_reduce(grid)
        jac, m, d, gain = simulate._full_linear_system(grid, op, epsilon)
        basis = eigendecompose_reduced(jac, m)
        assert basis.lambdas[0] == 0.0 and basis.lambdas[1] < 0.0
        assert_same_bits(basis.modes, simulate._modal_maps(jac, m, d, gain, 0.01)[0][:, ::-1])


class TestLinearRecord:
    """Both linear models step one state record in place."""

    @staticmethod
    def linear_model(model, grid, sys, red, epsilon):
        if model == "full-linear":
            jac = np.block([[sys.j_ss, sys.j_sf], [sys.j_fs, sys.j_ff]])
            m, d = scaled_masses(grid, epsilon)
            return jac, m, d, np.eye(len(m))
        k = np.zeros_like(red.noise_gain) if model == "reduced-naive" else red.noise_gain
        return red.j_red, red.m_slow, red.d_slow, np.hstack([np.eye(red.n_slow), k])

    @pytest.mark.parametrize("model", ["full-linear", "reduced-xi"],
                             ids=["full-linear-0.5", "reduced-xi-0.5"])
    def test_maps_solve_the_first_order_theta_step(self, model):
        # the half-width solve against the first-order form it eliminates,
        # the theta method at theta = 0.5 (the trapezoid):
        # (I - dt A / 2) [S | G] = [I + dt A / 2 | dt B], with
        # unequal inertia and damping and a noise gain wider than the state
        grid = random_connected_grid(np.random.default_rng(4), 9)
        _, sys = dense_reference(grid)
        jac, m, d, gain = self.linear_model(model, grid, sys, reduce_grid(grid, sys), 0.3)
        m, d = m * np.linspace(0.5, 2.0, len(m)), d * np.linspace(1.5, 0.7, len(m))
        n, dt = len(m), 0.01
        a = np.block([[np.zeros((n, n)), np.eye(n)], [jac / m[:, None], -np.diag(d / m)]])
        b = np.vstack([np.zeros_like(gain), gain / m[:, None]])
        reference = np.linalg.solve(np.eye(2 * n) - dt / 2 * a,
                                    np.hstack([np.eye(2 * n) + dt / 2 * a, dt * b]))
        maps = np.hstack(simulate._linear_maps(jac, m, d, gain, dt))
        assert np.abs(maps - reference).max() <= 1e-14 * np.abs(reference).max()

    @pytest.mark.parametrize("model", ["full-linear", "reduced-xi", "reduced-naive"])
    def test_states_equal_step_recurrence(self, model):
        # a grid whose slow bus 1 has another damping ratio steps by the
        # dense maps; the full-linear reference is sliced from the dense
        # Jacobian, so the blocks integrate scatters itself are pinned bit
        # for bit too
        grid = random_connected_grid(np.random.default_rng(4), 9)
        slow = grid.buses.index(next(bus for bus in grid.buses if bus.speed_class == SLOW))
        hetero = replace(grid, buses=tuple(replace(bus, m=1.5 * bus.m) if i == slow else bus
                                           for i, bus in enumerate(grid.buses)))
        cfg = SimConfig(dt_max=0.01, t_end=3.0, burn_in=0.0, epsilon=0.3)
        t = make_time_grid(cfg.t_end, cfg.dt_max)
        noise = np.random.default_rng(8).normal(0.0, 0.1, (len(t) - 1, grid.n_buses))
        op, sys = dense_reference(hetero)
        red = reduce_grid(hetero, sys)
        assert simulate._layout(hetero, red, [model], cfg.epsilon)[1] == (False,)
        traj = integrate(hetero, op, red, model, cfg, noise)

        jac, m, d, gain = self.linear_model(model, hetero, sys, red, cfg.epsilon)
        n, n_s = len(m), red.n_slow
        step, g = simulate._linear_maps(jac, m, d, gain, t[1] - t[0])
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
        full = model == "full-linear"
        self.check_record(traj, states[:, :n_s], states[:, n:n + n_s],
                          *((states[:, n_s:n], states[:, n + n_s:]) if full else ()))

        # with one damping ratio the model steps in its modes: per mode a,
        # the velocity forcing f_a of one forcing product, the position
        # forcing dt / 2 f_a, then the diagonal of S_a, then its
        # off-diagonal; the buses read back through the modes
        op, sys = dense_reference(grid)
        red = reduce_grid(grid, sys)
        assert simulate._layout(grid, red, [model], cfg.epsilon)[1] == (True,)
        traj = integrate(grid, op, red, model, cfg, noise)
        jac, m, d, gain = self.linear_model(model, grid, sys, red, cfg.epsilon)
        dt = t[1] - t[0]
        basis, mu, step, forcing = simulate._modal_maps(jac, m, d, gain, dt)
        f = noise @ forcing.T
        z, v = np.zeros((len(t), n)), np.zeros((len(t), n))
        for a in range(n):
            (s_zz, s_zv), (s_vz, s_vv) = step[a]
            for k in range(len(t) - 1):
                z[k + 1, a] = f[k, a] * (0.5 * dt) + s_zz * z[k, a] + s_zv * v[k, a]
                v[k + 1, a] = f[k, a] + s_vv * v[k, a] + s_vz * z[k, a]
        slow, fast = basis[:n_s].T, basis[n_s:].T
        self.check_record(traj, z @ slow, v @ slow, *((z @ fast, v @ fast) if full else ()))

    @staticmethod
    def check_record(traj, x, xdot, y=None, ydot=None):
        """The record is x, xdot and, of a full model only, y, ydot, bit for bit."""
        np.testing.assert_array_equal(traj.x, x)
        np.testing.assert_array_equal(traj.xdot, xdot)
        if y is None:
            assert traj.y is None and traj.ydot is None
        else:
            np.testing.assert_array_equal(traj.y, y)
            np.testing.assert_array_equal(traj.ydot, ydot)

    @pytest.mark.parametrize("model,bound", [("full-linear", 2.0), ("reduced-xi", 2.5)])
    def test_peak_memory_of_one_trajectory(self, model, bound):
        # noise path plus one record: the state is not also kept in
        # forcing and per-half position/velocity buffers
        grid = random_connected_grid(np.random.default_rng(1), 40)
        op, red = reduced_of(grid)
        assert red.n_slow == 20
        cfg = SimConfig(dt_max=0.01, t_end=200.0, burn_in=0.0)
        noise = ou_spec_for_grid(grid, seed=2)
        tracemalloc.start()
        try:
            traj = integrate(grid, op, red, model, cfg, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dim = 2 * grid.n_buses if model == "full-linear" else 2 * red.n_slow
        record_bytes = len(traj.t) * dim * 8
        assert peak <= bound * record_bytes


class TestIntegrateReduced:
    def test_naive_with_zero_slow_noise_is_identically_zero(self):
        grid = path3_grid(sigma_slow=0.0, sigma_fast=1.0)
        cfg = SimConfig(dt_max=0.01, t_end=5.0, burn_in=0.0)
        traj = integrate(grid, *reduced_of(grid), "reduced-naive", cfg, ou_spec_for_grid(grid, 4))
        np.testing.assert_array_equal(traj.x, 0.0)

    def test_xi_mode_carries_fast_noise(self):
        grid = path3_grid(sigma_slow=0.0, sigma_fast=1.0)
        cfg = SimConfig(dt_max=0.01, t_end=5.0, burn_in=0.0)
        traj = integrate(grid, *reduced_of(grid), "reduced-xi", cfg, ou_spec_for_grid(grid, 4))
        assert np.abs(traj.xdot).max() > 0

    def test_spec_and_array_noise_agree(self):
        grid = path3_grid(sigma_slow=0.3, sigma_fast=1.0)
        setup = reduced_of(grid)
        cfg = SimConfig(dt_max=0.01, t_end=2.0, burn_in=0.0)
        spec = ou_spec_for_grid(grid, 11)
        t = make_time_grid(cfg.t_end, cfg.dt_max)
        path = ou_sample_path(spec, t)[:-1]
        a = integrate(grid, *setup, "reduced-xi", cfg, spec)
        b = integrate(grid, *setup, "reduced-xi", cfg, path)
        np.testing.assert_array_equal(a.x, b.x)

    def test_converges_to_modal_trajectory_as_dt_shrinks(self):
        grid = path3_grid(sigma_slow=0.4, sigma_fast=0.8)
        op, red = reduced_of(grid)
        coarse_dt = 0.02
        t_coarse = make_time_grid(8.0, coarse_dt)
        rng = np.random.default_rng(21)
        xi_coarse = rng.normal(0.0, 0.3, (len(t_coarse) - 1, 2))

        exact = modal_trajectory(red, xi_coarse, t_coarse)
        exact_x = exact.x - exact.x.mean(axis=1, keepdims=True)

        errors = []
        for refine in (1, 2):
            dt = coarse_dt / refine
            t = make_time_grid(8.0, dt)
            xi = np.repeat(xi_coarse, refine, axis=0)
            noise = np.hstack([xi, np.zeros((len(xi), 1))])  # fast channel silent
            cfg = SimConfig(dt_max=dt, t_end=8.0, burn_in=0.0)
            traj = integrate(grid, op, red, "reduced-xi", cfg, noise)
            x = traj.x[::refine] - traj.x[::refine].mean(axis=1, keepdims=True)
            errors.append(np.abs(x - exact_x).max())
        assert errors[1] <= 0.55 * errors[0]

    def test_initial_state_matches_modal_trajectory(self):
        # no noise, a start orthogonal to the uniform mode: the trapezoid
        # steps follow the exact modal solution to second order in dt
        grid = random_connected_grid(np.random.default_rng(6), 9, homogeneous=True)
        op, red = reduced_of(grid)
        basis = eigendecompose_reduced(red.j_red, red.m_slow)
        rng = np.random.default_rng(2)
        u_perp = basis.modes[:, 1:]
        x0 = u_perp @ rng.normal(0.0, 0.1, red.n_slow - 1)
        v0 = u_perp @ rng.normal(0.0, 0.1, red.n_slow - 1)
        w_max = math.sqrt(-basis.lambdas.min() / red.m_slow[0])  # fastest mode's frequency
        errors = []
        for dt in (0.02, 0.01):
            cfg = SimConfig(dt_max=dt, t_end=5.0, burn_in=0.0)
            t = make_time_grid(cfg.t_end, dt)
            traj = integrate(grid, op, red, "reduced-xi", cfg,
                             np.zeros((len(t) - 1, grid.n_buses)), x0=x0, v0=v0)
            exact = modal_trajectory(red, np.zeros((len(t) - 1, red.n_slow)), t,
                                     x0=x0, v0=v0)
            np.testing.assert_array_equal(traj.x[0], x0)
            np.testing.assert_array_equal(traj.xdot[0], v0)
            # relative to each path's size, within the trapezoid's phase
            # error of the fastest mode over [0, t_end]
            errors.append(max(np.abs(got - want).max() / np.abs(want).max()
                              for got, want in ((traj.x, exact.x), (traj.xdot, exact.xdot))))
            assert errors[-1] <= (w_max * dt)**2 * w_max * cfg.t_end / 12
        assert 0.2 <= errors[1] / errors[0] <= 0.3

    def test_unequal_inertia_matches_modal_trajectory(self):
        # slow m and d scaled per bus at one damping ratio d/m; a start in
        # the non-uniform modes and a zero-sum noise path leave the uniform
        # mode at rest, so the trapezoid steps follow the exact
        # mass-normalized modal solution, to second order in dt
        grid = random_connected_grid(np.random.default_rng(6), 9, homogeneous=True)
        rng = np.random.default_rng(2)
        scales = rng.uniform(0.3, 3.0, grid.n_buses)
        grid = Grid(buses=tuple(bus if bus.speed_class != SLOW else replace(bus, m=bus.m * c,
                                                                            d=bus.d * c)
                                for bus, c in zip(grid.buses, scales)), lines=grid.lines)
        op, red = reduced_of(grid)
        assert red.m_slow.max() > 2 * red.m_slow.min()
        basis = eigendecompose_reduced(red.j_red, red.m_slow)
        u_perp = basis.modes[:, 1:]
        x0, v0 = (u_perp @ rng.normal(0.0, 0.1, red.n_slow - 1) for _ in range(2))
        coarse_dt = 0.02
        t_coarse = make_time_grid(5.0, coarse_dt)
        xi = rng.normal(0.0, 0.3, (len(t_coarse) - 1, red.n_slow))
        xi -= xi.mean(axis=1, keepdims=True)
        exact = modal_trajectory(red, xi, t_coarse, x0=x0, v0=v0)
        np.testing.assert_allclose(exact.x[0], x0, rtol=0, atol=1e-14)
        w_max = math.sqrt(-basis.lambdas.min() / red.m_slow[0])  # fastest mode's frequency
        errors = []
        for refine in (1, 2):
            dt = coarse_dt / refine
            cfg = SimConfig(dt_max=dt, t_end=5.0, burn_in=0.0)
            noise = np.hstack([np.repeat(xi, refine, axis=0),
                               np.zeros((len(xi) * refine, red.n_fast))])  # fast channels silent
            traj = integrate(grid, op, red, "reduced-xi", cfg, noise, x0=x0, v0=v0)
            errors.append(max(np.abs(got[::refine] - want).max() / np.abs(want).max()
                              for got, want in ((traj.x, exact.x), (traj.xdot, exact.xdot))))
            # within the trapezoid's phase error of the fastest mode
            assert errors[-1] <= (w_max * dt)**2 * w_max * cfg.t_end / 12
        assert 0.2 <= errors[1] / errors[0] <= 0.3


class TestInitialState:
    @pytest.mark.parametrize("model", simulate.MODELS)
    def test_bad_initial_state_is_input_error(self, monkeypatch, model):
        # x0/v0 hold the positions and velocities of the model's buses; a
        # wrong shape, or a value that is not a finite number, is refused
        # before any step map is built
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        setup = reduced_of(grid)
        cfg = SimConfig(dt_max=0.01, t_end=1.0, burn_in=0.0)
        half = 2 if model.startswith("reduced") else 3

        def no_maps(*args):
            raise AssertionError("step maps built")

        monkeypatch.setattr(simulate, "_linear_maps", no_maps)
        monkeypatch.setattr(simulate, "_modal_maps", no_maps)
        noise = ou_spec_for_grid(grid, 1)
        # each failure says what was wrong: a shape, a value, not numbers
        shape, value, numbers = ", got shape", ", got a non-finite value$", "one per bus: "
        for bad, problem in (({"x0": np.zeros(half + 1)}, shape),
                             ({"v0": np.zeros((1, half))}, shape),
                             ({"x0": [0.0] * (half - 1)}, shape), ({"v0": 0.0}, shape),
                             ({"x0": np.array([math.nan] + [0.0] * (half - 1))}, value),
                             ({"v0": np.full(half, math.inf)}, value),
                             ({"x0": [0.0] * (half - 1) + [-math.inf]}, value),
                             ({"x0": ["a"] * half}, numbers), ({"v0": [{}] * half}, numbers)):
            with pytest.raises(InputError, match=rf"^{next(iter(bad))} of {model} must be "
                                                 rf"{half} finite values") as error:
                integrate(grid, *setup, model, cfg, noise, **bad)
            assert re.search(problem, str(error.value)), (bad, str(error.value))
        with pytest.raises(AssertionError, match="step maps built"):
            integrate(grid, *setup, model, cfg, noise, x0=np.zeros(half), v0=np.ones(half))

    @pytest.mark.parametrize("model", simulate.MODELS)
    def test_bad_noise_array_is_input_error(self, monkeypatch, model):
        # a noise array that is not numbers, or that holds a non-finite
        # value in a row a step reads, is refused before any step map is
        # built; rows past the last step are not read
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        setup = reduced_of(grid)
        cfg = SimConfig(dt_max=0.01, t_end=1.0, burn_in=0.0)

        def no_maps(*args):
            raise AssertionError("step maps built")

        monkeypatch.setattr(simulate, "_linear_maps", no_maps)
        monkeypatch.setattr(simulate, "_modal_maps", no_maps)
        steps = 100
        bad = [[["a", "b", "c"]] * steps]
        for value in (math.nan, math.inf, -math.inf):
            noise = np.zeros((steps, 3))
            noise[steps - 1, 2] = value
            bad.append(noise)
        for noise in bad:
            with pytest.raises(InputError, match=rf"^noise array must be \(>= {steps}, 3\) "
                                                 "finite numbers"):
                integrate(grid, *setup, model, cfg, noise)
        unread = np.zeros((steps + 1, 3))
        unread[steps] = math.nan
        with pytest.raises(AssertionError, match="step maps built"):
            integrate(grid, *setup, model, cfg, unread)


class TestCoiEstimate:
    def test_uniform_drift_gives_zero(self):
        t = make_time_grid(1.0, 0.1)
        xdot = np.tile(np.linspace(0, 1, len(t))[:, None], (1, 3))
        traj = Trajectory(t=t, x=np.zeros_like(xdot), xdot=xdot)
        stats = fold_whole([traj], burn_in=0.0)
        assert np.all(stats.variance < 1e-30)  # exact up to mean-subtraction roundoff

    def test_single_bus_identically_zero(self):
        t = make_time_grid(1.0, 0.1)
        xdot = np.random.default_rng(1).normal(size=(len(t), 1))
        traj = Trajectory(t=t, x=np.zeros_like(xdot), xdot=xdot)
        stats = fold_whole([traj], burn_in=0.0)
        np.testing.assert_array_equal(stats.variance, 0.0)

    def test_iid_normal_projection_identity(self):
        # COI projection of iid N(0, v) frequencies has variance v (N-1)/N
        rng = np.random.default_rng(8)
        v, n_bus = 2.5, 4
        t = make_time_grid(2000.0, 0.1)
        xdot = rng.normal(0.0, math.sqrt(v), (len(t), n_bus))
        traj = Trajectory(t=t, x=np.zeros_like(xdot), xdot=xdot)
        stats = fold_whole([traj], burn_in=0.0)
        expected = v * (n_bus - 1) / n_bus
        np.testing.assert_allclose(stats.variance, expected, rtol=0.05)
        assert np.all(np.abs(stats.variance - expected) < 4 * stats.stderr)

    def test_empty_window_rejected(self):
        t = make_time_grid(1.0, 0.1)
        traj = Trajectory(t=t, x=np.zeros((len(t), 2)), xdot=np.zeros((len(t), 2)))
        with pytest.raises(InputError, match="burn_in"):
            fold_whole([traj], burn_in=5.0)

    def test_non_finite_estimate_is_numerics_error(self):
        t = make_time_grid(1.0, 0.1)
        xdot = np.zeros((len(t), 2))
        xdot[3] = [1e200, -1e200]  # its square overflows
        traj = Trajectory(t=t, x=np.zeros_like(xdot), xdot=xdot)
        with pytest.raises(NumericsError, match="not finite"):
            fold_whole([traj], burn_in=0.0)


class TestEnsembleRun:
    def test_bit_identical_for_fixed_seed(self):
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        cfg = SimConfig(dt_max=0.01, t_end=20.0, burn_in=5.0, ensemble_size=3, base_seed=77)
        s1 = run_model_ensemble(grid, "reduced-xi", cfg)
        s2 = run_model_ensemble(grid, "reduced-xi", cfg)
        np.testing.assert_array_equal(s1.variance, s2.variance)
        np.testing.assert_array_equal(s1.stderr, s2.stderr)

    def test_distinct_seeds_distinct_results(self):
        # (2, 3): adjacent base seeds must not run the same members in another order
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        for seeds in ((1, 2), (2, 3)):
            cfg1 = SimConfig(dt_max=0.01, t_end=20.0, burn_in=5.0,
                             ensemble_size=2, base_seed=seeds[0])
            cfg2 = SimConfig(dt_max=0.01, t_end=20.0, burn_in=5.0,
                             ensemble_size=2, base_seed=seeds[1])
            assert not np.array_equal(run_model_ensemble(grid, "reduced-xi", cfg1).variance,
                                      run_model_ensemble(grid, "reduced-xi", cfg2).variance), seeds

    def test_member_seeds(self):
        # member 0 is the one-member run of the base seed; every other seed
        # is distinct within and across base seeds, and fits 64 bits
        top = 2**64 - 1
        assert [simulate.member_seed(b, 0) for b in (0, 2, top)] == [0, 2, top]
        seeds = [simulate.member_seed(b, i) for b in (2, 3, top) for i in range(4)]
        assert len(set(seeds)) == len(seeds)
        assert all(0 <= seed < 2**64 for seed in seeds)

    @staticmethod
    def failing_after_first_chunk(monkeypatch, error, fails):
        """Make _linear_chunks, which every linear model steps through, in
        its modes or not, raise ``error`` after its first chunk whenever
        ``fails(state)`` holds for that call's initial states."""
        linear_chunks = simulate._linear_chunks

        def failing(advance, force, noise_chunks, state, rows):
            chunks = linear_chunks(advance, force, noise_chunks, state, rows)
            yield next(chunks)
            if fails(state):
                raise error
            yield from chunks

        monkeypatch.setattr(simulate, "_linear_chunks", failing)

    def test_failure_propagates_with_index(self, monkeypatch):
        # one member per batch; the third batch fails after its first chunk
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        cfg = SimConfig(dt_max=0.1, t_end=1.0, burn_in=0.0, ensemble_size=4, base_seed=0)
        monkeypatch.setattr(simulate, "_BATCH_BYTES", 5000)
        assert simulate._plan_batch((4,), 3, 2, None, 10, 4, 0)[0] == 1
        calls = []
        self.failing_after_first_chunk(monkeypatch, ValueError("boom"),
                                       lambda state: calls.append(state) or len(calls) == 3)
        seed = simulate.member_seed(0, 2)
        with pytest.raises(NumericsError,
                           match=rf"^reduced-xi: trajectory 2 \(seed {seed}\) failed: boom$"):
            simulate.run_models(grid, *simulate.linearize_and_reduce(grid), cfg, ["reduced-xi"])
        assert len(calls) == 3

    def test_input_error_passes_through(self, monkeypatch):
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        cfg = SimConfig(dt_max=0.1, t_end=1.0, burn_in=0.0)
        self.failing_after_first_chunk(monkeypatch, InputError("bad input"), lambda state: True)
        with pytest.raises(InputError, match="^bad input$"):
            simulate.run_models(grid, *simulate.linearize_and_reduce(grid), cfg, ["reduced-xi"])

    def test_batch_failure_while_stepping_names_its_members(self, monkeypatch):
        # two members per batch in several chunks, two models in lockstep.
        # The fast bus has another damping ratio, so full-linear (the 6-wide
        # state of the three buses) steps alone and reduced-xi in its modes;
        # only full-linear fails.  With one damping ratio both step in their
        # modes, as one state, and a failure names both.
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        hetero = replace(grid, buses=tuple(replace(bus, d=2 * bus.d) if bus.speed_class == FAST
                                           else bus for bus in grid.buses))
        cfg = SimConfig(dt_max=0.1, t_end=5.0, burn_in=0.0, ensemble_size=4, base_seed=8)
        monkeypatch.setattr(simulate, "_BATCH_BYTES", 15_000)
        for modal in ((True, False), (True, True)):
            members, rows, _ = simulate._plan_batch((4, 6), 3, 2, None, 50, 4, 0, modal)
            assert members == 2 and rows < 50
        seeds = rf"8, {simulate.member_seed(8, 1)}"
        for case, names, fails in ((hetero, "full-linear", lambda state: state.shape == (2, 6)),
                                   (grid, "reduced-xi, full-linear", lambda state: True)):
            self.failing_after_first_chunk(monkeypatch, FloatingPointError("overflow"), fails)
            with pytest.raises(NumericsError, match=rf"^{names}: trajectories 0-1 "
                                                    rf"\(seeds {seeds}\) failed: overflow$"):
                simulate.run_models(case, *simulate.linearize_and_reduce(case), cfg,
                                    ["reduced-xi", "full-linear"])

    def test_streamed_statistics_equal_pooled_formula(self, monkeypatch):
        for chunked in (False, True):
            if chunked:
                # two members per batch, chunks of 23 rows: chunk edges fall
                # inside the 94-row time batches and the ensemble is split
                monkeypatch.setattr(simulate, "_MIN_CHUNK_ROWS", 10)
                monkeypatch.setattr(simulate, "_BATCH_BYTES", 9000)
            self.check_pooled_formula(monkeypatch, chunked)

    @staticmethod
    def check_pooled_formula(monkeypatch, chunked):
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        cfg = SimConfig(dt_max=0.01, t_end=20.0, burn_in=5.0, ensemble_size=3, base_seed=9)
        op, red = simulate.linearize_and_reduce(grid)
        # every batch's chunks as the run steps them, copied
        batches = []
        linear_chunks = simulate._linear_chunks

        def recorded(*args):
            batches.append([])
            for k, block in linear_chunks(*args):
                batches[-1].append(block.copy())
                yield k, block

        monkeypatch.setattr(simulate, "_linear_chunks", recorded)
        (stats,), _ = simulate.run_models(grid, op, red, cfg, ["reduced-xi"])

        # the same members, collected whole and pooled here: the model
        # steps in its modes, read back through them
        t, n_s = make_time_grid(cfg.t_end, cfg.dt_max), red.n_slow
        basis_t = simulate._modal_maps(*simulate._reduced_system(red, "reduced-xi"),
                                       t[1] - t[0])[0].T
        assert [blocks[0].shape[1] for blocks in batches] == ([2, 1] if chunked else [3])
        members = []
        for blocks in batches:
            assert len(blocks) > (16 if chunked else 0)
            states = np.concatenate(blocks)
            members += [Trajectory(t=t, x=states[:, i, 0] @ basis_t, xdot=states[:, i, 1] @ basis_t)
                        for i in range(states.shape[1])]
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
        # member_seed(9, i): batching changes only the rounding of the products
        for i, traj in enumerate(members):
            seed = simulate.member_seed(9, i)
            alone = integrate(grid, op, red, "reduced-xi", cfg, ou_spec_for_grid(grid, seed))
            for got, want in ((traj.x, alone.x), (traj.xdot, alone.xdot)):
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())
        np.testing.assert_array_equal(
            stats.stderr, batch_means.std(axis=0, ddof=1) / math.sqrt(len(batch_means)))
        assert stats.n_samples == n_time * cfg.ensemble_size
        assert stats.bus_ids == red.slow_ids
        # the same whole members folded one per batch, in one chunk each, fold alike
        again = fold_whole(members, cfg.burn_in)
        np.testing.assert_array_equal(again.variance, stats.variance)
        np.testing.assert_array_equal(again.stderr, stats.stderr)

    @pytest.mark.parametrize("model", simulate.MODELS)
    def test_one_member_ensemble_is_the_collector(self, model):
        # integrate and the ensemble run are one loop: member 0 kept by
        # run_models equals the one-member collector bit for bit
        grid = random_connected_grid(np.random.default_rng(4), 9)
        cfg = SimConfig(dt_max=0.01, t_end=30.0, burn_in=1.0, base_seed=5, epsilon=0.3)
        op, red = simulate.linearize_and_reduce(grid)
        _, first = simulate.run_models(grid, op, red, cfg, [model], keep_first=True)
        traj = integrate(grid, op, red, model, cfg, ou_spec_for_grid(grid, 5))
        np.testing.assert_array_equal(first.x, traj.x)
        np.testing.assert_array_equal(first.xdot, traj.xdot)

    def test_kept_record_is_member_0_of_a_split_ensemble(self, monkeypatch):
        # one member per batch: later batches do not overwrite member 0's record
        monkeypatch.setattr(simulate, "_BATCH_BYTES", 5000)
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        cfg = SimConfig(dt_max=0.1, t_end=5.0, burn_in=1.0, ensemble_size=3, base_seed=6)
        op, red = simulate.linearize_and_reduce(grid)
        assert simulate._plan_batch((4,), 3, 2, None, 50, 3, 51 * 4 * 8)[0] == 1
        _, first = simulate.run_models(grid, op, red, cfg, ["reduced-xi"], keep_first=True)
        alone = integrate(grid, op, red, "reduced-xi", cfg, ou_spec_for_grid(grid, 6))
        np.testing.assert_array_equal(first.x, alone.x)
        np.testing.assert_array_equal(first.xdot, alone.xdot)

    def test_peak_memory_of_streamed_ensemble(self):
        # the fold holds one batch's chunk buffers, never a whole record
        grid = random_connected_grid(np.random.default_rng(1), 40)
        cfg = SimConfig(dt_max=0.01, t_end=50.0, burn_in=5.0, ensemble_size=4, base_seed=2)
        op, red = simulate.linearize_and_reduce(grid)
        tracemalloc.start()
        try:
            simulate.run_models(grid, op, red, cfg, ["full-linear"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record_bytes = len(make_time_grid(cfg.t_end, cfg.dt_max)) * 2 * grid.n_buses * 8
        assert peak <= 2.5 * record_bytes

    def test_peak_memory_does_not_grow_with_t_end(self, monkeypatch):
        self.check_peak_memory_does_not_grow("full-linear", 40, 4, (50.0, 200.0))
        # the nonlinear steps cost more: chunks of 192 rows, three Picard
        # windows, so short runs span several
        monkeypatch.setattr(simulate, "_BATCH_BYTES", 2**17)
        self.check_peak_memory_does_not_grow("full-nonlinear", 9, 1, (5.0, 20.0))

    @staticmethod
    def check_peak_memory_does_not_grow(model, n_buses, ensemble, t_ends):
        grid = random_connected_grid(np.random.default_rng(1), n_buses)
        peaks = []
        for t_end in t_ends:
            cfg = SimConfig(dt_max=0.01, t_end=t_end, burn_in=1.0,
                            ensemble_size=ensemble, base_seed=2)
            op, red = simulate.linearize_and_reduce(grid)
            n_steps = round(t_end / cfg.dt_max)
            n_lines = len(grid.lines) if model == "full-nonlinear" else None
            rows = simulate._plan_batch((2 * n_buses,), n_buses, red.n_slow, n_lines, n_steps,
                                        ensemble, 0)[1]
            assert rows < n_steps
            tracemalloc.start()
            try:
                simulate.run_models(grid, op, red, cfg, [model])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_stderr_shrinks_with_ensemble(self):
        grid = path3_grid(sigma_slow=0.05, sigma_fast=0.02)
        mk = lambda ens: SimConfig(dt_max=0.01, t_end=100.0,
                                   burn_in=10.0, ensemble_size=ens, base_seed=5)
        s1 = run_model_ensemble(grid, "reduced-xi", mk(1))
        s4 = run_model_ensemble(grid, "reduced-xi", mk(4))
        ratio = s1.stderr.mean() / s4.stderr.mean()
        assert 1.2 < ratio < 3.5  # ~2 expected from 4x the batches


class TestLockstep:
    @staticmethod
    def map_bytes(width, channels):
        # the half-width solve with LAPACK's copies, and the Jacobian and
        # noise gain the maps are built from
        return 4 * width * (4 * width + 3 * channels) + 2 * width * (width + 2 * channels)

    def test_shared_plan_within_one_budget(self):
        # ieee118-compare's run: 54 slow of 118 buses, 2 members x 30 000
        # steps, three models in one plan hold one _BATCH_BYTES of chunk
        # buffers besides their step maps, not one per model
        widths = (108, 108, 236)
        members, rows, held = simulate._plan_batch(widths, 118, 54, None, 30_000, 2, 0)
        maps = sum(self.map_bytes(w, 118) for w in widths)
        assert members == 2 and rows < 30_000
        assert held - maps <= simulate._BATCH_BYTES
        alone = [simulate._plan_batch((w,), 118, 54, None, 30_000, 2, 0)[1] for w in widths]
        assert rows < min(alone)

    def test_nonlinear_rows_whole_windows(self):
        # star-nonlinear's run: 6 slow of 14 buses, 14 lines; spanning
        # several chunks, the shared rows are whole Picard windows
        widths = (12, 12, 28)
        members, rows, held = simulate._plan_batch(widths, 14, 6, 14, 20_000, 2, 0)
        assert members == 2 and rows < 20_000
        assert rows % simulate._WINDOW_ROWS == 0
        maps = sum(self.map_bytes(w, 14) for w in widths) + 16 * 14 * 14
        assert held - maps <= simulate._BATCH_BYTES

    def test_peak_within_shared_plan(self, monkeypatch):
        # what the shared plan counts bounds what a lockstep run of all four
        # models allocates, over several chunks and member batches
        monkeypatch.setattr(simulate, "_BATCH_BYTES", 2**19)
        grid = random_connected_grid(np.random.default_rng(1), 40)
        cfg = SimConfig(dt_max=0.01, t_end=20.0, burn_in=5.0, ensemble_size=3, base_seed=2)
        op, red = simulate.linearize_and_reduce(grid)
        widths = tuple(2 * (red.n_slow if m.startswith("reduced") else 40) for m in simulate.MODELS)
        members, rows, held = simulate._plan_batch(widths, 40, red.n_slow, len(grid.lines), 2000,
                                                   3, 0)
        assert members < 3 and rows < 2000 and rows % simulate._WINDOW_ROWS == 0
        tracemalloc.start()
        try:
            simulate.run_models(grid, op, red, cfg, list(simulate.MODELS))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= held

    def test_one_noise_draw_per_member_batch(self, monkeypatch):
        # every member's OU path is drawn once, for all models together
        monkeypatch.setattr(simulate, "_BATCH_BYTES", 20_000)
        draws = []
        ou_chunks = simulate._ou_chunks

        def counted(sigma, tau, seeds, *args):
            draws.append(seeds)
            return ou_chunks(sigma, tau, seeds, *args)

        monkeypatch.setattr(simulate, "_ou_chunks", counted)
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        cfg = SimConfig(dt_max=0.01, t_end=5.0, burn_in=1.0, ensemble_size=3, base_seed=4)
        simulate.run_models(grid, *simulate.linearize_and_reduce(grid), cfg,
                            ["reduced-xi", "reduced-naive", "full-linear"])
        assert len(draws) > 1
        assert [s for seeds in draws for s in seeds] == [simulate.member_seed(4, i)
                                                         for i in range(3)]

    def test_bad_model_names_refused_before_anything_is_built(self, monkeypatch):
        # unknown, missing or repeated names are refused by the one check,
        # before a run is planned or a step map is built
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        setup = simulate.linearize_and_reduce(grid)
        cfg = SimConfig(dt_max=0.01, t_end=1.0, burn_in=0.0)

        def nothing_built(*args):
            raise AssertionError("planned or built")

        monkeypatch.setattr(simulate, "_plan_batch", nothing_built)
        monkeypatch.setattr(simulate, "_linear_maps", nothing_built)
        for models, problem in (([], "names no model"), (["reduced-xi", "bogus"], "'bogus'"),
                                (["full-linear", "full-linear"], "names a model twice")):
            with pytest.raises(InputError, match=problem):
                simulate.run_models(grid, *setup, cfg, models)
        for model in ("bogus", "", "Reduced-xi"):
            with pytest.raises(InputError, match="unknown model"):
                integrate(grid, *setup, model, cfg, ou_spec_for_grid(grid, 1))
        with pytest.raises(AssertionError, match="planned or built"):
            simulate.run_models(grid, *setup, cfg, ["reduced-xi"])


class TestStatisticalConsistency:
    def test_reduced_xi_matches_analytic_variance(self):
        rng = np.random.default_rng(40)
        grid = random_connected_grid(rng, 8, homogeneous=True,
                                     sigma_range=(0.005, 0.02))
        _, red = reduced_of(grid)
        analytic = coi_variance(red).var_total

        cfg = SimConfig(dt_max=0.01, t_end=800.0, burn_in=40.0, ensemble_size=4, base_seed=3)
        stats = run_model_ensemble(grid, "reduced-xi", cfg)
        assert np.all(np.abs(stats.variance - analytic) < 3 * stats.stderr)
