"""Modal analysis, kernels, closed-form variance, oracles."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from conftest import dense_reference, make_grid, path3_grid, random_connected_grid
from kronred.cli import main
from kronred.errors import InputError, NumericsError
from kronred.grid import (FAST, SLOW, ClassDefaults, parse_matpower_case, serialize_grid_json,
                          with_sigma)
from kronred.reduction import ReducedSystem, make_star_grid, reduce_grid
from kronred.simulate import make_time_grid
from kronred.variance import (ModalBasis, coi_variance, eigendecompose_reduced,
                              frequency_variance_kernel, gamma_matrix, h_kernel,
                              lyapunov_oracle_variance, modal_trajectory)


def pipeline(grid):
    """The dense reference linearization, its reduction and modes."""
    _, sys = dense_reference(grid)
    red = reduce_grid(grid, sys)
    return sys, red, eigendecompose_reduced(red.j_red, red.m_slow)


class TestEigendecompose:
    def test_two_mode_analytic(self):
        basis = eigendecompose_reduced(np.array([[-0.5, 0.5], [0.5, -0.5]]), np.ones(2))
        np.testing.assert_allclose(basis.lambdas, [0.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(basis.modes[:, 1]),
                                   [1 / math.sqrt(2)] * 2, atol=1e-14)

    def test_single_bus(self):
        basis = eigendecompose_reduced(np.zeros((1, 1)), np.ones(1))
        assert basis.lambdas[0] == 0.0
        np.testing.assert_allclose(basis.modes, [[1.0]])

    def test_star_rank_one_spectrum(self):
        n = 6
        j_red = -np.eye(n) + np.full((n, n), 1.0 / n)
        basis = eigendecompose_reduced(j_red, np.ones(n))
        np.testing.assert_allclose(basis.lambdas, [0.0] + [-1.0] * (n - 1), atol=1e-12)

    def test_zero_mode_snapped_and_orthonormal(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            grid = random_connected_grid(rng, int(rng.integers(3, 20)), homogeneous=True)
            _, red, basis = pipeline(grid)
            n = red.n_slow
            np.testing.assert_array_equal(basis.modes[:, 0], np.full(n, 1.0 / math.sqrt(n)))
            assert basis.lambdas[0] == 0.0
            gram = basis.modes.T @ basis.modes
            assert np.abs(gram - np.eye(n)).max() < 1e-10
            resid = red.j_red @ basis.modes - basis.modes * basis.lambdas
            assert np.abs(resid).max() < 1e-8

    def test_unequal_inertia_modes_are_mass_normalized(self):
        # modes of the mass-scaled J_red: V^T diag(m / m_0) V = I, the
        # first one uniform, and J_red v = lambda diag(m / m_0) v
        rng = np.random.default_rng(29)
        grid = random_connected_grid(rng, 14, n_slow=8)
        _, red, _ = pipeline(grid)
        m = rng.uniform(0.06, 0.6, red.n_slow)
        mu = m / m[0]
        basis = eigendecompose_reduced(red.j_red, m)
        modes = basis.modes
        assert np.abs(modes.T @ (mu[:, None] * modes) - np.eye(red.n_slow)).max() < 1e-10
        np.testing.assert_allclose(modes[:, 0], modes[0, 0], rtol=1e-14)
        resid = red.j_red @ modes - mu[:, None] * modes * basis.lambdas
        assert np.abs(resid).max() < 1e-8

    def test_inertia_of_wrong_shape_or_sign_rejected(self):
        for m in (np.ones(3), np.array([0.2, 0.0]), np.array([0.2, np.nan])):
            with pytest.raises(InputError, match="positive inertias"):
                eigendecompose_reduced(np.array([[-0.5, 0.5], [0.5, -0.5]]), m)

    def test_disconnected_reduced_network_rejected(self):
        block = np.array([[-1.0, 1.0], [1.0, -1.0]])
        j_red = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
        with pytest.raises(NumericsError, match="not simple"):
            eigendecompose_reduced(j_red, np.ones(4))

    def test_non_laplacian_rejected(self):
        with pytest.raises(InputError, match="row sums"):
            eigendecompose_reduced(np.array([[-2.0, 1.0], [1.0, -2.0]]), np.ones(2))
        with pytest.raises(InputError, match="symmetric"):
            eigendecompose_reduced(np.array([[-1.0, 1.0], [0.5, -0.5]]), np.ones(2))


class TestGammaMatrix:
    def test_generator_center_scales_with_loads(self):
        sigma = 0.01
        for n_f in (4, 8, 16):
            grid = make_star_grid(n_f, center_class=SLOW, sigma=sigma)
            _, red, basis = pipeline(grid)
            gam = gamma_matrix(red, basis)
            assert gam.shape == (1, 1)
            assert gam[0, 0] == pytest.approx(sigma**2 * n_f, rel=1e-12)

    def test_load_center_vanishes_off_uniform(self):
        grid = make_star_grid(8, center_class=FAST, sigma=0.01)
        _, red, basis = pipeline(grid)
        gam = gamma_matrix(red, basis)
        assert np.abs(gam[1:, 1:]).max() < 1e-10

    def test_zero_fast_noise(self):
        grid = path3_grid(sigma_slow=0.5, sigma_fast=0.0)
        _, red, basis = pipeline(grid)
        gam = gamma_matrix(red, basis)
        np.testing.assert_array_equal(gam, np.zeros((2, 2)))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            grid = random_connected_grid(rng, int(rng.integers(3, 16)), homogeneous=True)
            _, red, basis = pipeline(grid)
            gam = gamma_matrix(red, basis)
            assert np.abs(gam - gam.T).max() < 1e-14
            assert np.linalg.eigvalsh(gam).min() > -1e-12

    def test_matches_dense_solve_reference(self, ieee118_text):
        # Gamma = W^T diag(sigma_F^2) W with W = K^T U = (-J_FF)^-1 J_FS U
        rng = np.random.default_rng(37)
        grids = [random_connected_grid(rng, n, n_slow=n // 3 + 1, homogeneous=True)
                 for n in (4, 9, 17, 30)]
        slow = ClassDefaults(m=0.2, d=0.05, tau=0.1)
        fast = ClassDefaults(m=0.002, d=0.0005, tau=0.1)
        ieee = parse_matpower_case(ieee118_text, slow, fast)
        grids.append(with_sigma(ieee, rng.uniform(0.0, 0.01, ieee.n_buses)))
        for grid in grids:
            sys, red, basis = pipeline(grid)
            gam = gamma_matrix(red, basis)
            w = np.linalg.solve(-sys.j_ff, sys.j_fs @ basis.modes)
            ref = (w * red.sigma_fast[:, None]**2).T @ w
            assert np.abs(gam - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_overflowing_fast_noise_is_input_error(self):
        # each sigma^2 is finite, the modal sum over fast buses is not
        _, red, basis = pipeline(path3_grid())
        big = replace(red, noise_gain=4.0 * red.noise_gain, sigma_fast=np.full(1, 1.2e154))
        with pytest.raises(InputError, match="Gamma overflows"):
            gamma_matrix(big, basis)

    def test_inconsistent_reduced_system_rejected(self):
        _, red, basis = pipeline(path3_grid())
        with pytest.raises(InputError, match="noise-map columns"):
            gamma_matrix(replace(red, sigma_fast=np.ones(2)), basis)
        with pytest.raises(InputError, match="modes for 2 slow buses"):
            gamma_matrix(red, eigendecompose_reduced(np.zeros((1, 1)), np.ones(1)))

    def test_fast_block_factored_once_per_reduction(self, monkeypatch):
        import kronred.reduction
        import kronred.variance
        calls = []
        for module in (kronred.reduction, kronred.variance):
            original = getattr(module, "factor_fast_block", None)
            if original is not None:
                def counted(j_ff, _original=original, _name=module.__name__):
                    calls.append(_name)
                    return _original(j_ff)
                monkeypatch.setattr(module, "factor_fast_block", counted)
        rng = np.random.default_rng(38)
        grid = random_connected_grid(rng, 12, n_slow=5, homogeneous=True)
        _, red, _ = pipeline(grid)
        coi_variance(red)
        assert calls == ["kronred.reduction"]


class TestHKernel:
    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            la, lb = -rng.uniform(0.1, 5.0, 2)
            tau, gamma, m = rng.uniform(0.02, 0.5), rng.uniform(0.1, 2.0), rng.uniform(0.05, 1.0)
            assert h_kernel(la, lb, tau, gamma, m) == pytest.approx(
                h_kernel(lb, la, tau, gamma, m), rel=1e-13)

    def test_diagonal_closed_form(self):
        # H(lam, lam) = 1 / (2 gamma m (gamma m tau + lam tau^2 + m))
        value = h_kernel(-1.0, -1.0, 0.1, 1.0, 1.0)
        assert value == pytest.approx(1.0 / 2.18, rel=1e-14)
        rng = np.random.default_rng(9)
        for _ in range(20):
            lam = -rng.uniform(0.1, 3.0)
            tau, gamma, m = rng.uniform(0.02, 0.3), rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.0)
            closed = 1.0 / (2 * gamma * m * (gamma * m * tau + lam * tau**2 + m))
            assert h_kernel(lam, lam, tau, gamma, m) == pytest.approx(closed, rel=1e-12)

    def test_long_correlation_time_decay(self):
        values = [abs(h_kernel(-1.0, -1.0, tau, 1.0, 1.0)) for tau in (1e2, 1e3, 1e4)]
        assert values[0] > values[1] > values[2]
        # leading tau^-2 decay
        assert values[2] == pytest.approx(values[1] / 100, rel=0.05)

    def test_degenerate_denominator_raises_with_factor_name(self):
        # gamma*m*tau + lam*tau^2 + m = 1 - 2 + 1 = 0
        with pytest.raises(NumericsError, match=r"lam_a\*tau\^2"):
            h_kernel(-2.0, -2.0, 1.0, 1.0, 1.0)

    def test_positive_eigenvalue_rejected(self):
        with pytest.raises(InputError, match="<= 0"):
            h_kernel(0.5, -1.0, 0.1, 1.0, 1.0)


def spectral_integral(lam_a, lam_b, tau, gamma, m):
    """Quadrature oracle: stationary <v_a v_b> per unit noise covariance.

    Integrates the cross-spectrum of the two mode responses to a shared
    OU input over all frequencies.
    """
    d = gamma * m

    def integrand(w):
        spec = 2.0 * tau / (1.0 + (w * tau)**2)
        a_re = -m * w * w - lam_a
        b_re = -m * w * w - lam_b
        denom_prod = (a_re + 1j * d * w) * (b_re - 1j * d * w)
        return spec * w * w * (1.0 / denom_prod).real / (2 * math.pi)

    total, err = quad(integrand, 0, np.inf, limit=400)
    return 2.0 * total  # even integrand


class TestFrequencyVarianceKernel:
    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            la, lb = -rng.uniform(0.1, 6.0, 2)
            tau = rng.uniform(0.02, 0.6)
            gamma = rng.uniform(0.1, 2.0)
            m = rng.uniform(0.05, 1.0)
            oracle = spectral_integral(la, lb, tau, gamma, m)
            value = float(frequency_variance_kernel(la, lb, tau, gamma, m))
            assert value == pytest.approx(oracle, rel=1e-7)

    def test_diagonal_matches_single_mode_lyapunov_closed_form(self):
        # <v^2> = tau / (gamma m (gamma m tau + m - lam tau^2)) per unit sigma^2
        rng = np.random.default_rng(13)
        for _ in range(20):
            lam = -rng.uniform(0.1, 4.0)
            tau, gamma, m = rng.uniform(0.02, 0.5), rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.0)
            closed = tau / (gamma * m * (gamma * m * tau + m - lam * tau**2))
            assert float(frequency_variance_kernel(lam, lam, tau, gamma, m)) == \
                pytest.approx(closed, rel=1e-12)

    def test_positive_on_diagonal(self):
        rng = np.random.default_rng(14)
        lam = -rng.uniform(0.05, 10.0, 50)
        vals = frequency_variance_kernel(lam, lam, 0.1, 0.25, 0.2)
        assert np.all(vals > 0)

    def test_is_the_expression_bit_for_bit(self):
        # the buffers are written in place, with the operations of the
        # ratio's expression in its order, so every float is that of the
        # expression evaluated term by term
        rng = np.random.default_rng(4)
        lam = -np.abs(rng.standard_normal(60)) * 10.0 ** rng.integers(-3, 4, 60)
        for tau, gamma, m in ((0.1, 0.25, 0.2), (3.0, 1e-3, 5.0)):
            a, b = -lam[:, None], -lam[None, :]
            num = 0.5 * (2.0 * gamma * m * (a + b) * (gamma * tau + 1.0)
                         + 4.0 * gamma * a * b * tau**2 - tau * (a - b)**2)
            den = ((2.0 * gamma**2 * m * (a + b) + (a - b)**2)
                   * (gamma * m * tau + a * tau**2 + m) * (gamma * m * tau + b * tau**2 + m))
            kernel = frequency_variance_kernel(lam[:, None], lam[None, :], tau, gamma, m)
            assert kernel.tobytes() == (2.0 * tau * (num / den)).tobytes()

    def test_zero_mode_pair_rejected(self):
        with pytest.raises(InputError, match="zero"):
            frequency_variance_kernel(0.0, 0.0, 0.1, 1.0, 1.0)


class TestCoiVariance:
    def test_all_zero_noise(self):
        grid = path3_grid(sigma_slow=0.0, sigma_fast=0.0)
        _, red, _ = pipeline(grid)
        report = coi_variance(red)
        np.testing.assert_array_equal(report.var_total, 0.0)

    def test_slow_only_two_bus_matches_oracle(self):
        grid = make_grid([(1, SLOW, 0.0, 0.02), (2, SLOW, 0.0, 0.02)], [(1, 2, 1.0)])
        _, red, _ = pipeline(grid)
        report = coi_variance(red)
        oracle = lyapunov_oracle_variance(red)
        np.testing.assert_allclose(report.var_total, oracle, rtol=1e-6)
        np.testing.assert_array_equal(report.var_fast, 0.0)

    def test_path_symmetric_buses_match(self):
        grid = path3_grid(sigma_slow=0.0, sigma_fast=1.0)
        _, red, _ = pipeline(grid)
        report = coi_variance(red)
        assert report.var_total[0] == pytest.approx(report.var_total[1], abs=1e-15)
        oracle = lyapunov_oracle_variance(red)
        np.testing.assert_allclose(report.var_total, oracle, atol=1e-12)

    def test_additivity_split(self):
        rng = np.random.default_rng(15)
        grid = random_connected_grid(rng, 8, homogeneous=True, sigma_range=(0.005, 0.02))
        _, red, _ = pipeline(grid)
        report = coi_variance(red)
        np.testing.assert_allclose(report.var_total, report.var_slow + report.var_fast,
                                   rtol=1e-12)
        assert np.all(report.var_total >= 0)

    def test_sigma_scaling_is_quadratic(self):
        rng = np.random.default_rng(16)
        grid = random_connected_grid(rng, 7, homogeneous=True, sigma_range=(0.005, 0.02))
        from kronred.grid import with_sigma
        scaled = with_sigma(grid, 3.0 * grid.param_vector("sigma"))
        _, red1, _ = pipeline(grid)
        _, red2, _ = pipeline(scaled)
        r1 = coi_variance(red1)
        r2 = coi_variance(red2)
        np.testing.assert_allclose(r2.var_total, 9.0 * r1.var_total, rtol=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(18)
        grid = random_connected_grid(rng, 8, homogeneous=True, sigma_range=(0.005, 0.02))
        perm_buses = tuple(grid.buses[k] for k in rng.permutation(grid.n_buses))
        from kronred.grid import Grid
        permuted = Grid(buses=perm_buses, lines=grid.lines)
        _, red1, _ = pipeline(grid)
        _, red2, _ = pipeline(permuted)
        by_id1 = dict(zip(red1.slow_ids, coi_variance(red1).var_total))
        by_id2 = dict(zip(red2.slow_ids, coi_variance(red2).var_total))
        assert set(by_id1) == set(by_id2)
        for bid in by_id1:
            assert by_id1[bid] == pytest.approx(by_id2[bid], rel=1e-9)

    def test_single_slow_bus_is_exactly_zero(self, tmp_path):
        # one slow bus has only the uniform mode, which the COI drops: exactly
        # 0, also where the kernels would overflow (tau^2, gamma^2 > max float)
        for star in ({}, {"tau": 1e200}, {"d": 1e300}):
            _, red, _ = pipeline(make_star_grid(8, center_class=SLOW, **star))
            report = coi_variance(red)
            for var in (report.var_total, report.var_slow, report.var_fast):
                assert var.tolist() == [0.0]
            np.testing.assert_array_equal(report.var_total, lyapunov_oracle_variance(red))
        grid = make_star_grid(8, center_class=SLOW)
        path = tmp_path / "star.json"
        path.write_text(serialize_grid_json(grid))
        assert main(["variance", str(path), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "variance.csv").read_text().splitlines()[1:] == ["1,0.0,0.0,0.0,0.0"]

    def test_heterogeneous_parameters_rejected(self):
        grid = make_grid([(1, SLOW, 0.0), (2, SLOW, 0.0), (3, FAST, 0.0)],
                         [(1, 2, 1.0), (2, 3, 1.0)])
        from dataclasses import replace
        buses = (replace(grid.buses[0], m=0.3),) + grid.buses[1:]
        from kronred.grid import Grid
        hetero = Grid(buses=buses, lines=grid.lines)
        _, red, _ = pipeline(hetero)
        with pytest.raises(InputError, match="use simulation"):
            coi_variance(red)

    def test_unequal_inertia_matches_oracle(self):
        # slow m scaled by U(0.3, 3) at one d/m: the modes coi_variance
        # builds from the slow buses' m give the oracle's values
        from kronred.grid import Grid
        rng = np.random.default_rng(12)
        grid = random_connected_grid(rng, 12, n_slow=6, homogeneous=True,
                                     sigma_range=(0.002, 0.02))
        buses = tuple(replace(bus, m=bus.m * c, d=bus.d * c) if bus.speed_class == SLOW else bus
                      for bus, c in zip(grid.buses, rng.uniform(0.3, 3.0, grid.n_buses)))
        _, red, _ = pipeline(Grid(buses=buses, lines=grid.lines))
        assert np.ptp(red.m_slow) > 0 and np.ptp(red.d_slow / red.m_slow) == 0
        np.testing.assert_allclose(coi_variance(red).var_total,
                                   lyapunov_oracle_variance(red), rtol=1e-6)

    def test_matches_oracle_on_random_systems(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            grid = random_connected_grid(rng, int(rng.integers(4, 12)),
                                         homogeneous=True, sigma_range=(0.002, 0.02),
                                         tau_slow=0.1, tau_fast=0.05)
            _, red, _ = pipeline(grid)
            report = coi_variance(red)
            oracle = lyapunov_oracle_variance(red)
            np.testing.assert_allclose(report.var_total, oracle, rtol=1e-6)

    def test_matches_einsum_mode_sums(self):
        rng = np.random.default_rng(23)
        for n in (5, 40, 200):
            grid = random_connected_grid(rng, n, homogeneous=True, sigma_range=(0.002, 0.02),
                                         tau_slow=0.1, tau_fast=0.05)
            _, red, basis = pipeline(grid)
            gam = gamma_matrix(red, basis)
            report = coi_variance(red)
            lam, u = basis.lambdas[1:], basis.modes[:, 1:]
            m = red.m_slow[0]
            kern_s, kern_f = (frequency_variance_kernel(lam[:, None], lam[None, :], tau,
                                                        red.d_slow[0] / m, m)
                              for tau in (0.1, 0.05))
            slow_amp = (u * red.sigma_slow[:, None]**2).T @ u
            var_slow = np.einsum("ia,ab,ib->i", u, slow_amp * kern_s, u)
            var_fast = np.einsum("ia,ab,ib->i", u, gam[1:, 1:] * kern_f, u)
            np.testing.assert_allclose(report.var_slow, var_slow, rtol=1e-12, atol=0)
            np.testing.assert_allclose(report.var_fast, var_fast, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tau_slow, tau_fast", [(0.1, 0.1), (0.1, 0.05)])
    def test_one_kernel_per_tau(self, monkeypatch, tau_slow, tau_fast):
        # each distinct tau's kernel is built once, in ascending order, and
        # weights the mode sums of both noise classes
        import kronred.variance
        taus = []
        kernel = kronred.variance.frequency_variance_kernel

        def counted(lam_a, lam_b, tau, gamma, m):
            taus.append(float(tau))
            return kernel(lam_a, lam_b, tau, gamma, m)
        grid = random_connected_grid(np.random.default_rng(5), 12, homogeneous=True,
                                     sigma_range=(0.002, 0.02), tau_slow=tau_slow,
                                     tau_fast=tau_fast)
        _, red, _ = pipeline(grid)
        assert red.n_fast and red.n_slow > 1
        monkeypatch.setattr(kronred.variance, "frequency_variance_kernel", counted)
        coi_variance(red)
        assert taus == sorted({tau_slow, tau_fast})

    def test_holds_gamma_and_one_kernel(self):
        # coi_variance holds the modes it builds (N_S x N_S), and beside
        # them Gamma and one kernel's three N_S x N_S buffers (Gamma's
        # N_F x N_S factor is half an N_S x N_S here, N_F = N_S / 2); a
        # second kernel held beside the first, or one kernel's expression
        # temporaries, exceed it
        grid = random_connected_grid(np.random.default_rng(7), 600, n_slow=400,
                                     homogeneous=True)
        _, red, _ = pipeline(grid)
        tracemalloc.start()
        try:
            coi_variance(red)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 5 * red.n_slow**2 + 8 * red.n_slow**2, peak

    def test_csv_columns(self, tmp_path):
        grid = tmp_path / "path3.json"
        grid.write_text(serialize_grid_json(path3_grid(sigma_slow=0.1, sigma_fast=0.5)))
        assert main(["variance", str(grid), "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / "variance.csv").read_text()
        header, first, second = text.strip().split("\n")
        assert header == "bus_id,var_total,var_slow_part,var_fast_part,var_naive"
        cols = first.split(",")
        assert cols[0] == "1"
        assert float(cols[1]) == pytest.approx(float(cols[2]) + float(cols[3]), rel=1e-12)
        assert float(cols[4]) == float(cols[2])


class TestLyapunovOracle:
    def test_zero_noise(self):
        grid = path3_grid(sigma_slow=0.0, sigma_fast=0.0)
        _, red, _ = pipeline(grid)
        np.testing.assert_allclose(lyapunov_oracle_variance(red), 0.0, atol=1e-18)

    def test_heterogeneous_parameters_accepted(self):
        rng = np.random.default_rng(20)
        grid = random_connected_grid(rng, 9, homogeneous=False, sigma_range=(0.005, 0.02),
                                     tau_slow=0.1, tau_fast=0.04)
        _, red, _ = pipeline(grid)
        var = lyapunov_oracle_variance(red)
        assert var.shape == (red.n_slow,)
        assert np.all(var >= 0)

    def test_heterogeneous_tau_accepted(self):
        grid = path3_grid(sigma_slow=0.02, sigma_fast=0.05)
        from dataclasses import replace
        from kronred.grid import Grid
        buses = (replace(grid.buses[0], tau=0.3),) + grid.buses[1:]
        _, red, _ = pipeline(Grid(buses=buses, lines=grid.lines))
        assert np.all(lyapunov_oracle_variance(red) >= 0)

    def test_unstable_system_rejected(self):
        red = ReducedSystem(
            slow_ids=(1, 2), fast_ids=(), j_red=np.array([[0.1, -0.1], [-0.1, 0.1]]),
            noise_gain=np.zeros((2, 0)), sigma_slow=np.array([0.1, 0.1]),
            sigma_fast=np.zeros(0), tau_slow=np.array([0.1, 0.1]), tau_fast=np.zeros(0),
            m_slow=np.array([0.2, 0.2]), d_slow=np.array([0.05, 0.05]))
        with pytest.raises(NumericsError, match="unstable"):
            lyapunov_oracle_variance(red)


class TestModalTrajectory:
    def test_zero_noise_zero_state(self):
        grid = path3_grid()
        _, red, _ = pipeline(grid)
        t = make_time_grid(5.0, 0.01)
        traj = modal_trajectory(red, np.zeros((len(t) - 1, 2)), t)
        np.testing.assert_array_equal(traj.x, 0.0)
        np.testing.assert_array_equal(traj.xdot, 0.0)

    def test_underdamped_envelope_decays_at_half_gamma(self):
        grid = path3_grid()
        _, red, basis = pipeline(grid)
        m, d = red.m_slow[0], red.d_slow[0]
        gamma = d / m
        lam = basis.lambdas[1]
        omega = math.sqrt(-lam / m - gamma**2 / 4)
        u2 = basis.modes[:, 1]
        t = make_time_grid(20.0, 0.01)
        traj = modal_trajectory(red, np.zeros((len(t) - 1, 2)), t, x0=u2)
        z = traj.x @ u2
        zdot = traj.xdot @ u2
        # amplitude-phase energy: sqrt(z^2 + ((zdot + gamma z/2)/omega)^2) = A0 e^{-gamma t/2}
        amp = np.sqrt(z**2 + ((zdot + 0.5 * gamma * z) / omega)**2)
        np.testing.assert_allclose(amp, amp[0] * np.exp(-0.5 * gamma * t), rtol=1e-8)

    def test_matches_ode_solver_for_constant_forcing(self):
        grid = path3_grid()
        _, red, _ = pipeline(grid)
        m, d = red.m_slow[0], red.d_slow[0]
        t = make_time_grid(4.0, 0.05)
        force = np.tile([0.03, -0.05], (len(t) - 1, 1))
        traj = modal_trajectory(red, force, t)

        proj = np.eye(2) - np.full((2, 2), 0.5)  # forcing enters orthogonal to uniform
        def rhs(_, state):
            x, v = state[:2], state[2:]
            return np.concatenate([v, (red.j_red @ x - d * v + proj @ force[0]) / m])

        sol = solve_ivp(rhs, (0.0, 4.0), np.zeros(4), t_eval=t, rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(traj.x, sol.y[:2].T, atol=1e-8)
        np.testing.assert_allclose(traj.xdot, sol.y[2:].T, atol=1e-8)

    def test_nonuniform_grid_rejected(self):
        grid = path3_grid()
        _, red, _ = pipeline(grid)
        for t in ([0.0, 0.1, 0.3], [0.0, math.inf], [0.0, math.nan], [math.inf, math.inf],
                  ["a", "b"]):
            with pytest.raises(InputError, match="uniform"):
                modal_trajectory(red, np.zeros((2, 2)), t)

    def test_bad_noise_path_or_initial_state_rejected(self):
        # the noise path over the rows the steps read, and x0/v0, must be
        # finite numbers of their shape; each failure says what was wrong
        grid = path3_grid()
        _, red, _ = pipeline(grid)
        t = make_time_grid(1.0, 0.1)
        path = np.zeros((10, 2))
        nan_path = path.copy()
        nan_path[9, 1] = math.nan
        value, numbers = ", got a non-finite value$", ": could not convert"
        for noise, problem in ((nan_path, value), ([["a", "b"]] * 10, numbers),
                               (np.zeros((9, 2)), r", got shape \(9, 2\)$"),
                               (np.zeros((10, 3)), r", got shape \(10, 3\)$")):
            with pytest.raises(InputError, match=r"^noise path must be \(>= 10, 2\) finite "
                                                 rf"numbers{problem}"):
                modal_trajectory(red, noise, t)
        for bad, problem in (({"x0": np.zeros(3)}, r", got shape \(3,\)$"),
                             ({"v0": [1.0]}, r", got shape \(1,\)$"),
                             ({"x0": [math.nan, 0.0]}, value), ({"v0": [0.0, math.inf]}, value),
                             ({"x0": ["a", "b"]}, numbers)):
            with pytest.raises(InputError, match=rf"^{next(iter(bad))} must be 2 finite values, "
                                                 rf"one per slow bus{problem}"):
                modal_trajectory(red, path, t, **bad)
        unread = np.vstack([path, [[math.nan, math.nan]]])  # a row past the last step
        np.testing.assert_array_equal(modal_trajectory(red, unread, t).x, 0.0)
