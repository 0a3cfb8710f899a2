"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import shutil
import time

import numpy as np
import pytest

from conftest import DATA_DIR, dense_reference, make_grid, random_connected_grid
from kronred.cli import main as cli_main
from kronred.grid import FAST, SLOW
from kronred.reduction import make_star_grid, reduce_grid, xi_covariance
from kronred.simulate import (OUSpec, SimConfig, integrate, linearize_and_reduce,
                              make_time_grid, ou_sample_path, run_model_ensemble)
from kronred.variance import (coi_variance, eigendecompose_reduced, gamma_matrix,
                              lyapunov_oracle_variance, modal_trajectory)


def report(criterion: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({detail}; {time.time() - started:.1f} s)")
    assert ok, f"{criterion}: {detail}"


def analyze(grid):
    """The reduction of the dense reference linearization and its modes."""
    red = reduce_grid(grid, dense_reference(grid)[1])
    return red, eigendecompose_reduced(red.j_red, red.m_slow)


def homogeneous_5_5_grid():
    rng = np.random.default_rng(20240901)
    return random_connected_grid(rng, 10, n_slow=5, homogeneous=True,
                                 sigma_range=(0.003, 0.012))


def embedded_star_of_loads(n_ring=6, n_loads=8, sigma_slow=0.002, sigma_fast=0.012):
    """Ring of slow buses where bus 1 additionally carries a star of loads."""
    buses = []
    for i in range(n_ring):
        buses.append((i + 1, SLOW, 0.0, sigma_slow))
    lines = [(i + 1, (i + 1) % n_ring + 1, 1.0) for i in range(n_ring)]
    grid_specs = make_grid(buses, lines)  # validates the ring alone
    from kronred.grid import Bus, Grid, Line
    all_buses = list(grid_specs.buses)
    all_lines = list(grid_specs.lines)
    for k in range(n_loads):
        bid = n_ring + k + 1
        all_buses.append(Bus(id=bid, speed_class=FAST, m=0.002, d=0.0005, p=0.0,
                             sigma=sigma_fast, tau=0.1))
        all_lines.append(Line(from_bus=1, to_bus=bid, b=1.0))
    return Grid(buses=tuple(all_buses), lines=tuple(all_lines))


def test_criterion_1_laplacian_preservation():
    started = time.time()
    rng = np.random.default_rng(101)
    worst_row, worst_sym, worst_eig = 0.0, 0.0, -np.inf
    for _ in range(100):
        n = int(rng.integers(2, 31))
        grid = random_connected_grid(rng, n, homogeneous=True)
        j_red = reduce_grid(grid, dense_reference(grid)[1]).j_red
        worst_row = max(worst_row, float(np.abs(j_red.sum(axis=1)).max()))
        worst_sym = max(worst_sym, float(np.abs(j_red - j_red.T).max()))
        eigs = np.sort(np.linalg.eigvalsh(j_red))[::-1]
        if len(eigs) > 1:
            worst_eig = max(worst_eig, float(eigs[1]))
    elapsed = time.time() - started
    ok = worst_row < 1e-10 and worst_sym < 1e-12 and worst_eig < 0 and elapsed < 5.0
    report("1 (Laplacian preservation)", ok,
           f"row sums {worst_row:.2e}, asymmetry {worst_sym:.2e}, "
           f"largest nonzero eig {worst_eig:.2e}", started)


def test_criterion_2_star_closed_forms():
    started = time.time()
    sigma = 0.01
    ok = True
    details = []
    for n_f in (4, 8, 16):
        gam = gamma_matrix(*analyze(make_star_grid(n_f, center_class=SLOW, sigma=sigma)))
        rel = abs(gam[0, 0] - sigma**2 * n_f) / (sigma**2 * n_f)
        details.append(f"N_F={n_f}: rel {rel:.1e}")
        ok &= rel < 1e-12
    gam = gamma_matrix(*analyze(make_star_grid(8, center_class=FAST, sigma=sigma)))
    off = float(np.abs(gam[1:, 1:]).max())
    details.append(f"load-center max |Gamma| {off:.1e}")
    ok &= off < 1e-10
    ok &= time.time() - started < 1.0
    report("2 (star closed forms)", ok, "; ".join(details), started)


def test_criterion_3_xi_covariance():
    started = time.time()
    grid = make_grid(
        [(1, SLOW, 0.0, 1.0), (2, FAST, 0.0, 1.0), (3, SLOW, 0.0, 1.0)],
        [(1, 2, 1.0), (2, 3, 1.0)])
    red, _ = analyze(grid)
    n_samples = 100_000
    spec = OUSpec(sigma=np.concatenate([red.sigma_slow, red.sigma_fast]),
                  tau=np.concatenate([red.tau_slow, red.tau_fast]), seed=303)
    dt = 0.05
    eta = ou_sample_path(spec, make_time_grid(n_samples * dt, dt))[:n_samples]
    xi = eta[:, :2] + eta[:, 2:] @ red.noise_gain.T
    emp = xi.T @ xi / n_samples
    sigma_xi = xi_covariance(red)
    rel = np.linalg.norm(emp - sigma_xi) / np.linalg.norm(sigma_xi)
    elapsed = time.time() - started
    ok = rel < 0.05 and elapsed < 10.0
    report("3 (xi covariance)", ok, f"relative Frobenius error {rel:.3%}", started)


def test_criterion_4_ou_statistics():
    started = time.time()
    sigma, tau = 0.8, 0.1
    dt = tau / 4
    n = 1_000_000
    spec = OUSpec(sigma=[sigma], tau=[tau], seed=404)
    path = ou_sample_path(spec, make_time_grid(n * dt, dt))[:n, 0]
    var_rel = abs(path.var() - sigma**2) / sigma**2
    # normalized autocorrelation against e^{-lag/tau}, absolute tolerance
    worst = 0.0
    var = path.var()
    for lag in range(1, 13):  # lag times up to 3*tau
        emp = float(np.mean(path[:n - lag] * path[lag:])) / var
        worst = max(worst, abs(emp - math.exp(-lag * dt / tau)))
    elapsed = time.time() - started
    ok = var_rel < 0.01 and worst < 0.02 and elapsed < 10.0
    report("4 (OU statistics)", ok,
           f"variance rel err {var_rel:.3%}, worst autocorr dev {worst:.4f}", started)


def test_criterion_5_analytic_vs_oracle():
    started = time.time()
    rng = np.random.default_rng(505)
    taus = (0.05, 0.1, 0.5)
    worst = 0.0
    for _ in range(20):
        n_s = int(rng.integers(2, 9))
        n_f = int(rng.integers(1, 9))
        grid = random_connected_grid(
            rng, n_s + n_f, n_slow=n_s, homogeneous=True,
            sigma_range=(0.002, 0.02),
            tau_slow=float(rng.choice(taus)), tau_fast=float(rng.choice(taus)))
        red, _ = analyze(grid)
        analytic = coi_variance(red).var_total
        oracle = lyapunov_oracle_variance(red)
        scale = oracle.max()
        worst = max(worst, float(np.abs(analytic - oracle).max() / scale))
    elapsed = time.time() - started
    ok = worst < 1e-6 and elapsed < 30.0
    report("5 (analytic vs oracle)", ok, f"worst relative deviation {worst:.2e}", started)


def test_criterion_6_simulation_vs_analytics():
    started = time.time()
    grid = homogeneous_5_5_grid()
    assert len(grid.slow_ids) == 5 and len(grid.fast_ids) == 5
    analytic = coi_variance(analyze(grid)[0]).var_total
    cfg = SimConfig(dt_max=0.01, t_end=2000.0, burn_in=60.0, ensemble_size=10, base_seed=606)
    stats = run_model_ensemble(grid, "reduced-xi", cfg)
    rel = np.abs(stats.variance - analytic) / analytic
    elapsed = time.time() - started
    ok = bool(np.all(rel < 0.10)) and elapsed < 300.0
    report("6 (simulation vs analytics)", ok, f"max per-bus deviation {rel.max():.2%}", started)


def test_criterion_7_epsilon_limit():
    started = time.time()
    grid = homogeneous_5_5_grid()
    devs = {}
    for eps, dt in ((1e-2, 0.005), (1e-3, 0.002)):
        cfg_full = SimConfig(dt_max=dt, t_end=800.0, burn_in=60.0,
                             ensemble_size=6, base_seed=707, epsilon=eps)
        cfg_red = SimConfig(dt_max=dt, t_end=800.0, burn_in=60.0, ensemble_size=6, base_seed=707)
        full = run_model_ensemble(grid, "full-linear", cfg_full).variance
        red = run_model_ensemble(grid, "reduced-xi", cfg_red).variance
        devs[eps] = float((np.abs(full - red) / red).max())
    elapsed = time.time() - started
    ok = devs[1e-3] < devs[1e-2] and devs[1e-3] < 0.10 and elapsed < 600.0
    report("7 (epsilon limit)", ok,
           f"max deviation {devs[1e-2]:.2%} at 1e-2 -> {devs[1e-3]:.2%} at 1e-3", started)


def test_criterion_8_naive_model_failure():
    started = time.time()
    # (b)-type: star of loads hanging off one bus of a slow ring
    grid = embedded_star_of_loads()
    design = coi_variance(analyze(grid)[0])
    assert design.var_total[0] / design.var_slow[0] > 2.0  # analytic design check
    sim = {}
    for model in ("reduced-xi", "reduced-naive", "full-nonlinear"):
        cfg = SimConfig(dt_max=0.01, t_end=600.0, burn_in=40.0, ensemble_size=4, base_seed=808)
        sim[model] = run_model_ensemble(grid, model, cfg).variance
    center = 0  # bus 1 carries the loads
    ratio_xi = sim["reduced-xi"][center] / sim["reduced-naive"][center]
    ratio_full = sim["full-nonlinear"][center] / sim["reduced-naive"][center]

    # (a)-type: star of generators around one load
    star_a = make_star_grid(8, center_class=FAST, sigma=0.01)
    agree = {}
    for model in ("reduced-xi", "reduced-naive"):
        cfg = SimConfig(dt_max=0.01, t_end=600.0, burn_in=40.0, ensemble_size=4, base_seed=809)
        agree[model] = run_model_ensemble(star_a, model, cfg).variance
    rel_a = float((np.abs(agree["reduced-xi"] - agree["reduced-naive"])
                   / agree["reduced-xi"]).max())
    elapsed = time.time() - started
    ok = ratio_xi > 2.0 and ratio_full > 2.0 and rel_a < 0.15 and elapsed < 300.0
    report("8 (naive-model failure)", ok,
           f"center ratios xi/naive {ratio_xi:.1f}, full/naive {ratio_full:.1f}; "
           f"generator-star agreement {rel_a:.2%}", started)


def test_criterion_9_integrator_order():
    started = time.time()
    grid = make_grid(
        [(1, SLOW, 0.0, 0.3), (2, FAST, 0.0, 0.5), (3, SLOW, 0.0, 0.3),
         (4, SLOW, 0.0, 0.3)],
        [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.3), (4, 1, 0.9)])
    op, red = linearize_and_reduce(grid)
    coarse_dt = 0.02
    t_coarse = make_time_grid(10.0, coarse_dt)
    rng = np.random.default_rng(909)
    xi_coarse = rng.normal(0.0, 0.2, (len(t_coarse) - 1, red.n_slow))
    exact = modal_trajectory(red, xi_coarse, t_coarse)
    exact_x = exact.xdot - exact.xdot.mean(axis=1, keepdims=True)

    errors = []
    for refine in (1, 2, 4):  # dt = 0.02, 0.01, 0.005
        dt = coarse_dt / refine
        xi = np.repeat(xi_coarse, refine, axis=0)
        noise = np.hstack([xi, np.zeros((len(xi), red.n_fast))])
        cfg = SimConfig(dt_max=dt, t_end=10.0, burn_in=0.0)
        traj = integrate(grid, op, red, "reduced-xi", cfg, noise)
        x = traj.xdot[::refine] - traj.xdot[::refine].mean(axis=1, keepdims=True)
        errors.append(float(np.abs(x - exact_x).max()))
    r1 = errors[1] / errors[0]
    r2 = errors[2] / errors[1]
    elapsed = time.time() - started
    ok = r1 <= 0.5 and r2 <= 0.5 and elapsed < 60.0
    report("9 (integrator order)", ok,
           f"errors {errors[0]:.2e} -> {errors[1]:.2e} -> {errors[2]:.2e} "
           f"(ratios {r1:.2f}, {r2:.2f})", started)


def test_criterion_10_ieee118_end_to_end(tmp_path):
    started = time.time()
    case = tmp_path / "ieee118.m"
    shutil.copy(DATA_DIR / "ieee118.m", case)
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main([
            "compare", str(case), "--out-dir", str(out),
            "--models", "reduced-xi,reduced-naive",
            "--t-end", "300", "--dt", "0.01", "--burn-in", "30",
            "--ensemble", "2", "--seed", "1010",
            "--sigma-dist", "uniform:0:0.01", "--tau", "0.1",
            "--slow-m", "0.2", "--slow-d", "0.05",
            "--fast-m", "0.002", "--fast-d", "0.0005",
        ])
        assert code == 0
        outputs.append((out / "compare.csv").read_bytes())

    reproducible = outputs[0] == outputs[1]
    rows = outputs[0].decode().strip().split("\n")
    header = rows[0].split(",")
    i_change = header.index("rank_change")
    changes = [int(r.split(",")[i_change]) for r in rows[1:]]
    n_buses = len(rows) - 1
    n_changed = sum(1 for c in changes if c != 0)
    analytic_filled = all(r.split(",")[1] != "" for r in rows[1:])
    elapsed = time.time() - started
    ok = (reproducible and n_buses == 54 and n_changed > 0 and analytic_filled
          and elapsed < 900.0)
    report("10 (IEEE-118 end to end)", ok,
           f"54 slow buses, {n_changed} rank changes, "
           f"bit-reproducible={reproducible}", started)
