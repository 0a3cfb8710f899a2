"""Stochastic simulation: exact OU sampling, drift-implicit integrators,
ensemble statistics.

Noise enters every integrator as a piecewise-constant path of exactly
sampled Ornstein-Uhlenbeck values (one value per step), so the noise
statistics are exact at any step size and noise sampling is cleanly
separated from drift stepping.  The drift is advanced with a
theta-implicit step (theta = 0.5: trapezoid, the default; theta = 1:
backward Euler for very stiff timescale ratios).

Noise channels are always ordered slow buses first, then fast buses.
All models of the same grid draw their channels from the same layout,
so runs with equal seeds see identical underlying noise: the reduced
"xi" model combines eta_slow + K eta_fast, the naive model keeps only
eta_slow, the full models apply each bus its own channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.signal import lfilter

from .errors import InputError, NumericsError
from .grid import (Grid, LinearizedSystem, OperatingPoint, _angle_jacobian,
                   assemble_linearized, build_jacobian, solve_fixed_point)
from .reduction import ReducedSystem, reduce_grid

MODELS = ("full-nonlinear", "full-linear", "reduced-xi", "reduced-naive")

# Most steps one time grid, and one whole ensemble, may request: a run
# holds every noise path and trajectory in memory.
MAX_STEPS = 10_000_000

_N_BATCHES = 16  # time batches per trajectory behind the batch-means stderr

# Acceptance of a nonlinear implicit step: max-norm of the exact step
# residual, and the iteration cap.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 30


@dataclass(frozen=True)
class OUSpec:
    """Independent stationary OU channels: per-channel sigma, tau, one seed."""

    sigma: np.ndarray
    tau: np.ndarray
    seed: int

    def __post_init__(self):
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tau", tau)
        if sigma.shape != tau.shape:
            raise InputError(f"sigma shape {sigma.shape} != tau shape {tau.shape}")
        if np.any(sigma < 0):
            raise InputError("sigma must be >= 0")
        if np.any(tau <= 0):
            raise InputError("tau must be > 0")

    @property
    def n_channels(self) -> int:
        return len(self.sigma)


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation study."""

    model: str
    dt_max: float
    t_end: float
    burn_in: float
    ensemble_size: int = 1
    base_seed: int = 0
    epsilon: float = 1.0
    theta: float = 0.5

    def __post_init__(self):
        if self.model not in MODELS:
            raise InputError(f"unknown model {self.model!r}; choose from {MODELS}")
        for name in ("t_end", "dt_max", "burn_in"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.dt_max > 0:
            raise InputError(f"dt_max must be > 0, got {self.dt_max}")
        if not 0 <= self.burn_in < self.t_end:
            raise InputError(f"need 0 <= burn_in < t_end, got {self.burn_in}, {self.t_end}")
        if self.ensemble_size < 1:
            raise InputError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if self.base_seed < 0:
            raise InputError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.theta not in (0.5, 1.0):
            raise InputError(f"theta must be 0.5 or 1.0, got {self.theta}")
        if not self.epsilon > 0:
            raise InputError(f"epsilon must be > 0, got {self.epsilon}")
        total = self.ensemble_size * _step_count(self.t_end, self.dt_max)
        if total > MAX_STEPS:
            raise InputError(f"ensemble_size x steps = {total:.4g} exceeds the limit {MAX_STEPS}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled path: slow-bus deviations x, frequencies xdot; fast-bus
    y, ydot only for the full models."""

    t: np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    y: np.ndarray | None = None
    ydot: np.ndarray | None = None


@dataclass(frozen=True)
class EnsembleStats:
    """Per-bus COI frequency statistics pooled over time and ensemble."""

    bus_ids: tuple[int, ...]
    mean: np.ndarray
    variance: np.ndarray
    stderr: np.ndarray
    n_samples: int


def _step_count(t_end: float, dt_max: float) -> int:
    """Steps of the uniform grid over [0, t_end] with step <= dt_max;
    refuses more than MAX_STEPS before anything is allocated."""
    steps = round(t_end / dt_max, 9)
    if not steps <= MAX_STEPS:
        raise InputError(f"t_end / dt_max = {steps:.4g} steps exceeds the limit of "
                         f"{MAX_STEPS} steps")
    return max(1, math.ceil(steps))


def make_time_grid(t_end: float, dt_max: float) -> np.ndarray:
    """Uniform grid covering [0, t_end] with step <= dt_max."""
    return np.linspace(0.0, t_end, _step_count(t_end, dt_max) + 1)


def default_dt_max(grid: Grid, epsilon: float) -> float:
    """Step bound: a tenth of the shortest noise correlation time, capped
    by the epsilon-scaled fast relaxation scale m/d."""
    tau_min = float(grid.param_vector("tau").min())
    bound = tau_min / 10.0
    fast = [b for b in grid.buses if b.speed_class == "fast"]
    if fast:
        relax = min(b.m / b.d for b in fast)
        bound = min(bound, epsilon * relax)
    return bound


def default_burn_in(grid: Grid) -> float:
    """Ten times the slowest relaxation scale, so measurements start
    from (near-)stationarity."""
    tau_max = float(grid.param_vector("tau").max())
    relax = max(b.m / b.d for b in grid.buses)
    return 10.0 * max(tau_max, relax)


# ---------------------------------------------------------------------------
# OU sampling
# ---------------------------------------------------------------------------

def ou_sample_path(spec: OUSpec, t_grid: np.ndarray) -> np.ndarray:
    """Exact stationary OU samples at every grid point, shape (len(t), C).

    Per channel: eta_{k+1} = a eta_k + sigma sqrt(1-a^2) z_k with
    a = exp(-dt/tau), starting from a stationary draw N(0, sigma^2).
    The draw order (initial state first, then all step innovations) is
    fixed, so a given seed always yields the same path.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dts = np.diff(t_grid)
    if len(dts) == 0:
        raise InputError("time grid needs at least two points")
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-9, atol=0.0) or dt <= 0:
        raise InputError("time grid must be uniform and increasing")

    n_steps = len(dts)
    c = spec.n_channels
    rng = np.random.default_rng(np.uint64(spec.seed))
    eta0 = spec.sigma * rng.standard_normal(c)
    z = rng.standard_normal((n_steps, c))

    path = np.empty((n_steps + 1, c))
    path[0] = eta0
    for j in range(c):
        a = math.exp(-dt / spec.tau[j])
        b = spec.sigma[j] * math.sqrt(1.0 - a * a)
        path[1:, j], _ = lfilter([b], [1.0, -a], z[:, j], zi=[a * eta0[j]])
    return path


def ou_spec_for_grid(grid: Grid, seed: int) -> OUSpec:
    """OU channels for all buses, slow-then-fast ordering."""
    order = grid.ordering()
    return OUSpec(sigma=grid.param_vector("sigma")[order],
                  tau=grid.param_vector("tau")[order], seed=seed)


def _noise_values(noise, t_grid: np.ndarray, n_channels: int) -> np.ndarray:
    """Per-step noise values from an OUSpec or a prebuilt array."""
    if isinstance(noise, OUSpec):
        if noise.n_channels != n_channels:
            raise InputError(f"noise spec has {noise.n_channels} channels, need {n_channels}")
        return ou_sample_path(noise, t_grid)[:-1]
    arr = np.asarray(noise, dtype=float)
    n_steps = len(t_grid) - 1
    if arr.ndim != 2 or arr.shape[1] != n_channels or arr.shape[0] < n_steps:
        raise InputError(
            f"noise array must be (>= {n_steps}, {n_channels}), got {arr.shape}")
    return arr[:n_steps]


# ---------------------------------------------------------------------------
# Drift-implicit linear stepping
# ---------------------------------------------------------------------------

def _linear_step_maps(a: np.ndarray, b: np.ndarray, dt: float, theta: float):
    """One-step maps for X' = A X + B eta with eta constant per step:
    X_{k+1} = S X_k + G eta_k, from the factored implicit matrix."""
    n = a.shape[0]
    try:
        factor = lu_factor(np.eye(n) - theta * dt * a)
        step = lu_solve(factor, np.eye(n) + (1.0 - theta) * dt * a)
        gain = lu_solve(factor, dt * b)
    except (np.linalg.LinAlgError, ValueError) as e:
        raise NumericsError(f"singular implicit-step matrix at dt={dt}") from e
    if not (np.all(np.isfinite(step)) and np.all(np.isfinite(gain))):
        raise NumericsError(f"singular implicit-step matrix at dt={dt}")
    return step, gain


def _run_linear(a, b, noise_vals, t_grid, theta):
    """State record of X' = A X + B eta from rest, one row per grid point:
    rows 1.. first hold the per-step forcing, then each step adds the
    propagated previous row in place."""
    step, gain = _linear_step_maps(a, b, t_grid[1] - t_grid[0], theta)
    record = np.zeros((len(t_grid), a.shape[0]))
    np.matmul(noise_vals, gain.T, out=record[1:])
    for k in range(len(t_grid) - 1):
        record[k + 1] += step @ record[k]
    return record


def _second_order_matrix(jac: np.ndarray, m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """First-order form of m x'' = jac x - d x': the matrix A of
    (x, x')' = A (x, x'), positions first."""
    n = len(m)
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = jac / m[:, None]
    a[n:, n:] = -np.diag(d / m)
    return a


def _trajectory(t_grid: np.ndarray, record: np.ndarray, n_slow: int) -> Trajectory:
    """Split a positions-then-velocities record into slow x, xdot and,
    when it also holds fast buses, fast y, ydot."""
    n = record.shape[1] // 2
    if n == n_slow:
        return Trajectory(t=t_grid, x=record[:, :n], xdot=record[:, n:])
    return Trajectory(t=t_grid, x=record[:, :n_slow], xdot=record[:, n:n + n_slow],
                      y=record[:, n_slow:n], ydot=record[:, n + n_slow:])


def _integrate_linear(jac, m, d, gain, n_slow: int, cfg: SimConfig, noise) -> Trajectory:
    """Drift-implicit integration of m x'' = jac x - d x' + gain eta from
    rest, x holding n_slow slow buses first, then any fast buses."""
    t_grid = make_time_grid(cfg.t_end, cfg.dt_max)
    noise_vals = _noise_values(noise, t_grid, gain.shape[1])
    n = len(m)
    b = np.zeros((2 * n, gain.shape[1]))
    b[n:] = gain / m[:, None]
    record = _run_linear(_second_order_matrix(jac, m, d), b, noise_vals, t_grid, cfg.theta)
    return _trajectory(t_grid, record, n_slow)


def integrate_full_linear(sys: LinearizedSystem, cfg: SimConfig, noise) -> Trajectory:
    """Drift-implicit integration of the full linearized two-timescale system.

    ``noise`` is an OUSpec or a per-step value array over all buses
    (slow then fast).  Returns slow x, xdot and fast y, ydot.
    """
    jac = np.block([[sys.j_ss, sys.j_sf], [sys.j_fs, sys.j_ff]])
    m = np.concatenate([sys.m_slow, cfg.epsilon * sys.m_fast])
    d = np.concatenate([sys.d_slow, cfg.epsilon * sys.d_fast])
    return _integrate_linear(jac, m, d, np.eye(len(m)), sys.n_slow, cfg, noise)


def integrate_reduced(red: ReducedSystem, cfg: SimConfig, noise) -> Trajectory:
    """Drift-implicit integration of the Kron-reduced slow dynamics.

    ``noise`` is an OUSpec or a per-step value array over all buses
    (slow then fast).  Model "reduced-naive" keeps only eta_slow; any
    other model drives the system with xi = eta_slow + K eta_fast.
    """
    n_s = red.n_slow
    k = np.zeros((n_s, red.n_fast)) if cfg.model == "reduced-naive" else red.noise_gain
    return _integrate_linear(red.j_red, red.m_slow, red.d_slow,
                             np.hstack([np.eye(n_s), k]), n_s, cfg, noise)


# ---------------------------------------------------------------------------
# Full nonlinear model
# ---------------------------------------------------------------------------

def integrate_full_nonlinear(
    grid: Grid,
    op: OperatingPoint,
    cfg: SimConfig,
    noise,
    x0: np.ndarray | None = None,
    v0: np.ndarray | None = None,
) -> Trajectory:
    """Drift-implicit integration of the nonlinear structure-preserving model.

    Each step solves the theta-implicit equation
    ``z - X - dt (1 - theta) f(X) - dt F - dt theta f(z) = 0`` over the
    2n-dimensional state (F: the noise forcing, constant over the step)
    by a chord (simplified Newton) iteration ``z <- z - C r(z)``, where
    ``C`` is the inverse of ``I - theta dt A`` and ``A`` the drift
    Jacobian.  ``C`` is built once at the operating point and rebuilt at
    the current iterate only when a correction fails to halve the
    max-norm residual, or when its contraction rate could not reach the
    tolerance within the iterations left (Hairer & Wanner, Solving ODEs
    II, IV.8); the rebuilt matrix is kept for later steps.  ``C`` only
    steers the corrections: a step is accepted when the max-norm of the
    exact residual is <= 1e-10, within 30 iterations.  Each step starts
    from the linearly implicit predictor ``X + C dt (f(X) + F)``, and
    the drift of the accepted iterate is reused as the next step's
    ``f(X)``.  The coupling flows are evaluated over the line list, so
    a drift costs O(lines).  Fast buses use epsilon-scaled inertia and
    damping.
    ``x0``/``v0`` are optional initial angle deviations from the
    operating point and initial frequencies, in slow-then-fast order
    (default: start at the operating point at rest).  A deviation beyond
    pi from the operating point, measured in the COI frame (the uniform
    angle component is gauge and performs a random walk under noise), is
    flagged as divergence.
    """
    order = grid.ordering()
    n = grid.n_buses
    n_s = len(grid.slow_ids)
    t_grid = make_time_grid(cfg.t_end, cfg.dt_max)
    noise_vals = _noise_values(noise, t_grid, n)
    dt = t_grid[1] - t_grid[0]
    h = dt * cfg.theta

    coupling = grid.coupling_matrix()[np.ix_(order, order)]
    p_inj = grid.param_vector("p")[order]
    m = grid.param_vector("m")[order]
    d = grid.param_vector("d")[order]
    eps_scale = np.ones(n)
    eps_scale[n_s:] = cfg.epsilon
    m_eff = m * eps_scale
    d_eff = d * eps_scale
    theta_star = np.asarray(op.theta, dtype=float)[order]

    # Every line once per end: bus ends[e] receives
    # b * sin(ang[ends[e]] - ang[others[e]]) / m_eff[ends[e]] of outflow.
    src, dst = np.nonzero(np.triu(coupling))
    ends = np.concatenate([src, dst])
    others = np.concatenate([dst, src])
    line_gain = coupling[ends, others] / m_eff[ends]
    p_over_m = p_inj / m_eff
    d_over_m = d_eff / m_eff
    kick_scale = dt / m_eff

    def drift(state):
        flow = np.bincount(ends, line_gain * np.sin(state[ends] - state[others]), minlength=n)
        return np.concatenate([state[n:], p_over_m - flow - d_over_m * state[n:]])

    eye = np.eye(2 * n)

    def chord_matrix(ang, t):
        a = _second_order_matrix(_angle_jacobian(coupling, ang), m_eff, d_eff)
        try:
            chord = np.linalg.inv(eye - h * a)
        except np.linalg.LinAlgError as e:
            raise NumericsError(f"implicit step solve failed at t={t:.4g}") from e
        if not np.all(np.isfinite(chord)):
            raise NumericsError(f"implicit step solve failed at t={t:.4g}")
        return chord

    n_steps = len(t_grid) - 1
    dev0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    omega0 = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    if dev0.shape != (n,) or omega0.shape != (n,):
        raise InputError(f"initial condition must have shape ({n},)")
    # Row k: angle deviations from the operating point, then frequencies.
    record = np.empty((n_steps + 1, 2 * n))
    record[0, :n] = dev0
    record[0, n:] = omega0
    state = np.concatenate([theta_star + dev0, omega0])
    f0 = drift(state)
    chord = chord_matrix(theta_star, t_grid[0])

    for k in range(n_steps):
        euler_step = dt * f0  # dt (f(X) + F)
        euler_step[n:] += noise_vals[k] * kick_scale
        base = state + euler_step - h * f0
        trial = state + chord.dot(euler_step)
        last = math.inf
        for it in range(_NEWTON_MAX_ITER):
            f0 = drift(trial)
            residual = trial - base - h * f0
            res = np.abs(residual).max()
            if res <= _NEWTON_TOL:
                break
            rate = res / last
            if rate > 0.5 or res * rate ** (_NEWTON_MAX_ITER - 1 - it) > _NEWTON_TOL:
                chord = chord_matrix(trial[:n], t_grid[k])
            last = res
            trial = trial - chord.dot(residual)
        else:
            raise NumericsError(
                f"Newton did not converge at t={t_grid[k]:.4g}; reduce dt_max")
        state = trial
        dev = state[:n] - theta_star
        if np.abs(dev - dev.mean()).max() > math.pi:
            raise NumericsError(
                f"divergence detected at t={t_grid[k + 1]:.4g}: |COI-frame deviation| > pi")
        record[k + 1, :n] = dev
        record[k + 1, n:] = state[n:]
    return _trajectory(t_grid, record, n_s)


# ---------------------------------------------------------------------------
# Ensemble statistics
# ---------------------------------------------------------------------------

def coi_frequency_variance_estimate(
    trajs: list[Trajectory],
    burn_in: float,
    bus_ids: tuple[int, ...] | None = None,
) -> EnsembleStats:
    """Per-bus variance of the COI frequency deviation.

    At every post-burn-in sample the slow-bus mean frequency is
    subtracted; squares are averaged over time and ensemble.  The
    standard error comes from batch means (_N_BATCHES contiguous time
    batches per trajectory, pooled over the ensemble).
    """
    if not trajs:
        raise InputError("no trajectories given")
    t = trajs[0].t
    n_s = trajs[0].xdot.shape[1]
    for tr in trajs[1:]:
        if tr.xdot.shape != trajs[0].xdot.shape or not np.array_equal(tr.t, t):
            raise InputError("trajectories do not share grid and bus ordering")
    keep = t >= burn_in
    if not keep.any():
        raise InputError(f"no samples after burn_in={burn_in}")
    if bus_ids is None:
        bus_ids = tuple(range(n_s))

    sq_sum = np.zeros(n_s)
    dev_sum = np.zeros(n_s)
    batch_means = []
    n_time = int(keep.sum())
    for tr in trajs:
        xdot = tr.xdot[keep]
        dev = xdot - xdot.mean(axis=1, keepdims=True)
        sq = dev**2
        sq_sum += sq.sum(axis=0)
        dev_sum += dev.sum(axis=0)
        for chunk in np.array_split(sq, min(_N_BATCHES, n_time), axis=0):
            if len(chunk):
                batch_means.append(chunk.mean(axis=0))
    n_total = n_time * len(trajs)
    variance = sq_sum / n_total
    mean = dev_sum / n_total
    batch_means = np.array(batch_means)
    if len(batch_means) > 1:
        stderr = batch_means.std(axis=0, ddof=1) / math.sqrt(len(batch_means))
    else:
        stderr = np.full(n_s, np.nan)
    return EnsembleStats(bus_ids=tuple(bus_ids), mean=mean, variance=variance,
                         stderr=stderr, n_samples=n_total)


def run_ensemble(builder, cfg: SimConfig) -> list[Trajectory]:
    """Build cfg.ensemble_size trajectories.

    ``builder(seed)`` must return a Trajectory; trajectory i gets seed
    base_seed XOR i, so results are independent of execution order and
    bit-reproducible for a fixed base seed.  An InputError passes
    through unchanged; a numerical failure (NumericsError, or a
    ValueError or ArithmeticError from the numerics) becomes a
    NumericsError naming the trajectory and its seed.
    """
    trajs = []
    for idx in range(cfg.ensemble_size):
        seed = int(np.uint64(cfg.base_seed) ^ np.uint64(idx))
        try:
            trajs.append(builder(seed))
        except (NumericsError, ValueError, ArithmeticError) as e:
            raise NumericsError(f"trajectory {idx} (seed {seed}) failed: {e}") from e
    return trajs


# ---------------------------------------------------------------------------
# One setup per run, model dispatch
# ---------------------------------------------------------------------------

def linearize_and_reduce(grid: Grid, epsilon: float):
    """Fixed point, linearization and Kron reduction of one grid: the
    (op, sys, red) every analysis and every model's builder reads from.
    Raises NumericsError when -J_FF is not positive definite."""
    op = solve_fixed_point(grid)
    sys = assemble_linearized(grid, build_jacobian(grid, op), epsilon)
    return op, sys, reduce_grid(grid, sys)


def make_builder(grid: Grid, op: OperatingPoint, sys: LinearizedSystem,
                 red: ReducedSystem, cfg: SimConfig):
    """Trajectory builder for cfg.model from one setup (see
    linearize_and_reduce): the returned closure only samples noise and
    integrates.  Every model draws its noise from ou_spec_for_grid."""
    if cfg.model == "full-nonlinear":
        return lambda seed: integrate_full_nonlinear(grid, op, cfg, ou_spec_for_grid(grid, seed))
    if cfg.model == "full-linear":
        return lambda seed: integrate_full_linear(sys, cfg, ou_spec_for_grid(grid, seed))
    return lambda seed: integrate_reduced(red, cfg, ou_spec_for_grid(grid, seed))


def run_model_ensemble(grid: Grid, cfg: SimConfig) -> EnsembleStats:
    """End-to-end ensemble study of one model on one grid."""
    op, sys, red = linearize_and_reduce(grid, cfg.epsilon)
    trajs = run_ensemble(make_builder(grid, op, sys, red, cfg), cfg)
    return coi_frequency_variance_estimate(trajs, cfg.burn_in, bus_ids=red.slow_ids)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def trajectory_csv(traj: Trajectory, bus_ids: tuple[int, ...], decimate: int = 1) -> str:
    """CSV with t, then x_<id> and xdot_<id> per slow bus."""
    if decimate < 1:
        raise InputError(f"decimate must be >= 1, got {decimate}")
    header = ["t"] + [f"x_{i}" for i in bus_ids] + [f"xdot_{i}" for i in bus_ids]
    lines = [",".join(header)]
    for k in range(0, len(traj.t), decimate):
        row = [repr(float(traj.t[k]))]
        row += [repr(float(v)) for v in traj.x[k]]
        row += [repr(float(v)) for v in traj.xdot[k]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def stats_csv(stats: EnsembleStats) -> str:
    """CSV with bus_id, var_coi, stderr, n_samples."""
    lines = ["bus_id,var_coi,stderr,n_samples"]
    for k, bid in enumerate(stats.bus_ids):
        lines.append(f"{bid},{float(stats.variance[k])!r},{float(stats.stderr[k])!r},{stats.n_samples}")
    return "\n".join(lines) + "\n"
