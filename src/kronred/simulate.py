"""Stochastic simulation: exact OU sampling, drift-implicit integrators,
ensemble statistics.

Noise enters every integrator as a piecewise-constant path of exactly
sampled Ornstein-Uhlenbeck values (one value per step), so the noise
statistics are exact at any step size and noise sampling is cleanly
separated from drift stepping.  The drift is advanced with a
theta-implicit step (theta = 0.5: trapezoid, the default; theta = 1:
backward Euler for very stiff timescale ratios).  Every model steps a
batch of ensemble members through time, a chunk of rows at a time, and
each chunk is folded into the ensemble statistics before the next one is
stepped, so an ensemble run holds no whole trajectory.  The linear models
step many members together; the nonlinear model, one.

Noise channels are always ordered slow buses first, then fast buses.
All models of the same grid draw their channels from the same layout,
so runs with equal seeds see identical underlying noise: the reduced
"xi" model combines eta_slow + K eta_fast, the naive model keeps only
eta_slow, the full models apply each bus its own channel.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import InputError, NumericsError
from .grid import (Grid, LinearizedSystem, OperatingPoint, _angle_jacobian,
                   assemble_linearized, build_jacobian, solve_fixed_point)
from .reduction import ReducedSystem, reduce_grid

MODELS = ("full-nonlinear", "full-linear", "reduced-xi", "reduced-naive")

# Most steps one time grid, and one whole ensemble, may request: this
# bounds a run's time.
MAX_STEPS = 10_000_000
# Most bytes one batch of ensemble members may hold: the chunk buffers it
# is stepped through (`simulate` also keeps member 0's slow x/xdot record).
MAX_MEMBER_BYTES = 2 * 2**30

# Bytes of chunk buffers one batch of members is stepped through.
# They set both the members stepped together and the rows per chunk, so a
# run's memory does not grow with t_end.  On ieee118, wall time rises
# below 4 MiB; above it full-linear is flat and reduced-xi gains at most
# 15 % (at 16 MiB, for 12 MiB more of peak memory).
_BATCH_BYTES = 4 * 2**20
# Fewest rows per chunk before an ensemble is split into more batches:
# each chunk pays a few numpy calls per member and per time batch, while
# each batch pays one step loop.  On ieee118 ensembles of 16 and 64
# full-linear members, 16 rows was fastest; 256 rows was 40 % slower.
_MIN_CHUNK_ROWS = 16

_N_BATCHES = 16  # time batches per trajectory behind the batch-means stderr
# Rows of a batch's chunk buffers beyond its chunk rows: the carried
# state, the OU coefficients and carries, the fold's sums and batch means.
_PAD_ROWS = _N_BATCHES + 4

# Acceptance of a nonlinear implicit step: max-norm of the exact step
# residual, and the iteration cap.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 30

# Errors of the numerics that a run reports as a failed trajectory (exit 3).
_FAILURES = (NumericsError, ValueError, ArithmeticError)


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
        if not 0 <= self.seed < 2**64:
            raise InputError(f"seed must be in [0, 2^64), got {self.seed}")

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
        if not 0 <= self.base_seed < 2**64:
            raise InputError(f"base_seed must be in [0, 2^64), got {self.base_seed}")
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
class MemberBatch:
    """Ensemble members stepped together on one time grid ``t``, streamed
    in consecutive chunks of rows.

    Iterating ``chunks`` yields ``(k, x, xdot)``: the slow-bus deviations
    and frequencies at grid rows k, k+1, ... of every member, each of
    shape (rows, members, n_slow).  They are views of buffers the next
    chunk overwrites.
    """

    t: np.ndarray
    n_slow: int
    chunks: Iterator[tuple[int, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class EnsembleStats:
    """Per-bus COI frequency statistics pooled over time and ensemble."""

    bus_ids: tuple[int, ...]
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


def _batch_shape(n_rows: int, ensemble: int, row_bytes: int, budget: int) -> tuple[int, int]:
    """Members stepped together and rows per chunk for a batch whose chunk
    buffers hold (rows + _PAD_ROWS) x members x row_bytes bytes: as many
    members as keep chunks at _MIN_CHUNK_ROWS rows within ``budget``, then
    as many rows as the budget allows.  Never below one of each."""
    members = max(1, min(ensemble, budget // ((_MIN_CHUNK_ROWS + _PAD_ROWS) * row_bytes)))
    rows = max(1, min(n_rows, budget // (members * row_bytes) - _PAD_ROWS))
    return members, rows


# ---------------------------------------------------------------------------
# OU sampling
# ---------------------------------------------------------------------------

def _ou_chunks(sigma: np.ndarray, tau: np.ndarray, seeds: tuple[int, ...], dt: float,
               n_rows: int, rows: int) -> Iterator[np.ndarray]:
    """Exact stationary OU values of len(seeds) members at n_rows grid
    points, in consecutive chunks of at most ``rows`` rows.

    A chunk is one flat (rows, members x C) array, member i in columns
    i*C .. (i+1)*C - 1, so the update runs once per step over all
    members.  It is a view of one reused buffer, valid until the next
    chunk.
    Member i draws from its own ``default_rng(seeds[i])``: its initial
    state first, then the step innovations row by row, so the values do
    not depend on the chunk size or on the other members.
    """
    c, members = len(sigma), len(seeds)
    a = np.array([math.exp(-dt / t) for t in tau])
    b = np.array([s * math.sqrt(1.0 - a_j * a_j) for s, a_j in zip(sigma, a)])
    a, b = np.tile(a, members), np.tile(b, members)
    rngs = [np.random.default_rng(np.uint64(seed)) for seed in seeds]
    buf = np.empty((min(rows, n_rows), members * c))
    last = np.empty(members * c)
    scaled = np.empty(members * c)
    for k in range(0, n_rows, rows):
        block = buf[:min(rows, n_rows - k)]
        fresh = 1 if k == 0 else 0  # row 0 of the path is the stationary draw
        for i, rng in enumerate(rngs):
            cols = block[:, i * c:(i + 1) * c]
            if fresh:
                cols[0] = sigma * rng.standard_normal(c)
            if members == 1:
                rng.standard_normal(out=cols[fresh:])
            else:
                cols[fresh:] = rng.standard_normal((len(block) - fresh, c))
        block[fresh:] *= b
        prev = block[0] if fresh else last
        for row in block[fresh:]:
            np.multiply(prev, a, out=scaled)
            np.add(row, scaled, out=row)
            prev = row
        np.copyto(last, block[-1])
        yield block


def ou_sample_path(spec: OUSpec, t_grid: np.ndarray) -> np.ndarray:
    """Exact stationary OU samples at every grid point, shape (len(t), C).

    Per channel: eta_{k+1} = a eta_k + sigma sqrt(1-a^2) z_k with
    a = exp(-dt/tau), starting from a stationary draw N(0, sigma^2).
    The draw order (initial state first, then all step innovations) is
    fixed, so a given seed always yields the same path.

    The path is the one-member, one-chunk case of the chunked sampler the
    ensemble runs use: the innovations are drawn into the path and the
    update runs in place on it, one row (all channels) per step.  The coefficients a
    and b = sigma sqrt(1-a^2) are computed per channel with `math`:
    `np.exp` differs from `math.exp` in the last bit on some inputs,
    which would change the path's bytes.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dts = np.diff(t_grid)
    if len(dts) == 0:
        raise InputError("time grid needs at least two points")
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-9, atol=0.0) or dt <= 0:
        raise InputError("time grid must be uniform and increasing")

    return next(_ou_chunks(spec.sigma, spec.tau, (spec.seed,), dt, len(t_grid), len(t_grid)))


def ou_spec_for_grid(grid: Grid, seed: int) -> OUSpec:
    """OU channels for all buses, slow-then-fast ordering."""
    order = grid.ordering()
    return OUSpec(sigma=grid.param_vector("sigma")[order],
                  tau=grid.param_vector("tau")[order], seed=seed)


def _noise_chunks(noise, t_grid: np.ndarray, n_channels: int, rows: int) -> Iterator[np.ndarray]:
    """One member's per-step noise values in chunks of at most ``rows``
    steps, from an OUSpec or a prebuilt array."""
    n_steps = len(t_grid) - 1
    if isinstance(noise, OUSpec):
        if noise.n_channels != n_channels:
            raise InputError(f"noise spec has {noise.n_channels} channels, need {n_channels}")
        return _ou_chunks(noise.sigma, noise.tau, (noise.seed,), t_grid[1] - t_grid[0],
                          n_steps, rows)
    arr = np.asarray(noise, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != n_channels or arr.shape[0] < n_steps:
        raise InputError(
            f"noise array must be (>= {n_steps}, {n_channels}), got {arr.shape}")
    return (arr[k:min(k + rows, n_steps)] for k in range(0, n_steps, rows))


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


def _second_order_matrix(jac: np.ndarray, m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """First-order form of m x'' = jac x - d x': the matrix A of
    (x, x')' = A (x, x'), positions first."""
    n = len(m)
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = jac / m[:, None]
    a[n:, n:] = -np.diag(d / m)
    return a


def _full_linear_system(sys: LinearizedSystem, cfg: SimConfig):
    """(jac, m, d, gain, n_slow) of the full linearized model at cfg.epsilon."""
    jac = np.block([[sys.j_ss, sys.j_sf], [sys.j_fs, sys.j_ff]])
    m = np.concatenate([sys.m_slow, cfg.epsilon * sys.m_fast])
    d = np.concatenate([sys.d_slow, cfg.epsilon * sys.d_fast])
    return jac, m, d, np.eye(len(m)), sys.n_slow


def _reduced_system(red: ReducedSystem, cfg: SimConfig):
    """(jac, m, d, gain, n_slow) of the reduced model: "reduced-naive"
    keeps only eta_slow, any other model is driven by xi = eta_slow + K eta_fast."""
    n_s = red.n_slow
    k = np.zeros((n_s, red.n_fast)) if cfg.model == "reduced-naive" else red.noise_gain
    return red.j_red, red.m_slow, red.d_slow, np.hstack([np.eye(n_s), k]), n_s


def _linear_maps(jac, m, d, gain, dt: float, theta: float):
    """Step and forcing maps of m x'' = jac x - d x' + gain eta, state
    (x, x') positions first."""
    n = len(m)
    b = np.zeros((2 * n, gain.shape[1]))
    b[n:] = gain / m[:, None]
    return _linear_step_maps(_second_order_matrix(jac, m, d), b, dt, theta)


def _row_bytes(width: int, channels: int, n_slow: int) -> int:
    """Chunk-buffer bytes per row and member of a batch: noise values
    and their draws, the state record, the fold's squared deviations and
    row means."""
    return 8 * (2 * channels + width + n_slow + 1)


def _linear_chunks(step: np.ndarray, forcing: np.ndarray, noise_chunks: Iterable[np.ndarray],
                   members: int, rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """States of ``members`` copies of X_{k+1} = S X_k + G eta_k from rest,
    stepped together through time a chunk of at most ``rows`` steps at a
    time.

    ``noise_chunks`` yields each chunk's per-step noise values, flat
    (steps, members x C) as _ou_chunks makes them.  Per chunk the forcing
    of every step and member is one product, written into the rows of
    the state buffer; each step then adds the propagated previous row in
    place, one (members, width) product for all members.  Yields
    ``(k, block)``: the states at grid rows k, k+1, ..., shape
    (rows, members, width), a view of the buffer the next chunk reuses.
    The first block starts with the initial state.
    """
    width, channels = forcing.shape
    rec = np.zeros((rows + 1, members, width))
    row_views = list(rec)  # made once: a view per step would cost ~100 ns each
    step_t, forcing_t = step.T, forcing.T
    prod = np.empty((members, width))
    k = 0
    for eta in noise_chunks:
        n = len(eta)
        np.matmul(eta.reshape(n * members, channels), forcing_t,
                  out=rec[1:n + 1].reshape(n * members, width))
        for prev, row in zip(row_views[:n], row_views[1:n + 1]):
            np.dot(prev, step_t, out=prod)  # on small states np.dot costs half of np.matmul
            np.add(row, prod, out=row)
        yield (0, rec[:n + 1]) if k == 0 else (k + 1, rec[1:n + 1])
        np.copyto(row_views[0], row_views[n])
        k += n


def _collect(t_grid: np.ndarray, noise, channels: int, width: int, n_slow: int,
             member_chunks) -> Trajectory:
    """One member stepped as a batch of one, collected into a whole state
    record, a row per grid point, positions first, and split into slow
    x, xdot and, when the state also holds fast buses, fast y, ydot.

    ``member_chunks(noise_chunks, rows)`` steps the member through the
    per-step noise values ``noise`` (an OUSpec or an array) and yields
    ``(k, block)`` as _linear_chunks does, with chunks of as many rows as
    a one-member ensemble batch gets.
    """
    rows = _batch_shape(len(t_grid) - 1, 1, _row_bytes(width, channels, n_slow),
                        _BATCH_BYTES)[1]
    record = np.empty((len(t_grid), width))
    for k, block in member_chunks(_noise_chunks(noise, t_grid, channels, rows), rows):
        record[k:k + len(block)] = block[:, 0]
    n = width // 2
    if n == n_slow:
        return Trajectory(t=t_grid, x=record[:, :n], xdot=record[:, n:])
    return Trajectory(t=t_grid, x=record[:, :n_slow], xdot=record[:, n:n + n_slow],
                      y=record[:, n_slow:n], ydot=record[:, n + n_slow:])


def _integrate_linear(jac, m, d, gain, n_slow: int, cfg: SimConfig, noise) -> Trajectory:
    """One member of the batched linear loop, collected whole."""
    t_grid = make_time_grid(cfg.t_end, cfg.dt_max)
    step, forcing = _linear_maps(jac, m, d, gain, t_grid[1] - t_grid[0], cfg.theta)
    return _collect(t_grid, noise, forcing.shape[1], forcing.shape[0], n_slow,
                    lambda eta, rows: _linear_chunks(step, forcing, eta, 1, rows))


def integrate_full_linear(sys: LinearizedSystem, cfg: SimConfig, noise) -> Trajectory:
    """Drift-implicit integration of the full linearized two-timescale system.

    ``noise`` is an OUSpec or a per-step value array over all buses
    (slow then fast).  Returns slow x, xdot and fast y, ydot.
    """
    return _integrate_linear(*_full_linear_system(sys, cfg), cfg, noise)


def integrate_reduced(red: ReducedSystem, cfg: SimConfig, noise) -> Trajectory:
    """Drift-implicit integration of the Kron-reduced slow dynamics.

    ``noise`` is an OUSpec or a per-step value array over all buses
    (slow then fast).  Model "reduced-naive" keeps only eta_slow; any
    other model drives the system with xi = eta_slow + K eta_fast.
    """
    return _integrate_linear(*_reduced_system(red, cfg), cfg, noise)


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
    n = grid.n_buses
    t_grid = make_time_grid(cfg.t_end, cfg.dt_max)
    return _collect(t_grid, noise, n, 2 * n, len(grid.slow_ids),
                    lambda eta, rows: _nonlinear_chunks(grid, op, cfg, t_grid, eta, rows, x0, v0))


def _nonlinear_chunks(grid: Grid, op: OperatingPoint, cfg: SimConfig, t_grid: np.ndarray,
                      noise_chunks: Iterable[np.ndarray], rows: int,
                      x0: np.ndarray | None = None,
                      v0: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """States of one member of the nonlinear model (see
    integrate_full_nonlinear), stepped through time a chunk of at most
    ``rows`` steps at a time.

    ``noise_chunks`` yields each chunk's per-step noise values, one
    column per bus.  The state, its drift and the chord matrix carry
    over from one chunk to the next.  Yields ``(k, block)`` as
    _linear_chunks does: angle deviations from the operating point, then
    frequencies, at grid rows k, k+1, ..., shape (rows, 1, 2n), a view of
    the buffer the next chunk reuses.  The first block starts with the
    initial state.
    """
    order = grid.ordering()
    n = grid.n_buses
    n_s = len(grid.slow_ids)
    dt = t_grid[1] - t_grid[0]
    h = dt * cfg.theta

    edges = grid.edge_list(order)
    p_inj = grid.param_vector("p")[order]
    m = grid.param_vector("m")[order]
    d = grid.param_vector("d")[order]
    eps_scale = np.ones(n)
    eps_scale[n_s:] = cfg.epsilon
    m_eff = m * eps_scale
    d_eff = d * eps_scale
    theta_star = np.asarray(op.theta, dtype=float)[order]

    # Bus ends[e] receives b * sin(ang[ends[e]] - ang[others[e]]) / m_eff[ends[e]]
    # of outflow.
    ends, others = edges.ends, edges.others
    line_gain = edges.b / m_eff[ends]
    p_over_m = p_inj / m_eff
    d_over_m = d_eff / m_eff
    kick_scale = dt / m_eff

    def drift(state):
        flow = np.bincount(ends, line_gain * np.sin(state[ends] - state[others]), minlength=n)
        return np.concatenate([state[n:], p_over_m - flow - d_over_m * state[n:]])

    eye = np.eye(2 * n)

    def chord_matrix(ang, t):
        a = _second_order_matrix(_angle_jacobian(edges, ang), m_eff, d_eff)
        try:
            chord = np.linalg.inv(eye - h * a)
        except np.linalg.LinAlgError as e:
            raise NumericsError(f"implicit step solve failed at t={t:.4g}") from e
        if not np.all(np.isfinite(chord)):
            raise NumericsError(f"implicit step solve failed at t={t:.4g}")
        return chord

    dev0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    omega0 = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    if dev0.shape != (n,) or omega0.shape != (n,):
        raise InputError(f"initial condition must have shape ({n},)")
    rec = np.empty((rows + 1, 1, 2 * n))
    states = rec[:, 0]  # row i + 1: angle deviations, then frequencies, after step k + i
    states[0, :n] = dev0
    states[0, n:] = omega0
    state = np.concatenate([theta_star + dev0, omega0])
    f0 = drift(state)
    chord = chord_matrix(theta_star, t_grid[0])

    k = 0
    for eta in noise_chunks:
        for i, noise_i in enumerate(eta):
            euler_step = dt * f0  # dt (f(X) + F)
            euler_step[n:] += noise_i * kick_scale
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
                    chord = chord_matrix(trial[:n], t_grid[k + i])
                last = res
                trial = trial - chord.dot(residual)
            else:
                raise NumericsError(
                    f"Newton did not converge at t={t_grid[k + i]:.4g}; reduce dt_max")
            state = trial
            dev = state[:n] - theta_star
            if np.abs(dev - dev.sum() / n).max() > math.pi:
                raise NumericsError(f"divergence detected at t={t_grid[k + i + 1]:.4g}: "
                                    "|COI-frame deviation| > pi")
            states[i + 1, :n] = dev
            states[i + 1, n:] = state[n:]
        n_rows = len(eta)
        yield (0, rec[:n_rows + 1]) if k == 0 else (k + 1, rec[1:n_rows + 1])
        k += n_rows


# ---------------------------------------------------------------------------
# Ensemble statistics
# ---------------------------------------------------------------------------

def _as_batch(member: Trajectory | MemberBatch) -> MemberBatch:
    """A whole Trajectory as a one-member batch of one chunk."""
    if isinstance(member, MemberBatch):
        return member
    return MemberBatch(t=member.t, n_slow=member.xdot.shape[1],
                       chunks=iter([(0, member.x[:, None], member.xdot[:, None])]))


def _fold_batch(batch: MemberBatch, start: int, ends: list[int]):
    """Per-member sums of one batch's squared COI frequency deviations over
    grid rows start, start+1, ...: the total, and one sum per time batch
    (time batch j ends before row ends[j]).

    Every sum adds its rows in time order, continuing across chunk
    boundaries from the carried partial sum, so the result does not
    depend on how the rows were chunked.  Returns (totals, sums) of
    shapes (members, n_slow) and (time batches, members, n_slow).
    """
    total = part = None
    sums = []
    expected = 0
    for k, _, xdot in batch.chunks:
        if k != expected:
            raise InputError(f"chunk starts at row {k}, expected {expected}")
        expected = k + len(xdot)
        lo = max(k, start)
        if lo >= expected:
            continue
        xdot = xdot[lo - k:]
        if total is None:
            total = part = np.zeros(xdot.shape[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            # buf[0] carries the running total; buf[1 + i] is the square of row lo + i
            buf = np.empty((len(xdot) + 1, *xdot.shape[1:]))
            buf[0] = total
            dev = buf[1:]
            np.subtract(xdot, xdot.mean(axis=2, keepdims=True), out=dev)
            np.square(dev, out=dev)
            total = buf.sum(axis=0)
            row = lo
            while row < expected:
                hi = min(ends[len(sums)], expected)
                # the row before this time batch's rows is summed already:
                # it carries the time batch's partial sum instead
                buf[row - lo] = part
                part = buf[row - lo:hi - lo + 1].sum(axis=0)
                if hi == ends[len(sums)]:
                    sums.append(part)
                    part = np.zeros_like(part)
                row = hi
    if expected != len(batch.t):
        raise InputError("trajectories do not share grid and bus ordering")
    return total, np.array(sums)


def coi_frequency_variance_estimate(
    members: Iterable[Trajectory | MemberBatch],
    burn_in: float,
    bus_ids: tuple[int, ...] | None = None,
) -> EnsembleStats:
    """Per-bus variance of the COI frequency deviation.

    At every post-burn-in sample the slow-bus mean frequency is
    subtracted; squares are averaged over time and ensemble.  The
    standard error comes from batch means (_N_BATCHES contiguous time
    batches per trajectory, pooled over the ensemble).

    ``members`` may be any iterable of Trajectory objects (one member
    each) or MemberBatch streams, such as the stream of run_ensemble:
    each is folded chunk by chunk into per-member running sums and
    released before the next one is taken, so only one batch's chunk is
    held at a time.  The sums add rows in time order and members in
    ensemble order, so the estimate does not depend on how the members
    were batched or chunked.  Raises NumericsError when the estimate is
    not finite.
    """
    t = None
    n_members = 0
    batch_means = []
    for member in members:
        batch = _as_batch(member)
        del member
        if t is None:
            t, n_s = batch.t, batch.n_slow
            start = int(np.searchsorted(t, burn_in))  # t increases
            n_time = len(t) - start
            if not n_time:
                raise InputError(f"no samples after burn_in={burn_in}")
            # the time batches of np.array_split: the first n_time % n_b one row longer
            n_b = min(_N_BATCHES, n_time)
            lengths = np.array([n_time // n_b + 1] * (n_time % n_b)
                               + [n_time // n_b] * (n_b - n_time % n_b))
            ends = (start + np.cumsum(lengths)).tolist()
            sq_sum = np.zeros(n_s)
        elif batch.n_slow != n_s or not np.array_equal(batch.t, t):
            raise InputError("trajectories do not share grid and bus ordering")
        totals, sums = _fold_batch(batch, start, ends)
        del batch
        with np.errstate(over="ignore", invalid="ignore"):
            for total in totals:
                sq_sum += total
            means = sums / lengths[:, None, None]
        batch_means.append(means.transpose(1, 0, 2).reshape(-1, n_s))
        n_members += len(totals)
    if not n_members:
        raise InputError("no trajectories given")

    n_total = n_time * n_members
    with np.errstate(over="ignore", invalid="ignore"):
        variance = sq_sum / n_total
        batch_means = np.concatenate(batch_means)
        if len(batch_means) > 1:
            stderr = batch_means.std(axis=0, ddof=1) / math.sqrt(len(batch_means))
        else:
            stderr = np.full(n_s, np.nan)
    if not np.all(np.isfinite(variance)) or (len(batch_means) > 1
                                             and not np.all(np.isfinite(stderr))):
        raise NumericsError("COI frequency variance estimate is not finite")
    if bus_ids is None:
        bus_ids = tuple(range(n_s))
    return EnsembleStats(bus_ids=tuple(bus_ids), variance=variance, stderr=stderr,
                         n_samples=n_total)


def _failure(idx: range, seeds: tuple[int, ...], error: Exception) -> NumericsError:
    if len(idx) == 1:
        return NumericsError(f"trajectory {idx[0]} (seed {seeds[0]}) failed: {error}")
    return NumericsError(f"trajectories {idx[0]}-{idx[-1]} (seeds "
                         f"{', '.join(map(str, seeds))}) failed: {error}")


def _guarded_chunks(chunks, idx: range, seeds: tuple[int, ...]):
    try:
        yield from chunks
    except _FAILURES as e:
        raise _failure(idx, seeds, e) from e


def _build(builder, idx: range, seeds: tuple[int, ...]) -> MemberBatch:
    try:
        members = builder(seeds)
    except _FAILURES as e:
        raise _failure(idx, seeds, e) from e
    return replace(members, chunks=_guarded_chunks(members.chunks, idx, seeds))


def run_ensemble(builder, cfg: SimConfig, batch: int = 1) -> Iterator[MemberBatch]:
    """Stream cfg.ensemble_size members in batches of at most ``batch``,
    each built only when the caller asks for it.

    ``builder(seeds)`` must return the members of those seeds as a
    MemberBatch.  Member i gets seed
    base_seed XOR i, so results are bit-reproducible for a fixed base
    seed and batch size.  The stream keeps no reference to a batch it
    has handed out.  An InputError passes through unchanged; a numerical
    failure (NumericsError, or a ValueError or ArithmeticError from the
    numerics), while a batch is built or stepped, becomes a
    NumericsError naming its trajectories and seeds.
    """
    for first in range(0, cfg.ensemble_size, batch):
        idx = range(first, min(first + batch, cfg.ensemble_size))
        yield _build(builder, idx, tuple(cfg.base_seed ^ i for i in idx))


def tee_first_member(members: Iterable[MemberBatch]):
    """Pass an ensemble stream through unchanged while copying member 0's
    slow x and xdot.  Returns (stream, record): ``record`` is a Trajectory
    whose arrays are filled once the stream has passed member 0."""
    members = iter(members)
    first = next(members)
    shape = (len(first.t), first.n_slow)
    record = Trajectory(t=first.t, x=np.empty(shape), xdot=np.empty(shape))

    def copied(chunks):
        for k, x, xdot in chunks:
            record.x[k:k + len(x)] = x[:, 0]
            record.xdot[k:k + len(x)] = xdot[:, 0]
            yield k, x, xdot

    first = replace(first, chunks=copied(first.chunks))
    return itertools.chain([first], members), record


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
                 red: ReducedSystem, cfg: SimConfig, keep_first: bool = False):
    """Member builder for cfg.model from one setup (see
    linearize_and_reduce), and the members it steps together.

    Returns ``(builder, batch)`` for run_ensemble.  Every model steps a
    batch of members through time in chunks of rows and draws its noise
    from ou_spec_for_grid; the nonlinear model's batch is one member,
    since its drift is evaluated one state at a time.  Refuses a run
    whose batch would hold more than MAX_MEMBER_BYTES, counting member
    0's slow x/xdot record when the caller keeps it (``keep_first``).
    """
    n, n_s = grid.n_buses, red.n_slow
    n_steps = _step_count(cfg.t_end, cfg.dt_max)
    kept = 8 * (n_steps + 1) * 2 * n_s if keep_first else 0
    width = 2 * (n_s if cfg.model.startswith("reduced") else n)
    row_bytes = _row_bytes(width, n, n_s)
    ensemble = 1 if cfg.model == "full-nonlinear" else cfg.ensemble_size
    batch, rows = _batch_shape(n_steps, ensemble, row_bytes,
                               min(_BATCH_BYTES, MAX_MEMBER_BYTES - kept))
    held = (rows + _PAD_ROWS) * batch * row_bytes
    if held + kept > MAX_MEMBER_BYTES:
        raise InputError(f"one batch would hold {(held + kept) / 2**30:.3g} GiB of state and noise "
                         f"buffers, above the limit of {MAX_MEMBER_BYTES / 2**30:.3g} GiB")

    t_grid = make_time_grid(cfg.t_end, cfg.dt_max)
    dt = t_grid[1] - t_grid[0]
    noise = ou_spec_for_grid(grid, cfg.base_seed)
    if cfg.model == "full-nonlinear":
        def member_chunks(eta, members):
            return _nonlinear_chunks(grid, op, cfg, t_grid, eta, rows)
    else:
        system = (_full_linear_system(sys, cfg) if cfg.model == "full-linear"
                  else _reduced_system(red, cfg))
        step, forcing = _linear_maps(*system[:4], dt, cfg.theta)

        def member_chunks(eta, members):
            return _linear_chunks(step, forcing, eta, members, rows)

    def builder(seeds):
        chunks = member_chunks(_ou_chunks(noise.sigma, noise.tau, seeds, dt, n_steps, rows),
                               len(seeds))
        return MemberBatch(t=t_grid, n_slow=n_s, chunks=(
            (k, block[..., :n_s], block[..., width // 2:width // 2 + n_s])
            for k, block in chunks))
    return builder, batch


def run_model_ensemble(grid: Grid, cfg: SimConfig) -> EnsembleStats:
    """End-to-end ensemble study of one model on one grid."""
    op, sys, red = linearize_and_reduce(grid, cfg.epsilon)
    builder, batch = make_builder(grid, op, sys, red, cfg)
    return coi_frequency_variance_estimate(run_ensemble(builder, cfg, batch), cfg.burn_in,
                                           bus_ids=red.slow_ids)


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
