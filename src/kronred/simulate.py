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
stepped, so an ensemble run holds no whole trajectory.  The nonlinear
model runs through the linear models' recurrence too: it solves its
implicit steps a window of rows at a time by Picard sweeps.

Noise channels are always ordered slow buses first, then fast buses.
All models of the same grid draw their channels from the same layout:
the reduced "xi" model combines eta_slow + K eta_fast, the naive model
keeps only eta_slow, the full models apply each bus its own channel.
So one noise stream drives them all.

run_models is the one ensemble driver and the only loop over members
of every model a run names, behind both `compare` and `simulate`.  Its
setup is linearize_and_reduce's (op, red), which no timescale ratio
enters: the full models scale the fast m and d by epsilon (_full_masses)
as they build their maps, full-linear from a Jacobian it scatters
itself.  It draws each chunk of that noise once per batch of members,
steps every model through it in lockstep and folds each model's chunk
into its statistics before the next chunk is drawn.  The one-member
collectors return a whole record: ou_sample_path samples one member's
noise, and integrate steps one member of a named model through given
noise, an OUSpec or an array, with run_models' plan and steppers.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import InputError, NumericsError
from .grid import (Grid, OperatingPoint, _angle_jacobian, _as_int, _check_epsilon, _finite,
                   _ordered_entries, _scatter, linearize, solve_fixed_point)
from .reduction import ReducedSystem, reduce_grid

MODELS = ("full-nonlinear", "full-linear", "reduced-xi", "reduced-naive")

# Most steps one time grid, and one whole ensemble, may request: this
# bounds a run's time.
MAX_STEPS = 10_000_000
# Most bytes one batch of ensemble members may hold: the chunk buffers it
# is stepped through, its step maps and what building them takes, and
# what its caller keeps besides (member 0's slow x/xdot record in
# `simulate`, the whole record in a one-member collector).
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
# residual.  A Picard window of the nonlinear model takes at most
# _MAX_SWEEPS sweeps.
_STEP_TOL = 1e-10
_MAX_SWEEPS = 30
# Rows per Picard window of the nonlinear model.  Each sweep pays a few
# numpy calls per window and one propagation product per row, and longer
# windows need more sweeps and more work memory.  On the 14-bus star grid
# of star-nonlinear (2 members), 16 rows was slowest; 32, 64 and 128 rows
# were within the host's noise of each other, 64 taking 5.9 sweeps per
# window on average.  On ieee118 (one member) all four were alike.
_WINDOW_ROWS = 64

# Errors of the numerics that a run reports as a failed trajectory (exit 3).
_FAILURES = (NumericsError, ValueError, ArithmeticError)


def _as_floats(value, need: str) -> np.ndarray:
    """``value`` as a float array; an InputError saying ``need`` if it is not numbers."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise InputError(f"{need}: {e}") from e


def _finite_floats(value, need: str, rows: int, cols: int | None = None) -> np.ndarray:
    """``value`` as floats: ``rows`` values, or with ``cols`` at least
    ``rows`` rows of ``cols`` values, finite over the first ``rows``.  An
    InputError saying ``need`` otherwise, and whether the values were not
    numbers, of another shape or not finite."""
    arr = _as_floats(value, need)
    if (arr.shape != (rows,) if cols is None
            else arr.ndim != 2 or arr.shape[1] != cols or len(arr) < rows):
        raise InputError(f"{need}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr[:rows])):
        raise InputError(f"{need}, got a non-finite value")
    return arr


@dataclass(frozen=True)
class OUSpec:
    """Independent stationary OU channels: per-channel sigma, tau, one seed."""

    sigma: np.ndarray
    tau: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("sigma", "tau"):
            need = f"{name} must be finite numbers"
            value = np.atleast_1d(_as_floats(getattr(self, name), need))
            if not np.all(np.isfinite(value)):
                raise InputError(need)
            object.__setattr__(self, name, value)
        if self.sigma.shape != self.tau.shape:
            raise InputError(f"sigma shape {self.sigma.shape} != tau shape {self.tau.shape}")
        if np.any(self.sigma < 0):
            raise InputError("sigma must be >= 0")
        if np.any(self.tau <= 0):
            raise InputError("tau must be > 0")
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))
        if not 0 <= self.seed < 2**64:
            raise InputError(f"seed must be in [0, 2^64), got {self.seed}")

    @property
    def n_channels(self) -> int:
        return len(self.sigma)


@dataclass(frozen=True)
class SimConfig:
    """Settings of one simulation run, shared by every model it steps."""

    dt_max: float
    t_end: float
    burn_in: float
    ensemble_size: int = 1
    base_seed: int = 0
    epsilon: float = 1.0
    theta: float = 0.5

    def __post_init__(self):
        for name in ("t_end", "dt_max", "burn_in"):
            if not _finite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.dt_max > 0:
            raise InputError(f"dt_max must be > 0, got {self.dt_max}")
        if not 0 <= self.burn_in < self.t_end:
            raise InputError(f"need 0 <= burn_in < t_end, got {self.burn_in}, {self.t_end}")
        object.__setattr__(self, "ensemble_size", _as_int(self.ensemble_size, "ensemble_size"))
        if self.ensemble_size < 1:
            raise InputError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        object.__setattr__(self, "base_seed", _as_int(self.base_seed, "base_seed"))
        if not 0 <= self.base_seed < 2**64:
            raise InputError(f"base_seed must be in [0, 2^64), got {self.base_seed}")
        if self.theta not in (0.5, 1.0):
            raise InputError(f"theta must be 0.5 or 1.0, got {self.theta}")
        _check_epsilon(self.epsilon)
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


def _uniform_step(t_grid) -> tuple[np.ndarray, float]:
    """A given time grid as floats, and its step: an InputError unless it
    is two or more finite points, uniform (to 1e-9 relative) and increasing."""
    need = "time grid must be two or more finite, uniform and increasing points"
    t_grid = _as_floats(t_grid, need)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise InputError(f"{need}, got shape {t_grid.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        dts = np.diff(t_grid)  # finite only if every point and every step is
    if not (np.all(np.isfinite(dts)) and dts[0] > 0
            and np.allclose(dts, dts[0], rtol=1e-9, atol=0.0)):
        raise InputError(need)
    return t_grid, dts[0]


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


def _plan_batch(widths: tuple[int, ...], channels: int, n_slow: int, n_lines: int | None,
                n_steps: int, ensemble: int, kept: int) -> tuple[int, int, int]:
    """Members per batch and rows per chunk: the one place a run is
    sized.  The run steps one state per model, of ``widths`` entries, all
    driven by the same ``channels`` noise channels, with ``n_slow`` slow
    buses, ``n_steps`` times; ``n_lines`` is the line count of the
    nonlinear model among them, None if there is none.

    Per row and member, chunk buffers hold the noise and its draws once,
    and per model the state, the fold's squares and row means; a
    nonlinear member adds Picard window arrays of _WINDOW_ROWS + 1 rows
    (six bus vectors, two products' temporaries, the lines' angle
    differences).  Up to ``ensemble`` members fill _BATCH_BYTES (or what
    MAX_MEMBER_BYTES leaves, if less) at max(_MIN_CHUNK_ROWS, window)
    rows, then rows fill it, at least one of each, whole windows when a
    run with the nonlinear model spans several chunks.  Every model's step
    maps, with what building them holds, and the ``kept`` bytes of the
    caller count only against MAX_MEMBER_BYTES: a run above it is refused
    before anything exists.  Returns (members, rows, bytes held).
    """
    row_bytes = 8 * (2 * channels + sum(width + n_slow + 1 for width in widths))
    # per model S, G and their LU factor (see _linear_maps), and the Jacobian
    # (width / 2 squared) and noise gain (width / 2 x channels) they are built from
    map_bytes = sum(8 * width * (2 * width + channels) + 2 * width * (width + 2 * channels)
                    for width in widths)
    window, window_bytes = 1, 0
    if n_lines is not None:
        window, window_bytes = _WINDOW_ROWS, 8 * (_WINDOW_ROWS + 1) * (8 * channels + n_lines)
        map_bytes += 16 * channels * n_lines  # incidence and outflow
    budget = min(_BATCH_BYTES, MAX_MEMBER_BYTES - map_bytes - kept)
    floor = (max(_MIN_CHUNK_ROWS, window) + _PAD_ROWS) * row_bytes + window_bytes
    members = max(1, min(ensemble, budget // floor))
    rows = max(1, min(n_steps, (budget // members - window_bytes) // row_bytes - _PAD_ROWS))
    if window < rows < n_steps:
        rows -= rows % window
    held = ((rows + _PAD_ROWS) * row_bytes + window_bytes) * members + map_bytes + kept
    if held > MAX_MEMBER_BYTES:
        raise InputError(f"one batch would hold {held / 2**30:.3g} GiB of step maps, records, "
                         f"state and noise buffers, above the limit of "
                         f"{MAX_MEMBER_BYTES / 2**30:.3g} GiB")
    return members, rows, held


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
    t_grid, dt = _uniform_step(t_grid)
    return next(_ou_chunks(spec.sigma, spec.tau, (spec.seed,), dt, len(t_grid), len(t_grid)))


def ou_spec_for_grid(grid: Grid, seed: int) -> OUSpec:
    """OU channels for all buses, slow-then-fast ordering."""
    order = grid.ordering()
    return OUSpec(sigma=grid.param_vector("sigma")[order],
                  tau=grid.param_vector("tau")[order], seed=seed)


def _noise_chunks(noise, t_grid: np.ndarray, n_channels: int, rows: int) -> Iterator[np.ndarray]:
    """One member's per-step noise values in chunks of at most ``rows``
    steps, from an OUSpec or a prebuilt array, which must be finite
    numbers over the rows the steps read."""
    n_steps = len(t_grid) - 1
    if isinstance(noise, OUSpec):
        if noise.n_channels != n_channels:
            raise InputError(f"noise spec has {noise.n_channels} channels, need {n_channels}")
        return _ou_chunks(noise.sigma, noise.tau, (noise.seed,), t_grid[1] - t_grid[0],
                          n_steps, rows)
    arr = _finite_floats(noise, f"noise array must be (>= {n_steps}, {n_channels}) finite numbers",
                         n_steps, n_channels)
    return (arr[k:min(k + rows, n_steps)] for k in range(0, n_steps, rows))


# ---------------------------------------------------------------------------
# Drift-implicit linear stepping
# ---------------------------------------------------------------------------

def _full_masses(grid: Grid, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Inertia and damping (m, d) of the full models: every bus, slow
    then fast, the fast buses' multiplied by the timescale ratio."""
    order = grid.ordering()
    scale = np.where(np.arange(grid.n_buses) < len(grid.slow_ids), 1.0, epsilon)
    return grid.param_vector("m")[order] * scale, grid.param_vector("d")[order] * scale


def _full_linear_system(grid: Grid, op: OperatingPoint, epsilon: float):
    """(jac, m, d, gain) of the full model linearized at op, at epsilon;
    jac is scattered once from linearize's entries."""
    n = grid.n_buses
    m, d = _full_masses(grid, epsilon)
    return _scatter(np.zeros((n, n)), *_ordered_entries(grid, op)), m, d, np.eye(n)


def _reduced_system(red: ReducedSystem, model: str):
    """(jac, m, d, gain) of the reduced model: "reduced-naive" keeps only
    eta_slow, any other model is driven by xi = eta_slow + K eta_fast."""
    n_s = red.n_slow
    k = np.zeros((n_s, red.n_fast)) if model == "reduced-naive" else red.noise_gain
    return red.j_red, red.m_slow, red.d_slow, np.hstack([np.eye(n_s), k])


def _linear_maps(jac, m, d, gain, dt: float, theta: float):
    """Step and forcing maps of m x'' = jac x - d x' + gain eta, state
    (x, x') positions first: with eta constant per step, the theta step
    of the first-order form X' = A X + B eta is X_{k+1} = S X_k + G eta_k,
    S = (I - theta dt A)^-1 (I + (1 - theta) dt A), G = (I - theta dt A)^-1 dt B.

    A and B are never formed: I + s A is assembled block by block in
    place (the same floats as I + s * A), Fortran-ordered, and LAPACK
    factors the implicit matrix and solves for S and G in place.  So
    building the maps holds one width x width LU factor besides them and
    their inputs."""
    n = len(m)
    damping, diag = -(d / m), np.arange(n)

    def shifted(s):
        out = np.zeros((2 * n, 2 * n), order="F")
        out[diag, diag] = 1.0
        out[diag, n + diag] = s
        block = out[n:, :n]
        np.divide(jac, m[:, None], out=block)
        block *= s
        block += 0.0  # a -0.0 becomes the +0.0 of I + s A
        out[n + diag, n + diag] = 1.0 + s * damping
        return out

    forcing = np.zeros((2 * n, gain.shape[1]), order="F")
    np.divide(gain, m[:, None], out=forcing[n:])
    forcing *= dt
    try:
        factor = lu_factor(shifted(-theta * dt), overwrite_a=True)
        step = lu_solve(factor, shifted((1.0 - theta) * dt), overwrite_b=True)
        forcing = lu_solve(factor, forcing, overwrite_b=True)
    except (np.linalg.LinAlgError, ValueError) as e:
        raise NumericsError(f"singular implicit-step matrix at dt={dt}") from e
    if not (np.all(np.isfinite(step)) and np.all(np.isfinite(forcing))):
        raise NumericsError(f"singular implicit-step matrix at dt={dt}")
    return step, forcing


def _propagate(rows: list[np.ndarray], step_t: np.ndarray, prod: np.ndarray) -> None:
    """Add S times each row to the next, in place, in time order: rows[i + 1]
    += rows[i] S^T, one (members, width) product per step for all members.
    ``rows`` are views made once by the caller: a view per step would cost
    ~100 ns each."""
    for prev, row in zip(rows[:-1], rows[1:]):
        np.dot(prev, step_t, out=prod)  # on small states np.dot costs half of np.matmul
        np.add(row, prod, out=row)


def _linear_chunks(step: np.ndarray, forcing: np.ndarray, noise_chunks: Iterable[np.ndarray],
                   state: np.ndarray, rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """States of members of X_{k+1} = S X_k + G eta_k, stepped together
    through time a chunk of at most ``rows`` steps at a time from their
    initial states ``state``, shape (members, width).

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
    members = len(state)
    rec = np.empty((rows + 1, members, width))
    rec[0] = state
    row_views = list(rec)
    step_t, forcing_t = step.T, forcing.T
    prod = np.empty((members, width))
    k = 0
    for eta in noise_chunks:
        n = len(eta)
        np.matmul(eta.reshape(n * members, channels), forcing_t,
                  out=rec[1:n + 1].reshape(n * members, width))
        _propagate(row_views[:n + 1], step_t, prod)
        yield (0, rec[:n + 1]) if k == 0 else (k + 1, rec[1:n + 1])
        np.copyto(row_views[0], row_views[n])
        k += n


# ---------------------------------------------------------------------------
# Full nonlinear model
# ---------------------------------------------------------------------------

def _nonlinear_chunks(grid: Grid, op: OperatingPoint, cfg: SimConfig, t_grid: np.ndarray,
                      noise_chunks: Iterable[np.ndarray], state: np.ndarray,
                      rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """States of members of the nonlinear structure-preserving model,
    stepped together through time a chunk of at most ``rows`` steps at a
    time from their initial states ``state``, shape (members, 2n): angle
    deviations from the operating point, then frequencies, slow buses
    first.  Fast buses use epsilon-scaled inertia and damping.

    Each step solves the theta-implicit equation
    ``z - X - dt (1 - theta) f(X) - dt F - dt theta f(z) = 0`` over the
    2n-dimensional state (F: the noise forcing, constant over the step),
    by windowed Picard sweeps (waveform relaxation: Lelarasmee, Ruehli &
    Sangiovanni-Vincentelli, IEEE TCAD 1(3), 1982).  The coupling flows
    are dense products with the n x lines incidence matrix, so one drift
    evaluation costs O(n lines) per row and member.

    The drift splits as f(X) = A X + r(X), A the drift Jacobian at some
    angles, and r, like the noise, is a force per bus.  The theta step is
    then the linear models' recurrence
    ``X_{k+1} = S X_k + G (eta_k + (1 - theta) r_k + theta r_{k+1})``
    with S and G the step and forcing maps of A.  Over a window of
    _WINDOW_ROWS rows, each sweep runs that recurrence for every member at
    once, with r from the previous sweep, then evaluates the flows, r and
    the exact step residual over every row, member and line in one pass.
    The first sweep holds r at the window's first row: it is the linearly
    implicit predictor.  A window is accepted when every step's residual
    has max-norm <= _STEP_TOL.  It stalls when a sweep fails to halve the
    residual, or when that rate could not reach the tolerance within the
    sweeps left (the chord rule of Hairer & Wanner, Solving ODEs II,
    IV.8); a stalled window is bisected, so window edges stay at multiples
    of _WINDOW_ROWS.  A one-row sweep is one chord iteration, so at one
    row a stall instead rebuilds A, S and G at the iterate of the member
    with the largest residual; the rebuilt maps are kept for later
    windows.  A one-row window that does not converge within _MAX_SWEEPS
    sweeps fails the run.  Every accepted window is checked for
    divergence, a deviation beyond pi from the operating point measured in
    the COI frame (the uniform angle component is gauge and performs a
    random walk under noise), and the first row past it is reported.

    ``noise_chunks`` yields each chunk's per-step noise values, flat
    (steps, members x n) as _ou_chunks makes them.  The states, the maps
    and the first row's flows and r carry over from one chunk to the next,
    and windows start at multiples of _WINDOW_ROWS from each chunk's
    start, so chunks of a multiple of _WINDOW_ROWS rows leave a member
    unchanged.  Yields ``(k, block)`` as _linear_chunks does: angle
    deviations from the operating point, then frequencies, at grid rows
    k, k+1, ..., shape (rows, members, 2n), a view of the buffer the next
    chunk reuses.  The first block starts with the initial state.
    """
    order = grid.ordering()
    n = grid.n_buses
    dt = t_grid[1] - t_grid[0]
    theta = cfg.theta
    edges = grid.edge_list(order)
    n_lines = len(edges.b) // 2
    lo, hi = edges.ends[:n_lines], edges.others[:n_lines]
    m, d = _full_masses(grid, cfg.epsilon)
    p = grid.param_vector("p")[order]
    theta_star = np.asarray(op.theta, dtype=float)[order]
    # line l's angle difference is (dev @ incidence)[l] + gap[l]; b sin(difference)
    # flows out of bus lo[l] and into bus hi[l]
    incidence = np.zeros((n, n_lines))
    incidence[lo, np.arange(n_lines)] = 1.0
    incidence[hi, np.arange(n_lines)] = -1.0
    gap = theta_star[lo] - theta_star[hi]
    outflow = edges.b[:n_lines, None] * incidence.T
    dt_m = dt / m

    def maps(ang, t):
        """Step and forcing maps, and the angle Jacobian, at angles ang;
        all transposed."""
        jac = _angle_jacobian(edges, ang)
        try:
            step, forcing = _linear_maps(jac, m, d, np.eye(n), dt, theta)
        except NumericsError as e:
            raise NumericsError(f"implicit step solve failed at t={t:.4g}") from e
        return step.T, forcing.T, jac.T

    def injection(dev, out):
        """p minus the flows out of every bus, at angle deviations dev."""
        ang = dev @ incidence
        ang += gap
        np.sin(ang, out=ang)
        np.matmul(ang, outflow, out=out)
        np.subtract(p, out, out=out)

    members = len(state)
    rec = np.empty((rows + 1, members, 2 * n))
    rec[0] = state
    row_views = list(rec)
    flat = rec.reshape(-1, 2 * n)  # row i, member j at flat[i * members + j]
    prod = np.empty((members, 2 * n))
    step_t, forcing_t, jac_t = maps(theta_star, t_grid[0])
    # window work arrays, flat like the states: the first row, then the window's rows
    w = min(_WINDOW_ROWS, rows)
    inj = np.empty(((w + 1) * members, n))  # p minus the flows
    rem = np.empty_like(inj)  # r: inj minus the linear force jac dev
    force = np.empty_like(inj)
    drive = np.empty((w * members, n))
    res = np.empty((w * members, 2 * n))
    injection(flat[:members, :n], inj[:members])
    np.subtract(inj[:members], flat[:members, :n] @ jac_t, out=rem[:members])

    def solve_window(k, start, length, eta):
        """Sweep rows start+1 .. start+length of the chunk at grid row k;
        False when the window stalls."""
        nonlocal step_t, forcing_t, jac_t
        first, size = start * members, length * members
        x = flat[first:first + size + members]
        dev, omega = x[:, :n], x[:, n:]
        inj_w, rem_w, force_w = inj[:size + members], rem[:size + members], force[:size + members]
        drive_w, res_w, eta_w = drive[:size], res[:size], eta[first:first + size]
        res_ang, res_omega = res_w[:, :n], res_w[:, n:]
        rem_w[members:].reshape(length, members, n)[:] = rem_w[:members]
        last = math.inf
        for sweep in range(_MAX_SWEEPS):
            # drive_i = eta_i + (1 - theta) r_i + theta r_{i+1}
            np.multiply(rem_w[members:], theta, out=drive_w)
            np.multiply(rem_w[:size], 1.0 - theta, out=res_ang)
            drive_w += res_ang
            drive_w += eta_w
            np.matmul(drive_w, forcing_t, out=x[members:])
            _propagate(row_views[start:start + length + 1], step_t, prod)
            injection(dev[members:], inj_w[members:])
            np.subtract(inj_w[members:], dev[members:] @ jac_t, out=rem_w[members:])
            # the exact residual of every step: angles, then frequencies
            np.multiply(omega[members:], dt * theta, out=res_ang)
            np.multiply(omega[:size], dt * (1.0 - theta), out=res_omega)
            res_ang += res_omega
            np.subtract(dev[members:], res_ang, out=res_ang)
            res_ang -= dev[:size]
            np.multiply(omega, d, out=force_w)
            np.subtract(inj_w, force_w, out=force_w)
            np.multiply(force_w[members:], theta, out=drive_w)
            np.multiply(force_w[:size], 1.0 - theta, out=res_omega)
            drive_w += res_omega
            drive_w += eta_w
            drive_w *= dt_m
            np.subtract(omega[members:], omega[:size], out=res_omega)
            res_omega -= drive_w
            np.abs(res_w, out=res_w)
            worst = res_w.max()
            if worst <= _STEP_TOL:
                break
            rate = worst / last
            if not (rate <= 0.5 and worst * rate ** (_MAX_SWEEPS - 1 - sweep) <= _STEP_TOL):
                if length > 1:
                    return False
                member = res_w.max(axis=1).argmax()
                step_t = forcing_t = jac_t = None  # freed before the new maps are built
                step_t, forcing_t, jac_t = maps(theta_star + dev[members + member],
                                                t_grid[k + start])
                np.subtract(inj_w, dev @ jac_t, out=rem_w)
            last = worst
        else:
            if length > 1:
                return False
            raise NumericsError(f"implicit step did not converge at t={t_grid[k + start]:.4g}; "
                                "reduce dt_max")
        coi = dev[members:].reshape(length, members, n)
        over = np.abs(coi - coi.sum(axis=2, keepdims=True) / n).max(axis=(1, 2)) > math.pi
        if over.any():
            t = t_grid[k + start + over.argmax() + 1]
            raise NumericsError(f"divergence detected at t={t:.4g}: |COI-frame deviation| > pi")
        inj[:members] = inj_w[size:]
        rem[:members] = rem_w[size:]
        return True

    k = 0
    for eta in noise_chunks:
        n_rows = len(eta)
        eta = eta.reshape(n_rows * members, n)
        start, pending = 0, []  # pending: lengths of bisected windows, last first
        with np.errstate(over="ignore", invalid="ignore"):
            while start < n_rows:
                length = pending.pop() if pending else min(w, n_rows - start)
                if solve_window(k, start, length, eta):
                    start += length
                else:
                    pending += [length - length // 2, length // 2]
        yield (0, rec[:n_rows + 1]) if k == 0 else (k + 1, rec[1:n_rows + 1])
        np.copyto(row_views[0], row_views[n_rows])
        k += n_rows


# ---------------------------------------------------------------------------
# Ensemble statistics
# ---------------------------------------------------------------------------

class _CoiFold:
    """Running sums of one model's squared COI frequency deviations over
    grid rows t >= burn_in, fed one chunk at a time.

    ``begin`` starts a batch of members, ``add`` folds its chunks in row
    order and ``end`` adds the batch's per-member sums to the ensemble's;
    ``stats`` gives the estimate.  Per member there is a total and one
    sum per time batch (time batch j ends before row ends[j]), each adding
    its rows in time order and continuing across chunk edges from the
    carried partial sum, so the result does not depend on how the rows
    were chunked.
    """

    def __init__(self, t: np.ndarray, n_slow: int, burn_in: float):
        self.n_slow = n_slow
        self.start = int(np.searchsorted(t, burn_in))  # t increases
        self.n_time = len(t) - self.start
        if not self.n_time:
            raise InputError(f"no samples after burn_in={burn_in}")
        # the time batches of np.array_split: the first n_time % n_b one row longer
        n_b = min(_N_BATCHES, self.n_time)
        self.lengths = np.array([self.n_time // n_b + 1] * (self.n_time % n_b)
                                + [self.n_time // n_b] * (n_b - self.n_time % n_b))
        self.ends = (self.start + np.cumsum(self.lengths)).tolist()
        self.sq_sum = np.zeros(n_slow)
        self.batch_means = []
        self.n_members = 0

    def begin(self, members: int) -> None:
        self.total = self.part = np.zeros((members, self.n_slow))
        self.sums = []

    def add(self, k: int, xdot: np.ndarray) -> None:
        """Fold grid rows k, k+1, ... of every member, shape (rows, members, n_slow)."""
        end = k + len(xdot)
        lo = max(k, self.start)
        if lo >= end:
            return
        xdot = xdot[lo - k:]
        with np.errstate(over="ignore", invalid="ignore"):
            # buf[0] carries the running total; buf[1 + i] is the square of row lo + i
            buf = np.empty((len(xdot) + 1, *xdot.shape[1:]))
            buf[0] = self.total
            dev = buf[1:]
            np.subtract(xdot, xdot.mean(axis=2, keepdims=True), out=dev)
            np.square(dev, out=dev)
            self.total = buf.sum(axis=0)
            row = lo
            while row < end:
                hi = min(self.ends[len(self.sums)], end)
                # the row before this time batch's rows is summed already:
                # it carries the time batch's partial sum instead
                buf[row - lo] = self.part
                self.part = buf[row - lo:hi - lo + 1].sum(axis=0)
                if hi == self.ends[len(self.sums)]:
                    self.sums.append(self.part)
                    self.part = np.zeros_like(self.part)
                row = hi

    def end(self) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            for total in self.total:
                self.sq_sum += total
            means = np.array(self.sums) / self.lengths[:, None, None]
        self.batch_means.append(means.transpose(1, 0, 2).reshape(-1, self.n_slow))
        self.n_members += len(self.total)

    def stats(self, bus_ids: tuple[int, ...]) -> EnsembleStats:
        """Per-bus variance of the COI frequency deviation: at every
        post-burn-in row the slow-bus mean frequency is subtracted, and the
        squares are averaged over time and ensemble.  The standard error
        comes from batch means (_N_BATCHES contiguous time batches per
        trajectory, pooled over the ensemble).  Raises NumericsError when
        the estimate is not finite."""
        n_total = self.n_time * self.n_members
        with np.errstate(over="ignore", invalid="ignore"):
            variance = self.sq_sum / n_total
            batch_means = np.concatenate(self.batch_means)
            if len(batch_means) > 1:
                stderr = batch_means.std(axis=0, ddof=1) / math.sqrt(len(batch_means))
            else:
                stderr = np.full(self.n_slow, np.nan)
        if not np.all(np.isfinite(variance)) or (len(batch_means) > 1
                                                 and not np.all(np.isfinite(stderr))):
            raise NumericsError("COI frequency variance estimate is not finite")
        return EnsembleStats(bus_ids=tuple(bus_ids), variance=variance, stderr=stderr,
                             n_samples=n_total)


def _guarded(model: str, chunks: Iterator, idx: range, seeds: tuple[int, ...]) -> Iterator:
    """``chunks`` of one model's batch of members, a numerical failure
    while stepping them reported with the model, trajectories and seeds."""
    try:
        yield from chunks
    except _FAILURES as e:
        members = (f"trajectory {idx[0]} (seed {seeds[0]})" if len(idx) == 1 else
                   f"trajectories {idx[0]}-{idx[-1]} (seeds {', '.join(map(str, seeds))})")
        raise NumericsError(f"{model}: {members} failed: {e}") from e


def member_seed(base_seed: int, i: int) -> int:
    """Seed of ensemble member i.  Member 0 keeps ``base_seed``, so it is
    the one-member run of that seed; member i >= 1 takes a 64-bit draw of
    SeedSequence([base_seed, i]), so distinct base seeds give distinct
    ensembles."""
    if i == 0:
        return base_seed
    return int(np.random.SeedSequence([base_seed, i]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# One setup per run, one noise stream for all its models
# ---------------------------------------------------------------------------

def linearize_and_reduce(grid: Grid):
    """Fixed point and Kron reduction of one grid: the (op, red) every
    analysis and every model's run reads from.  The Jacobian's entries,
    taken from the edge list, and every block the reduction scatters from
    them are freed before this returns.  Raises NumericsError when -J_FF
    is not positive definite."""
    op = solve_fixed_point(grid)
    return op, reduce_grid(grid, linearize(grid, op))


def check_models(models: list[str], what: str = "models") -> None:
    """An InputError naming ``what`` unless ``models`` are one or more of MODELS, each once."""
    unknown = [model for model in models if model not in MODELS]
    if unknown or not models:
        named = f"unknown model(s) {unknown}" if unknown else "no model"
        raise InputError(f"{what} names {named}; choose from {MODELS}")
    if len(set(models)) < len(models):
        raise InputError(f"{what} names a model twice")


def _layout(grid: Grid, red: ReducedSystem, models: list[str]) -> tuple[list[int], int | None]:
    """Buses whose positions and velocities each model's state holds (the
    slow buses of a reduced model; every bus, slow then fast, of a full
    one), and the line count _plan_batch takes: the grid's when a model is
    nonlinear, else None.  Bad model names are refused first."""
    check_models(models)
    halves = [red.n_slow if model.startswith("reduced") else grid.n_buses for model in models]
    n_lines = len(grid.lines) if "full-nonlinear" in models else None
    return halves, n_lines


def _stepper(grid: Grid, op: OperatingPoint, red: ReducedSystem, model: str, cfg: SimConfig,
             t_grid: np.ndarray, rows: int):
    """The model's chunk stepper on ``t_grid``, in chunks of at most
    ``rows`` rows, with its linear step maps built here, once:
    ``chunks(noise_chunks, state)`` steps members from their initial
    states (members, width) and yields ``(k, block)`` as _linear_chunks
    does."""
    if model == "full-nonlinear":
        return lambda eta, state: _nonlinear_chunks(grid, op, cfg, t_grid, eta, state, rows)
    system = (_full_linear_system(grid, op, cfg.epsilon) if model == "full-linear"
              else _reduced_system(red, model))
    step, forcing = _linear_maps(*system, t_grid[1] - t_grid[0], cfg.theta)
    return lambda eta, state: _linear_chunks(step, forcing, eta, state, rows)


def run_models(grid: Grid, op: OperatingPoint, red: ReducedSystem, cfg: SimConfig,
               models: list[str], keep_first: bool = False):
    """Ensemble runs of the named models of one setup (op, red), as
    linearize_and_reduce gives it, with the run's settings ``cfg``,
    stepped in lockstep on one noise stream: the one loop over members.

    A bad model name is refused first (check_models).  One _plan_batch
    sizes the members per batch and rows per chunk of all models
    together, counting every model's chunk buffers, step maps and, in the
    nonlinear model, Picard window arrays, plus member 0's slow x/xdot
    record when the caller keeps it (``keep_first``), and refuses a run
    above MAX_MEMBER_BYTES before any buffer or map is built.  Then each
    model's step maps are built once.  Member i gets seed
    member_seed(base_seed, i), so results are bit-reproducible for a
    fixed base seed.  Per batch of members, each chunk of OU noise
    (ou_spec_for_grid) is drawn once; every model steps through it and
    folds its chunk into its own statistics before the next chunk is
    drawn, so no batch or chunk outlives its turn.

    Returns ``(stats, record)``: one EnsembleStats per model, in
    order, and, with ``keep_first``, the slow x/xdot Trajectory of the
    first model's member 0 (else None).  Each model's statistics equal
    its run alone up to the rounding of products over the plan's rows
    per chunk.  An InputError passes through unchanged; a numerical
    failure (NumericsError, or a ValueError or ArithmeticError from the
    numerics) while a batch is stepped becomes a NumericsError naming
    its model, trajectories and seeds.
    """
    n, n_s = grid.n_buses, red.n_slow
    n_steps = _step_count(cfg.t_end, cfg.dt_max)
    halves, n_lines = _layout(grid, red, models)
    batch, rows, _ = _plan_batch(tuple(2 * half for half in halves), n, n_s, n_lines, n_steps,
                                 cfg.ensemble_size, 8 * (n_steps + 1) * 2 * n_s if keep_first else 0)

    t_grid = make_time_grid(cfg.t_end, cfg.dt_max)
    dt = t_grid[1] - t_grid[0]
    noise = ou_spec_for_grid(grid, cfg.base_seed)

    steppers = [_stepper(grid, op, red, model, cfg, t_grid, rows) for model in models]
    folds = [_CoiFold(t_grid, n_s, cfg.burn_in) for _ in models]
    record = None
    if keep_first:
        record = Trajectory(t=t_grid, x=np.empty((len(t_grid), n_s)),
                            xdot=np.empty((len(t_grid), n_s)))
    for first in range(0, cfg.ensemble_size, batch):
        idx = range(first, min(first + batch, cfg.ensemble_size))
        seeds = tuple(member_seed(cfg.base_seed, i) for i in idx)
        streams = itertools.tee(_ou_chunks(noise.sigma, noise.tau, seeds, dt, n_steps, rows),
                                len(models))
        for fold in folds:
            fold.begin(len(idx))
        rest = [np.zeros((len(idx), 2 * half)) for half in halves]
        # chunk j of every model before chunk j + 1 of any: each noise chunk is drawn once
        for chunks in zip(*(_guarded(model, step(eta, state), idx, seeds)
                            for model, step, eta, state in zip(models, steppers, streams, rest))):
            for fold, half, (k, block) in zip(folds, halves, chunks):
                fold.add(k, block[..., half:half + n_s])
            if record is not None and first == 0:
                k, block = chunks[0]
                record.x[k:k + len(block)] = block[:, 0, :n_s]
                record.xdot[k:k + len(block)] = block[:, 0, halves[0]:halves[0] + n_s]
        del chunks, block  # no view of this batch's buffers is held while the next one steps
        for fold in folds:
            fold.end()
    return [fold.stats(red.slow_ids) for fold in folds], record


def integrate(grid: Grid, op: OperatingPoint, red: ReducedSystem, model: str, cfg: SimConfig,
              noise, x0: np.ndarray | None = None, v0: np.ndarray | None = None) -> Trajectory:
    """One member of the named model of one setup (op, red) with settings
    ``cfg``, as run_models takes them, stepped through given noise and
    returned whole: slow x, xdot and, for a full model, fast y, ydot.

    ``noise`` is an OUSpec or a per-step value array over all buses, slow
    then fast; each model draws its channels from it as in run_models.
    ``x0``/``v0`` are the initial positions (angle deviations from the
    operating point) and velocities of the model's buses, slow then fast
    (default: at rest at the operating point); a wrong shape, or a value
    that is not a finite number, is an InputError, raised before anything
    is built.
    The member is stepped as a batch of one by run_models' stepper of the
    model, planned by _plan_batch with its whole record kept, so a run
    above MAX_MEMBER_BYTES is refused before any buffer exists.
    """
    (half,), n_lines = _layout(grid, red, [model])
    state = np.zeros((1, 2 * half))
    for name, value, part in (("x0", x0, state[0, :half]), ("v0", v0, state[0, half:])):
        if value is not None:
            part[:] = _finite_floats(value, f"{name} of {model} must be {half} finite values, "
                                     "one per bus", half)
    n_steps = _step_count(cfg.t_end, cfg.dt_max)
    rows = _plan_batch((2 * half,), grid.n_buses, red.n_slow, n_lines, n_steps, 1,
                       8 * (n_steps + 1) * 2 * half)[1]
    t_grid = make_time_grid(cfg.t_end, cfg.dt_max)
    eta = _noise_chunks(noise, t_grid, grid.n_buses, rows)
    record = np.empty((len(t_grid), 2 * half))
    for k, block in _stepper(grid, op, red, model, cfg, t_grid, rows)(eta, state):
        record[k:k + len(block)] = block[:, 0]
    n_s, full = red.n_slow, half > red.n_slow
    return Trajectory(t=t_grid, x=record[:, :n_s], xdot=record[:, half:half + n_s],
                      y=record[:, n_s:half] if full else None,
                      ydot=record[:, half + n_s:] if full else None)


def run_model_ensemble(grid: Grid, model: str, cfg: SimConfig) -> EnsembleStats:
    """End-to-end ensemble study of one model on one grid."""
    op, red = linearize_and_reduce(grid)
    return run_models(grid, op, red, cfg, [model])[0][0]
