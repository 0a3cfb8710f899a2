"""Modal analysis and closed-form frequency variance of the reduced system.

The reduced dynamics  m x'' + d x' = J_red x + xi  are expanded over the
orthonormal eigenmodes u_alpha of J_red (eigenvalues 0 = lambda_1 >=
lambda_2 >= ...).  The center-of-inertia (COI) variance of the
frequency deviations then splits, mode pair by mode pair, into a
slow-noise and a fast-noise contribution weighted by a scalar kernel
that depends only on the two eigenvalues, the noise correlation time
tau, the damping rate gamma = d/m and the inertia m.

Two kernels are exposed:

* ``h_kernel`` is the literal closed-form ratio quoted in the reduction
  literature, taken at face value on the nonpositive spectrum.
* ``frequency_variance_kernel`` is the actual stationary covariance
  <v_a v_b> of two modes driven by a shared unit-variance OU process.
  Solving the stationary Lyapunov equation symbolically shows it equals
  2*tau times the h_kernel expression evaluated at the sign-flipped
  (positive, Laplacian-convention) eigenvalues.  ``coi_variance`` uses
  this kernel; its agreement with the independent Lyapunov oracle to
  1e-6 relative is what pins the convention.

``lyapunov_oracle_variance`` is that independent oracle: it builds the
augmented state (modal x orthogonal to the uniform mode, full xdot, all
OU channels), solves A P + P A^T + Q = 0 densely, and reads off the COI
frequency variances.  It has no homogeneity restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from .errors import HomogeneityError, InputError, NumericsError
from .reduction import ReducedSystem
from .simulate import Trajectory

_ZERO_TOL = 1e-9  # |eigenvalue| below this times max(1, max |J_red|) counts as zero


@dataclass(frozen=True)
class ModalBasis:
    """Eigenpairs of J_red, sorted 0 = lambda_1 >= lambda_2 >= ...

    Column alpha of ``modes`` is the orthonormal eigenvector u_alpha;
    the first column is snapped to the exact uniform vector (the COI
    direction).
    """

    lambdas: np.ndarray
    modes: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.lambdas)


def eigendecompose_reduced(j_red: np.ndarray) -> ModalBasis:
    """Symmetric eigendecomposition with the zero mode snapped.

    The zero eigenvalue is set to exactly 0 and its eigenvector to the
    exact uniform vector; the remaining columns are re-orthogonalized
    against it.  A second near-zero eigenvalue means the reduced network
    is disconnected and is an error.
    """
    j_red = np.asarray(j_red, dtype=float)
    n = j_red.shape[0]
    if j_red.shape != (n, n):
        raise InputError(f"j_red must be square, got {j_red.shape}")
    scale = max(1.0, float(np.abs(j_red).max()))
    if np.abs(j_red - j_red.T).max() > 1e-10 * scale:
        raise InputError("j_red is not symmetric")
    if np.abs(j_red.sum(axis=1)).max() > 1e-8 * scale:
        raise InputError("j_red does not have zero row sums (not a Laplacian)")

    vals, vecs = np.linalg.eigh(j_red)
    lambdas = vals[::-1].copy()
    modes = vecs[:, ::-1].copy()

    if abs(lambdas[0]) >= _ZERO_TOL * scale:
        raise InputError(
            f"largest eigenvalue {lambdas[0]:.3e} is not a zero mode")
    if n >= 2 and lambdas[1] >= -_ZERO_TOL * scale:
        raise NumericsError(
            f"zero eigenvalue not simple (second eigenvalue {lambdas[1]:.3e}): "
            "reduced network disconnected")

    lambdas[0] = 0.0
    uniform = np.full(n, 1.0 / math.sqrt(n))
    modes[:, 0] = uniform
    for a in range(1, n):
        col = modes[:, a]
        col = col - (uniform @ col) * uniform
        modes[:, a] = col / np.linalg.norm(col)
    return ModalBasis(lambdas=lambdas, modes=modes)


def gamma_matrix(red: ReducedSystem, basis: ModalBasis) -> np.ndarray:
    """Modal cross-coupling of the fast-bus noise.

    Entry (alpha, beta) is u_alpha^T K diag(sigma_F^2) K^T u_beta with
    K the noise map the reduction stored in ``red.noise_gain``; no
    further solve with J_FF is needed.  Symmetric positive semidefinite.
    """
    n_s, n_f = red.n_slow, red.noise_gain.shape[1]
    if basis.n_modes != n_s:
        raise InputError(f"basis has {basis.n_modes} modes for {n_s} slow buses")
    if len(red.sigma_fast) != n_f:
        raise InputError(f"sigma_fast has {len(red.sigma_fast)} entries for {n_f} "
                         "noise-map columns")
    w = red.noise_gain.T @ basis.modes  # K^T U
    with np.errstate(over="ignore", invalid="ignore"):
        g = (w * red.sigma_fast[:, None]**2).T @ w
        g = 0.5 * (g + g.T)
    if not np.all(np.isfinite(g)):
        raise InputError("modal noise coupling Gamma overflows: fast-bus sigmas too large")
    return g


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def _h_formula(lam_a, lam_b, tau, gamma, m):
    """Raw kernel ratio; no domain checks, broadcasts over arrays."""
    lam_sum = lam_a + lam_b
    lam_diff = lam_a - lam_b
    num = 0.5 * (2.0 * gamma * m * lam_sum * (gamma * tau + 1.0)
                 + 4.0 * gamma * lam_a * lam_b * tau**2
                 - tau * lam_diff**2)
    den = ((2.0 * gamma**2 * m * lam_sum + lam_diff**2)
           * (gamma * m * tau + lam_a * tau**2 + m)
           * (gamma * m * tau + lam_b * tau**2 + m))
    return num / den


def h_kernel(lam_a: float, lam_b: float, tau: float, gamma: float, m: float) -> float:
    """Literal closed-form kernel on the nonpositive spectrum.

    Symmetric under swapping the eigenvalues; on the diagonal it
    simplifies to 1 / (2*gamma*m*(gamma*m*tau + lam*tau^2 + m)).  Any
    denominator factor within 1e-14 of zero (relative to its natural
    scale) raises, since that signals a parameter regime outside the
    formula's validity.
    """
    if lam_a > 0 or lam_b > 0:
        raise InputError(f"eigenvalue arguments must be <= 0, got ({lam_a}, {lam_b})")
    if not (tau > 0 and gamma > 0 and m > 0):
        raise InputError(f"tau, gamma, m must be > 0, got ({tau}, {gamma}, {m})")
    lam_sum = lam_a + lam_b
    lam_diff = lam_a - lam_b
    factors = {
        "2*gamma^2*m*(lam_a+lam_b) + (lam_a-lam_b)^2":
            (2.0 * gamma**2 * m * lam_sum + lam_diff**2,
             2.0 * gamma**2 * m * (abs(lam_a) + abs(lam_b)) + lam_diff**2),
        "gamma*m*tau + lam_a*tau^2 + m":
            (gamma * m * tau + lam_a * tau**2 + m,
             gamma * m * tau + abs(lam_a) * tau**2 + m),
        "gamma*m*tau + lam_b*tau^2 + m":
            (gamma * m * tau + lam_b * tau**2 + m,
             gamma * m * tau + abs(lam_b) * tau**2 + m),
    }
    for name, (value, scale) in factors.items():
        if abs(value) < 1e-14 * max(scale, 1e-300):
            raise NumericsError(f"degenerate kernel: factor {name} vanishes")
    return float(_h_formula(lam_a, lam_b, tau, gamma, m))


def frequency_variance_kernel(lam_a, lam_b, tau: float, gamma: float, m: float):
    """Stationary covariance <v_a v_b> of two modes per unit noise covariance.

    Modes a, b obey m v' = lam z - gamma m v + f with shared forcing of
    unit amplitude covariance and correlation time tau.  Equals
    2*tau*h(-lam_a, -lam_b); every denominator factor is strictly
    positive on the valid domain (lam <= 0, not both zero), so the
    kernel is well-defined and nonnegative on the diagonal.
    Broadcasts over array eigenvalue arguments.
    """
    lam_a = np.asarray(lam_a, dtype=float)
    lam_b = np.asarray(lam_b, dtype=float)
    if np.any(lam_a > 0) or np.any(lam_b > 0):
        raise InputError("eigenvalue arguments must be <= 0")
    if np.any((lam_a == 0) & (lam_b == 0)):
        raise InputError("kernel undefined when both eigenvalues are zero (zero mode)")
    if not (tau > 0 and gamma > 0 and m > 0):
        raise InputError(f"tau, gamma, m must be > 0, got ({tau}, {gamma}, {m})")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return 2.0 * tau * _h_formula(-lam_a, -lam_b, tau, gamma, m)
    except ArithmeticError as e:  # also Python float overflow in the scalar powers
        raise NumericsError(
            f"kernel not finite at tau={tau}, gamma={gamma}, m={m}: {e}") from e


# ---------------------------------------------------------------------------
# Closed-form COI variance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceReport:
    """Per-bus COI frequency variance with its slow/fast split.

    ``var_slow`` is also the naive prediction (retained-bus noise only);
    ``var_total = var_slow + var_fast``.  Parameters echo the
    homogeneous values the formula was evaluated with; ``tau_fast`` is
    None when there are no fast buses.
    """

    bus_ids: tuple[int, ...]
    var_total: np.ndarray
    var_slow: np.ndarray
    var_fast: np.ndarray
    m: float
    d: float
    gamma: float
    tau_slow: float
    tau_fast: float | None

    @property
    def var_naive(self) -> np.ndarray:
        return self.var_slow


def _homogeneous(values: np.ndarray, label: str) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise InputError(f"empty {label} vector")
    if not np.allclose(values, values[0], rtol=1e-9, atol=0.0):
        raise HomogeneityError(
            f"analytic formula requires homogeneous parameters; use simulation "
            f"(heterogeneous {label}: min {values.min():.6g}, max {values.max():.6g})")
    return float(values[0])


def coi_variance(red: ReducedSystem, basis: ModalBasis, gamma_mat: np.ndarray) -> VarianceReport:
    """Closed-form per-bus COI frequency variance.

    Requires homogeneous inertia and damping over the slow buses and
    homogeneous noise correlation time within each class.  The mode
    sums run over modes 2..N_S: the uniform mode is the COI direction
    and drops out by definition.
    """
    m = _homogeneous(red.m_slow, "inertia m")
    d = _homogeneous(red.d_slow, "damping d")
    tau_s = _homogeneous(red.tau_slow, "tau (slow class)")
    tau_f = _homogeneous(red.tau_fast, "tau (fast class)") if red.n_fast else None
    gamma = d / m

    n_s = red.n_slow
    if basis.n_modes != n_s:
        raise InputError(f"basis has {basis.n_modes} modes for {n_s} slow buses")
    gamma_mat = np.asarray(gamma_mat, dtype=float)
    if gamma_mat.shape != (n_s, n_s):
        raise InputError(f"gamma matrix shape {gamma_mat.shape}, expected ({n_s}, {n_s})")

    if n_s == 1:
        zero = np.zeros(1)
        return VarianceReport(bus_ids=red.slow_ids, var_total=zero.copy(),
                              var_slow=zero.copy(), var_fast=zero.copy(),
                              m=m, d=d, gamma=gamma, tau_slow=tau_s, tau_fast=tau_f)

    lam = basis.lambdas[1:]
    u_perp = basis.modes[:, 1:]

    # The kernels keep their own overflow checks; an overflow in the
    # amplitudes or mode sums shows as a non-finite total.
    with np.errstate(over="ignore", invalid="ignore"):
        kern_s = frequency_variance_kernel(lam[:, None], lam[None, :], tau_s, gamma, m)
        slow_amp = (u_perp * red.sigma_slow[:, None]**2).T @ u_perp
        var_slow = ((u_perp @ (slow_amp * kern_s)) * u_perp).sum(1)

        if red.n_fast and tau_f is not None:
            kern_f = frequency_variance_kernel(lam[:, None], lam[None, :], tau_f, gamma, m)
            fast_amp = gamma_mat[1:, 1:]
            var_fast = ((u_perp @ (fast_amp * kern_f)) * u_perp).sum(1)
        else:
            var_fast = np.zeros(n_s)
        var_total = var_slow + var_fast
    if not np.all(np.isfinite(var_total)):
        raise InputError("COI variance overflows: bus sigmas too large")

    return VarianceReport(
        bus_ids=red.slow_ids, var_total=var_total,
        var_slow=var_slow, var_fast=var_fast,
        m=m, d=d, gamma=gamma, tau_slow=tau_s, tau_fast=tau_f,
    )


# ---------------------------------------------------------------------------
# Independent Lyapunov oracle
# ---------------------------------------------------------------------------

def _helmert_complement(n: int) -> np.ndarray:
    """Orthonormal basis (n x (n-1)) of the complement of the uniform vector."""
    w = np.zeros((n, n - 1))
    for k in range(1, n):
        w[:k, k - 1] = 1.0
        w[k, k - 1] = -k
        w[:, k - 1] /= math.sqrt(k * (k + 1))
    return w


def lyapunov_oracle_variance(red: ReducedSystem) -> np.ndarray:
    """Per-bus COI frequency variance from a dense stationary Lyapunov solve.

    State: modal displacement z (orthogonal complement of the uniform
    mode), full frequency vector v, and one OU channel per bus (slow
    and fast), each entering through its generator m_i v_i' += eta.
    Heterogeneous m, d and tau are fully supported, which makes this
    the reference for heterogeneous-parameter studies as well as the
    cross-check that pins the closed-form kernel.
    """
    n_s, n_f = red.n_slow, red.n_fast
    if n_s == 1:
        return np.zeros(1)

    w = _helmert_complement(n_s)
    m_inv = 1.0 / red.m_slow
    dim = (n_s - 1) + n_s + n_s + n_f
    a = np.zeros((dim, dim))
    q = np.zeros((dim, dim))

    iz = slice(0, n_s - 1)
    iv = slice(n_s - 1, n_s - 1 + n_s)
    i_es = slice(n_s - 1 + n_s, n_s - 1 + 2 * n_s)
    i_ef = slice(n_s - 1 + 2 * n_s, dim)

    a[iz, iv] = w.T
    a[iv, iz] = m_inv[:, None] * (red.j_red @ w)
    a[iv, iv] = -np.diag(red.d_slow * m_inv)
    a[iv, i_es] = np.diag(m_inv)
    if n_f:
        a[iv, i_ef] = m_inv[:, None] * red.noise_gain
        a[i_ef, i_ef] = -np.diag(1.0 / red.tau_fast)
        q[i_ef, i_ef] = np.diag(2.0 * red.sigma_fast**2 / red.tau_fast)
    a[i_es, i_es] = -np.diag(1.0 / red.tau_slow)
    q[i_es, i_es] = np.diag(2.0 * red.sigma_slow**2 / red.tau_slow)

    eig_real = np.linalg.eigvals(a).real
    if eig_real.max() >= 0:
        raise NumericsError(
            f"unstable reduced system: eigenvalue with real part {eig_real.max():.3e}")

    p = solve_continuous_lyapunov(a, -q)
    p_vv = p[iv, iv]
    proj = np.eye(n_s) - np.full((n_s, n_s), 1.0 / n_s)
    coi_cov = proj @ p_vv @ proj.T
    return np.diag(coi_cov).copy()


# ---------------------------------------------------------------------------
# Exact modal trajectory for a piecewise-constant noise path
# ---------------------------------------------------------------------------

def modal_trajectory(
    red: ReducedSystem,
    basis: ModalBasis,
    noise_path: np.ndarray,
    t_grid: np.ndarray,
    x0: np.ndarray | None = None,
    v0: np.ndarray | None = None,
) -> Trajectory:
    """Exact per-mode integration of the reduced dynamics.

    The noise path (one row of slow-space values per step, held constant
    over the step) is projected onto modes 2..N_S, each mode's damped
    oscillator is advanced with its exact matrix-exponential step, and
    x, xdot are reassembled.  Any component along the uniform mode (of
    the noise or the initial condition) is dropped.
    """
    m = _homogeneous(red.m_slow, "inertia m")
    d = _homogeneous(red.d_slow, "damping d")
    gamma = d / m
    t_grid = np.asarray(t_grid, dtype=float)
    n_steps = len(t_grid) - 1
    if n_steps < 1:
        raise InputError("time grid needs at least two points")
    dts = np.diff(t_grid)
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-9, atol=0.0) or dt <= 0:
        raise InputError("time grid must be uniform and increasing")
    noise_path = np.asarray(noise_path, dtype=float)
    if noise_path.ndim != 2 or noise_path.shape[1] != red.n_slow or noise_path.shape[0] < n_steps:
        raise InputError(
            f"noise path must be (>= {n_steps}, {red.n_slow}), got {noise_path.shape}")

    n_s = red.n_slow
    u_perp = basis.modes[:, 1:]
    lam = basis.lambdas[1:]
    n_modes = n_s - 1

    z = np.zeros(n_modes) if x0 is None else u_perp.T @ np.asarray(x0, dtype=float)
    v = np.zeros(n_modes) if v0 is None else u_perp.T @ np.asarray(v0, dtype=float)

    # per-mode exact step: Phi = expm(A dt), forced response g = A^-1 (Phi - I) b
    phi = np.empty((n_modes, 2, 2))
    g = np.empty((n_modes, 2))
    b_vec = np.array([0.0, 1.0 / m])
    for k in range(n_modes):
        a_k = np.array([[0.0, 1.0], [lam[k] / m, -gamma]])
        phi_k = expm(a_k * dt)
        phi[k] = phi_k
        g[k] = np.linalg.solve(a_k, (phi_k - np.eye(2)) @ b_vec)

    x = np.empty((n_steps + 1, n_s))
    xdot = np.empty((n_steps + 1, n_s))
    x[0] = u_perp @ z
    xdot[0] = u_perp @ v
    forces = noise_path[:n_steps] @ u_perp
    for k in range(n_steps):
        f = forces[k]
        z_new = phi[:, 0, 0] * z + phi[:, 0, 1] * v + g[:, 0] * f
        v_new = phi[:, 1, 0] * z + phi[:, 1, 1] * v + g[:, 1] * f
        z, v = z_new, v_new
        x[k + 1] = u_perp @ z
        xdot[k + 1] = u_perp @ v
    return Trajectory(t=t_grid.copy(), x=x, xdot=xdot)
