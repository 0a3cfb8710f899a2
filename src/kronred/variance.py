"""Modal analysis and closed-form frequency variance of the reduced system.

The reduced dynamics  M x'' + D x' = J_red x + xi, with one damping
ratio gamma = d/m over the slow buses, decouple over the mass-normalized
eigenmodes v_alpha of J_red, ``eigendecompose_reduced``'s
``(lambdas, modes)``: the uniform mode last, its eigenvalue exactly 0,
the others before it, eigenvalues ascending.  That routine lives in
``reduction``, below this module and ``simulate``, whose linear models
step in the same modes, in the same order; it is re-exported here.
The center-of-inertia (COI) variance of the frequency deviations then
splits, mode pair by mode pair, into a slow-noise and a fast-noise
contribution weighted by a scalar kernel of the two eigenvalues, the
noise correlation time tau, gamma and the first slow bus's inertia m_0.
The fast-noise amplitudes are the modal coupling
Gamma = V^T K diag(sigma_F^2) K^T V of the reduction's noise map K, so
``coi_variance(red)`` needs nothing beyond the reduction: it builds the
modes and Gamma itself.

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
frequency variances.  It has no restriction on m, d or tau.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import HomogeneityError, InputError, NumericsError
from .reduction import ReducedSystem, _uniform_ratio, eigendecompose_reduced
from .simulate import Trajectory, _finite_floats, _uniform_step


def gamma_matrix(red: ReducedSystem, modes: np.ndarray) -> np.ndarray:
    """Modal cross-coupling of the fast-bus noise over the columns of
    ``modes`` (eigendecompose_reduced's, so the uniform mode's is last).

    Entry (alpha, beta) is v_alpha^T K diag(sigma_F^2) K^T v_beta with
    K the noise map the reduction stored in ``red.noise_gain``; no
    further solve with J_FF is needed.  It is the Gram product W^T W of
    W = diag(sigma_F) K^T V, scaled in place, so it is exactly symmetric
    and positive semidefinite.
    """
    n_s, n_f = red.n_slow, red.noise_gain.shape[1]
    if np.shape(modes) != (n_s, n_s):
        raise InputError(f"modes of shape {np.shape(modes)}, "
                         f"not {n_s} modes for {n_s} slow buses")
    if len(red.sigma_fast) != n_f:
        raise InputError(f"sigma_fast has {len(red.sigma_fast)} entries for {n_f} "
                         "noise-map columns")
    w = red.noise_gain.T @ modes  # K^T V
    with np.errstate(over="ignore", invalid="ignore"):
        w *= red.sigma_fast[:, None]
        g = w.T @ w
    if not np.all(np.isfinite(g)):
        raise InputError("modal noise coupling Gamma overflows: fast-bus sigmas too large")
    return g


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def _h_formula(lam_a, lam_b, tau, gamma, m):
    """Raw kernel ratio; no domain checks, broadcasts over arrays.

    The ratio is

        0.5 (2 gamma m S (gamma tau + 1) + 4 gamma a b tau^2 - tau D^2)
        / ((2 gamma^2 m S + D^2) (gamma m tau + a tau^2 + m) (gamma m tau + b tau^2 + m))

    with S = a + b and D = a - b.  Each term the size of the result is
    made in place in one of three buffers, with the operations of the
    expression above in the order Python evaluates it (S is summed twice,
    as D^2 is in the expression), so an overflow raises at the same
    operation and every float is that expression's.
    """
    shape = np.broadcast_shapes(np.shape(lam_a), np.shape(lam_b))
    num = np.add(lam_a, lam_b, out=np.empty(shape))  # S
    diff_sq = np.subtract(lam_a, lam_b, out=np.empty(shape))  # D, squared below
    num *= 2.0 * gamma * m
    num *= gamma * tau + 1.0
    den = np.multiply(4.0 * gamma * lam_a, lam_b, out=np.empty(shape))  # a term of num first
    den *= tau**2
    num += den
    np.square(diff_sq, out=diff_sq)
    np.multiply(diff_sq, tau, out=den)
    num -= den
    num *= 0.5
    np.add(lam_a, lam_b, out=den)  # S again, and the denominator from here on
    den *= 2.0 * gamma**2 * m
    den += diff_sq
    del diff_sq
    den *= gamma * m * tau + lam_a * tau**2 + m
    den *= gamma * m * tau + lam_b * tau**2 + m
    num /= den
    return num


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
    # as in Python's float arithmetic, an overflow is silent and a zero
    # divisor raises
    with np.errstate(over="ignore", invalid="ignore", divide="raise"):
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
            kernel = _h_formula(-lam_a, -lam_b, tau, gamma, m)
            kernel *= 2.0 * tau
            return kernel
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
    ``var_total = var_slow + var_fast``.
    """

    bus_ids: tuple[int, ...]
    var_total: np.ndarray
    var_slow: np.ndarray
    var_fast: np.ndarray


def _damping_ratio(red: ReducedSystem) -> tuple[float, float]:
    """(gamma, m_0): the slow buses' one d/m (else HomogeneityError) and
    their first m."""
    gamma = _uniform_ratio(red.m_slow, red.d_slow)
    if gamma is None:
        ratio = red.d_slow / red.m_slow
        raise HomogeneityError(
            "analytic formula requires a uniform damping ratio d/m over the slow buses; use "
            f"simulation (d/m: min {ratio.min():.6g}, max {ratio.max():.6g}): "
            "the `simulate` command has no such restriction")
    return gamma, float(red.m_slow[0])


def _mode_sum(u_perp: np.ndarray, kernel: np.ndarray, amplitude: np.ndarray,
              r: np.ndarray) -> np.ndarray:
    """Per-bus sum over mode pairs (a, b) of c_ia (amplitude_ab kernel_ab) c_ib,
    with C = u_perp - 1 r^T the modes less their slow-bus mean:
    rowsum((u_perp X) * u_perp) - 2 (u_perp X) r + r^T X r for
    X = amplitude * kernel, made in place in ``amplitude``, which the
    caller does not use again; ``kernel`` is only read."""
    amplitude *= kernel
    rows = u_perp @ amplitude
    r_x_r = r @ (amplitude @ r)
    cross = rows @ r
    rows *= u_perp
    return rows.sum(1) - 2.0 * cross + r_x_r


def coi_variance(red: ReducedSystem) -> VarianceReport:
    """Closed-form per-bus COI frequency variance.

    The modes are ``eigendecompose_reduced(red.j_red, red.m_slow)``.  The
    fast-bus noise enters through its modal coupling Gamma
    (``gamma_matrix``), built next, so an overflowing Gamma is an
    InputError whatever the parameters.  Then the formula requires one
    damping ratio d/m over the slow buses.  One loop over the distinct tau
    of both noise classes, ascending, builds each tau's kernel once; each
    class with buses at that tau adds its mode sum, the others' sigma
    masked to 0.  The sums run over every mode but the last, the uniform
    mode: it is the COI direction and drops out by definition, so a single
    slow bus has variance exactly 0, with no kernel evaluated.
    """
    lambdas, modes = eigendecompose_reduced(red.j_red, red.m_slow)
    gamma_mat = gamma_matrix(red, modes)
    gamma, m0 = _damping_ratio(red)

    if red.n_slow == 1:
        # exactly 0 for any parameters, also where the kernels overflow (tau = 1e200)
        return VarianceReport(red.slow_ids, np.zeros(1), np.zeros(1), np.zeros(1))

    lam = lambdas[:-1]
    u_perp = modes[:, :-1]
    # each mode's slow-bus mean: (1 - m/m_0) @ V / N_S, as (m/m_0) @ V = 0; 0 for uniform m
    r = ((1.0 - red.m_slow / m0) @ u_perp) / red.n_slow
    if len(np.unique(red.tau_fast)) > 1:  # each tau's Gamma in turn, one held at a time
        gamma_mat = None

    slow_sums, fast_sums = [], []
    # The kernels keep their own overflow checks; an overflow in the
    # amplitudes or mode sums shows as a non-finite total.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in np.unique(np.concatenate((red.tau_slow, red.tau_fast))):
            kernel = frequency_variance_kernel(lam[:, None], lam[None, :], t, gamma, m0)
            if t in red.tau_slow:  # V_perp^T diag(sigma_S^2) V_perp over the slow buses at t
                amplitude = u_perp * np.where(red.tau_slow == t, red.sigma_slow, 0.0)[:, None]
                amplitude = amplitude.T @ amplitude  # its factor freed as it is replaced
                slow_sums.append(_mode_sum(u_perp, kernel, amplitude, r))
                del amplitude
            if t in red.tau_fast:  # Gamma over the fast buses at t
                amplitude = gamma_mat if gamma_mat is not None else gamma_matrix(replace(
                    red, sigma_fast=np.where(red.tau_fast == t, red.sigma_fast, 0.0)), modes)
                fast_sums.append(_mode_sum(u_perp, kernel, amplitude[:-1, :-1], r))
                del amplitude
            del kernel
        var_slow = functools.reduce(np.add, slow_sums)
        var_fast = functools.reduce(np.add, fast_sums) if fast_sums else np.zeros(red.n_slow)
        var_total = var_slow + var_fast
    if not np.all(np.isfinite(var_total)):
        raise InputError("COI variance overflows: bus sigmas too large")

    return VarianceReport(bus_ids=red.slow_ids, var_total=var_total, var_slow=var_slow,
                          var_fast=var_fast)


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
    Any m, d and tau are supported, non-uniform d/m included, which makes
    this the reference for such studies as well as the cross-check that
    pins the closed-form kernel.  It is a test reference and needs scipy
    (``solve_continuous_lyapunov``).
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

    from scipy.linalg import solve_continuous_lyapunov  # a test reference: off the run path

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
    noise_path: np.ndarray,
    t_grid: np.ndarray,
    x0: np.ndarray | None = None,
    v0: np.ndarray | None = None,
) -> Trajectory:
    """Exact per-mode integration of the reduced dynamics.

    The noise path (one row of slow-space values per step, held constant
    over the step) is projected onto every mode but the last, the uniform
    one; each mode's damped oscillator is advanced with its exact
    matrix-exponential step, and x, xdot are reassembled.  Like the closed form, it builds the modes
    of J_red scaled by the slow buses' m and needs one damping ratio d/m
    over them.  Any component along the uniform mode (of the noise, or
    of the initial condition in the diag(m) inner product) is dropped.
    A noise path, x0 or v0 that is not finite numbers of its shape, over
    the rows the steps read, is an InputError (simulate._finite_floats,
    as in integrate).  It is a test reference and needs scipy (``expm``).
    """
    lambdas, modes = eigendecompose_reduced(red.j_red, red.m_slow)
    gamma, m = _damping_ratio(red)
    t_grid, dt = _uniform_step(t_grid)
    n_steps = len(t_grid) - 1
    n_s = red.n_slow
    noise_path = _finite_floats(noise_path, f"noise path must be (>= {n_steps}, {n_s}) finite "
                                "numbers", n_steps, n_s)
    u_perp = modes[:, :-1]
    lam = lambdas[:-1]
    n_modes = n_s - 1

    z, v = (np.zeros(n_modes) if value is None  # weighted by m / m_0
            else u_perp.T @ (red.m_slow / m * _finite_floats(
                value, f"{name} must be {n_s} finite values, one per slow bus", n_s))
            for name, value in (("x0", x0), ("v0", v0)))

    from scipy.linalg import expm  # a test reference: off the run path

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
