"""Kron reduction: Schur complement, noise map and effective noise covariance.

Eliminating the fast buses of a linearized two-timescale system leaves
the slow buses coupled through the Schur complement

    J_red = J_SS - J_SF J_FF^-1 J_FS,

which is again (the negative of) a Laplacian.  The eliminated buses'
noise does not disappear: it enters the retained buses through the
noise map K = -J_SF J_FF^-1, so the effective noise

    xi = eta_S + K eta_F

is spatially correlated even when all bus noises are independent.  Its
equal-time covariance is Sigma_xi = diag(sigma_S^2) + K diag(sigma_F^2) K^T.
The closed form and the simulator work from K and the sigmas alone, so
a ReducedSystem does not carry Sigma_xi: ``xi_covariance`` builds it
where the reduced-system JSON is written.

J_red and K come from the same solve W = J_FF^-1 J_FS, made with one
Cholesky factorization of -J_FF per reduction (never an explicit
inverse): J_red = J_SS - J_SF W and K = -W^T.  The reduction reads the
Jacobian's entries, which ``grid.linearize`` takes from the edge list
(the dense n x n Jacobian of ``build_jacobian`` is a test reference),
and scatters each block straight into the buffer it is used in: -J_FF
into the one N_F x N_F buffer, in which the definiteness certificate
and then the factor are made in place, and J_FS into the Fortran-ordered
array the solve overwrites with -W.  The factor is freed before J_SF is
scattered for the Schur product.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import InputError, NumericsError
from . import grid as _grid
from .grid import FAST, SLOW, Bus, Grid, Line, LinearizedSystem, _as_int


@dataclass(frozen=True)
class ReducedSystem:
    """Slow-bus dynamics after Kron reduction.

    ``noise_gain`` is the N_S x N_F map K through which fast-bus noise
    enters the slow buses; with the sigmas it fixes the covariance of xi,
    which ``xi_covariance`` builds on demand.  Per-bus parameter vectors
    (m, d, sigma, tau) are carried so heterogeneous systems can still be
    simulated; the closed-form variance path validates homogeneity itself.
    """

    slow_ids: tuple[int, ...]
    fast_ids: tuple[int, ...]
    j_red: np.ndarray
    noise_gain: np.ndarray
    sigma_slow: np.ndarray
    sigma_fast: np.ndarray
    tau_slow: np.ndarray
    tau_fast: np.ndarray
    m_slow: np.ndarray
    d_slow: np.ndarray

    @property
    def n_slow(self) -> int:
        return len(self.slow_ids)

    @property
    def n_fast(self) -> int:
        return len(self.fast_ids)


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def factor_fast_block(sys: LinearizedSystem):
    """Cholesky factor of -J_FF, verifying negative definiteness first.

    The gate: the largest eigenvalue of J_FF is below -1e-12 x max(1,
    largest |eigenvalue|).  A Cholesky factorization of -J_FF - delta I
    proves that without the eigenvalues.  With g the Gershgorin bound on
    |eigenvalue| and t = 1e-12 max(1, g), delta = t + 2 n gamma_{n+1} (g + t)
    exceeds t by more than the factorization's backward error (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, Thm 10.3), so
    its success leaves every eigenvalue of -J_FF above t.  When it fails,
    the eigenvalues decide, so the gate accepts and rejects as before.
    -J_FF is scattered from the entries of ``sys`` into one n_F x n_F
    buffer, in which the certificate and then the factor are made in
    place; the result equals ``cho_factor(-sys.j_ff)`` bit for bit.
    """
    n_f = sys.n_fast
    if n_f == 0:
        return None
    # One buffer for the certificate and then the factor, each made in
    # place: buf.T is Fortran-ordered, the order LAPACK factors in.
    buf = sys.block(FAST, FAST, negate=True)
    # |J_FF|'s row sums, each summed as over the whole array, a block of
    # rows at a time so no second n_F x n_F array is made
    g = float(np.max([np.abs(buf[k:k + 64]).sum(axis=1).max() for k in range(0, n_f, 64)]))
    t = 1e-12 * max(1.0, g)
    gamma = (n_f + 1) * _UNIT_ROUNDOFF / (1.0 - (n_f + 1) * _UNIT_ROUNDOFF)
    certified = False
    if 4 * n_f * gamma <= 1.0:  # delta then bounds the backward error
        buf.flat[::n_f + 1] -= t + 2 * n_f * gamma * (g + t)
        try:
            # the upper triangle of buf.T is the lower one eigvalsh reads
            cho_factor(buf.T, overwrite_a=True)
            certified = True
        except (np.linalg.LinAlgError, ValueError):
            pass
    if not certified:
        eigs = np.linalg.eigvalsh(sys.j_ff)
        scale = max(1.0, float(np.abs(eigs).max()))
        if eigs.max() >= -1e-12 * scale:
            raise NumericsError(
                f"fast block not negative definite: offending eigenvalue {eigs.max():.6e}")
    # buf.T holds -J_FF again, as cho_factor(-sys.j_ff) copies it
    sys.block(FAST, FAST, out=buf.T, negate=True)
    return cho_factor(buf.T, overwrite_a=True)


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """a <- 0.5 (a + a^T) in place, one pair of tiles at a time.  Each
    entry gets the bits of ``0.5 * (a + a.T)`` (a_ij + a_ji commutes),
    with no n x n temporary: ``np.add(a, a.T, out=a)`` copies a.T first."""
    n, step = a.shape[0], 256  # 512 kB tiles
    for i in range(0, n, step):
        for j in range(i, n, step):
            upper, lower = a[i:i + step, j:j + step], a[j:j + step, i:i + step]
            tile = upper + lower.T
            tile *= 0.5
            upper[...] = tile
            lower[...] = tile.T
    return a


def reduce_grid(grid: Grid, sys: LinearizedSystem) -> ReducedSystem:
    """Kron-reduce a grid's linearization to its slow buses.

    J_red = J_SS - J_SF J_FF^-1 J_FS (symmetrized) and the noise map
    K = -J_SF J_FF^-1 share one factorization of -J_FF and one solve.
    The network comes from the entries of ``sys``, which are not written;
    every per-bus parameter (m, d, sigma, tau) from the grid.
    """
    if tuple(grid.slow_ids) != sys.slow_ids or tuple(grid.fast_ids) != sys.fast_ids:
        raise InputError("linearized system does not belong to this grid")
    order = grid.ordering()
    n_s, n_f = sys.n_slow, sys.n_fast
    s, f = order[:n_s], order[n_s:]
    sigma, tau = grid.param_vector("sigma"), grid.param_vector("tau")
    m, d = grid.param_vector("m"), grid.param_vector("d")
    if n_f == 0:
        j_red = sys.j_ss
        k = np.zeros((n_s, 0))
    else:
        # the factor is of -J_FF, so the solve turns J_FS into -W, W =
        # J_FF^-1 J_FS; its sign is carried through instead of negating
        # an N_F x N_S array.  The factor dies with the call.
        neg_w = cho_solve(factor_fast_block(sys),
                          sys.block(FAST, SLOW, out=np.empty((n_f, n_s), order="F")),
                          overwrite_b=True)
        j_red = sys.j_sf @ neg_w
        j_red += sys.j_ss  # J_SS + J_SF (-W): the sum commutes bit for bit
        k = neg_w.T  # K = -J_SF J_FF^-1 = -W^T since J_FF is symmetric
    return ReducedSystem(
        slow_ids=sys.slow_ids, fast_ids=sys.fast_ids, j_red=_symmetrize(j_red), noise_gain=k,
        sigma_slow=sigma[s], sigma_fast=sigma[f], tau_slow=tau[s], tau_fast=tau[f],
        m_slow=m[s], d_slow=d[s])


def xi_covariance(red: ReducedSystem) -> np.ndarray:
    """Sigma_xi = diag(sigma_S^2) + K diag(sigma_F^2) K^T, the equal-time
    covariance of the effective noise xi = eta_S + K eta_F; an InputError
    when it overflows."""
    k = red.noise_gain
    # Each sigma^2 is finite (Bus checks it), but sums over buses can overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_xi = np.diag(red.sigma_slow**2) + (k * red.sigma_fast**2) @ k.T
    if not np.all(np.isfinite(sigma_xi)):
        raise InputError("noise covariance sigma_xi overflows: bus sigmas too large")
    return sigma_xi


def make_star_grid(
    n_outer: int,
    center_class: str,
    b: float = 1.0,
    sigma: float = 0.01,
    m: float = 0.2,
    d: float = 0.05,
    tau: float = 0.1,
) -> Grid:
    """Star grid with uniform coupling, zero injections, uniform noise.

    The center bus (id 1) has ``center_class``; the n_outer outer buses
    (ids 2..n_outer+1) have the opposite class.  With zero injections
    the fixed point is theta* = 0 and the reduction closed forms of the
    two idealized star cases hold exactly.
    """
    n_outer = _as_int(n_outer, "n_outer")
    if n_outer < 1:
        raise InputError(f"n_outer must be >= 1, got {n_outer}")
    if n_outer + 1 > _grid.MAX_BUSES:  # before any bus is built
        raise InputError(f"a star of {n_outer} outer buses has {n_outer + 1} buses, "
                         f"above the limit of {_grid.MAX_BUSES}")
    if center_class not in (SLOW, FAST):
        raise InputError(f"center_class must be 'slow' or 'fast', got {center_class!r}")
    outer_class = FAST if center_class == SLOW else SLOW
    buses = [Bus(id=1, speed_class=center_class, m=m, d=d, p=0.0, sigma=sigma, tau=tau)]
    lines = []
    for k in range(n_outer):
        buses.append(Bus(id=k + 2, speed_class=outer_class, m=m, d=d, p=0.0, sigma=sigma, tau=tau))
        lines.append(Line(from_bus=1, to_bus=k + 2, b=b))
    return Grid(buses=tuple(buses), lines=tuple(lines))


# ---------------------------------------------------------------------------
# JSON serialization (CLI surface)
# ---------------------------------------------------------------------------

def reduced_system_to_dict(red: ReducedSystem) -> dict:
    """JSON-friendly dict, one key per field in field order and then
    ``sigma_xi`` (from ``xi_covariance``), with matrices as row-major
    nested lists."""
    doc = {f.name: getattr(red, f.name) for f in fields(red)}
    doc["sigma_xi"] = xi_covariance(red)
    return {k: list(v) if isinstance(v, tuple) else v.tolist() for k, v in doc.items()}
