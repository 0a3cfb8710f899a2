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

J_red and K come from one Cholesky factorization -J_FF = L L^T per
reduction (never an explicit inverse).  With Y = L^-1 J_FS,
J_red = J_SS + Y^T Y and K = (L^-T Y)^T.  Every symmetric matrix of the
analysis is such a Gram product Z^T Z or Z Z^T (J_red here, Sigma_xi
below, the modal coupling Gamma in ``variance``), which numpy's matmul
computes as one symmetric rank-k update: exactly symmetric, with no
symmetrization step.  The reduction reads the Jacobian's entries, which
``grid.linearize`` takes from the edge list (the dense n x n Jacobian of
``build_jacobian`` is a test reference), and scatters each block
straight into the buffer it is used in: -J_FF into the one N_F x N_F
buffer that the definiteness certificate and then the factor overwrite
in place (a blocked Cholesky factorization, ``_cholesky_in_place``), and
J_FS into the Fortran-ordered array that the blocked forward and back
substitutions overwrite with Y and then with L^-T Y.  No N_F x N_F
array is made beside the buffer (unless the certificate falls back to
the eigenvalues), and no N_F x N_S one beside J_FS: every other LAPACK
call and temporary spans at most _SOLVE_ROWS rows or columns.  J_SF is
never scattered.  The factor is freed before J_SS is
scattered.  Only numpy is used.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError, NumericsError
from . import grid as _grid
from .grid import FAST, SLOW, Bus, Grid, Line, LinearizedSystem, _as_int


@dataclass(frozen=True)
class ReducedSystem:
    """Slow-bus dynamics after Kron reduction.

    ``noise_gain`` is the N_S x N_F map K through which fast-bus noise
    enters the slow buses; with the sigmas it fixes the covariance of xi,
    which ``xi_covariance`` builds on demand.  Per-bus parameter vectors
    (m, d, sigma, tau) are carried for the simulator and the closed form,
    which checks its one precondition, a uniform d/m, itself.
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
    """Lower Cholesky factor of -J_FF, verifying negative definiteness first.

    The gate: the largest eigenvalue of J_FF is below -1e-12 x max(1,
    largest |eigenvalue|).  A Cholesky factorization of -J_FF - delta I
    proves that without the eigenvalues.  With g the Gershgorin bound on
    |eigenvalue| and t = 1e-12 max(1, g), delta = t + 2 n gamma_{n+1} (g + t)
    exceeds t by more than the factorization's backward error (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, Thm 10.3), so
    its success leaves every eigenvalue of -J_FF above t.  When it fails,
    the eigenvalues decide, so the gate accepts and rejects as before.
    -J_FF is scattered from the entries of ``sys`` into one n_F x n_F
    buffer, shifted there and factored in place for the certificate, then
    scattered again and factored in place into the result
    (``_cholesky_in_place``): no second n_F x n_F array is made, unless
    the eigenvalues are needed.  For n_F <= _SOLVE_ROWS the result equals
    ``np.linalg.cholesky(-sys.j_ff)`` bit for bit; above, it differs by
    roundoff.
    """
    n_f = sys.n_fast
    if n_f == 0:
        return None
    buf = sys.block(FAST, FAST)
    np.negative(buf, out=buf)  # -0.0 where J_FF holds 0.0
    # |J_FF|'s row sums, each summed as over the whole array, a block of
    # rows at a time so no second n_F x n_F array is made
    g = float(np.max([np.abs(buf[k:k + 64]).sum(axis=1).max() for k in range(0, n_f, 64)]))
    t = 1e-12 * max(1.0, g)
    gamma = (n_f + 1) * _UNIT_ROUNDOFF / (1.0 - (n_f + 1) * _UNIT_ROUNDOFF)
    certified = False
    if 4 * n_f * gamma <= 1.0:  # delta then bounds the backward error
        buf.flat[::n_f + 1] -= t + 2 * n_f * gamma * (g + t)
        try:
            _cholesky_in_place(buf)  # the factor is overwritten: only its success counts
            certified = True
        except np.linalg.LinAlgError:
            pass
    if not certified:
        eigs = np.linalg.eigvalsh(sys.j_ff)
        scale = max(1.0, float(np.abs(eigs).max()))
        if eigs.max() >= -1e-12 * scale:
            raise NumericsError(
                f"fast block not negative definite: offending eigenvalue {eigs.max():.6e}")
    return _cholesky_in_place(np.negative(sys.block(FAST, FAST, out=buf), out=buf))


_SOLVE_ROWS = 128  # rows of a diagonal block, a panel and a tile in the blocked routines


def _cholesky_in_place(a: np.ndarray) -> np.ndarray:
    """a <- L, the lower Cholesky factor of the symmetric positive definite
    ``a``, its strict upper triangle set to 0; a LinAlgError when ``a`` is
    not positive definite.

    Left-looking and blocked, _SOLVE_ROWS columns a panel, as numpy has no
    in-place Cholesky: one matrix product updates the panel from the
    columns already factored, ``np.linalg.cholesky`` factors its diagonal
    block D, and the rows below solve X D^T = B by substitution.  That is
    ``np.linalg.solve`` on D with rows and columns reversed, which is upper
    triangular, so partial pivoting neither swaps nor eliminates and the
    solve is LAPACK's triangular one, as in its blocked ``dpotrf``: the
    backward error bound of Higham's Thm 10.3 holds.  With one panel
    (n <= _SOLVE_ROWS) this is ``np.linalg.cholesky(a)``, bit for bit.
    """
    n = len(a)
    for k in range(0, n, _SOLVE_ROWS):
        cols, below = slice(k, k + _SOLVE_ROWS), slice(k + _SOLVE_ROWS, n)
        a[k:, cols] -= a[k:, :k] @ a[cols, :k].T
        a[cols, cols] = np.linalg.cholesky(a[cols, cols])
        a[:k, cols] = 0.0
        flipped = a[cols, cols][::-1, ::-1]  # upper triangular
        a[below, cols] = np.linalg.solve(flipped, a[below, cols].T[::-1])[::-1].T
    return a


def _forward_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b <- L^-1 b in place, L = ``factor`` lower triangular and b
    Fortran-ordered, _SOLVE_ROWS rows at a time, as numpy has no
    triangular solve.  Each diagonal block of L is inverted by
    ``np.linalg.solve`` against the identity and applied by a matrix
    product; the rows not yet solved are updated in place, _SOLVE_ROWS
    at a time, each tile by a product made as the transpose of a
    C-ordered one so that it is ordered as b is."""
    n = len(factor)
    for k in range(0, n, _SOLVE_ROWS):
        rows = slice(k, k + _SOLVE_ROWS)
        block = factor[rows, rows]
        b[rows] = np.linalg.solve(block, np.eye(len(block))) @ b[rows]
        for j in range(k + _SOLVE_ROWS, n, _SOLVE_ROWS):
            tile = slice(j, j + _SOLVE_ROWS)
            b[tile] -= (b[rows].T @ factor[tile, rows].T).T
    return b


def _back_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b <- L^-T b in place, by the blocks and tiles of ``_forward_solve``
    taken from the last."""
    for k in reversed(range(0, len(factor), _SOLVE_ROWS)):
        rows = slice(k, k + _SOLVE_ROWS)
        block = factor[rows, rows].T
        b[rows] = np.linalg.solve(block, np.eye(len(block))) @ b[rows]
        for j in range(0, k, _SOLVE_ROWS):
            tile = slice(j, j + _SOLVE_ROWS)
            b[tile] -= (b[rows].T @ factor[rows, tile]).T
    return b


def reduce_grid(grid: Grid, sys: LinearizedSystem) -> ReducedSystem:
    """Kron-reduce a grid's linearization to its slow buses.

    With -J_FF = L L^T (``factor_fast_block``) and Y = L^-1 J_FS, the
    Schur complement is the Gram product J_red = J_SS + Y^T Y, exactly
    symmetric as numpy's matmul makes it, and the back solve L^-T Y =
    -J_FF^-1 J_FS gives the noise map K = -J_SF J_FF^-1 as its transpose.
    Both solves overwrite the J_FS buffer in place.  The network comes
    from the entries of ``sys``, which are not written; every per-bus
    parameter (m, d, sigma, tau) from the grid.
    """
    if tuple(grid.slow_ids) != sys.slow_ids or tuple(grid.fast_ids) != sys.fast_ids:
        raise InputError("linearized system does not belong to this grid")
    order = grid.ordering()
    n_s, n_f = sys.n_slow, sys.n_fast
    s, f = order[:n_s], order[n_s:]
    sigma, tau = grid.param_vector("sigma"), grid.param_vector("tau")
    m, d = grid.param_vector("m"), grid.param_vector("d")
    if n_f == 0:
        j_red, k = sys.j_ss, np.zeros((n_s, 0))  # J_SS is symmetric as scattered
    else:
        factor = factor_fast_block(sys)
        y = _forward_solve(factor, sys.block(FAST, SLOW, out=np.empty((n_f, n_s), order="F")))
        j_red = y.T @ y
        k = _back_solve(factor, y).T
        del factor  # before J_SS is scattered
        j_red += sys.j_ss
    return ReducedSystem(
        slow_ids=sys.slow_ids, fast_ids=sys.fast_ids, j_red=j_red, noise_gain=k,
        sigma_slow=sigma[s], sigma_fast=sigma[f], tau_slow=tau[s], tau_fast=tau[f],
        m_slow=m[s], d_slow=d[s])


def xi_covariance(red: ReducedSystem) -> np.ndarray:
    """Sigma_xi = diag(sigma_S^2) + Z Z^T with Z = K diag(sigma_F), the
    equal-time covariance of the effective noise xi = eta_S + K eta_F,
    exactly symmetric as a Gram product; an InputError when it overflows."""
    # Each sigma^2 is finite (Bus checks it), but sums over buses can overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        z = red.noise_gain * red.sigma_fast
        sigma_xi = z @ z.T
        sigma_xi.flat[::red.n_slow + 1] += red.sigma_slow**2
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
