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

J_red and K come from one Cholesky factorization of -J_FF per reduction
(never an explicit inverse), taken in two parts.  A Schur complement can
be taken one bus at a time and gives the same J_red and K (the quotient
property; Dorfler & Bullo, Kron Reduction of Graphs with Applications to
Electrical Networks, IEEE TCAS-I 60(1), 2013), and eliminating a bus of
low degree first adds almost no fill (minimum-degree ordering; George &
Liu, Computer Solution of Large Sparse Positive Definite Systems, 1981).
So fast buses of degree <= 3 are eliminated one at a time on a copy of
the linearization's rows, one dict of neighbours per bus, which never
grows the edge set; what remains of J_FF, the core C, is factored
densely, -J_CC = L L^T.  With Y = L^-1 J_CS after the eliminations,
J_red = J_SS + Y^T Y and the core's columns of K are (L^-T Y)^T; each
eliminated bus's column is a weighted sum of its neighbours'.  Every
symmetric matrix of the analysis is such a Gram product Z^T Z or Z Z^T
(J_red here, Sigma_xi below, the modal coupling Gamma in ``variance``),
which numpy's matmul computes as one symmetric rank-k update: exactly
symmetric, with no symmetrization step.  The reduction reads the
Jacobian's rows, which ``grid.linearize`` builds from the edge list
(the dense n x n Jacobian of ``build_jacobian`` is a test reference),
and scatters each block of the core straight into the buffer it is used
in (``grid._scatter_rows``): -J_CC into an n_C x n_C buffer that
``np.linalg.cholesky`` (LAPACK's dpotrf) factors, once for the
definiteness certificate and once for the factor, and J_CS into the
Fortran-ordered array that one blocked triangular solve, swept forward
on L and then backward on L^T (``_triangular_solve``), overwrites with
Y and then with L^-T Y.  A grid with no fast bus takes the same path,
with nothing eliminated and an empty core.  No N_F x N_F array is made
unless the certificate falls back to the eigenvalues.  J_SF is never
scattered.  The factor is freed before K is made.  Only numpy is used.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError, NumericsError
from . import grid as _grid
from .grid import FAST, SLOW, Bus, Grid, Line, LinearizedSystem, _as_int, _scatter_rows


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

# Eliminating a bus of degree k removes its k edges and adds at most
# k (k - 1) / 2 between its neighbours, which is no more than k only for
# k <= 3: eliminating such buses never grows the edge set.
_MAX_DEGREE = 3


@dataclass(frozen=True)
class FastFactor:
    """-J_FF as ``factor_fast_block`` factors it: fast buses eliminated one
    at a time, then a dense Cholesky factor of the core that remains.

    ``eliminated`` lists the eliminated buses in order, each as (f,
    ((j, w_fj / p_f), ...)): its slot, and its neighbours j then, in slot
    order, with the coupling w_fj and the pivot p_f = -J_ff it was
    eliminated with.  ``core`` holds the slots of the fast buses left, in
    slot order, and ``factor`` the lower Cholesky factor of their -J_CC
    after the eliminations, ``np.linalg.cholesky``'s; both are empty when
    there is no fast bus.
    ``neighbours[i]`` maps each neighbour of bus i to J_ij and
    ``diag[i]`` is J_ii, both after the eliminations; the rows of
    eliminated buses are None.
    """

    eliminated: list
    core: list
    factor: np.ndarray
    neighbours: list
    diag: list


def _eliminate(rows: list, diag: list, n_s: int):
    """Eliminate fast buses (slots n_s and up) of current degree <=
    _MAX_DEGREE one at a time, in place: the records of
    ``FastFactor.eliminated``, or None at a pivot <= 0.

    The buses are taken off a queue in slot order; a fast neighbour of
    an eliminated bus rejoins it when its degree is <= _MAX_DEGREE.
    With p_f = -J_ff, every pair of neighbours j, k of f takes
    J_jk += w_fj w_fk / p_f, the same term for (j, k) and (k, j), which
    merges edges and, when both are slow, couples two slow buses: a
    right-looking Cholesky step of -J_FF in the elimination's order.
    """
    queue = deque(range(n_s, len(diag)))
    records = []
    while queue:
        f = queue.popleft()
        row = rows[f]
        if row is None or len(row) > _MAX_DEGREE:
            continue
        p = -diag[f]
        if not p > 0.0:
            return None
        nbrs = sorted(row.items())
        for a, (j, w_j) in enumerate(nbrs):
            row_j = rows[j]
            del row_j[f]
            diag[j] += w_j * w_j / p
            for k, w_k in nbrs[a + 1:]:
                t = w_j * w_k / p
                row_j[k] = row_j.get(k, 0.0) + t
                rows[k][j] = rows[k].get(j, 0.0) + t
        rows[f] = None
        records.append((f, tuple((j, w / p) for j, w in nbrs)))
        for j, _ in nbrs:
            if j >= n_s and len(rows[j]) <= _MAX_DEGREE:
                queue.append(j)
    return records


def factor_fast_block(sys: LinearizedSystem) -> FastFactor:
    """-J_FF factored, its negative definiteness verified first: fast
    buses of degree <= 3 eliminated one at a time (``_eliminate``), then
    the core C that remains factored densely, -J_CC = L L^T.  With no
    fast bus nothing is eliminated and the core is empty.

    The gate: the largest eigenvalue of J_FF is below -1e-12 x max(1,
    largest |eigenvalue|).  The same elimination and core factorization
    of -J_FF - delta I prove that without the eigenvalues: they are a
    Cholesky factorization of P (-J_FF - delta I) P^T for the
    elimination's permutation P.  With g the Gershgorin bound on
    |eigenvalue| (the largest absolute row sum of J_FF), n = n_F and
    t = 1e-12 max(1, g), delta = t + 2 n gamma_{n+1} (g + t) exceeds t
    by more than the factorization's backward error (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, Thm 10.3), so its
    success leaves every eigenvalue of -J_FF above t.  When a shifted
    pivot is <= 0 or the core's factorization breaks down, the
    eigenvalues decide, so the gate accepts and rejects as before.  A
    breakdown of the unshifted pass after the gate accepts is a
    NumericsError too.  Each pass eliminates on its own copy of the rows
    of ``sys``, scatters its -J_CC into one n_C x n_C buffer and factors
    it with ``np.linalg.cholesky``, LAPACK's dpotrf, which holds a copy
    and the factor beside the buffer: 3 n_C^2 words, the certificate's
    freed before the second pass.  No n_F x n_F array is made unless the
    eigenvalues are needed.
    """
    n_s, n_f = sys.n_slow, sys.n_fast
    diag = sys.diag.tolist()
    g = max((sum(abs(w) for j, w in sys.neighbours[f].items() if j >= n_s) + abs(diag[f])
             for f in range(n_s, n_s + n_f)), default=0.0)  # |J_FF|'s largest row sum
    t = 1e-12 * max(1.0, g)
    gamma = (n_f + 1) * _UNIT_ROUNDOFF / (1.0 - (n_f + 1) * _UNIT_ROUNDOFF)
    certified = False
    if 4 * n_f * gamma <= 1.0:  # delta then bounds the backward error
        delta = t + 2 * n_f * gamma * (g + t)
        shifted = diag[:n_s] + [x + delta for x in diag[n_s:]]
        certified = _factor([dict(row) for row in sys.neighbours], shifted, n_s) is not None
    if not certified:
        eigs = np.linalg.eigvalsh(sys.j_ff)
        scale = max(1.0, float(np.abs(eigs).max()))
        if eigs.max() >= -1e-12 * scale:
            raise NumericsError(
                f"fast block not negative definite: offending eigenvalue {eigs.max():.6e}")
    fast = _factor([dict(row) for row in sys.neighbours], diag, n_s)
    if fast is None:
        raise NumericsError("fast block not negative definite: its factorization broke down")
    return fast


def _factor(rows: list, diag: list, n_s: int) -> FastFactor | None:
    """``_eliminate``, then the core's -J_CC scattered into one buffer and
    factored by ``np.linalg.cholesky``; None at a pivot <= 0 or a breakdown."""
    eliminated = _eliminate(rows, diag, n_s)
    if eliminated is None:
        return None
    core = [f for f in range(n_s, len(diag)) if rows[f] is not None]
    buf = _scatter_rows(np.zeros((len(core), len(core))), rows, core,
                        {f: at for at, f in enumerate(core)}, diag)
    try:
        factor = np.linalg.cholesky(np.negative(buf, out=buf))  # -0.0 where J_CC holds 0.0
    except np.linalg.LinAlgError:
        return None
    return FastFactor(eliminated, core, factor, rows, diag)


_SOLVE_ROWS = 128  # rows of a diagonal block of the triangular sweeps


def _triangular_solve(factor: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """b <- L^-1 b, or L^-T b with ``transpose``, in place, L = ``factor``
    lower triangular and b Fortran-ordered, _SOLVE_ROWS rows at a time, as
    numpy has no triangular solve.  The blocks of T = L, or of the view
    T = L^T, are swept forward, or backward as L^T is upper triangular.
    Each diagonal block of T is inverted by ``np.linalg.solve`` against the
    identity and applied by a matrix product; the rows not yet solved are
    then updated in place by one product, made as the transpose of a
    C-ordered one so that it is ordered as b is."""
    t = factor.T if transpose else factor
    n = len(t)
    starts = range(0, n, _SOLVE_ROWS)
    for k in reversed(starts) if transpose else starts:
        rows = slice(k, k + _SOLVE_ROWS)
        rest = slice(0, k) if transpose else slice(k + _SOLVE_ROWS, n)
        block = t[rows, rows]
        b[rows] = np.linalg.solve(block, np.eye(len(block))) @ b[rows]
        b[rest] -= (b[rows].T @ t[rest, rows].T).T
    return b


def reduce_grid(grid: Grid, sys: LinearizedSystem) -> ReducedSystem:
    """Kron-reduce a grid's linearization to its slow buses.

    ``factor_fast_block`` eliminates fast buses one at a time, which
    leaves the Schur complement of the core C in J after the
    eliminations (the quotient property: the same J_red and K as one
    Schur complement of J_FF).  With -J_CC = L L^T and Y = L^-1 J_CS, it
    is the Gram product J_red = J_SS + Y^T Y, exactly symmetric as
    numpy's matmul makes it, and L^-T Y = -J_CC^-1 J_CS gives the core's
    columns of the noise map K = -J_SF J_FF^-1.  Both sweeps of
    ``_triangular_solve`` overwrite the J_CS buffer in place.  Each
    eliminated bus's column follows in reverse elimination order,
    K[:, f] = sum_j (w_fj / p_f) K[:, j] over its neighbours then, with
    e_j for a slow j.  J_SS is scattered from the rows after the
    eliminations; with an empty core it is J_red itself.  The network
    comes from the rows of ``sys``, which are not written; every per-bus
    parameter (m, d, sigma, tau) from the grid.  A J_red that is not
    finite is an InputError: the eliminations' products of couplings
    overflow for susceptances near 1e154 and above.
    """
    if tuple(grid.slow_ids) != sys.slow_ids or tuple(grid.fast_ids) != sys.fast_ids:
        raise InputError("linearized system does not belong to this grid")
    order = grid.ordering()
    n_s, n_f = sys.n_slow, sys.n_fast
    s, f = order[:n_s], order[n_s:]
    sigma, tau = grid.param_vector("sigma"), grid.param_vector("tau")
    m, d = grid.param_vector("m"), grid.param_vector("d")
    fast = factor_fast_block(sys)
    slow = range(n_s)  # each slow bus's column is its slot
    y = _triangular_solve(fast.factor, _scatter_rows(np.zeros((len(fast.core), n_s), order="F"),
                                                     fast.neighbours, fast.core, slow))
    j_red = y.T @ y if fast.core else None  # not +0.0, which would turn a -0.0 of J_SS to 0.0
    y = _triangular_solve(fast.factor, y, transpose=True)
    core, eliminated, rows, diag = fast.core, fast.eliminated, fast.neighbours, fast.diag
    del fast  # the factor, before K is made
    k_t = np.zeros((n_f, n_s))  # K^T, so that each bus's column of K is one row
    k_t[np.array(core, dtype=np.intp) - n_s] = y
    del y
    k = _noise_columns(k_t, eliminated, n_s).T
    j_ss = _scatter_rows(np.zeros((n_s, n_s)), rows, slow, slow, diag)
    j_red = j_ss if j_red is None else np.add(j_red, j_ss, out=j_red)
    if not np.all(np.isfinite(j_red)):
        raise InputError("Kron reduction overflows: line susceptances too large")
    return ReducedSystem(
        slow_ids=sys.slow_ids, fast_ids=sys.fast_ids, j_red=j_red, noise_gain=k,
        sigma_slow=sigma[s], sigma_fast=sigma[f], tau_slow=tau[s], tau_fast=tau[f],
        m_slow=m[s], d_slow=d[s])


def _noise_columns(k_t: np.ndarray, eliminated: list, n_s: int) -> np.ndarray:
    """The eliminated buses' rows of K^T, in place: the slow neighbours'
    weights set first, then each fast neighbour's row added, in slot
    order, the buses taken in reverse elimination order."""
    slow = [(f - n_s, j, c) for f, nbrs in eliminated for j, c in nbrs if j < n_s]
    if slow:
        row, j, c = zip(*slow)
        k_t[row, j] = c
    for f, nbrs in reversed(eliminated):
        row = k_t[f - n_s]
        for j, c in nbrs:
            if j >= n_s:
                row += c * k_t[j - n_s]
    return k_t


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


# ---------------------------------------------------------------------------
# Modes of a Laplacian under its buses' inertia
# ---------------------------------------------------------------------------

_ZERO_TOL = 1e-9  # relative bound on a zero eigenvalue; eigendecompose_reduced gives its scales


def _uniform_ratio(m: np.ndarray, d: np.ndarray) -> float | None:
    """The buses' one damping ratio d/m, the first bus's, when every
    bus's equals it to 1e-9 relative; else None.  The closed form needs
    one, and a linear model with one steps in its modes."""
    ratio = d / m
    return float(ratio[0]) if np.allclose(ratio, ratio[0], rtol=1e-9, atol=0.0) else None


def _modes(jac: np.ndarray, m: np.ndarray):
    """The mass-normalized modes of a Laplacian jac under its buses'
    inertia m: (lambda, Phi, mu) with mu = m / m[0], jac Phi = diag(mu) Phi
    diag(lambda) and Phi^T diag(mu) Phi = I, the uniform mode last.

    ``eigh`` runs on L = diag(s) jac diag(s), s = mu^-1/2, which is jac
    itself when m is uniform, and gives the eigenvalues ascending.  The
    uniform mode is the eigenvector of largest overlap with sqrt(mu); it
    swaps places with the last (it is last unless jac has a positive
    eigenvalue) and is snapped to sqrt(mu) / |sqrt(mu)|, exact for a
    Laplacian (jac 1 = 0), with every other vector projected off it by one
    product and renormalized.  Its eigenvalue is left as eigh gives it,
    roundoff of the largest, for the caller to judge and zero.  The rows
    are then scaled by s in place.  Holds jac, L, LAPACK's copy of L and
    its workspace (two n x n) and the eigenvectors while it runs."""
    mu = np.divide(m, m[0])
    root_mu = np.sqrt(mu)
    s = 1.0 / root_mu
    lap = jac * s[:, None]  # L, bit for bit jac when m is uniform
    lap *= s
    vals, phi = np.linalg.eigh(lap)
    del lap
    a = int(np.argmax(np.abs(root_mu @ phi)))
    vals[[a, -1]], phi[:, [a, -1]] = vals[[-1, a]], phi[:, [-1, a]]
    zero = root_mu / np.linalg.norm(root_mu)
    rest = phi[:, :-1]  # every mode but the uniform mode, a view
    rest -= np.outer(zero, zero @ rest)
    rest /= np.linalg.norm(rest, axis=0)
    phi[:, -1] = zero
    phi *= s[:, None]
    return vals, phi, mu


@dataclass(frozen=True)
class ModalBasis:
    """Eigenpairs of the mass-scaled J_red, sorted 0 = lambda_1 >= lambda_2 >= ...

    Column alpha of ``modes`` is the mass-normalized mode v_alpha, so
    V^T diag(m / m_0) V = I; the first column is uniform (the COI
    direction).  With uniform m they are J_red's orthonormal eigenvectors.
    """

    lambdas: np.ndarray
    modes: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.lambdas)


def eigendecompose_reduced(j_red: np.ndarray, m: np.ndarray) -> ModalBasis:
    """Mass-normalized eigendecomposition of J_red with the zero mode snapped.

    The modes are ``_modes``' with their columns reversed, so the
    eigenvalues descend from the uniform mode's, which is set to exactly
    0.  J_red and m must be finite, J_red a symmetric matrix with zero row
    sums and m positive.  The largest eigenvalue must be zero to 1e-9 of
    max(1, max |J_red|, max |lambda|), the scale of the mass-scaled matrix
    that ``eigh`` reads, which exceeds J_red's by up to m_0 / min m: else
    J_red is no negative semidefinite Laplacian, an InputError.  A second
    eigenvalue above -1e-9 max(1, max |J_red|) means the reduced network
    is disconnected, a NumericsError.
    """
    j_red = np.asarray(j_red, dtype=float)
    n = j_red.shape[0]
    if j_red.shape != (n, n):
        raise InputError(f"j_red must be square, got {j_red.shape}")
    if not np.all(np.isfinite(j_red)):
        raise InputError("j_red must be finite numbers")
    if np.shape(m) != (n,) or not np.all(np.greater(m, 0) & np.isfinite(m)):
        raise InputError(f"m must be {n} finite positive inertias, one per slow bus")
    scale = max(1.0, float(np.abs(j_red).max()))
    if np.abs(j_red - j_red.T).max() > 1e-10 * scale:
        raise InputError("j_red is not symmetric")
    if np.abs(j_red.sum(axis=1)).max() > 1e-8 * scale:
        raise InputError("j_red does not have zero row sums (not a Laplacian)")

    vals, phi, _ = _modes(j_red, m)  # the uniform mode last, the rest ascending
    top = vals.max()
    if abs(top) >= _ZERO_TOL * max(scale, float(np.abs(vals).max())):
        raise InputError(f"largest eigenvalue {top:.3e} is not a zero mode")
    lambdas = vals[::-1].copy()
    if n >= 2 and lambdas[1] >= -_ZERO_TOL * scale:
        raise NumericsError(
            f"zero eigenvalue not simple (second eigenvalue {lambdas[1]:.3e}): "
            "reduced network disconnected")
    lambdas[0] = 0.0
    return ModalBasis(lambdas=lambdas, modes=phi[:, ::-1].copy())  # C-ordered, as matmul reads


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
