"""Shared grid builders and the dense reference linearization for the test suite."""

from pathlib import Path

import numpy as np
import pytest

from kronred.grid import (FAST, SLOW, Bus, Grid, Line, assemble_linearized, build_jacobian,
                          solve_fixed_point)

DATA_DIR = Path(__file__).parent / "data"


def make_grid(bus_specs, line_specs):
    """Terse grid builder.

    bus_specs: (id, class, p) or (id, class, p, sigma) tuples, with
    m=0.2, d=0.05, tau=0.1 defaults; line_specs: (from, to, b).
    """
    buses = []
    for spec in bus_specs:
        bid, cls, p = spec[:3]
        sigma = spec[3] if len(spec) > 3 else 0.01
        buses.append(Bus(id=bid, speed_class=cls, m=0.2, d=0.05, p=p, sigma=sigma, tau=0.1))
    lines = [Line(from_bus=f, to_bus=t, b=b) for f, t, b in line_specs]
    return Grid(buses=tuple(buses), lines=tuple(lines))


def two_bus_grid(p=0.0, b=1.0):
    """Slow bus 1 and fast bus 2, injections +-p."""
    return make_grid([(1, SLOW, p), (2, FAST, -p)], [(1, 2, b)])


def path3_grid(sigma_slow=0.0, sigma_fast=1.0):
    """Path 1-2-3 with slow ends and a fast middle, unit coupling."""
    return make_grid(
        [(1, SLOW, 0.0, sigma_slow), (2, FAST, 0.0, sigma_fast), (3, SLOW, 0.0, sigma_slow)],
        [(1, 2, 1.0), (2, 3, 1.0)])


def random_connected_grid(rng, n, slow_frac=0.5, injection_scale=0.1,
                          homogeneous=False, sigma_range=(0.0, 0.01),
                          tau_slow=0.1, tau_fast=0.1, n_slow=None):
    """Random connected grid: spanning tree plus extra chords.

    Classes are random with at least one slow bus (pass ``n_slow`` for
    an exact slow count); injections are balanced and small enough to
    keep angles well inside the window.  With ``homogeneous`` all buses
    share m=0.2, d=0.05; otherwise m and d vary by class
    (0.2/0.05 slow, 0.002/0.0005 fast).
    """
    if n_slow is not None:
        classes = [FAST] * n
        for k in rng.choice(n, size=n_slow, replace=False):
            classes[int(k)] = SLOW
    else:
        classes = [SLOW if rng.random() < slow_frac else FAST for _ in range(n)]
        if SLOW not in classes:
            classes[int(rng.integers(n))] = SLOW
    p = rng.normal(0.0, injection_scale, n)
    p -= p.mean()
    buses = []
    for i in range(n):
        cls = classes[i]
        if homogeneous or cls == SLOW:
            m, d = 0.2, 0.05
        else:
            m, d = 0.002, 0.0005
        buses.append(Bus(
            id=i + 1, speed_class=cls, m=m, d=d, p=float(p[i]),
            sigma=float(rng.uniform(*sigma_range)),
            tau=tau_slow if cls == SLOW else tau_fast))
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(i))
        edges.add((j + 1, i + 1))
    for _ in range(max(1, n // 2)):
        i, j = rng.choice(n, size=2, replace=False)
        a, b = sorted((int(i) + 1, int(j) + 1))
        edges.add((a, b))
    lines = tuple(Line(from_bus=f, to_bus=t, b=float(rng.uniform(0.5, 2.0)))
                  for f, t in sorted(edges))
    return Grid(buses=tuple(buses), lines=lines)


def ring_lattice_grid(rng, n_fast, n_slow, anchors=None):
    """Fast buses 1..n_fast on a ring, each joined to the two next on
    either side (degree >= 4, so the reduction eliminates none of them
    one at a time and factors all of -J_FF densely), and slow buses
    n_fast+1.. each joined to two random fast buses among the first
    ``anchors`` (default: all); small balanced injections, m and d by
    class as in ``random_connected_grid``."""
    n = n_fast + n_slow
    p = rng.normal(0.0, 0.05, n)
    p -= p.mean()
    buses = [Bus(id=i + 1, speed_class=FAST if i < n_fast else SLOW,
                 m=0.002 if i < n_fast else 0.2, d=0.0005 if i < n_fast else 0.05,
                 p=float(p[i]), sigma=float(rng.uniform(0.0, 0.01)), tau=0.1)
             for i in range(n)]
    edges = {tuple(sorted((i + 1, (i + k) % n_fast + 1))) for i in range(n_fast) for k in (1, 2)}
    for s in range(n_fast + 1, n + 1):
        edges.update((int(f) + 1, s) for f in rng.choice(anchors or n_fast, size=2, replace=False))
    return Grid(buses=tuple(buses), lines=tuple(
        Line(from_bus=f, to_bus=t, b=float(rng.uniform(0.5, 2.0))) for f, t in sorted(edges)))


def dense_coupling(grid):
    """Dense symmetric coupling matrix b_ij = B_ij |V_i||V_j| in ``buses`` order."""
    idx = grid.bus_index()
    vmag = grid.param_vector("v")
    b = np.zeros((grid.n_buses, grid.n_buses))
    for ln in grid.lines:
        i, j = idx[ln.from_bus], idx[ln.to_bus]
        b[i, j] = b[j, i] = ln.b * vmag[i] * vmag[j]
    return b


def dense_reference(grid):
    """The operating point and the linearization sliced from the dense
    Jacobian: the reference the pipeline's own blocks are checked against."""
    op = solve_fixed_point(grid)
    return op, assemble_linearized(grid, build_jacobian(grid, op), 1.0)


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


@pytest.fixture
def ieee118_text():
    return (DATA_DIR / "ieee118.m").read_text()
