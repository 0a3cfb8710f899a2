"""Grid model: buses, lines, parsers, synchronized fixed point, linearization.

A grid is a connected network of second-order phase oscillators
(swing dynamics).  Buses are split into a "slow" component (large
inertia/damping, e.g. synchronous generators) and a "fast" component
(small inertia/damping, e.g. loads).  A ``LinearizedSystem`` is only the
network: the angle Jacobian as one row of neighbours per bus, every bus
numbered by its slot in the slow-then-fast ordering.  Every per-bus
parameter stays in the ``Grid``, and the Kron reduction reads no
timescale ratio: only the full models scale the fast m and d by it.

Conventions used throughout the package:
  * coupling b_ij = B_ij * |V_i| * |V_j| (line susceptance times voltage
    magnitudes), symmetric by construction;
  * the Jacobian at an operating point has off-diagonal entries
    b_ij*cos(theta_i - theta_j) and diagonal minus the row sum, i.e. it
    is the negative of a weighted graph Laplacian when all angle
    differences stay within (-pi/2, pi/2);
  * the reference angle is fixed by the zero-mean convention (the
    dynamics are invariant under uniform shifts);
  * state orderings are always slow buses first, then fast buses, each
    in the order of appearance in ``Grid.buses``.

The analysis never forms the dense n x n Jacobian: ``linearize`` builds
its rows from the edge list, and the Kron reduction eliminates on them
(``reduction.factor_fast_block``).  ``build_jacobian`` (the dense
Jacobian) and ``assemble_linearized`` (its rows) are the reference it is
checked against, bit for bit.  Every dense array made from rows, a block,
a buffer of the reduction or the full model's Jacobian, is made by one
scatter, ``_scatter_rows``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericsError

SLOW = "slow"
FAST = "fast"

_BUS_FIELDS = {"id", "class", "m", "d", "p", "sigma", "tau", "v"}
_BUS_REQUIRED = {"id", "class", "m", "d", "p", "sigma", "tau"}
_LINE_FIELDS = {"from", "to", "B"}

# Most buses a grid may have: the analysis holds dense n x n float64
# arrays, and 16 384^2 x 8 B is the 2 GiB one simulation batch may hold.
MAX_BUSES = 16_384

# Newton solve of the fixed point: residual 2-norm tolerance, iteration cap.
_FIXED_POINT_TOL = 1e-10
_FIXED_POINT_MAX_ITER = 50


def _finite(value) -> bool:
    """Whether a scalar is a finite real number; False, not a TypeError,
    for a string or None, so the caller's InputError names the field."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):  # OverflowError: an int beyond the float range
        return False


def _as_int(value, name: str) -> int:
    """``value`` as an int; an InputError unless it is an int or a numpy
    integer (a bool or a float is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_seed(value, name: str) -> int:
    """``value`` as a seed of numpy's generators: an int in [0, 2^64); an
    InputError otherwise."""
    seed = _as_int(value, name)
    if not 0 <= seed < 2**64:
        raise InputError(f"{name} must be in [0, 2^64), got {seed}")
    return seed


@dataclass(frozen=True)
class Bus:
    """One bus: dynamic parameters, injection and local noise spec.

    m is the effective inertia [s^2], d the damping [s], p the injected
    (positive) or withdrawn (negative) power [p.u.], sigma/tau the
    standard deviation [p.u.] and correlation time [s] of the local
    Ornstein-Uhlenbeck noise, v the (constant) voltage magnitude [p.u.].
    """

    id: int
    speed_class: str
    m: float
    d: float
    p: float
    sigma: float
    tau: float
    v: float = 1.0

    def __post_init__(self):
        if self.speed_class not in (SLOW, FAST):
            raise InputError(f"bus {self.id}: class must be 'slow' or 'fast', got {self.speed_class!r}")
        for name in ("m", "d", "p", "sigma", "tau", "v"):
            value = getattr(self, name)
            if not _finite(value):
                raise InputError(f"bus {self.id}: {name} must be finite, got {value}")
        if not self.m > 0:
            raise InputError(f"bus {self.id}: inertia m must be > 0, got {self.m}")
        if not self.d > 0:
            raise InputError(f"bus {self.id}: damping d must be > 0, got {self.d}")
        if not self.tau > 0:
            raise InputError(f"bus {self.id}: noise correlation time tau must be > 0, got {self.tau}")
        if self.sigma < 0:
            raise InputError(f"bus {self.id}: noise sigma must be >= 0, got {self.sigma}")
        if not math.isfinite(self.sigma * self.sigma):
            raise InputError(f"bus {self.id}: sigma^2 must be finite, got sigma = {self.sigma}")
        if not self.v > 0:
            raise InputError(f"bus {self.id}: voltage magnitude v must be > 0, got {self.v}")


@dataclass(frozen=True)
class Line:
    """Transmission line between two buses with susceptance B [p.u.]."""

    from_bus: int
    to_bus: int
    b: float

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise InputError(f"line {self.from_bus}-{self.to_bus}: self-loop not allowed")
        if not (_finite(self.b) and self.b > 0):
            raise InputError(
                f"line {self.from_bus}-{self.to_bus}: susceptance must be finite and > 0, got {self.b}")


@dataclass(frozen=True)
class EdgeList:
    """Every line once per end: bus ``ends[e]`` is coupled to bus
    ``others[e]`` with b = B |V_i||V_j| (``b[e]``).  Entry e and entry
    e + (number of lines) are the two ends of one line.
    """

    n_buses: int
    ends: np.ndarray
    others: np.ndarray
    b: np.ndarray

    def flows(self, theta: np.ndarray) -> np.ndarray:
        """Power flowing out of each bus, sum_j b_ij sin(theta_i - theta_j)."""
        return np.bincount(self.ends, self.b * np.sin(theta[self.ends] - theta[self.others]),
                           minlength=self.n_buses)


@dataclass(frozen=True)
class Grid:
    """Connected grid of buses and lines.  Immutable after construction."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]

    def __post_init__(self):
        if not self.buses:
            raise InputError("grid has no buses")
        if len(self.buses) > MAX_BUSES:
            raise InputError(f"grid has {len(self.buses)} buses, above the limit of {MAX_BUSES}")
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise InputError(f"duplicate bus ids: {dup}")
        known = set(ids)
        seen_pairs = set()
        for ln in self.lines:
            for end in (ln.from_bus, ln.to_bus):
                if end not in known:
                    raise InputError(f"line {ln.from_bus}-{ln.to_bus}: unknown bus {end}")
            pair = frozenset((ln.from_bus, ln.to_bus))
            if pair in seen_pairs:
                raise InputError(f"duplicate line between buses {ln.from_bus} and {ln.to_bus}")
            seen_pairs.add(pair)
        if not any(b.speed_class == SLOW for b in self.buses):
            raise InputError("grid must contain at least one slow bus")
        if not _connected(ids, self.lines):
            raise InputError("graph not connected")

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def slow_ids(self) -> list[int]:
        return [b.id for b in self.buses if b.speed_class == SLOW]

    @property
    def fast_ids(self) -> list[int]:
        return [b.id for b in self.buses if b.speed_class == FAST]

    def bus_index(self) -> dict[int, int]:
        """Map bus id -> position in ``buses``."""
        return {b.id: k for k, b in enumerate(self.buses)}

    def ordering(self) -> list[int]:
        """Positions of slow buses followed by fast buses (state ordering)."""
        idx = self.bus_index()
        return [idx[i] for i in self.slow_ids] + [idx[i] for i in self.fast_ids]

    def edge_list(self, order: list[int] | None = None) -> EdgeList:
        """Both ends of every line, with buses numbered by their place in
        ``order`` (positions in ``buses``; default: ``buses`` order).

        Lines are sorted by their (lower, higher) end, the order
        ``np.nonzero(np.triu(b))`` gives over the dense coupling matrix,
        so flow sums over the list always add their terms in one order.
        """
        idx = self.bus_index()
        n = self.n_buses
        place = np.arange(n)
        if order is not None:
            place[np.asarray(order, dtype=np.intp)] = np.arange(n)
        vmag = self.param_vector("v")
        fi = np.array([idx[ln.from_bus] for ln in self.lines], dtype=np.intp)
        ti = np.array([idx[ln.to_bus] for ln in self.lines], dtype=np.intp)
        w = np.array([ln.b for ln in self.lines], dtype=float) * vmag[fi] * vmag[ti]
        lo = np.minimum(place[fi], place[ti])
        hi = np.maximum(place[fi], place[ti])
        rank = np.lexsort((hi, lo))
        lo, hi, w = lo[rank], hi[rank], w[rank]
        return EdgeList(n_buses=n, ends=np.concatenate([lo, hi]),
                        others=np.concatenate([hi, lo]), b=np.concatenate([w, w]))

    def param_vector(self, name: str) -> np.ndarray:
        """Per-bus parameter (m, d, p, sigma, tau, v) in ``buses`` order."""
        return np.array([getattr(b, name) for b in self.buses], dtype=float)


def _connected(ids: list[int], lines: tuple[Line, ...]) -> bool:
    if len(ids) == 1:
        return True
    adj: dict[int, list[int]] = {i: [] for i in ids}
    for ln in lines:
        adj[ln.from_bus].append(ln.to_bus)
        adj[ln.to_bus].append(ln.from_bus)
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(ids)


@dataclass(frozen=True)
class OperatingPoint:
    """Synchronized fixed point.

    ``theta`` holds the angles [rad] aligned with ``Grid.buses`` order
    (zero-mean gauge).  ``flagged_lines`` lists lines whose angle
    difference leaves (-pi/2, pi/2); such points are accepted but the
    Laplacian sign structure of the Jacobian is no longer guaranteed.
    """

    theta: np.ndarray
    residual_norm: float
    flagged_lines: tuple[tuple[int, int], ...] = ()

    @property
    def angle_window_ok(self) -> bool:
        return not self.flagged_lines


@dataclass(frozen=True)
class LinearizedSystem:
    """The angle Jacobian at an operating point as one row per bus, every
    bus numbered by its slot in the slow-then-fast ordering:
    ``neighbours[i]`` maps the slot of each neighbour j of bus i to J_ij,
    and ``diag[i]`` is J_ii.  All the Kron reduction reads of the
    network; inertia, damping and noise stay in the Grid.  ``block``
    scatters one slow/fast block; ``j_ss``, ``j_sf``, ``j_fs`` and
    ``j_ff`` scatter each anew on every read.
    """

    slow_ids: tuple[int, ...]
    fast_ids: tuple[int, ...]
    neighbours: tuple[dict[int, float], ...]
    diag: np.ndarray

    @property
    def n_slow(self) -> int:
        return len(self.slow_ids)

    @property
    def n_fast(self) -> int:
        return len(self.fast_ids)

    def block(self, row_class: str, col_class: str) -> np.ndarray:
        """The (row_class, col_class) block, e.g. J_FS for (FAST, SLOW),
        scattered into a new C-ordered array.
        """
        n_s, n = self.n_slow, self.n_slow + self.n_fast
        rows, cols = (range(n_s) if cls == SLOW else range(n_s, n)
                      for cls in (row_class, col_class))
        return _scatter_rows(np.zeros((len(rows), len(cols))), self.neighbours, rows,
                             {j: at for at, j in enumerate(cols)},
                             self.diag if row_class == col_class else None)

    j_ss = property(lambda self: self.block(SLOW, SLOW), doc="J_SS, scattered anew")
    j_sf = property(lambda self: self.block(SLOW, FAST), doc="J_SF, scattered anew")
    j_fs = property(lambda self: self.block(FAST, SLOW), doc="J_FS, scattered anew")
    j_ff = property(lambda self: self.block(FAST, FAST), doc="J_FF, scattered anew")


# ---------------------------------------------------------------------------
# JSON parsing / serialization
# ---------------------------------------------------------------------------

def parse_grid_json(text: str) -> Grid:
    """Parse the grid JSON schema into a validated Grid.

    Top level: {"buses": [...], "lines": [...]}.  Bus objects carry
    exactly the fields id, class, m, d, p, sigma, tau and optionally v
    (default 1.0); line objects carry from, to, B.  Unknown fields are
    rejected with their path.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # ValueError: also over-long integers
        raise InputError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise InputError("top level must be a JSON object")
    unknown = set(doc) - {"buses", "lines"}
    if unknown:
        raise InputError(f"unknown top-level fields: {sorted(unknown)}")
    for key in ("buses", "lines"):
        if key not in doc or not isinstance(doc[key], list):
            raise InputError(f"missing or non-array field {key!r}")

    buses = []
    for k, raw in enumerate(doc["buses"]):
        path = f"buses[{k}]"
        if not isinstance(raw, dict):
            raise InputError(f"{path}: must be an object")
        unknown = set(raw) - _BUS_FIELDS
        if unknown:
            raise InputError(f"{path}: unknown fields {sorted(unknown)}")
        missing = _BUS_REQUIRED - set(raw)
        if missing:
            raise InputError(f"{path}: missing fields {sorted(missing)}")
        if type(raw["id"]) is not int:  # bool is an int subclass
            raise InputError(f"{path}.id: must be an integer")
        num = {name: _json_float(raw[name], f"{path}.{name}")
               for name in ("m", "d", "p", "sigma", "tau", "v") if name in raw}
        buses.append(Bus(id=raw["id"], speed_class=raw["class"], **num))

    lines = []
    for k, raw in enumerate(doc["lines"]):
        path = f"lines[{k}]"
        if not isinstance(raw, dict):
            raise InputError(f"{path}: must be an object")
        unknown = set(raw) - _LINE_FIELDS
        if unknown:
            raise InputError(f"{path}: unknown fields {sorted(unknown)}")
        missing = _LINE_FIELDS - set(raw)
        if missing:
            raise InputError(f"{path}: missing fields {sorted(missing)}")
        if not (type(raw["from"]) is int and type(raw["to"]) is int):
            raise InputError(f"{path}: from and to must be integers")
        lines.append(Line(from_bus=raw["from"], to_bus=raw["to"],
                          b=_json_float(raw["B"], f"{path}.B")))

    return Grid(buses=tuple(buses), lines=tuple(lines))


def _json_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{path}: must be a number")
    try:
        return float(value)
    except OverflowError as e:
        raise InputError(f"{path}: number too large for a float") from e


def serialize_grid_json(grid: Grid) -> str:
    """Serialize a Grid to the JSON schema (round-trips with parse_grid_json)."""
    doc = {
        "buses": [
            {"id": b.id, "class": b.speed_class, "m": b.m, "d": b.d, "p": b.p,
             "sigma": b.sigma, "tau": b.tau, "v": b.v}
            for b in grid.buses
        ],
        "lines": [
            {"from": ln.from_bus, "to": ln.to_bus, "B": ln.b} for ln in grid.lines
        ],
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# MATPOWER case parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassDefaults:
    """Dynamic parameters and noise correlation time applied per speed class.

    Case files carry no noise amplitudes: parsed buses get sigma = 0,
    to be replaced with ``with_sigma``.
    """

    m: float
    d: float
    tau: float


def _matpower_table(text: str, name: str) -> list[list[float]]:
    m = re.search(rf"mpc\.{name}\s*=\s*\[(.*?)\];", text, re.DOTALL)
    if m is None:
        raise InputError(f"missing mpc.{name} table")
    rows = []
    for raw in re.split(r"[;\n]", m.group(1)):  # MATLAB ends a row with ; or a newline
        raw = raw.strip()
        if not raw:
            continue
        try:
            rows.append([float(tok) for tok in raw.split()])
        except ValueError as e:
            raise InputError(f"mpc.{name}: cannot parse row {raw[:60]!r}") from e
    return rows


def _bus_number(value: float, table: str) -> int:
    if not (math.isfinite(value) and value == int(value)):
        raise InputError(f"mpc.{table}: bus number must be an integer, got {value}")
    return int(value)


def _not_nan(row: list[float], col: int, table: str, name: str) -> float:
    if math.isnan(row[col]):
        raise InputError(f"mpc.{table}: {name} (column {col + 1}) is NaN")
    return row[col]


def _finite_entry(row: list[float], col: int, table: str, name: str) -> float:
    if not math.isfinite(row[col]):
        raise InputError(f"mpc.{table}: {name} (column {col + 1}) must be finite, got {row[col]}")
    return row[col]


def parse_matpower_case(
    text: str,
    slow: ClassDefaults,
    fast: ClassDefaults,
) -> Grid:
    """Build a Grid from a MATPOWER case file (plain-text subset).

    Buses with at least one in-service entry in the gen table
    (GEN_STATUS, column 8, > 0) become slow, all others fast; generators
    out of service are ignored.  Isolated buses (BUS_TYPE, column 2,
    equal to 4) are skipped together with their gen and branch rows, as
    MATPOWER does.  Line couplings use 1/x per branch (parallel branches
    are merged by adding 1/x); voltage magnitudes come from the bus VM
    column (8), and a VM <= 0 means 1.0.  A NaN in BUS_TYPE, VM,
    GEN_STATUS or BR_STATUS, and a PD or PG (bus column 3, gen column 2)
    that is not finite, is an InputError naming its table and column.
    Injections are total generator output minus bus load, in
    per-unit of baseMVA.  Shunts, phase shifts and line resistance are
    ignored.  The generator outputs are scaled by a common factor so
    injections sum to zero: case files carry losses, and a grid whose
    injections do not balance has no fixed point.
    """
    comment_free = re.sub(r"%.*", "", text)
    m = re.search(r"mpc\.baseMVA\s*=\s*([^;\s]+)\s*;", comment_free)
    try:
        base_mva = float(m.group(1)) if m else 100.0
    except ValueError:
        base_mva = math.nan
    if not (base_mva > 0 and math.isfinite(base_mva)):
        raise InputError(f"mpc.baseMVA must be a finite number > 0, got {m.group(1)!r}")

    bus_rows = _matpower_table(comment_free, "bus")
    branch_rows = _matpower_table(comment_free, "branch")
    gen_rows = _matpower_table(comment_free, "gen")

    load = {}
    vmag = {}
    isolated = set()
    for row in bus_rows:
        if len(row) < 9:
            raise InputError("mpc.bus: row too short (need at least 9 columns)")
        bid = _bus_number(row[0], "bus")
        if _not_nan(row, 1, "bus", "BUS_TYPE") == 4:
            isolated.add(bid)
            continue
        load[bid] = _finite_entry(row, 2, "bus", "PD")
        vmag[bid] = row[7] if _not_nan(row, 7, "bus", "VM") > 0 else 1.0

    gen_output: dict[int, float] = {}
    for row in gen_rows:
        if len(row) < 2:
            raise InputError("mpc.gen: row too short (need at least 2 columns)")
        bid = _bus_number(row[0], "gen")
        if bid not in load and bid not in isolated:
            raise InputError(f"mpc.gen: unknown bus {bid}")
        if bid in isolated or len(row) >= 8 and _not_nan(row, 7, "gen", "GEN_STATUS") <= 0:
            continue  # at an isolated bus, or out of service
        gen_output[bid] = gen_output.get(bid, 0.0) + _finite_entry(row, 1, "gen", "PG")

    couplings: dict[frozenset, float] = {}
    for row in branch_rows:
        if len(row) < 4:
            raise InputError("mpc.branch: row too short (need at least 4 columns)")
        f, t, x = _bus_number(row[0], "branch"), _bus_number(row[1], "branch"), row[3]
        if not {f, t} <= load.keys() | isolated:
            raise InputError(f"mpc.branch: branch {f}-{t} references unknown bus")
        if {f, t} & isolated or len(row) >= 11 and _not_nan(row, 10, "branch", "BR_STATUS") == 0:
            continue  # touches an isolated bus, or out of service
        if f == t:
            raise InputError(f"mpc.branch: branch {f}-{t} connects a bus to itself")
        if x == 0:
            raise InputError(f"mpc.branch: zero reactance on branch {f}-{t}")
        couplings[frozenset((f, t))] = couplings.get(frozenset((f, t)), 0.0) + 1.0 / abs(x)

    gen_total = sum(gen_output.values())
    if gen_total == 0:
        raise InputError("cannot rebalance: no generation in case")
    scale = sum(load.values()) / gen_total

    buses = []
    for row in (row for row in bus_rows if row[1] != 4):  # isolated buses skipped
        bid = int(row[0])
        is_gen = bid in gen_output
        cls = slow if is_gen else fast
        p = (scale * gen_output.get(bid, 0.0) - load[bid]) / base_mva
        buses.append(Bus(
            id=bid, speed_class=SLOW if is_gen else FAST, m=cls.m, d=cls.d,
            p=p, sigma=0.0, tau=cls.tau, v=vmag[bid],
        ))

    lines = []
    for pair, b in sorted(couplings.items(), key=lambda kv: tuple(sorted(kv[0]))):
        f, t = sorted(pair)
        lines.append(Line(from_bus=f, to_bus=t, b=b))

    return Grid(buses=tuple(buses), lines=tuple(lines))


def with_sigma(grid: Grid, sigma: np.ndarray) -> Grid:
    """Copy of the grid with per-bus noise sigma replaced (buses order)."""
    if len(sigma) != grid.n_buses:
        raise InputError(f"sigma length {len(sigma)} != number of buses {grid.n_buses}")
    buses = tuple(replace(b, sigma=float(s)) for b, s in zip(grid.buses, sigma))
    return Grid(buses=buses, lines=grid.lines)


# ---------------------------------------------------------------------------
# Fixed point and linearization
# ---------------------------------------------------------------------------

def _jacobian_entries(edges: EdgeList, theta: np.ndarray):
    """Angle Jacobian in edge-list form: the off-diagonal entries
    b cos(theta_i - theta_j), one per edge-list entry, and the diagonal,
    minus the row sums of those entries."""
    off = edges.b * np.cos(theta[edges.ends] - theta[edges.others])
    return off, -np.bincount(edges.ends, off, minlength=edges.n_buses)


def _scatter(out: np.ndarray, rows: np.ndarray, cols: np.ndarray, off: np.ndarray,
             diag: np.ndarray | None = None) -> np.ndarray:
    """``out`` with ``off`` written at (rows, cols) and, when given,
    ``diag`` on its diagonal, every other entry left as it was."""
    out[rows, cols] = off
    if diag is not None:
        np.fill_diagonal(out, diag)
    return out


def _scatter_rows(out: np.ndarray, rows, row_slots, col_pos, diag=None) -> np.ndarray:
    """``out`` with J_ij of each row i = row_slots[r] written at (r,
    col_pos[j]) for every neighbour j that ``col_pos`` holds and, when
    given, diag[i] at (r, r), every other entry left as it was: the one
    scatter of rows of neighbours into a dense array.  ``range(n)`` as
    ``col_pos`` puts each neighbour j in column j."""
    r, c, v = [], [], []
    for at, i in enumerate(row_slots):
        for j, w in rows[i].items():
            if j in col_pos:
                r.append(at)
                c.append(col_pos[j])
                v.append(w)
    return _scatter(out, r, c, v, None if diag is None else [diag[i] for i in row_slots])


def _angle_jacobian(edges: EdgeList, theta: np.ndarray) -> np.ndarray:
    """Dense angle Jacobian, scattered from the edge list."""
    off, diag = _jacobian_entries(edges, theta)
    return _scatter(np.zeros((edges.n_buses, edges.n_buses)), edges.ends, edges.others, off, diag)


def _minres(apply, rhs: np.ndarray, inv_diag: np.ndarray, rtol: float, maxiter: int):
    """Preconditioned MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12(4),
    1975) for apply(x) = rhs, with ``apply`` symmetric, possibly
    indefinite, and the positive preconditioner diag(1 / inv_diag): x whose
    residual, in the preconditioner's inverse norm, is at most rtol times
    rhs's, or None when the Lanczos process breaks down or maxiter steps
    do not get there."""
    x = np.zeros_like(rhs)
    r1 = r2 = rhs
    y = rhs * inv_diag
    beta1 = math.sqrt(rhs @ y)
    if beta1 == 0.0:
        return x
    oldb, beta, dbar, epsln, phibar, cs, sn = 0.0, beta1, 0.0, 0.0, beta1, -1.0, 0.0
    w, w2 = np.zeros_like(rhs), np.zeros_like(rhs)
    for itn in range(maxiter):
        v = y / beta
        y = apply(v)
        if itn:
            y -= (beta / oldb) * r1
        alfa = v @ y
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = r2 * inv_diag
        oldb, beta = beta, r2 @ y
        if not beta >= 0.0:
            return None
        beta = math.sqrt(beta)
        # the previous rotation, then the next one, on the tridiagonal's column
        oldeps, delta = epsln, cs * dbar + sn * alfa
        gbar, epsln, dbar = sn * dbar - cs * alfa, sn * beta, -cs * beta
        gamma = math.hypot(gbar, beta)
        if not gamma > 0.0:
            return None
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w2, w = w, (v - oldeps * w2 - delta * w) / gamma
        x += phi * w
        if phibar <= rtol * beta1:
            return x
    return None


def solve_fixed_point(grid: Grid) -> OperatingPoint:
    """Newton solve of the synchronized fixed point in the zero-mean gauge.

    The injections must balance (sum to ~0); the iteration runs on the
    subspace orthogonal to the uniform shift, with step halving (up to 40
    halvings) when the residual does not decrease.  Residuals and
    Jacobians are evaluated over the edge list, and each Newton step
    solves -J delta = r, r projected off the uniform vector, by a Krylov
    method that only applies -J, the Laplacian with weights b cos(dtheta),
    over the edge list: no n x n array and no factor.  It is inexact
    Newton, each linear residual at most 1e-3 min(1, |r|) times r's.  The
    solve is MINRES preconditioned by the row sums of the weights'
    magnitudes, the Jacobi diagonal while every weight is positive and -J
    positive semidefinite; MINRES also solves the indefinite system of an
    iterate with a line at or beyond pi/2.  A solve that breaks down, or
    does not converge within 2 n + 100 steps (exact arithmetic needs at
    most n - 1), is a singular Jacobian.
    """
    p = grid.param_vector("p")
    if abs(p.sum()) > 1e-8 * max(1.0, np.abs(p).max()) * grid.n_buses:
        raise InputError(f"unbalanced injections: sum(p) = {p.sum():.3e}")

    edges = grid.edge_list()
    n = grid.n_buses
    maxiter = 2 * n + 100
    theta = np.zeros(n)
    r = p - edges.flows(theta)
    rnorm = float(np.linalg.norm(r))

    for _ in range(_FIXED_POINT_MAX_ITER):
        if rnorm <= _FIXED_POINT_TOL:
            break
        weights, _ = _jacobian_entries(edges, theta)
        diag = np.bincount(edges.ends, np.abs(weights), minlength=n)
        delta = _minres(lambda x: np.bincount(edges.ends,
                                              weights * (x[edges.ends] - x[edges.others]),
                                              minlength=n),
                        r - r.mean(), np.divide(1.0, diag, out=np.zeros(n), where=diag > 0),
                        1e-3 * min(1.0, rnorm), maxiter)
        if delta is None or not np.all(np.isfinite(delta)):
            raise NumericsError("singular Jacobian away from the uniform mode")
        delta -= delta.mean()

        step = 1.0
        for _halving in range(41):
            trial = theta + step * delta
            r_trial = p - edges.flows(trial)
            if np.linalg.norm(r_trial) < rnorm:
                break
            step *= 0.5
        else:
            raise NumericsError(
                f"no fixed point found: Newton stalled at residual {rnorm:.3e} "
                "(injections may exceed line capacity)")
        theta = trial
        r = r_trial
        rnorm = float(np.linalg.norm(r))
    else:
        raise NumericsError(
            f"no fixed point found within {_FIXED_POINT_MAX_ITER} iterations "
            f"(residual {rnorm:.3e})")

    theta = theta - theta.mean()
    idx = grid.bus_index()
    flagged = tuple(
        (ln.from_bus, ln.to_bus) for ln in grid.lines
        if abs(theta[idx[ln.from_bus]] - theta[idx[ln.to_bus]]) >= math.pi / 2
    )
    return OperatingPoint(theta=theta, residual_norm=rnorm, flagged_lines=flagged)


def _operating_angles(grid: Grid, op_point: OperatingPoint) -> np.ndarray:
    theta = np.asarray(op_point.theta, dtype=float)
    if theta.shape != (grid.n_buses,):
        raise InputError(f"operating point has {theta.shape} angles for {grid.n_buses} buses")
    return theta


def build_jacobian(grid: Grid, op_point: OperatingPoint) -> np.ndarray:
    """Jacobian of the coupling at the operating point (negative Laplacian).

    J_ij = b_ij cos(theta*_i - theta*_j) for connected i != j, and
    J_ii = -sum_k J_ik; symmetric with zero row sums.  This dense n x n
    array is the reference ``linearize`` is checked against; the
    pipeline itself never forms it.
    """
    return _angle_jacobian(grid.edge_list(), _operating_angles(grid, op_point))


def _check_epsilon(epsilon: float) -> None:
    if not (_finite(epsilon) and 0.0 < epsilon <= 1.0):
        raise InputError(
            f"epsilon must be in (0, 1], got {epsilon}; use the reduced model for the epsilon -> 0 limit")


def _linearized(grid: Grid, ends: np.ndarray, others: np.ndarray, off: np.ndarray,
                diag: np.ndarray) -> LinearizedSystem:
    """The LinearizedSystem with J_ij = off[e] for i = ends[e], j =
    others[e] and J_ii = diag[i], buses given by their position in
    ``grid.buses``.  Every entry but +0.0 is held, a -0.0 too: +0.0 is
    what a dense array holds where nothing is written, so each block
    scattered from the rows is the dense Jacobian's slice, bit for bit."""
    order = np.asarray(grid.ordering(), dtype=np.intp)
    slot = np.empty(grid.n_buses, dtype=np.intp)
    slot[order] = np.arange(grid.n_buses)
    held = (off != 0) | np.signbit(off)
    neighbours = tuple({} for _ in range(grid.n_buses))
    for i, j, w in zip(slot[ends[held]].tolist(), slot[others[held]].tolist(), off[held].tolist()):
        neighbours[i][j] = w
    # fancy indexing copies, so the diagonal is no view of a caller's array
    return LinearizedSystem(tuple(grid.slow_ids), tuple(grid.fast_ids), neighbours, diag[order])


def linearize(grid: Grid, op_point: OperatingPoint) -> LinearizedSystem:
    """The Jacobian's rows at the operating point, built in one pass over
    the edge list: no n x n array and no block is allocated.

    Every block scattered from the result equals the slice of
    ``build_jacobian(grid, op_point)``, bit for bit, as does every block
    of ``assemble_linearized(grid, build_jacobian(grid, op_point), 1.0)``.
    """
    edges = grid.edge_list()
    off, diag = _jacobian_entries(edges, _operating_angles(grid, op_point))
    return _linearized(grid, edges.ends, edges.others, off, diag)


def assemble_linearized(grid: Grid, jacobian: np.ndarray, epsilon: float) -> LinearizedSystem:
    """The rows of a dense Jacobian: the reference ``linearize`` is
    checked against.

    Every off-diagonal entry but +0.0 is held (``_linearized``), so each
    block scattered from the result is the dense Jacobian's slice, bit
    for bit.  ``epsilon`` is only checked to lie in (0, 1]; the rows do
    not depend on it.  It is the last timescale ratio a linearization
    takes: the benchmark's oracle check passes 1.0, and ROADMAP item 4b
    removes it together with that call.
    """
    _check_epsilon(epsilon)
    i, j = np.nonzero(~np.eye(grid.n_buses, dtype=bool))
    return _linearized(grid, i, j, jacobian[i, j], jacobian.diagonal())
