"""Command-line surface: reduce, variance, simulate, compare, star-demo.

Each command computes its data files and returns them, file name to an
iterable of text pieces (a CSV table line by line from `_csv_lines`, a
JSON document in its encoder's pieces from `_json_pieces`); it opens no
file and holds no table or document as text.  Once the command has
succeeded, `main` streams each file into --out-dir atomically (temp
file + rename), in the order returned, then writes a run manifest
(command, resolved configuration, seeds, input digests, version,
libraries, duration).  Re-running the recorded argv against the same
inputs yields byte-identical CSV/JSON data files under the same BLAS
kernel, which the manifest records in libraries.blas.numpy.config;
OPENBLAS_CORETYPE=<kernel> replays another kernel where the CPU allows
it.  Kernels round differently: `variance tests/data/ieee118.m` wrote
three different variance.csv files under SkylakeX, Prescott and
Haswell, whose columns differ by at most 1.2e-14 of the column's
largest value.  A command that fails (exit 2 or 3) leaves no file behind;
an --out-dir that is a file, or whose nearest existing ancestor is not
a writable directory, is refused before the command runs, and a failed
write exits 2 after removing the files the run has already written.

The data files depend on the BLAS threads too: a threaded product splits
its sums differently.  So every command runs with numpy's bundled
OpenBLAS pinned to one thread, and the manifest records the numpy and
BLAS versions and the threads in use.  No command imports scipy: the
run path computes with numpy alone.  Importing this module sets
OPENBLAS_NUM_THREADS=1 unless it is set already, so a process that
imports it before numpy starts OpenBLAS with one thread and spawns no
idle BLAS threads.

Exit codes: 0 success, 2 input error (out of memory too), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import math
import os
import sys
import time
from collections.abc import Iterable
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads it: one thread
# from the start, unless the caller chose.  _one_blas_thread pins it again
# for a caller that loaded numpy first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .errors import HomogeneityError, InputError, NumericsError
from .grid import ClassDefaults, Grid, parse_grid_json, parse_matpower_case, with_sigma
from .reduction import make_star_grid, reduced_system_to_dict
from .simulate import (MODELS, SimConfig, check_models, default_burn_in, default_dt_max,
                       linearize_and_reduce, run_models)
from .variance import coi_variance, eigendecompose_reduced, gamma_matrix


def _csv_lines(header: Iterable[str], rows: Iterable) -> Iterable[str]:
    """A CSV table line by line: a cell is the repr of its Python value,
    None an empty cell."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join("" if v is None else repr(v) for v in row) + "\n"


def _json_pieces(doc) -> Iterable[str]:
    """json.dumps(doc, indent=2) and a newline, in the encoder's pieces."""
    yield from json.JSONEncoder(indent=2).iterencode(doc)
    yield "\n"


def _write_file(path: Path, pieces: Iterable[str]) -> None:
    """Write the pieces to a new file beside ``path``, then rename it over
    ``path``.  Unlike mkstemp's 0600, the file gets the mode that
    open(path, "w") gives."""
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    fh = open(tmp, "x")
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_manifest(args, argv: list[str], blas: dict, started: float,
                    outputs: list[str]) -> None:
    inputs = [Path(args.grid)] if "grid" in vars(args) else []
    manifest = {
        "command": args.command,
        "argv": argv,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seeds": {"seed": args.seed},
        "input_digests": {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs},
        "version": __version__,
        "libraries": {"numpy": np.__version__, "blas": blas},
        "duration_s": round(time.time() - started, 3),
        "outputs": outputs,
    }
    _write_file(Path(args.out_dir) / f"manifest_{args.command.replace('-', '_')}.json",
                _json_pieces(manifest))


def _load_grid(args) -> Grid:
    path = Path(args.grid)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise InputError(f"grid file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:  # a directory, a name too long, not UTF-8
        raise InputError(f"cannot read grid file {path}: {e}") from e
    if path.suffix == ".json":
        return parse_grid_json(text)
    if path.suffix == ".m":
        slow = ClassDefaults(m=args.slow_m, d=args.slow_d, tau=args.tau)
        fast = ClassDefaults(m=args.fast_m, d=args.fast_d, tau=args.tau)
        grid = parse_matpower_case(text, slow=slow, fast=fast)
        lo, hi = _parse_sigma_dist(args.sigma_dist)
        rng = np.random.default_rng(np.uint64(args.seed))
        sigma = rng.uniform(lo, hi, grid.n_buses)
        return with_sigma(grid, sigma)
    raise InputError(f"unrecognized grid file extension {path.suffix!r} (expect .json or .m)")


def _parse_sigma_dist(spec: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 3 or parts[0] != "uniform":
        raise InputError(f"--sigma-dist must look like uniform:lo:hi, got {spec!r}")
    try:
        lo, hi = float(parts[1]), float(parts[2])
    except ValueError as e:
        raise InputError(f"--sigma-dist bounds must be numbers, got {spec!r}") from e
    if not 0 <= lo <= hi < math.inf:
        raise InputError(f"--sigma-dist needs 0 <= lo <= hi < inf, got {spec!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_reduce(args) -> dict[str, Iterable[str]]:
    grid = _load_grid(args)
    op, red = linearize_and_reduce(grid)
    # built first: a noise covariance overflow is refused before anything is printed
    doc = reduced_system_to_dict(red)
    basis = eigendecompose_reduced(red.j_red, np.ones(red.n_slow))  # J_red's own spectrum
    gap = -basis.lambdas[1] if red.n_slow > 1 else 0.0
    row_sums = np.abs(red.noise_gain).sum(axis=1)
    print(f"slow buses : {red.n_slow}")
    print(f"fast buses : {red.n_fast}")
    print(f"spectral gap of J_red : {gap:.6g}")
    print(f"|K| row sums : min {row_sums.min():.4g}  mean {row_sums.mean():.4g}  "
          f"max {row_sums.max():.4g}")
    if not op.angle_window_ok:
        print(f"warning: {len(op.flagged_lines)} line(s) outside the (-pi/2, pi/2) angle window")
    return {"reduced.json": _json_pieces(doc)}


def cmd_variance(args) -> dict[str, Iterable[str]]:
    grid = _load_grid(args)
    op, red = linearize_and_reduce(grid)
    report = coi_variance(red)

    rows = list(zip(report.bus_ids, report.var_total.tolist(), report.var_slow.tolist(),
                    report.var_fast.tolist(), report.var_slow.tolist()))
    if args.order_by_naive:
        rows.sort(key=lambda row: row[4])  # stable: ties keep bus order
    print(f"wrote variance.csv for {red.n_slow} slow buses "
          f"(total variance range {report.var_total.min():.4g} .. {report.var_total.max():.4g})")
    return {"variance.csv": _csv_lines(
        ["bus_id", "var_total", "var_slow_part", "var_fast_part", "var_naive"], rows)}


def _run_cfg(args, grid: Grid) -> SimConfig:
    dt = args.dt if args.dt is not None else default_dt_max(grid, args.epsilon)
    burn = args.burn_in if args.burn_in is not None else min(default_burn_in(grid), 0.5 * args.t_end)
    return SimConfig(dt_max=dt, t_end=args.t_end, burn_in=burn,
                     ensemble_size=args.ensemble, base_seed=args.seed,
                     epsilon=args.epsilon)


def cmd_simulate(args) -> dict[str, Iterable[str]]:
    if args.decimate < 1:  # before any work, so a typo costs nothing
        raise InputError(f"--decimate must be >= 1, got {args.decimate}")
    grid = _load_grid(args)
    cfg = _run_cfg(args, grid)  # bad flags are refused before the fixed point
    op, red = linearize_and_reduce(grid)
    # member 0's slow record is kept for trajectory.csv; every batch is folded chunk by chunk
    (stats,), first = run_models(grid, op, red, cfg, [args.model], keep_first=True)

    print(f"model {args.model}: {cfg.ensemble_size} trajectories, dt {first.t[1]:.4g} s, "
          f"t_end {cfg.t_end} s, burn-in {cfg.burn_in:.4g} s")
    print(f"COI variance range {stats.variance.min():.4g} .. {stats.variance.max():.4g}")
    ids = red.slow_ids
    # formatted from member 0's record while main writes the file, never held as text
    trajectory = ([float(first.t[k]), *first.x[k].tolist(), *first.xdot[k].tolist()]
                  for k in range(0, len(first.t), args.decimate))
    per_bus = zip(stats.bus_ids, stats.variance.tolist(), stats.stderr.tolist())
    return {"trajectory.csv": _csv_lines(
                ["t", *(f"x_{i}" for i in ids), *(f"xdot_{i}" for i in ids)], trajectory),
            "stats.csv": _csv_lines(["bus_id", "var_coi", "stderr", "n_samples"],
                                    ((*row, stats.n_samples) for row in per_bus))}


def _parse_models(spec: str) -> list[str]:
    models = [m.strip() for m in spec.split(",") if m.strip()]
    check_models(models, f"--models {spec!r}")
    return models


def _ascending(values: np.ndarray) -> np.ndarray:
    """Positions that sort ``values`` ascending.  Values within 1e-12
    relative of their neighbour in that order are ties, taken in position
    order, so roundoff in the last digits decides no rank."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    tied = np.abs(np.diff(v)) <= 1e-12 * np.maximum(np.abs(v[1:]), np.abs(v[:-1]))
    return order[np.lexsort((order, np.cumsum(np.r_[False, ~tied])))]


def cmd_compare(args) -> dict[str, Iterable[str]]:
    models = _parse_models(args.models)  # before any work, so a typo costs nothing
    grid = _load_grid(args)
    cfg = _run_cfg(args, grid)  # and so are bad flags
    op, red = linearize_and_reduce(grid)

    # per-bus values of every column after bus_id, None where a column has none
    columns = {"var_analytic": None, "var_naive_analytic": None}
    try:
        report = coi_variance(red)
        columns.update(var_analytic=report.var_total, var_naive_analytic=report.var_slow)
    except HomogeneityError:
        print("heterogeneous parameters: analytic columns omitted, comparing simulated models")

    # every model steps through one noise stream in lockstep
    stats, _ = run_models(grid, op, red, cfg, models)
    columns.update((f"var_sim_{model}", s.variance) for model, s in zip(models, stats))

    # ranks follow the analytic columns, else the simulated reduced models
    refs = (("var_naive_analytic", "var_analytic") if columns["var_analytic"] is not None
            else ("var_sim_reduced-naive", "var_sim_reduced-xi"))
    naive_order, corrected_order = (None if ref is None else _ascending(ref)
                                    for ref in map(columns.get, refs))
    rn, rc = (None if order is None else np.argsort(order)  # rank per bus
              for order in (naive_order, corrected_order))
    columns.update(rank_naive=rn, rank_corrected=rc,
                   rank_change=None if rn is None or rc is None else rn - rc)

    cells = [[None] * red.n_slow if values is None else values.tolist()
             for values in columns.values()]
    plot = {
        "x_axis": "slow buses ordered by naive variance (ascending)",
        "y_axis": "COI frequency variance [(rad/s)^2]",
        "order": [int(red.slow_ids[k]) for k in naive_order]
        if naive_order is not None else list(map(int, red.slow_ids)),
        "series": [c for c in columns if not c.startswith("rank")],
    }
    n_moved = np.count_nonzero(columns["rank_change"]) if columns["rank_change"] is not None else 0
    print(f"compared models {models} on {red.n_slow} slow buses; "
          f"{n_moved} buses change rank between naive and corrected ordering")
    return {"compare.csv": _csv_lines(["bus_id", *columns], zip(red.slow_ids, *cells)),
            "compare_plot.json": _json_pieces(plot)}


def cmd_star_demo(args) -> dict[str, Iterable[str]]:
    if args.n_outer < 2:
        raise InputError(f"--n-outer must be >= 2, got {args.n_outer}")
    grid = make_star_grid(args.n_outer, args.center, b=args.b, sigma=args.sigma,
                          m=args.m, d=args.d, tau=args.tau)
    op, red = linearize_and_reduce(grid)
    report = coi_variance(red)
    gam = gamma_matrix(red, eigendecompose_reduced(red.j_red, red.m_slow))  # for the printouts

    print(f"star with {args.n_outer} outer buses around a {args.center} center")
    print(f"slow buses: {red.n_slow}, fast buses: {red.n_fast}")
    if args.center == "slow":
        predicted = args.sigma * args.sigma * red.n_fast
        print(f"uniform-mode Gamma value : {float(gam[0, 0])!r}")
        print(f"closed-form prediction   : sigma^2 * N_F = {predicted!r}")
    else:
        off = np.abs(gam[1:, 1:]).max() if red.n_slow > 1 else 0.0
        print(f"max |Gamma_ab| over modes >= 2 : {off:.3e}")
        print("closed-form prediction         : 0 (reduction error is small)")

    print("bus_id  var_total      var_naive      ratio")
    for k, bid in enumerate(report.bus_ids):
        tot, nai = float(report.var_total[k]), float(report.var_slow[k])
        ratio = tot / nai if nai > 0 else float("inf") if tot > 0 else 1.0
        print(f"{bid:>6}  {tot:<13.6g}  {nai:<13.6g}  {ratio:.3g}")
    return {}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")
    common.add_argument("--out-dir", default=".", help="output directory")

    gridio = argparse.ArgumentParser(add_help=False)
    gridio.add_argument("grid", help="grid file (.json schema or MATPOWER .m)")
    gridio.add_argument("--slow-m", type=float, default=0.2, help="slow-class inertia [s^2] (.m files)")
    gridio.add_argument("--slow-d", type=float, default=0.05, help="slow-class damping [s] (.m files)")
    gridio.add_argument("--fast-m", type=float, default=0.002, help="fast-class inertia [s^2] (.m files)")
    gridio.add_argument("--fast-d", type=float, default=0.0005, help="fast-class damping [s] (.m files)")
    gridio.add_argument("--tau", type=float, default=0.1, help="noise correlation time [s] (.m files)")
    gridio.add_argument("--sigma-dist", default="uniform:0:0.01",
                        help="per-bus sigma sampler for .m files, uniform:lo:hi")

    simflags = argparse.ArgumentParser(add_help=False)
    simflags.add_argument("--epsilon", type=float, default=1.0,
                          help="timescale ratio for the fast buses")
    simflags.add_argument("--t-end", type=float, default=200.0, help="simulated time [s]")
    simflags.add_argument("--dt", type=float, default=None, help="max time step [s]")
    simflags.add_argument("--burn-in", type=float, default=None, help="discarded initial time [s]")
    simflags.add_argument("--ensemble", type=int, default=4, help="number of trajectories")

    parser = argparse.ArgumentParser(
        prog="kronred",
        description="Kron reduction of noisy swing dynamics with correlated effective noise")
    parser.add_argument("--version", action="version", version=f"kronred {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common, gridio],
                       help="Kron-reduce a grid and write the reduced system JSON")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("variance", parents=[common, gridio],
                       help="closed-form COI frequency variance per slow bus")
    p.add_argument("--order-by-naive", action="store_true",
                   help="order rows by the naive variance, ascending")
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("simulate", parents=[common, gridio, simflags],
                       help="stochastic simulation of one model")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--decimate", type=int, default=1,
                   help="write every k-th sample of the trajectory CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", parents=[common, gridio, simflags],
                       help="analytic vs simulated variances with rank changes")
    p.add_argument("--models", default="reduced-xi,reduced-naive",
                   help="comma-separated simulated models")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("star-demo", parents=[common],
                       help="closed-form reduction behavior of the two star cases")
    p.add_argument("--n-outer", type=int, default=8, help="number of outer buses")
    p.add_argument("--center", choices=["slow", "fast"], default="slow")
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--m", type=float, default=0.2)
    p.add_argument("--d", type=float, default=0.05)
    p.add_argument("--b", type=float, default=1.0, help="uniform coupling strength")
    p.set_defaults(func=cmd_star_demo)
    return parser


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's bundled OpenBLAS to one thread, and restore its thread
    count on exit.  Yields, if it is found, {"numpy": its configuration
    string (version included) and the threads in use}.  A library that
    is not there, or lacks the thread-count functions, is left alone."""
    import ctypes

    pinned = []
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, put, config = (getattr(lib, f"scipy_openblas_{name}64_")
                                for name in ("get_num_threads", "set_num_threads", "get_config"))
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        config.argtypes, config.restype = [], ctypes.c_char_p
        pinned.append((get, put, config, get()))
    for _, put, _, _ in pinned:
        put(1)
    try:
        yield {"numpy": {"config": config().decode(), "threads": get()}
               for get, _, config, _ in pinned}
    finally:
        for _, put, _, before in pinned:
            put(before)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must be in [0, 2^64), got {args.seed}")
    out_dir = Path(args.out_dir)
    # before any work, so a typo costs nothing: main makes the missing
    # directories inside the nearest one that exists
    existing = out_dir.absolute()
    try:
        while not existing.exists():
            existing = existing.parent
    except OSError as e:  # a path component too long, say
        print(f"input error: --out-dir {out_dir}: {e}", file=sys.stderr)
        return 2
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        print(f"input error: --out-dir {out_dir}: {existing} is not a writable directory",
              file=sys.stderr)
        return 2
    started = time.time()
    try:
        with _one_blas_thread() as blas:
            files = args.func(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("input error: not enough memory for this request", file=sys.stderr)
        return 2
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, pieces in files.items():
            _write_file(out_dir / name, pieces)
            written.append(out_dir / name)
        _write_manifest(args, argv, blas, started, list(files))
    except (OSError, MemoryError) as e:  # a file's pieces are made as it is written
        for path in written:  # a failed run leaves no file
            with contextlib.suppress(OSError):
                path.unlink()
        print("input error: not enough memory for this request" if isinstance(e, MemoryError)
              else f"input error: cannot write to --out-dir {out_dir}: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
