"""Command-line surface: reduce, variance, simulate, compare, star-demo.

Every command writes its outputs atomically (temp file + rename) into
--out-dir, plus a run manifest (command, resolved configuration, seeds,
input digests, version, duration) sufficient to reproduce the outputs
bit-for-bit: re-running the recorded argv against the same inputs
yields byte-identical CSV/JSON data files.

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError, NumericsError
from .grid import ClassDefaults, Grid, parse_grid_json, parse_matpower_case, with_sigma
from .reduction import make_star_grid, reduced_system_to_dict
from .simulate import (MODELS, SimConfig, coi_frequency_variance_estimate, default_burn_in,
                       default_dt_max, linearize_and_reduce, make_builder, run_ensemble,
                       stats_csv, trajectory_csv)
from .variance import (coi_variance, eigendecompose_reduced, gamma_matrix,
                       variance_report_csv)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(args, started: float, outputs: list[str], inputs: list[Path]) -> None:
    out_dir = Path(args.out_dir)
    manifest = {
        "command": args.command,
        "argv": args._argv,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if not k.startswith("_") and k != "func"},
        "seeds": {"seed": args.seed},
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "version": __version__,
        "duration_s": round(time.time() - started, 3),
        "outputs": outputs,
    }
    _write_text(out_dir / f"manifest_{args.command.replace('-', '_')}.json",
                json.dumps(manifest, indent=2) + "\n")


def _load_grid(args) -> Grid:
    path = Path(args.grid)
    if not path.exists():
        raise InputError(f"grid file not found: {path}")
    text = path.read_text()
    if path.suffix == ".json":
        return parse_grid_json(text)
    if path.suffix == ".m":
        slow = ClassDefaults(m=args.slow_m, d=args.slow_d, tau=args.tau)
        fast = ClassDefaults(m=args.fast_m, d=args.fast_d, tau=args.tau)
        grid = parse_matpower_case(text, slow=slow, fast=fast, rebalance=True)
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

def cmd_reduce(args) -> None:
    started = time.time()
    grid = _load_grid(args)
    op, _, red = linearize_and_reduce(grid, 1.0)
    out_dir = Path(args.out_dir)
    _write_text(out_dir / "reduced.json",
                json.dumps(reduced_system_to_dict(red), indent=2) + "\n")

    basis = eigendecompose_reduced(red.j_red)
    gap = -basis.lambdas[1] if red.n_slow > 1 else 0.0
    row_sums = np.abs(red.noise_gain).sum(axis=1) if red.n_fast else np.zeros(red.n_slow)
    print(f"slow buses : {red.n_slow}")
    print(f"fast buses : {red.n_fast}")
    print(f"spectral gap of J_red : {gap:.6g}")
    print(f"|K| row sums : min {row_sums.min():.4g}  mean {row_sums.mean():.4g}  "
          f"max {row_sums.max():.4g}")
    if not op.angle_window_ok:
        print(f"warning: {len(op.flagged_lines)} line(s) outside the (-pi/2, pi/2) angle window")
    _write_manifest(args, started, ["reduced.json"], [Path(args.grid)])


def cmd_variance(args) -> None:
    started = time.time()
    grid = _load_grid(args)
    _, _, red = linearize_and_reduce(grid, 1.0)
    try:
        basis = eigendecompose_reduced(red.j_red)
        gam = gamma_matrix(red, basis)
        report = coi_variance(red, basis, gam)
    except InputError as e:
        raise InputError(f"{e}\nhint: the `simulate` command has no homogeneity restriction") \
            from e

    csv_text = variance_report_csv(report)
    if args.order_by_naive:
        header, *rows = csv_text.strip().split("\n")
        rows.sort(key=lambda r: float(r.split(",")[4]))
        csv_text = "\n".join([header] + rows) + "\n"
    _write_text(Path(args.out_dir) / "variance.csv", csv_text)
    print(f"wrote variance.csv for {red.n_slow} slow buses "
          f"(total variance range {report.var_total.min():.4g} .. {report.var_total.max():.4g})")
    _write_manifest(args, started, ["variance.csv"], [Path(args.grid)])


def _run_cfg(args, grid: Grid, model: str) -> SimConfig:
    dt = args.dt if args.dt is not None else default_dt_max(grid, args.epsilon)
    burn = args.burn_in if args.burn_in is not None else min(default_burn_in(grid), 0.5 * args.t_end)
    return SimConfig(model=model, dt_max=dt, t_end=args.t_end, burn_in=burn,
                     ensemble_size=args.ensemble, base_seed=args.seed,
                     epsilon=args.epsilon, theta=args.theta)


def cmd_simulate(args) -> None:
    started = time.time()
    grid = _load_grid(args)
    cfg = _run_cfg(args, grid, args.model)
    op, sys, red = linearize_and_reduce(grid, cfg.epsilon)
    trajs = run_ensemble(make_builder(grid, op, sys, red, cfg), cfg)
    stats = coi_frequency_variance_estimate(trajs, cfg.burn_in, bus_ids=red.slow_ids)

    out_dir = Path(args.out_dir)
    _write_text(out_dir / "trajectory.csv", trajectory_csv(trajs[0], red.slow_ids, args.decimate))
    _write_text(out_dir / "stats.csv", stats_csv(stats))
    print(f"model {cfg.model}: {cfg.ensemble_size} trajectories, dt {trajs[0].t[1]:.4g} s, "
          f"t_end {cfg.t_end} s, burn-in {cfg.burn_in:.4g} s")
    print(f"COI variance range {stats.variance.min():.4g} .. {stats.variance.max():.4g}")
    _write_manifest(args, started, ["trajectory.csv", "stats.csv"], [Path(args.grid)])


def cmd_compare(args) -> None:
    started = time.time()
    grid = _load_grid(args)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    op, sys, red = linearize_and_reduce(grid, args.epsilon)

    analytic = naive_analytic = None
    try:
        basis = eigendecompose_reduced(red.j_red)
        gam = gamma_matrix(red, basis)
        report = coi_variance(red, basis, gam)
        analytic, naive_analytic = report.var_total, report.var_naive
    except InputError:
        print("heterogeneous parameters: analytic columns omitted, comparing simulated models")

    empirical = {}
    for model in models:
        cfg = _run_cfg(args, grid, model)
        empirical[model] = coi_frequency_variance_estimate(
            run_ensemble(make_builder(grid, op, sys, red, cfg), cfg), cfg.burn_in).variance

    naive_ref = naive_analytic if naive_analytic is not None else empirical.get("reduced-naive")
    corrected_ref = analytic if analytic is not None else empirical.get("reduced-xi")
    n_s = red.n_slow
    ranks = {}
    for name, ref in (("naive", naive_ref), ("corrected", corrected_ref)):
        if ref is not None:
            ranks[name] = np.argsort(np.argsort(ref))  # ascending variance rank per bus

    header = ["bus_id", "var_analytic", "var_naive_analytic"]
    header += [f"var_sim_{m}" for m in models]
    header += ["rank_naive", "rank_corrected", "rank_change"]
    lines = [",".join(header)]
    for k, bid in enumerate(red.slow_ids):
        row = [str(bid)]
        row.append(repr(float(analytic[k])) if analytic is not None else "")
        row.append(repr(float(naive_analytic[k])) if naive_analytic is not None else "")
        row += [repr(float(empirical[m][k])) for m in models]
        rn = int(ranks["naive"][k]) if "naive" in ranks else ""
        rc = int(ranks["corrected"][k]) if "corrected" in ranks else ""
        change = rn - rc if isinstance(rn, int) and isinstance(rc, int) else ""
        row += [str(rn), str(rc), str(change)]
        lines.append(",".join(row))
    csv_text = "\n".join(lines) + "\n"

    out_dir = Path(args.out_dir)
    _write_text(out_dir / "compare.csv", csv_text)
    plot = {
        "x_axis": "slow buses ordered by naive variance (ascending)",
        "y_axis": "COI frequency variance [(rad/s)^2]",
        "order": [int(red.slow_ids[k]) for k in np.argsort(naive_ref)]
        if naive_ref is not None else list(map(int, red.slow_ids)),
        "series": [c for c in header[1:] if not c.startswith("rank")],
    }
    _write_text(out_dir / "compare_plot.json", json.dumps(plot, indent=2) + "\n")
    n_moved = int(np.count_nonzero(ranks["naive"] != ranks["corrected"])) \
        if len(ranks) == 2 else 0
    print(f"compared models {models} on {n_s} slow buses; "
          f"{n_moved} buses change rank between naive and corrected ordering")
    _write_manifest(args, started, ["compare.csv", "compare_plot.json"], [Path(args.grid)])


def cmd_star_demo(args) -> None:
    started = time.time()
    if args.n_outer < 2:
        raise InputError(f"--n-outer must be >= 2, got {args.n_outer}")
    grid = make_star_grid(args.n_outer, args.center, b=args.b, sigma=args.sigma,
                          m=args.m, d=args.d, tau=args.tau)
    _, _, red = linearize_and_reduce(grid, 1.0)
    basis = eigendecompose_reduced(red.j_red)
    gam = gamma_matrix(red, basis)

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

    report = coi_variance(red, basis, gam)
    print("bus_id  var_total      var_naive      ratio")
    for k, bid in enumerate(report.bus_ids):
        tot, nai = float(report.var_total[k]), float(report.var_naive[k])
        ratio = tot / nai if nai > 0 else float("inf") if tot > 0 else 1.0
        print(f"{bid:>6}  {tot:<13.6g}  {nai:<13.6g}  {ratio:.3g}")
    _write_manifest(args, started, [], [])


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
    simflags.add_argument("--theta", type=float, default=0.5,
                          help="drift implicitness (0.5 trapezoid, 1.0 backward Euler)")

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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must be in [0, 2^64), got {args.seed}")
    args._argv = argv
    try:
        args.func(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
