"""Scaling sweep of the synth-analysis workload (reported, not gated).

    python3 perfbench/sweep.py [--seed N]

For each size in SIZES, runs a traced `kronred variance` on the seeded
synthetic grid of that many buses and records the per-layer times; up
to ORACLE_MAX_BUSES buses it also times the dense Lyapunov oracle on
the same grid and records how far the CLI's variances are from it.
Prints a table and writes .perfbench_results/sweep-seed<N>.json.  The
curve shows at which size the dense O(n^3) steps (fixed-point solves,
eigvalsh and Cholesky of -J_FF, eigh, the Lyapunov solve) dominate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import REPO, machine_record, spawn
from tracer import layer_metrics
from workloads import oracle_deviation, slow_ids, synth_grid, write_grid

SIZES = (250, 500, 1000, 2000, 3000, 4000)
# The dense oracle costs about 30 s at 1000 buses and grows as the cube.
ORACLE_MAX_BUSES = 1000
CHILD_TIMEOUT_S = 900.0
COLUMNS = ("grid.fixed_point_s", "grid.jacobian_s", "reduction.factor_s", "reduction.schur_s",
           "reduction.noise_map_s", "variance.eigh_s", "variance.gamma_s", "variance.coi_s",
           "variance.kernel_s", "cli.self_s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    work = REPO / ".perfbench_run" / f"sweep-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rows = []
    try:
        spawn(["--version"], work, "warmup", CHILD_TIMEOUT_S)
        for n in SIZES:
            grid = synth_grid(args.seed, n)
            path = work / f"synth{n}.json"
            write_grid(path, grid)
            rec = spawn(["variance", str(path), "--out-dir", str(work / f"out{n}"),
                         "--seed", str(args.seed)], work, f"n{n}", CHILD_TIMEOUT_S,
                        trace=True)
            if rec["code"] != 0:
                print(f"n={n}: exit code {rec['code']}\n{rec['stderr'][-2000:]}", file=sys.stderr)
                return 1
            row = {"n": n, "n_slow": len(slow_ids(grid)), "wall_s": rec["wall_s"],
                   "setup_s": rec["setup_s"], "peak_rss_mb": rec["peak_rss_mb"],
                   **layer_metrics(rec["trace"]["spans"])}
            if n <= ORACLE_MAX_BUSES:
                oracle = oracle_deviation(path, work / f"out{n}" / "variance.csv")
                row.update({"variance.oracle_s": oracle["oracle_s"],
                            "variance.oracle_dim": oracle["oracle_dim"],
                            "oracle_rel_err": oracle["rel_err"]})
            rows.append(row)
            print(f"n={n:5d} slow={row['n_slow']:5d} wall {row['wall_s']:7.2f} s  "
                  + "  ".join(f"{c.rsplit('.', 1)[-1][:-2]} {row[c]:.3f}" for c in COLUMNS)
                  + (f"  oracle {row['variance.oracle_s']:.2f} s (dim {row['variance.oracle_dim']})"
                     if "variance.oracle_s" in row else ""), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = REPO / ".perfbench_results"
    results.mkdir(exist_ok=True)
    (results / f"sweep-seed{args.seed}.json").write_text(
        json.dumps({"machine": machine_record(), "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
