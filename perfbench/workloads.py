"""Workload inputs, CLI command lines and output checks.

Each workload turns the benchmark seed into input files under a work
directory, names the `kronred` argv to run on them, and checks the data
files one run wrote.  The program sees only the generated inputs and
`--seed`; everything else is fixed here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
import sys
import time
from pathlib import Path

import numpy as np

# Data files whose bytes must repeat for a fixed seed.  The manifest is
# excluded: it records the run's duration.
DATA_FILES = {
    "ieee118-compare": ("compare.csv", "compare_plot.json"),
    "star-nonlinear": ("compare.csv", "compare_plot.json"),
    "synth-analysis": ("variance.csv",),
}

# Size of the synthetic grid handed to `kronred variance`, and of the
# companion grid the closed form is checked on against the dense
# Lyapunov oracle (whose cost grows as the cube of about 3*N_S + N_F).
SYNTH_BUSES = 2000
ORACLE_BUSES = 500
SYNTH_SLOW_FRAC = 0.3

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Grid generators (write the grid JSON schema directly)
# ---------------------------------------------------------------------------

def _bus(bid, cls, m, d, p, sigma, tau):
    return {"id": bid, "class": cls, "m": m, "d": d, "p": p, "sigma": sigma, "tau": tau}


def synth_grid(seed: int, n: int) -> dict:
    """The seeded synthetic analysis grid: a spanning tree plus n/2 chords.

    Same construction as the test suite's `random_connected_grid`, at
    SYNTH_SLOW_FRAC slow buses: random classes with at least one slow
    bus, balanced normal injections (scale 0.1), m = 0.2, d = 0.05 on
    slow buses and m = 0.002, d = 0.0005 on fast buses, tau = 0.1,
    sigma ~ U(0, 0.01), B ~ U(0.5, 2).
    """
    rng = np.random.default_rng(seed)
    classes = ["slow" if rng.random() < SYNTH_SLOW_FRAC else "fast" for _ in range(n)]
    if "slow" not in classes:
        classes[int(rng.integers(n))] = "slow"
    p = rng.normal(0.0, 0.1, n)
    p -= p.mean()
    buses = []
    for i, cls in enumerate(classes):
        m, d = (0.2, 0.05) if cls == "slow" else (0.002, 0.0005)
        buses.append(_bus(i + 1, cls, m, d, float(p[i]), float(rng.uniform(0.0, 0.01)), 0.1))
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(i))
        edges.add((j + 1, i + 1))
    for _ in range(max(1, n // 2)):
        i, j = rng.choice(n, size=2, replace=False)
        a, b = sorted((int(i) + 1, int(j) + 1))
        edges.add((a, b))
    lines = [{"from": f, "to": t, "B": float(rng.uniform(0.5, 2.0))} for f, t in sorted(edges)]
    return {"buses": buses, "lines": lines}


def embedded_star_of_loads() -> dict:
    """Ring of 6 slow buses where bus 1 also carries a star of 8 fast loads.

    The acceptance suite's naive-model-failure grid: the loads' noise
    reaches the ring only through bus 1, so the naive model misses most
    of bus 1's variance.
    """
    n_ring, n_loads = 6, 8
    buses = [_bus(i + 1, "slow", 0.2, 0.05, 0.0, 0.002, 0.1) for i in range(n_ring)]
    lines = [{"from": i + 1, "to": (i + 1) % n_ring + 1, "B": 1.0} for i in range(n_ring)]
    for k in range(n_loads):
        bid = n_ring + k + 1
        buses.append(_bus(bid, "fast", 0.002, 0.0005, 0.0, 0.012, 0.1))
        lines.append({"from": 1, "to": bid, "B": 1.0})
    return {"buses": buses, "lines": lines}


def write_grid(path: Path, grid: dict) -> None:
    path.write_text(json.dumps(grid, indent=1) + "\n")


def slow_ids(grid: dict) -> list[int]:
    return [b["id"] for b in grid["buses"] if b["class"] == "slow"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """One benchmark workload: inputs, argv and output checks."""

    def __init__(self, name: str, repo: Path, work: Path, seed: int):
        self.name = name
        self.repo = repo
        self.work = work
        self.seed = seed
        self.data_files = DATA_FILES[name]
        self.grid = None

    def prepare(self) -> None:
        """Write the input files for this seed into the work directory."""
        if self.name == "ieee118-compare":
            self.grid_path = self.work / "ieee118.m"
            shutil.copyfile(self.repo / "tests" / "data" / "ieee118.m", self.grid_path)
        elif self.name == "star-nonlinear":
            self.grid = embedded_star_of_loads()
            self.grid_path = self.work / "star.json"
            write_grid(self.grid_path, self.grid)
        else:
            self.grid = synth_grid(self.seed, SYNTH_BUSES)
            self.grid_path = self.work / "synth.json"
            write_grid(self.grid_path, self.grid)

    def argv(self, out_dir: Path) -> list[str]:
        """Arguments of the `kronred` command line for one run."""
        common = [str(self.grid_path), "--out-dir", str(out_dir), "--seed", str(self.seed)]
        if self.name == "ieee118-compare":
            return ["compare", *common, "--models", "reduced-xi,reduced-naive,full-linear",
                    "--t-end", "300", "--dt", "0.01", "--burn-in", "30", "--ensemble", "2"]
        if self.name == "star-nonlinear":
            return ["compare", *common, "--models", "reduced-xi,reduced-naive,full-nonlinear",
                    "--t-end", "200", "--dt", "0.01", "--burn-in", "40", "--ensemble", "2"]
        return ["variance", *common]

    def digests(self, out_dir: Path) -> dict[str, str]:
        return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
                for f in self.data_files}

    def check(self, out_dir: Path) -> list[str]:
        """Problems found in one run's outputs; empty when they are correct."""
        missing = [f for f in self.data_files if not (out_dir / f).is_file()]
        if missing:
            return [f"missing output {f}" for f in missing]
        if self.name == "synth-analysis":
            return _check_variance(out_dir / "variance.csv", slow_ids(self.grid))
        rows = _read_csv(out_dir / "compare.csv")
        if self.name == "ieee118-compare":
            return _check_ieee118(rows)
        return _check_star(rows)


def _read_csv(path: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def _check_ieee118(rows: list[dict[str, str]]) -> list[str]:
    problems = []
    if len(rows) != 54:
        problems.append(f"expected 54 slow-bus rows, got {len(rows)}")
    if any(r["var_analytic"] == "" or r["var_naive_analytic"] == "" for r in rows):
        problems.append("analytic columns not filled")
        return problems
    if not any(int(r["rank_change"]) != 0 for r in rows):
        problems.append("no bus changes rank between naive and corrected ordering")
    for r in rows:
        analytic, naive = float(r["var_analytic"]), float(r["var_naive_analytic"])
        sim = float(r["var_sim_reduced-xi"])
        if analytic > 2.0 * naive and not abs(sim - analytic) < abs(sim - naive):
            problems.append(f"bus {r['bus_id']}: reduced-xi simulation {sim:.4g} is not nearer "
                            f"the corrected {analytic:.4g} than the naive {naive:.4g}")
    return problems


def _check_star(rows: list[dict[str, str]]) -> list[str]:
    center = next((r for r in rows if r["bus_id"] == "1"), None)
    if center is None:
        return ["no row for the center bus 1"]
    naive = float(center["var_sim_reduced-naive"])
    problems = []
    for model in ("full-nonlinear", "reduced-xi"):
        ratio = float(center[f"var_sim_{model}"]) / naive
        if not ratio > 2.0:
            problems.append(f"center bus {model}/reduced-naive variance ratio {ratio:.3g} <= 2")
    return problems


def _check_variance(path: Path, expected_ids: list[int]) -> list[str]:
    rows = _read_csv(path)
    ids = [int(r["bus_id"]) for r in rows]
    if ids != expected_ids:
        return [f"rows are not one per slow bus in grid order ({len(ids)} rows, "
                f"{len(expected_ids)} slow buses)"]
    problems = []
    for r in rows:
        total, slow, fast, naive = (float(r[k]) for k in
                                    ("var_total", "var_slow_part", "var_fast_part", "var_naive"))
        if not all(math.isfinite(v) and v >= 0 for v in (total, slow, fast, naive)):
            problems.append(f"bus {r['bus_id']}: negative or non-finite variance")
        elif not math.isclose(total, slow + fast, rel_tol=1e-12) or naive != slow:
            problems.append(f"bus {r['bus_id']}: var_total != slow + fast part "
                            "or var_naive != slow part")
        if len(problems) >= 5:
            break
    return problems


def oracle_deviation(grid_path: Path, variance_csv: Path) -> dict:
    """Compare `kronred variance` output with the dense Lyapunov oracle.

    Kron-reduces the grid, solves the stationary Lyapunov equation of
    the reduced system densely, and compares the oracle's per-bus COI
    variance with the `var_total` column of ``variance_csv``.  Returns
    the largest deviation relative to the largest oracle variance (the
    acceptance suite's measure), the oracle's state dimension and its
    solve time.  Raises ValueError when the CSV does not have one row
    per slow bus.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from kronred.grid import (assemble_linearized, build_jacobian, parse_grid_json,
                              solve_fixed_point)
    from kronred.reduction import reduce_grid
    from kronred.variance import lyapunov_oracle_variance

    grid = parse_grid_json(grid_path.read_text())
    cli = {int(r["bus_id"]): float(r["var_total"]) for r in _read_csv(variance_csv)}
    red = reduce_grid(grid, assemble_linearized(
        grid, build_jacobian(grid, solve_fixed_point(grid)), 1.0))
    if sorted(cli) != sorted(red.slow_ids):
        raise ValueError("variance.csv does not have one row per slow bus")
    started = time.perf_counter()
    oracle = lyapunov_oracle_variance(red)
    oracle_s = time.perf_counter() - started
    worst = max(abs(cli[bid] - float(v)) for bid, v in zip(red.slow_ids, oracle))
    return {"rel_err": worst / float(oracle.max()), "oracle_s": oracle_s,
            "oracle_dim": 3 * red.n_slow - 1 + red.n_fast,
            "n_slow": red.n_slow, "n_fast": red.n_fast}
