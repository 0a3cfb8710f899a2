"""The kronred benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark writes the workload's
inputs for the seed, then runs the real `kronred` command line on them
in a fresh interpreter per run, one at a time (a closed loop with one
client), for about S seconds and at least twice.  Each run's exit
code, stderr and data files are checked, and the data files' sha256
digests must repeat across the runs of one seed.  `all` runs every
workload in turn and prefixes its metrics with the workload name.

With --trace 0 the last stdout line reports the end-to-end metrics,
each the median over runs: wall_s, cpu_s and peak_rss_mb of the CLI
process (from wait4), and setup_s, the time from spawn until
kronred.cli is imported (at least eight samples, taken between the CLI
runs).  With --trace 1 runs alternate untraced and traced (see
tracer.py) and the last line reports the per-layer metrics, medians
over the traced runs, with trace.overhead_s, the traced minus the
untraced median wall time.

Workloads:
  ieee118-compare  `compare` of reduced-xi, reduced-naive and full-linear
                   on tests/data/ieee118.m; time is in linear stepping
                   and OU sampling.
  star-nonlinear   `compare` with full-nonlinear on a 14-bus ring with a
                   star of loads; time is in the Newton-implicit stepper.
  synth-analysis   `variance` on a seeded random 2000-bus grid; time is
                   in the dense O(n^3) fixed point, reduction and modal
                   analysis.  The closed form is also checked, untimed,
                   against the Lyapunov oracle on a 500-bus grid.

Everything is written under .perfbench_run/ (removed at the end) and
.perfbench_results/ (one JSON record per run) in the checkout.  CPU
frequency and other load on the host are not controlled.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from tracer import layer_metrics
from workloads import (DATA_FILES, ORACLE_BUSES, Workload, oracle_deviation, synth_grid,
                       write_grid)

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
# Any process still running this long after a workload's run began is
# killed, so the run ends inside the 180 s it may take.
RUN_LIMIT_S = 150.0
MIN_RUNS = 2
MIN_SETUP_SAMPLES = 8
ORACLE_REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# One CLI process
# ---------------------------------------------------------------------------

def spawn(argv: list[str], work: Path, tag: str, timeout: float,
          trace: bool = False) -> dict:
    """Run `kronred <argv>` through entry.py and measure the process.

    Wall time runs from just before the spawn to the reap; CPU time and
    peak RSS come from the child's own rusage.  A run that exceeds
    ``timeout`` seconds is killed.
    """
    stamp = work / f"{tag}.stamp"
    trace_path = work / f"{tag}.trace.json"
    cmd = [sys.executable, str(HERE / "entry.py"), str(stamp),
           str(trace_path) if trace else "-", *argv]
    with open(work / f"{tag}.stdout", "w") as out, open(work / f"{tag}.stderr", "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=REPO)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "code": proc.returncode,
        "wall_s": ended - started,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": float(stamp.read_text()) - started if stamp.is_file() else None,
        "stderr": (work / f"{tag}.stderr").read_text(),
    }
    if trace and trace_path.is_file():
        result["trace"] = json.loads(trace_path.read_text())
    return result


def measure_run(wl: Workload, work: Path, index: int, traced: bool, reference: dict | None,
                timeout: float) -> dict:
    """One checked CLI run of the workload."""
    out_dir = work / f"run{index}"
    rec = spawn(wl.argv(out_dir), work, f"run{index}", timeout, trace=traced)
    rec["traced"] = traced
    problems = []
    if rec["code"] != 0:
        problems.append(f"exit code {rec['code']}")
    if "Traceback (most recent call last)" in rec["stderr"]:
        problems.append("traceback on stderr")
    if not problems:
        try:
            problems += wl.check(out_dir)
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    if not problems:
        rec["digests"] = wl.digests(out_dir)
        if reference is not None and rec["digests"] != reference:
            problems.append("data files differ from the first run of this seed")
        rec["output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        if traced and "trace" not in rec:
            problems.append("traced run wrote no spans")
    rec["problems"] = problems
    if rec["stderr"] and problems:
        rec["stderr_tail"] = rec["stderr"][-2000:]
    del rec["stderr"]
    return rec


def oracle_check(seed: int, work: Path, time_left) -> dict:
    """Untimed: `kronred variance` on the companion grid against the oracle."""
    grid = work / "oracle_grid.json"
    write_grid(grid, synth_grid(seed, ORACLE_BUSES))
    out_dir = work / "oracle_out"
    rec = spawn(["variance", str(grid), "--out-dir", str(out_dir), "--seed", str(seed)],
                work, "oracle_cli", time_left())
    if rec["code"] != 0:
        return {"problems": [f"`kronred variance` on the companion grid: exit code {rec['code']}"],
                "stderr_tail": rec["stderr"][-2000:]}
    try:
        rec = oracle_deviation(grid, out_dir / "variance.csv")
    except Exception as exc:  # the package under test raised: a failed check, not a crash
        return {"problems": [f"oracle check: {type(exc).__name__}: {exc}"]}
    rec["problems"] = ([] if rec["rel_err"] <= ORACLE_REL_TOL else
                       [f"closed form deviates from the oracle by {rec['rel_err']:.3e} relative"])
    return rec


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not the top of a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != REPO:
        return None
    return lines[1]


def machine_record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "load": "one process runs one CLI subprocess at a time",
        "not_controlled": "CPU frequency scaling and other load on the host",
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for one seed; returns the run record."""
    began = time.monotonic()

    def time_left() -> float:
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - began))

    work = REPO / ".perfbench_run" / f"{name}-{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = Workload(name, REPO, work, seed)
        wl.prepare()
        # Untimed: fills the byte-code and file caches, which a user's
        # repeated runs find warm too.
        spawn(["--version"], work, "warmup", time_left())

        def setup_sample() -> None:
            sample = spawn(["--version"], work, f"setup{len(setup)}", time_left())["setup_s"]
            if sample is not None:
                setup.append(sample)

        runs: list[dict] = []
        setup: list[float] = []
        reference = None
        deadline = time.monotonic() + seconds
        while True:
            traced = trace and len(runs) % 2 == 1
            rec = measure_run(wl, work, len(runs), traced, reference, time_left())
            runs.append(rec)
            if rec["setup_s"] is not None:
                setup.append(rec["setup_s"])
            if reference is None and not rec["problems"]:
                reference = rec["digests"]
            # While fewer than MIN_SETUP_SAMPLES set-up samples are in
            # hand, take one more after each CLI run, so that they spread
            # over the window; the window is extended by the time they take.
            if len(setup) < MIN_SETUP_SAMPLES:
                extra_began = time.monotonic()
                setup_sample()
                deadline += time.monotonic() - extra_began
            now = time.monotonic()
            typical = _median(r["wall_s"] for r in runs)
            if len(runs) >= MIN_RUNS and now + typical > deadline:
                break
        for _ in range(MIN_SETUP_SAMPLES - len(setup)):
            setup_sample()
        oracle = oracle_check(seed, work, time_left) if name == "synth-analysis" else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in runs if not r["traced"]]
    traced_runs = [r for r in runs if r["traced"]]
    end_to_end = {
        "wall_s": _median(r["wall_s"] for r in plain),
        "setup_s": _median(setup),
        "cpu_s": _median(r["cpu_s"] for r in plain),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
    }
    per_layer = {}
    if trace:
        good = [r for r in traced_runs if not r["problems"]]
        layers = [layer_metrics(r["trace"]["spans"]) for r in good]
        per_layer = {m: _median(lm[m] for lm in layers) for m in layer_metrics([])}
        per_layer["cli.output_bytes"] = _median(r["output_bytes"] for r in good)
        per_layer["variance.oracle_s"] = (oracle or {}).get("oracle_s", 0.0)
        per_layer["variance.oracle_dim"] = (oracle or {}).get("oracle_dim", 0)
        per_layer["trace.overhead_s"] = (_median(r["wall_s"] for r in traced_runs)
                                         - end_to_end["wall_s"])
    for r in runs:
        r["trace_missing"] = r.pop("trace", {}).get("missing")

    attempted = len(runs) + (oracle is not None)
    failed = sum(bool(r["problems"]) for r in runs) + bool(oracle and oracle["problems"])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_record(), "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "digests": reference,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "setup_samples_s": setup, "oracle_check": oracle, "runs": runs,
    }
    results = REPO / ".perfbench_results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def print_summary(record: dict, spec: dict) -> None:
    """Human-readable report: checks, digests and every metric with its unit."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"machine {json.dumps(record['machine'])}")
    for r in record["runs"]:
        for p in r["problems"]:
            print(f"FAIL run: {p}")
    oracle = record["oracle_check"] or {}
    for p in oracle.get("problems", []):
        print(f"FAIL oracle check: {p}")
    if "rel_err" in oracle:
        print(f"oracle check: closed form vs Lyapunov oracle {oracle['rel_err']:.3e} relative "
              f"(dim {oracle['oracle_dim']}, {oracle['oracle_s']:.3f} s)")
    missing = sorted({m for r in record["runs"] for m in r["trace_missing"] or ()})
    if missing:
        print(f"WARNING trace: no such function to wrap, layer reads 0: {missing}")
    for file, digest in (record["digests"] or {}).items():
        print(f"sha256 {file} {digest}")
    print(f"fail_frac = {record['fail_frac']} ratio "
          f"({record['failed']} of {record['attempted']} attempted)")
    values = {**record["end_to_end"], **record["per_layer"]}
    for m in spec["end_to_end"] + (spec["per_layer"] if record["trace"] else []):
        print(f"{m['name']} = {values[m['name']]} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*DATA_FILES, "all"),
                    help="a workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    # BENCHMARK.json names the metrics to report, with their units.
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    if not (REPO / "src" / "kronred" / "cli.py").is_file():
        print(f"error: no kronred sources under {REPO / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if not (REPO / "tests" / "data" / "ieee118.m").is_file():
        print("error: tests/data/ieee118.m is missing", file=sys.stderr)
        return 2

    names = tuple(DATA_FILES) if args.workload == "all" else (args.workload,)
    group = "per_layer" if args.trace else "end_to_end"
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(record, spec)
        correct = correct and record["failed"] == 0
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + m["name"]: {"value": record[group][m["name"]], "unit": m["unit"]}
                        for m in spec[group]})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
