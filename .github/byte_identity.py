"""Byte identity of kronred's outputs between two checkouts.

Runs one fixed list of command lines with each tree's `src/` first on
PYTHONPATH and prints a Markdown table of the sha256 digest of every
data file and of every command's stdout, on both sides, marked equal or
differs.  The list covers every command and all four models, on
tests/data/ieee118.m and on the five-bus JSON grid tests/data/five_bus.json
(its full models also at epsilon = 0.3, where the fast buses' inertia and
damping are scaled), `simulate` of full-linear on ieee118 at epsilon = 0.001
(its stiff fast modes, stepped in the modes of the full Jacobian) and at
epsilon = 1e-6 with --dt 0.01 (modes stiffer still, whose roundoff sets
the uniform mode's eigenvalue; the default dt there would exceed
MAX_STEPS),
`variance` on both grids also with --order-by-naive, four variants of the
five-bus grid: every bus slow (m 0.2, d 0.05; `reduce` and `variance`, the
reduction with no fast bus), bus 1 at m = 0.3 (a compare of all four
models, whose non-uniform damping ratio omits the analytic columns and
steps every linear model by its dense maps, and a `simulate` of
reduced-xi, whose kept trajectory comes from those maps), bus 1 at
m = 0.3, d = 0.075 (`variance` and a compare
of all four models, a uniform damping ratio with unequal inertia) and the
slow bus 3 and the fast bus 5 at tau = 0.3, the fast bus 4 at tau = 0.05
(`variance` and a compare of all four models: two tau in each noise class,
one of them shared, so the closed form's loop over tau builds a kernel that
weights both classes and a Gamma per fast tau), plus the three benchmark
workloads at seed 3 and `reduce` on the benchmark's seed-3 grids, when the
head tree's perfbench/workloads.py can write their inputs: the oracle grid
(synth_grid(3, ORACLE_BUSES): 500 buses, mostly fast, with a core of 114
fast buses left after the eliminations, one diagonal block, whose
reduced.json pins J_red, K and Sigma_xi to the last bit through the
eliminations and the core factor) and the 2000-bus grid (synth_grid(3,
SYNTH_BUSES), whose core of 477 fast buses is the case above one diagonal
block: it spans four 128-row blocks, so its reduced.json pins K through
both sweeps of the blocked triangular solve).  Both trees read the same
input files, the head tree's.  Manifests are left out: they record
durations and paths.  Where a digest differs, the table also gives the
largest deviation over the numbers of a CSV or JSON data file taken in
file order, when both sides hold the same count of numbers ("—"
otherwise, and for stdout), twice: relative to the number itself,
|head - base| / max(|head|, |base|), and relative to its column,
|head - base| / the largest |value| of that number's CSV column, or of
its JSON top-level key, on either side.  The second tells roundoff from
drift: a number near 0 in a column of large ones can move far relative to
itself and not at all relative to the column.

It reports and does not fail: a declared behaviour change may move
bytes.  Usage:

    python .github/byte_identity.py BASE_TREE HEAD_TREE >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MODELS = ("reduced-xi", "reduced-naive", "full-linear", "full-nonlinear")


def command_lines(inputs: Path, head: Path) -> dict[str, list[str]]:
    """Label -> kronred argv (without --out-dir), input files written into ``inputs``."""
    ieee = inputs / "ieee118.m"
    ieee.write_bytes((head / "tests" / "data" / "ieee118.m").read_bytes())
    grid = inputs / "grid.json"
    grid.write_bytes((head / "tests" / "data" / "five_bus.json").read_bytes())
    runs = {"star-demo": ["star-demo"],
            "star-demo-fast": ["star-demo", "--center", "fast"]}
    for name, path in (("ieee118", ieee), ("json", grid)):
        runs[f"{name}-reduce"] = ["reduce", str(path)]
        runs[f"{name}-variance"] = ["variance", str(path)]
        runs[f"{name}-variance-order-by-naive"] = ["variance", str(path), "--order-by-naive"]
        for model in MODELS:
            runs[f"{name}-simulate-{model}"] = ["simulate", str(path), "--model", model,
                                                "--ensemble", "3", "--t-end", "20", "--seed", "3"]
        runs[f"{name}-compare"] = ["compare", str(path), "--models", ",".join(MODELS),
                                   "--ensemble", "2", "--t-end", "20", "--seed", "3"]
    for model in ("full-linear", "full-nonlinear"):
        runs[f"json-simulate-{model}-eps0.3"] = ["simulate", str(grid), "--model", model,
                                                 "--epsilon", "0.3", "--ensemble", "3",
                                                 "--t-end", "20", "--seed", "3"]
    runs["ieee118-simulate-full-linear-eps0.001"] = ["simulate", str(ieee), "--model",
                                                     "full-linear", "--epsilon", "0.001",
                                                     "--ensemble", "3", "--t-end", "20",
                                                     "--seed", "3"]
    runs["ieee118-simulate-full-linear-eps1e-06"] = ["simulate", str(ieee), "--model",
                                                     "full-linear", "--epsilon", "1e-6", "--dt",
                                                     "0.01", "--ensemble", "3", "--t-end", "20",
                                                     "--seed", "3"]
    doc = json.loads(grid.read_text())
    all_slow = inputs / "grid_all_slow.json"
    all_slow.write_text(json.dumps({**doc, "buses": [
        {**bus, "class": "slow", "m": 0.2, "d": 0.05} for bus in doc["buses"]]}))
    runs["json-all-slow-reduce"] = ["reduce", str(all_slow)]
    runs["json-all-slow-variance"] = ["variance", str(all_slow)]
    hetero = inputs / "grid_hetero.json"
    hetero.write_text(json.dumps({**doc, "buses": [
        {**doc["buses"][0], "m": 0.3}, *doc["buses"][1:]]}))
    runs["json-hetero-compare"] = ["compare", str(hetero), "--models", ",".join(MODELS),
                                   "--ensemble", "2", "--t-end", "20", "--seed", "3"]
    runs["json-hetero-simulate-reduced-xi"] = ["simulate", str(hetero), "--model", "reduced-xi",
                                               "--ensemble", "3", "--t-end", "20", "--seed", "3"]
    ratio = inputs / "grid_ratio.json"
    ratio.write_text(json.dumps({**doc, "buses": [
        {**doc["buses"][0], "m": 0.3, "d": 0.075}, *doc["buses"][1:]]}))
    runs["json-ratio-variance"] = ["variance", str(ratio)]
    runs["json-ratio-compare"] = ["compare", str(ratio), "--models", ",".join(MODELS),
                                  "--ensemble", "2", "--t-end", "20", "--seed", "3"]
    taus = inputs / "grid_taus.json"  # tau 0.1 and 0.3 slow, 0.05 and 0.3 fast
    taus.write_text(json.dumps({**doc, "buses": [
        {**bus, "tau": {3: 0.3, 4: 0.05, 5: 0.3}.get(bus["id"], bus["tau"])}
        for bus in doc["buses"]]}))
    runs["json-taus-variance"] = ["variance", str(taus)]
    runs["json-taus-compare"] = ["compare", str(taus), "--models", ",".join(MODELS),
                                 "--ensemble", "2", "--t-end", "20", "--seed", "3"]
    try:
        sys.path.insert(0, str(head / "perfbench"))
        from workloads import ORACLE_BUSES, SYNTH_BUSES, Workload, synth_grid, write_grid
        for label, buses in (("oracle", ORACLE_BUSES), ("synth", SYNTH_BUSES)):
            path = inputs / f"{label}_grid.json"
            write_grid(path, synth_grid(3, buses))
            runs[f"bench-{label}-grid-reduce"] = ["reduce", str(path)]
        for name in ("ieee118-compare", "star-nonlinear", "synth-analysis"):
            work = inputs / name
            work.mkdir()
            workload = Workload(name, head, work, 3)
            workload.prepare()
            argv = workload.argv(Path("OUT"))
            i = argv.index("--out-dir")
            runs[f"bench-{name}"] = argv[:i] + argv[i + 2:]
    except (ImportError, AttributeError, TypeError, ValueError, OSError) as e:
        # a benchmark change may rename what is used here
        print(f"benchmark workloads left out: {e!r}\n")
    return runs


def run_tree(tree: Path, runs: dict[str, list[str]], out: Path) -> dict[str, str]:
    """File label -> sha256 of every data file and stdout the runs leave."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    where = subprocess.run([sys.executable, "-c", "import kronred; print(kronred.__file__)"],
                           env=env, capture_output=True, text=True).stdout.strip()
    if not Path(where).resolve().is_relative_to((tree / "src").resolve()):
        return {"(import)": f"kronred imported from {where or 'nowhere'}"}
    digests = {}
    for label, argv in runs.items():
        out_dir = out / label
        done = subprocess.run([sys.executable, "-m", "kronred.cli", *argv,
                               "--out-dir", str(out_dir)], env=env, capture_output=True)
        digests[f"{label}/stdout"] = (f"exit {done.returncode}" if done.returncode
                                      else hashlib.sha256(done.stdout).hexdigest())
        for path in sorted(out_dir.glob("*")) if out_dir.is_dir() else []:
            if not path.name.startswith("manifest_"):
                digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def numbers(path: Path) -> list[tuple[object, float]] | None:
    """Every number of a CSV or JSON data file, in file order, each with
    its column: its CSV column's index, or its JSON document's top-level
    key; None for any other file or a missing one."""
    if path.suffix not in (".csv", ".json") or not path.is_file():
        return None
    found: list[tuple[object, float]] = []
    if path.suffix == ".json":
        def walk(column, node):
            if isinstance(node, float):
                found.append((column, node))
            elif isinstance(node, (dict, list)):
                for child in node.values() if isinstance(node, dict) else node:
                    walk(column, child)
        doc = json.loads(path.read_text(), parse_float=float, parse_int=float,
                         parse_constant=float)
        for column, node in doc.items() if isinstance(doc, dict) else [(None, doc)]:
            walk(column, node)
        return found
    with path.open(newline="") as f:
        for row in csv.reader(f):
            for column, cell in enumerate(row):
                try:
                    found.append((column, float(cell)))
                except ValueError:  # a header or an empty cell
                    pass
    return found


def max_deviations(base: Path, head: Path) -> tuple[str, str]:
    """Largest |head - base| over the two files' numbers paired in order,
    divided by max(|head|, |base|) of the pair, and by the largest |value|
    of the pair's column on either side: 0 for equal numbers (two NaNs
    included), inf where one is not finite and the other differs; "—"
    unless both files parse to the same count of numbers (and, for the
    second, the same columns)."""
    a, b = numbers(base), numbers(head)
    if a is None or b is None or len(a) != len(b):
        return "—", "—"
    same_columns = [c for c, _ in a] == [c for c, _ in b]
    scale: dict[object, float] = {}
    for column, x in a + b:
        scale[column] = max(scale.get(column, 0.0), abs(x))
    worst = [0.0, 0.0]
    for (column, x), (_, y) in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        diff = abs(y - x)  # then 0 < max(|x|, |y|) <= the column's scale, unless not finite
        for k, by in enumerate((max(abs(x), abs(y)), scale[column])):
            worst[k] = max(worst[k], diff / by if math.isfinite(diff) else math.inf)
    return f"{worst[0]:.1e}", f"{worst[1]:.1e}" if same_columns else "—"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (Path(tree).resolve() for tree in argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        runs = command_lines(tmp / "inputs", head)
        sides = [run_tree(tree, runs, tmp / side) for side, tree in (("base", base), ("head", head))]
        files = sorted(set(sides[0]) | set(sides[1]))
        rows = []
        for f in files:
            a, b = (side.get(f, "missing") for side in sides)
            rows.append(f"| `{f}` | `{a}` | `{b}` | " + ("equal | | |" if a == b else
                        "**differs** | {} | {} |".format(
                            *max_deviations(tmp / "base" / f, tmp / "head" / f))))
    equal = sum(sides[0].get(f) == sides[1].get(f) for f in files)
    print("### Byte identity against the base commit\n")
    print(f"{equal} of {len(files)} outputs equal, {len(runs)} command lines.\n")
    print("| output | base sha256 | head sha256 | | max rel. deviation | per column |\n"
          "|---|---|---|---|---|---|")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
