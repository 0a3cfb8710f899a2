"""Byte identity of kronred's outputs between two checkouts.

Runs one fixed list of command lines with each tree's `src/` first on
PYTHONPATH and prints a Markdown table of the sha256 digest of every
data file and of every command's stdout, on both sides, marked equal or
differs.  The list covers every command and all four models, on
tests/data/ieee118.m and on the five-bus JSON grid tests/data/five_bus.json
(its full models also at epsilon = 0.3, where the fast buses' inertia and
damping are scaled, and a compare of all four models at theta = 1.0,
backward Euler), `variance` on both grids also with --order-by-naive,
two variants of the five-bus grid: every bus slow (m 0.2, d 0.05; `reduce`
and `variance`, the reduction with no fast bus) and bus 1 at m = 0.3 (a
compare of all four models, whose heterogeneous parameters omit the
analytic columns), plus the three benchmark workloads at seed 3 and
`reduce` on the benchmark's seed-3 oracle grid (synth_grid(3, ORACLE_BUSES):
500 buses, mostly fast, whose reduced.json pins J_red, K and Sigma_xi to
the last bit where the reduction's N_F x N_F buffers matter) when the
head tree's perfbench/workloads.py can write their inputs.  Both trees read the same
input files, the head tree's.  Manifests are left out: they record
durations and paths.

It reports and does not fail: a declared behaviour change may move
bytes.  Usage:

    python .github/byte_identity.py BASE_TREE HEAD_TREE >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import hashlib
import json
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
    runs["json-compare-theta1.0"] = ["compare", str(grid), "--models", ",".join(MODELS),
                                     "--theta", "1.0", "--ensemble", "2", "--t-end", "20",
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
    try:
        sys.path.insert(0, str(head / "perfbench"))
        from workloads import ORACLE_BUSES, Workload, synth_grid, write_grid
        oracle = inputs / "oracle_grid.json"
        write_grid(oracle, synth_grid(3, ORACLE_BUSES))
        runs["bench-oracle-grid-reduce"] = ["reduce", str(oracle)]
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
    equal = sum(sides[0].get(f) == sides[1].get(f) for f in files)
    print("### Byte identity against the base commit\n")
    print(f"{equal} of {len(files)} outputs equal, {len(runs)} command lines.\n")
    print("| output | base sha256 | head sha256 | |\n|---|---|---|---|")
    for f in files:
        a, b = (side.get(f, "missing") for side in sides)
        print(f"| `{f}` | `{a}` | `{b}` | {'equal' if a == b else '**differs**'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
