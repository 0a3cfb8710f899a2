"""Fuzzed input at the CLI boundary: grid JSON documents, MATPOWER text,
the raw bytes of grid files and the numeric command-line flags.

Whatever the input, `kronred` must finish with exit code 0, 2 or 3 and
never with an uncaught exception (a traceback).  Examples are
derandomized, few and small (tiny grids, --t-end at most 0.3 s), so the
suite's time stays flat.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronred.cli import main
from test_grid import THREE_BUS_CASE

FUZZ_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

BASE_GRID = {
    "buses": [
        {"id": 1, "class": "slow", "m": 0.2, "d": 0.05, "p": 0.1, "sigma": 0.01, "tau": 0.1},
        {"id": 2, "class": "fast", "m": 0.002, "d": 0.0005, "p": -0.05, "sigma": 0.02,
         "tau": 0.1},
        {"id": 3, "class": "slow", "m": 0.2, "d": 0.05, "p": -0.05, "sigma": 0.01, "tau": 0.1},
    ],
    "lines": [{"from": 1, "to": 2, "B": 1.0}, {"from": 2, "to": 3, "B": 1.5},
              {"from": 3, "to": 1, "B": 0.8}],
}
FIELDS = {"buses": ["id", "class", "m", "d", "p", "sigma", "tau", "v"],
          "lines": ["from", "to", "B"]}

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.sampled_from([0, -1, 1, 2, 4, 10**400, -10**400, 1e-300, 1e300]),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=4),
              st.sampled_from(["slow", "fast"])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)


def run_cli(argv):
    """Exit code of one in-process `kronred` run; output is discarded.

    argparse usage errors end in SystemExit, whose code is the exit
    code; any other exception propagates and fails the test.
    """
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as e:
            return e.code


def run_on_file(name, content, argv):
    """Exit code of `kronred` run on ``content`` (text or bytes) saved as ``name``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        return run_cli([argv[0], str(path), "--out-dir", tmp, *argv[1:]])


@st.composite
def grid_documents(draw):
    """The base grid with one to three fields set to arbitrary JSON
    values, deleted, or added."""
    doc = copy.deepcopy(BASE_GRID)
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(sorted(FIELDS)))
        item = doc[section][draw(st.integers(0, len(doc[section]) - 1))]
        key = draw(st.sampled_from(FIELDS[section] + ["extra"]))
        if draw(st.booleans()):
            item[key] = draw(json_values)
        else:
            item.pop(key, None)
    return json.dumps(doc)


def _with_field(section, key, value):
    doc = copy.deepcopy(BASE_GRID)
    doc[section][0][key] = value
    return json.dumps(doc)


@FUZZ_SETTINGS
@given(text=grid_documents(), command=st.sampled_from(["reduce", "variance"]))
@example(text=_with_field("buses", "m", 10**400), command="variance")
@example(text=_with_field("lines", "B", 10**400), command="variance")
@example(text=json.dumps(BASE_GRID).replace('"p": 0.1', '"p": 1' + "0" * 5000),
         command="reduce")
def test_grid_json_documents(text, command):
    assert run_on_file("grid.json", text, [command]) in (0, 2, 3)


NUMERIC_TOKENS = st.one_of(
    st.sampled_from(["0", "-1", "1", "2", "3", "4", "nan", "inf", "-inf", "1e400", "1e-300",
                     "0.5", "-0"]),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.integers(-5, 5).map(str),
)


def _case_tables():
    tables = {}
    for name in ("bus", "gen", "branch"):
        body = re.search(rf"mpc\.{name} = \[(.*?)\];", THREE_BUS_CASE, re.DOTALL).group(1)
        tables[name] = [row.split() for row in body.split(";") if row.strip()]
    return tables


@st.composite
def matpower_texts(draw):
    """The three-bus case with an arbitrary baseMVA and one to four edits:
    a numeric token replaced, removed or inserted, a row removed, or a
    row of arbitrary tokens appended."""
    tables = _case_tables()
    for _ in range(draw(st.integers(1, 4))):
        rows = tables[draw(st.sampled_from(sorted(tables)))]
        action = draw(st.sampled_from(["replace", "remove", "insert", "drop row", "add row"]))
        if action == "add row":
            width = draw(st.sampled_from([2, 4, 9, 11, 13]))
            rows.append(draw(st.lists(NUMERIC_TOKENS, min_size=width, max_size=width)))
            continue
        if not rows:
            continue
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if action == "drop row":
            rows.remove(row)
        elif action == "insert":
            row.insert(draw(st.integers(0, len(row))), draw(NUMERIC_TOKENS))
        elif row:
            i = draw(st.integers(0, len(row) - 1))
            if action == "replace":
                row[i] = draw(NUMERIC_TOKENS)
            else:
                del row[i]
    base_mva = draw(st.one_of(st.just("100"), NUMERIC_TOKENS, st.sampled_from(["e", "+", "."])))
    text = ["function mpc = case3", f"mpc.baseMVA = {base_mva};"]
    for name, rows in tables.items():
        text += [f"mpc.{name} = ["] + [" " + " ".join(row) + ";" for row in rows] + ["];"]
    return "\n".join(text) + "\n"


@FUZZ_SETTINGS
@given(text=matpower_texts(), command=st.sampled_from(["reduce", "variance"]))
def test_matpower_texts(text, command):
    assert run_on_file("case.m", text, [command]) in (0, 2, 3)


@st.composite
def mutated_grid_bytes(draw):
    """The base grid's JSON or the three-bus case, with one to four bytes
    replaced, inserted or deleted."""
    data = bytearray(draw(st.sampled_from([json.dumps(BASE_GRID).encode(),
                                           THREE_BUS_CASE.encode()])))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data) - 1))
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        if action == "delete":
            del data[i]
        elif action == "insert":
            data.insert(i, draw(st.integers(0, 255)))
        else:
            data[i] = draw(st.integers(0, 255))
    return bytes(data)


@FUZZ_SETTINGS
@given(data=mutated_grid_bytes(), suffix=st.sampled_from([".json", ".m"]),
       command=st.sampled_from(["reduce", "variance"]))
@example(data=b"\xff" + json.dumps(BASE_GRID).encode(), suffix=".json", command="reduce")
def test_grid_file_bytes(data, suffix, command):
    assert run_on_file(f"grid{suffix}", data, [command]) in (0, 2, 3)


FLOAT_FLAGS = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]),
    st.floats(min_value=1e-4, max_value=10.0),
).map(repr)
SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64, 2**70])).map(str)


def optional(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def simulation_flags(draw):
    """Numeric flags of `simulate`/`compare`; time grids stay below a
    few thousand steps, so every example runs in well under a second."""
    flags = [
        optional("--t-end", st.one_of(st.sampled_from([0.0, -1.0, math.nan, math.inf]),
                                      st.floats(1e-3, 0.3)).map(repr)),
        optional("--dt", st.one_of(st.sampled_from([0.0, -0.01, 1e-300, math.nan, math.inf]),
                                   st.floats(1e-3, 1.0)).map(repr)),
        optional("--burn-in", st.one_of(st.sampled_from([-1.0, math.nan, 0.0]),
                                        st.floats(0.0, 0.3)).map(repr)),
        optional("--epsilon", FLOAT_FLAGS),
        optional("--ensemble", st.integers(-1, 3).map(str)),
        optional("--seed", SEEDS),
    ]
    argv = ["--t-end", "0.1"]  # default 200 s is too long here; later flags override
    for f in flags:
        argv += draw(f)
    return argv


@FUZZ_SETTINGS
@given(flags=simulation_flags(), decimate=st.integers(-1, 3),
       model=st.sampled_from(["full-nonlinear", "full-linear", "reduced-xi", "reduced-naive"]))
@example(flags=["--t-end", "0.1", "--seed", str(2**64)], decimate=1, model="reduced-xi")
def test_simulate_numeric_flags(flags, decimate, model):
    argv = ["simulate", "--model", model, "--decimate", str(decimate), *flags]
    assert run_on_file("grid.json", json.dumps(BASE_GRID), argv) in (0, 2, 3)


@FUZZ_SETTINGS
@given(flags=simulation_flags())
def test_compare_numeric_flags(flags):
    argv = ["compare", "--models", "reduced-xi,reduced-naive,full-linear", *flags]
    assert run_on_file("grid.json", json.dumps(BASE_GRID), argv) in (0, 2, 3)


@FUZZ_SETTINGS
@given(command=st.sampled_from(["reduce", "variance"]), seed=SEEDS,
       values=st.lists(FLOAT_FLAGS, min_size=5, max_size=5),
       lo=FLOAT_FLAGS, hi=FLOAT_FLAGS)
@example(command="reduce", seed="0", values=["0.2"] * 5, lo="0.0", hi="nan")
def test_case_file_numeric_flags(command, seed, values, lo, hi):
    argv = [command, "--seed", seed, "--sigma-dist", f"uniform:{lo}:{hi}"]
    for name, v in zip(("--slow-m", "--slow-d", "--fast-m", "--fast-d", "--tau"), values):
        argv += [name, v]
    assert run_on_file("case.m", THREE_BUS_CASE, argv) in (0, 2, 3)


@FUZZ_SETTINGS
@given(n_outer=st.integers(-1, 12), center=st.sampled_from(["slow", "fast"]),
       values=st.lists(FLOAT_FLAGS, min_size=5, max_size=5))
@example(n_outer=2, center="fast", values=["0.0", "1e+300", "1e-300", "1e-300", "1.0"])
@example(n_outer=2, center="slow", values=["1e+300", "1e-300", "1e-300", "1e-300", "1e+300"])
@example(n_outer=2, center="slow", values=["0.01", "0.1", "0.2", "0.05", "1e+300"])
@example(n_outer=2, center="fast", values=["0.01", "0.1", "0.2", "0.05", "1e+300"])
def test_star_demo_numeric_flags(n_outer, center, values):
    argv = ["star-demo", "--n-outer", str(n_outer), "--center", center]
    for name, v in zip(("--sigma", "--tau", "--m", "--d", "--b"), values):
        argv += [name, v]
    with tempfile.TemporaryDirectory() as tmp:
        assert run_cli([*argv, "--out-dir", tmp]) in (0, 2, 3)
