"""CLI surface: commands, file outputs, exit codes, reproducibility."""

import csv
import errno
import importlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kronred.grid
from kronred.cli import main
from kronred.errors import NumericsError
from kronred.grid import parse_grid_json, serialize_grid_json
from kronred.reduction import make_star_grid
from kronred.simulate import MODELS, SimConfig, member_seed, run_model_ensemble
from conftest import DATA_DIR, make_grid, random_connected_grid
from kronred.grid import FAST, SLOW
from test_grid import THREE_BUS_CASE

TWO_BUS = """{
  "buses": [
    {"id": 1, "class": "slow", "m": 0.2, "d": 0.05, "p": 0.0, "sigma": 0.01, "tau": 0.1},
    {"id": 2, "class": "fast", "m": 0.2, "d": 0.05, "p": 0.0, "sigma": 0.02, "tau": 0.1}
  ],
  "lines": [{"from": 1, "to": 2, "B": 1.0}]
}"""

DISCONNECTED = """{
  "buses": [
    {"id": 1, "class": "slow", "m": 0.2, "d": 0.05, "p": 0.0, "sigma": 0.01, "tau": 0.1},
    {"id": 2, "class": "fast", "m": 0.2, "d": 0.05, "p": 0.0, "sigma": 0.01, "tau": 0.1},
    {"id": 3, "class": "fast", "m": 0.2, "d": 0.05, "p": 0.0, "sigma": 0.01, "tau": 0.1}
  ],
  "lines": [{"from": 1, "to": 2, "B": 1.0}]
}"""


def write_grid(tmp_path, text, name="grid.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def homogeneous_grid_file(tmp_path, sigma_slow=0.01, sigma_fast=0.02):
    grid = make_grid(
        [(1, SLOW, 0.0, sigma_slow), (2, SLOW, 0.0, sigma_slow), (3, SLOW, 0.0, sigma_slow),
         (4, FAST, 0.0, sigma_fast), (5, FAST, 0.0, sigma_fast)],
        [(1, 2, 1.0), (2, 3, 1.5), (3, 4, 1.0), (4, 5, 0.8), (5, 1, 1.2)])
    return write_grid(tmp_path, serialize_grid_json(grid))


def count_simulation_runs(monkeypatch):
    """The models of every simulation run the CLI starts, one list per run."""
    import kronred.cli
    runs = []
    run_models = kronred.cli.run_models

    def counted(grid, op, red, cfg, models, **kwargs):
        runs.append(list(models))
        return run_models(grid, op, red, cfg, models, **kwargs)
    monkeypatch.setattr(kronred.cli, "run_models", counted)
    return runs


@pytest.mark.parametrize("argv,models", [
    (["simulate", "--model", "full-nonlinear"], [["full-nonlinear"]]),
    (["compare", "--models", "reduced-xi,full-nonlinear"], [["reduced-xi", "full-nonlinear"]]),
])
def test_simulation_run_counter_fires(tmp_path, monkeypatch, argv, models):
    # the control of the refusal tests' counter: a valid command line
    # reaches the simulation, one run for all its models
    runs = count_simulation_runs(monkeypatch)
    grid = homogeneous_grid_file(tmp_path)
    assert main([argv[0], grid, *argv[1:], "--t-end", "1", "--burn-in", "0.5",
                 "--ensemble", "1", "--out-dir", str(tmp_path)]) == 0
    assert runs == models


def overflowing_star_file(tmp_path):
    # sigma^2 = 1e308 and its noise covariances are finite; the slow
    # amplitudes times the kernel are not
    return write_grid(tmp_path, serialize_grid_json(make_star_grid(8, "fast", sigma=1e154)))


@pytest.mark.parametrize("command", ["variance", "compare", "star-demo"])
def test_coi_variance_overflow_is_input_error(tmp_path, capsys, command):
    if command == "star-demo":
        argv = ["star-demo", "--sigma", "1e154", "--center", "fast"]
    else:
        argv = [command, overflowing_star_file(tmp_path)]
        argv += ["--t-end", "1"] if command == "compare" else []
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "COI variance overflows" in captured.err and "hint" not in captured.err
    assert captured.out == ""  # nothing printed: no partial table, no rank summary
    assert not list(tmp_path.glob("*.csv"))


def test_failed_command_writes_nothing(tmp_path, capsys, monkeypatch):
    import kronred.cli

    def fail(*args):
        raise NumericsError("eigendecomposition failed")
    monkeypatch.setattr(kronred.cli, "eigendecompose_reduced", fail)
    out = tmp_path / "out"
    assert main(["reduce", write_grid(tmp_path, TWO_BUS), "--out-dir", str(out)]) == 3
    assert "eigendecomposition failed" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("phase", ["coi_variance", "_write_file"])
def test_out_of_memory_is_input_error(tmp_path, capsys, monkeypatch, phase):
    # an allocation that fails in the command, or while its files are
    # written, exits 2 with no traceback and leaves no file
    import kronred.cli

    def fail(*args):
        raise MemoryError
    monkeypatch.setattr(kronred.cli, phase, fail)
    out = tmp_path / "out"
    assert main(["variance", homogeneous_grid_file(tmp_path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "input error: not enough memory for this request\n" and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                   MemoryError()])
def test_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch, error):
    # the second file fails: the first, already renamed into --out-dir, goes too
    import kronred.cli
    calls = []
    write = kronred.cli._write_file

    def fail_second(path, pieces):
        calls.append(path.name)
        if len(calls) == 2:
            raise error
        write(path, pieces)
    monkeypatch.setattr(kronred.cli, "_write_file", fail_second)
    out = tmp_path / "out"
    argv = ["compare", homogeneous_grid_file(tmp_path), "--t-end", "2", "--burn-in", "1",
            "--ensemble", "1", "--out-dir", str(out)]
    assert main(argv) == 2
    assert calls == ["compare.csv", "compare_plot.json"]
    assert "Traceback" not in capsys.readouterr().err
    assert not any(out.iterdir())


def test_json_is_written_in_small_pieces(tmp_path, monkeypatch):
    # reduced.json streams from the encoder: no piece is a large share of it
    import kronred.cli
    sizes = {}
    write = kronred.cli._write_file

    def measured(path, pieces):
        pieces = list(pieces)
        sizes[path.name] = (max(map(len, pieces)), sum(map(len, pieces)))
        write(path, pieces)
    monkeypatch.setattr(kronred.cli, "_write_file", measured)
    grid = write_grid(tmp_path, serialize_grid_json(make_star_grid(200, FAST)))
    out = tmp_path / "out"
    assert main(["reduce", grid, "--out-dir", str(out)]) == 0
    largest, total = sizes["reduced.json"]
    assert total == (out / "reduced.json").stat().st_size >= 2**20
    assert largest <= 0.01 * total


@pytest.mark.parametrize("command", ["reduce", "variance", "simulate", "compare", "star-demo"])
def test_manifest_lists_the_files_written(tmp_path, capsys, command):
    grid = homogeneous_grid_file(tmp_path)
    sim_flags = ["--t-end", "2", "--burn-in", "1", "--ensemble", "1"]
    argv = {"simulate": ["simulate", grid, "--model", "reduced-xi", *sim_flags],
            "compare": ["compare", grid, *sim_flags],
            "star-demo": ["star-demo"]}.get(command, [command, grid])
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 0
    name = f"manifest_{command.replace('-', '_')}.json"
    manifest = json.loads((out / name).read_text())
    assert sorted(manifest["outputs"]) == sorted(f.name for f in out.iterdir() if f.name != name)
    assert list(manifest["input_digests"]) == ([] if command == "star-demo" else [grid])


def test_files_get_the_mode_open_gives(tmp_path):
    out = tmp_path / "out"
    umask = os.umask(0o022)
    try:
        assert main(["reduce", write_grid(tmp_path, TWO_BUS), "--out-dir", str(out)]) == 0
    finally:
        os.umask(umask)
    assert {f.name: f.stat().st_mode & 0o777 for f in out.iterdir()} == {
        "reduced.json": 0o644, "manifest_reduce.json": 0o644}


@pytest.mark.parametrize("case", ["grid is a directory", "json grid not utf-8",
                                  "m grid not utf-8", "out-dir is a file",
                                  "out-dir under a file", "out-dir name too long",
                                  "grid name too long"])
def test_unreadable_grid_or_unusable_out_dir_exits_2(tmp_path, capsys, case):
    grid, out = tmp_path / "grid.json", tmp_path / "out"
    grid.write_text(TWO_BUS)
    if case == "grid is a directory":
        grid = tmp_path / "dir.json"
        grid.mkdir()
    elif case == "json grid not utf-8":
        grid.write_bytes(b"\xff" + TWO_BUS.encode())
    elif case == "m grid not utf-8":
        grid = tmp_path / "case3.m"
        grid.write_bytes(b"\xff" + THREE_BUS_CASE.encode())
    elif case == "out-dir is a file":
        out.write_text("")
    elif case == "out-dir name too long":  # a component above any file system's 255 bytes
        out = tmp_path / ("a" * 300) / "out"
    elif case == "grid name too long":
        grid = tmp_path / ("a" * 300 + ".json")
    else:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    assert main(["reduce", str(grid), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    named = out if case.startswith("out-dir") else grid
    assert captured.err.startswith("input error:") and str(named) in captured.err
    if case.startswith("out-dir"):  # refused before the command ran: it prints nothing
        assert captured.out == ""
    if case == "out-dir is a file":
        assert out.read_text() == ""
    if case == "out-dir name too long":
        assert os.listdir(tmp_path) == ["grid.json"]


@pytest.mark.parametrize("argv,message", [
    (["compare", "--burn-in", "300"], "need 0 <= burn_in < t_end"),
    (["simulate", "--model", "reduced-xi", "--epsilon", "2"], "epsilon must be in (0, 1]"),
    (["compare", "--epsilon", "2"], "epsilon must be in (0, 1]"),
    # without --dt the step is derived from epsilon, which is checked first
    (["simulate", "--model", "reduced-xi", "--epsilon", "0"], "epsilon must be in (0, 1]"),
    (["compare", "--epsilon", "-1"], "epsilon must be in (0, 1]"),
])
def test_bad_simulation_flags_refused_before_the_fixed_point(tmp_path, capsys, monkeypatch,
                                                            argv, message):
    import kronred.simulate

    def solve(*args):
        raise AssertionError("fixed point solved")
    monkeypatch.setattr(kronred.simulate, "solve_fixed_point", solve)
    out = tmp_path / "out"
    assert main([argv[0], str(DATA_DIR / "ieee118.m"), *argv[1:], "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate", "--model", "reduced-xi"], ["compare"]],
                         ids=["simulate", "compare"])
def test_theta_flag_removed(tmp_path, capsys, monkeypatch, command):
    # the drift step is the trapezoid only: --theta is an unknown argument
    import kronred.simulate

    def solve(*args):
        raise AssertionError("fixed point solved")
    monkeypatch.setattr(kronred.simulate, "solve_fixed_point", solve)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command[0], str(DATA_DIR / "ieee118.m"), *command[1:], "--theta", "1.0",
              "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --theta 1.0" in capsys.readouterr().err
    assert not out.exists()


class TestReduce:
    def test_two_bus_leaf(self, tmp_path, capsys):
        grid = write_grid(tmp_path, TWO_BUS)
        assert main(["reduce", grid, "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "reduced.json").read_text())
        assert doc["j_red"] == [[0.0]]
        assert doc["noise_gain"] == [[1.0]]
        out = capsys.readouterr().out
        assert "slow buses : 1" in out

    def test_disconnected_grid_exit_code(self, tmp_path, capsys):
        grid = write_grid(tmp_path, DISCONNECTED)
        assert main(["reduce", grid, "--out-dir", str(tmp_path)]) == 2
        assert "not connected" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["reduce", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        doc = json.loads(TWO_BUS)
        doc["buses"][0]["p"] = 1.5   # beyond the b=1 line capacity
        doc["buses"][1]["p"] = -1.5
        grid = write_grid(tmp_path, json.dumps(doc))
        assert main(["reduce", grid, "--out-dir", str(tmp_path)]) == 3
        assert "no fixed point" in capsys.readouterr().err

    def test_factor_breakdown_after_the_certificate_exit_code(self, tmp_path, capsys,
                                                             monkeypatch):
        # the certificate's core factorization succeeds and the unshifted
        # one breaks down: exit 3 with the gate's message, no traceback
        original, calls = np.linalg.cholesky, []

        def second_fails(a):
            calls.append(len(a))
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return original(a)
        monkeypatch.setattr(np.linalg, "cholesky", second_fails)
        out = tmp_path / "out"
        assert main(["reduce", write_grid(tmp_path, TWO_BUS), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "fast block not negative definite" in err and "Traceback" not in err
        assert calls == [0, 0]

    def test_format_flag_removed(self, tmp_path, capsys):
        grid = write_grid(tmp_path, TWO_BUS)
        with pytest.raises(SystemExit) as exc:
            main(["reduce", grid, "--out-dir", str(tmp_path), "--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["reduce", "variance"])
    def test_epsilon_flag_removed(self, tmp_path, capsys, command):
        grid = write_grid(tmp_path, TWO_BUS)
        with pytest.raises(SystemExit) as exc:
            main([command, grid, "--out-dir", str(tmp_path), "--epsilon", "0.5"])
        assert exc.value.code == 2

    def test_manifest_written(self, tmp_path):
        grid = write_grid(tmp_path, TWO_BUS)
        main(["reduce", grid, "--out-dir", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest_reduce.json").read_text())
        assert manifest["command"] == "reduce"
        assert manifest["version"]
        assert grid in manifest["input_digests"]
        assert manifest["outputs"] == ["reduced.json"]

    def test_ieee118_reduction(self, tmp_path, capsys):
        import shutil
        from conftest import DATA_DIR
        case = tmp_path / "ieee118.m"
        shutil.copy(DATA_DIR / "ieee118.m", case)
        assert main(["reduce", str(case), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "slow buses : 54" in out
        assert "fast buses : 64" in out


class TestVariance:
    def test_no_fast_noise_total_equals_naive(self, tmp_path):
        grid = homogeneous_grid_file(tmp_path, sigma_fast=0.0)
        assert main(["variance", grid, "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "variance.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            _, total, slow, fast, naive = row.split(",")
            assert float(total) == float(naive)
            assert float(fast) == 0.0

    def test_total_is_slow_plus_fast(self, tmp_path):
        grid = homogeneous_grid_file(tmp_path)
        main(["variance", grid, "--out-dir", str(tmp_path)])
        for row in (tmp_path / "variance.csv").read_text().strip().split("\n")[1:]:
            _, total, slow, fast, _ = row.split(",")
            assert float(total) == pytest.approx(float(slow) + float(fast), rel=1e-12)

    def test_heterogeneous_exits_advising_simulate(self, tmp_path, capsys):
        doc = json.loads(TWO_BUS)
        doc["buses"][1]["m"] = 0.002  # two slow classes... make both slow with unequal m
        doc["buses"][1]["class"] = "slow"
        grid = write_grid(tmp_path, json.dumps(doc))
        assert main(["variance", grid, "--out-dir", str(tmp_path)]) == 2
        assert "simulate" in capsys.readouterr().err

    @pytest.mark.parametrize("where,key,value", [
        ("buses", "sigma", float("nan")),
        ("buses", "p", float("nan")),
        ("lines", "B", float("inf")),
    ])
    def test_non_finite_json_value_is_input_error(self, tmp_path, capsys, where, key, value):
        doc = json.loads(TWO_BUS)
        doc["buses"][1]["class"] = "slow"
        doc[where][0][key] = value  # written as the JSON tokens NaN / Infinity
        grid = write_grid(tmp_path, json.dumps(doc))
        assert main(["variance", grid, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "must be finite" in err
        assert not (tmp_path / "variance.csv").exists()

    def test_grid_above_bus_limit_is_input_error(self, tmp_path, capsys, monkeypatch):
        grid = write_grid(tmp_path, serialize_grid_json(make_star_grid(8, "slow")))
        monkeypatch.setattr(kronred.grid, "MAX_BUSES", 8)
        out = tmp_path / "out"
        assert main(["variance", grid, "--out-dir", str(out)]) == 2
        assert "grid has 9 buses, above the limit of 8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row, bad_row, where", [
        (" 2 1 60 ", " 2 1 NaN ", "mpc.bus: PD (column 3) must be finite, got nan"),
        (" 1 100 0 ", " 1 Inf 0 ", "mpc.gen: PG (column 2) must be finite, got inf"),
    ], ids=["PD-nan", "PG-inf"])
    def test_non_finite_load_or_generation_is_input_error(self, tmp_path, capsys, row, bad_row,
                                                          where):
        case = write_grid(tmp_path, THREE_BUS_CASE.replace(row, bad_row), name="case3.m")
        out = tmp_path / "out"
        assert main(["variance", case, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"input error: {where}\n"
        assert not out.exists()

    def test_sigma_dist_overflowing_sigma_squared_is_input_error(self, tmp_path, capsys):
        case = write_grid(tmp_path, THREE_BUS_CASE, name="case3.m")
        assert main(["variance", case, "--sigma-dist", "uniform:0:1e300",
                     "--out-dir", str(tmp_path)]) == 2
        assert "sigma^2 must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["variance", "compare"])
    def test_gamma_overflow_is_input_error(self, tmp_path, capsys, command):
        # 8 loads, each tied to all 4 generators: K = 1/4, so sigma_xi holds
        # 8 sigma^2 / 16 but the uniform mode of Gamma 8 sigma^2 / 4 > max float.
        # Gamma is built before the homogeneity checks, so with one slow
        # bus's m changed it is still an input error, not the fallback to
        # simulation
        sigma = 1.26e154
        grid = make_grid([(i, SLOW, 0.0, 0.0) for i in range(1, 5)]
                         + [(i, FAST, 0.0, sigma) for i in range(5, 13)],
                         [(s, f, 1.0) for f in range(5, 13) for s in range(1, 5)])
        hetero = replace(grid, buses=(replace(grid.buses[0], m=0.3), *grid.buses[1:]))
        for case in (grid, hetero):
            path = write_grid(tmp_path, serialize_grid_json(case))
            assert main([command, path, "--t-end", "1", "--out-dir", str(tmp_path)]
                        if command == "compare" else [command, path, "--out-dir", str(tmp_path)]) == 2
            captured = capsys.readouterr()
            assert "Gamma overflows" in captured.err
            assert "hint" not in captured.err and "heterogeneous" not in captured.out

    def test_order_by_naive(self, tmp_path):
        grid = homogeneous_grid_file(tmp_path)
        main(["variance", grid, "--out-dir", str(tmp_path), "--order-by-naive"])
        naive = [float(r.split(",")[4])
                 for r in (tmp_path / "variance.csv").read_text().strip().split("\n")[1:]]
        assert naive == sorted(naive)

    @pytest.mark.parametrize("command", ["variance", "reduce", "star-demo"])
    def test_linearization_is_freed_before_modal_stages(self, tmp_path, monkeypatch, command):
        # the analysis commands read only the reduced system after the
        # reduction, so the LinearizedSystem (the Jacobian's entries) and
        # every block the reduction scattered from it are freed before
        # eigh, Gamma and the COI sums run
        import kronred.cli
        import kronred.simulate
        systems, alive = [], []
        linearize = kronred.simulate.linearize

        def recorded(*args):
            result = linearize(*args)
            systems.append(weakref.ref(result))
            return result
        monkeypatch.setattr(kronred.simulate, "linearize", recorded)
        for name in ("eigendecompose_reduced", "gamma_matrix", "coi_variance"):
            def stage(*args, _stage=getattr(kronred.cli, name), _name=name):
                alive.append((_name, any(ref() is not None for ref in systems)))
                return _stage(*args)
            monkeypatch.setattr(kronred.cli, name, stage)
        args = [] if command == "star-demo" else [homogeneous_grid_file(tmp_path)]
        assert main([command, *args, "--out-dir", str(tmp_path)]) == 0
        assert len(systems) == 1 and alive
        assert not any(held for _, held in alive), alive


class TestSimulate:
    def test_naive_with_zero_slow_noise_writes_zero_trajectories(self, tmp_path):
        grid = homogeneous_grid_file(tmp_path, sigma_slow=0.0)
        assert main(["simulate", grid, "--model", "reduced-naive", "--t-end", "5",
                     "--burn-in", "1", "--ensemble", "2", "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "trajectory.csv").read_text().strip().split("\n")[1:]
        values = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
        assert np.abs(values).max() == 0.0

    def test_xi_and_naive_differ_for_same_seed(self, tmp_path):
        grid = homogeneous_grid_file(tmp_path)
        out_xi = tmp_path / "xi"
        out_nv = tmp_path / "nv"
        for model, out in (("reduced-xi", out_xi), ("reduced-naive", out_nv)):
            assert main(["simulate", grid, "--model", model, "--t-end", "5",
                         "--burn-in", "1", "--seed", "9", "--out-dir", str(out)]) == 0
        assert (out_xi / "trajectory.csv").read_text() != (out_nv / "trajectory.csv").read_text()

    def test_decimate_thins_rows(self, tmp_path):
        grid = homogeneous_grid_file(tmp_path)
        main(["simulate", grid, "--model", "reduced-xi", "--t-end", "2", "--burn-in", "1",
              "--dt", "0.01", "--decimate", "10", "--out-dir", str(tmp_path)])
        rows = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 21  # header + 201 samples / 10

    def test_bit_reproducible_across_runs(self, tmp_path):
        grid = homogeneous_grid_file(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", grid, "--model", "reduced-xi", "--t-end", "10",
                         "--burn-in", "2", "--ensemble", "2", "--seed", "42",
                         "--out-dir", str(out)]) == 0
            outs.append((out / "trajectory.csv").read_bytes()
                        + (out / "stats.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_rerun_from_manifest_reproduces_outputs(self, tmp_path):
        grid = homogeneous_grid_file(tmp_path)
        out = tmp_path / "first"
        main(["simulate", grid, "--model", "reduced-xi", "--t-end", "5", "--burn-in", "1",
              "--seed", "3", "--out-dir", str(out)])
        manifest = json.loads((out / "manifest_simulate.json").read_text())
        stats_before = (out / "stats.csv").read_bytes()
        argv = list(manifest["argv"])
        argv[argv.index(str(out))] = str(tmp_path / "second")
        assert main(argv) == 0
        assert (tmp_path / "second" / "stats.csv").read_bytes() == stats_before

    @pytest.mark.parametrize("flags", [["--t-end", "inf"], ["--dt", "1e-300"],
                                       ["--ensemble", "1000000000"]])
    def test_oversized_time_grid_is_input_error(self, tmp_path, capsys, flags):
        grid = homogeneous_grid_file(tmp_path)
        assert main(["simulate", grid, "--model", "reduced-xi", "--burn-in", "1", *flags,
                     "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    def test_overflowing_estimate_is_numerics_error(self, tmp_path, capsys):
        path = overflowing_star_file(tmp_path)
        assert main(["simulate", path, "--model", "reduced-xi", "--t-end", "2",
                     "--out-dir", str(tmp_path)]) == 3
        assert "estimate is not finite" in capsys.readouterr().err
        assert not (tmp_path / "stats.csv").exists()

    def test_member_over_byte_budget_is_input_error(self, tmp_path, capsys, monkeypatch):
        import kronred.simulate
        monkeypatch.setattr(kronred.simulate, "MAX_MEMBER_BYTES", 2**20)
        grid = homogeneous_grid_file(tmp_path)
        # member 0's slow record alone, kept for trajectory.csv:
        # (30 000 + 1) steps x (2 x 3 slow buses) x 8 B = 1.44 MB
        flags = ["--t-end", "300", "--dt", "0.01", "--burn-in", "1", "--ensemble", "1"]
        assert main(["simulate", grid, "--model", "full-linear", *flags,
                     "--out-dir", str(tmp_path)]) == 2
        assert "GiB" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()
        # compare keeps no record: every model's chunk buffers fit the same budget
        for model in ("full-linear", "full-nonlinear"):
            assert main(["compare", grid, "--models", model, *flags,
                         "--out-dir", str(tmp_path)]) == 0

    def test_trajectory_text_is_never_held(self, tmp_path):
        # trajectory.csv's rows are formatted from member 0's record while
        # main writes them.  On a grid this small the 4 MiB chunk buffers
        # outweigh the text, so the peak of writing every row is held
        # against that of writing a thousandth of them, not the file size.
        grid = homogeneous_grid_file(tmp_path)
        peaks, sizes = [], []
        for decimate in ("1", "1000"):
            out = tmp_path / decimate
            tracemalloc.start()
            try:
                assert main(["simulate", grid, "--model", "reduced-xi", "--t-end", "300",
                             "--dt", "0.01", "--burn-in", "10", "--ensemble", "1",
                             "--decimate", decimate, "--out-dir", str(out)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append((out / "trajectory.csv").stat().st_size)
        assert peaks[0] - peaks[1] < sizes[0] / 10, (peaks, sizes)

    def test_bad_decimate_refused_before_any_simulation(self, tmp_path, capsys, monkeypatch):
        runs = count_simulation_runs(monkeypatch)
        grid = homogeneous_grid_file(tmp_path)
        assert main(["simulate", grid, "--model", "full-nonlinear", "--decimate", "0",
                     "--t-end", "100", "--ensemble", "2", "--out-dir", str(tmp_path)]) == 2
        assert "--decimate must be >= 1" in capsys.readouterr().err
        assert runs == []
        assert not (tmp_path / "trajectory.csv").exists()


class TestCompare:
    def test_homogeneous_all_columns_populated(self, tmp_path):
        grid = homogeneous_grid_file(tmp_path)
        assert main(["compare", grid, "--t-end", "60", "--burn-in", "10",
                     "--ensemble", "2", "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "compare.csv").read_text().strip().split("\n")
        header = rows[0].split(",")
        assert header[:3] == ["bus_id", "var_analytic", "var_naive_analytic"]
        assert "var_sim_reduced-xi" in header and "var_sim_reduced-naive" in header
        for row in rows[1:]:
            cells = row.split(",")
            assert all(cells[i] != "" for i in range(1, 5))
        plot = json.loads((tmp_path / "compare_plot.json").read_text())
        assert plot["series"]

    def test_zero_noise_all_zero_and_ranks_tied(self, tmp_path):
        grid = homogeneous_grid_file(tmp_path, sigma_slow=0.0, sigma_fast=0.0)
        main(["compare", grid, "--t-end", "30", "--burn-in", "5", "--out-dir", str(tmp_path)])
        rows = (tmp_path / "compare.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            cells = row.split(",")
            assert float(cells[1]) == 0.0
            assert int(cells[-1]) == 0 or cells[-1] == "0"

    def test_mirror_buses_tie_in_bus_order_and_roundoff_moves_no_rank(self, tmp_path,
                                                                      monkeypatch):
        # a ring of six slow buses whose bus 1 carries a star of eight fast
        # loads: buses 2/6 and 3/5 mirror each other, and every naive
        # variance is the same, up to the last digits.  Ties rank in bus
        # order, and a 1-ulp change of J_red moves no rank
        import kronred.cli
        ring = [(k, SLOW, 0.0, 0.002) for k in range(1, 7)]
        loads = [(k, FAST, 0.0, 0.012) for k in range(7, 15)]
        lines = [(k, k % 6 + 1, 1.0) for k in range(1, 7)] + [(1, k, 1.0) for k in range(7, 15)]
        grid = write_grid(tmp_path, serialize_grid_json(make_grid(ring + loads, lines)))

        def ranks(out):
            assert main(["compare", grid, "--models", "reduced-xi", "--t-end", "2",
                         "--burn-in", "1", "--out-dir", str(out)]) == 0
            with open(out / "compare.csv") as fh:
                rows = list(csv.DictReader(fh))
            plot = json.loads((out / "compare_plot.json").read_text())
            return ([(int(r["rank_naive"]), int(r["rank_corrected"])) for r in rows],
                    plot["order"])
        exact = ranks(tmp_path / "exact")
        naive, corrected = zip(*exact[0])
        assert naive == (0, 1, 2, 3, 4, 5) and exact[1] == [1, 2, 3, 4, 5, 6]
        assert corrected[5] == corrected[1] + 1 and corrected[4] == corrected[2] + 1
        setup = kronred.cli.linearize_and_reduce

        def perturbed(g):
            op, red = setup(g)
            return op, replace(red, j_red=np.nextafter(red.j_red, np.inf))
        monkeypatch.setattr(kronred.cli, "linearize_and_reduce", perturbed)
        assert ranks(tmp_path / "ulp") == exact

    def test_heterogeneous_analytic_columns_absent(self, tmp_path, capsys):
        doc = {
            "buses": [
                {"id": 1, "class": "slow", "m": 0.2, "d": 0.05, "p": 0.0, "sigma": 0.01, "tau": 0.1},
                {"id": 2, "class": "slow", "m": 0.4, "d": 0.05, "p": 0.0, "sigma": 0.01, "tau": 0.1},
                {"id": 3, "class": "fast", "m": 0.002, "d": 0.0005, "p": 0.0, "sigma": 0.01, "tau": 0.1},
            ],
            "lines": [{"from": 1, "to": 2, "B": 1.0}, {"from": 2, "to": 3, "B": 1.0}],
        }
        grid = write_grid(tmp_path, json.dumps(doc))
        assert main(["compare", grid, "--t-end", "30", "--burn-in", "5",
                     "--models", "reduced-xi,reduced-naive", "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "compare.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            cells = row.split(",")
            assert cells[1] == "" and cells[2] == ""
            assert cells[3] != "" and cells[4] != ""

    def test_uniform_damping_ratio_fills_analytic_columns(self, tmp_path, capsys):
        # unequal inertia at one d/m: the closed form applies, and its
        # columns are filled
        doc = {
            "buses": [
                {"id": 1, "class": "slow", "m": 0.2, "d": 0.05, "p": 0.0, "sigma": 0.01, "tau": 0.1},
                {"id": 2, "class": "slow", "m": 0.4, "d": 0.1, "p": 0.0, "sigma": 0.01, "tau": 0.1},
                {"id": 3, "class": "fast", "m": 0.002, "d": 0.0005, "p": 0.0, "sigma": 0.01, "tau": 0.1},
            ],
            "lines": [{"from": 1, "to": 2, "B": 1.0}, {"from": 2, "to": 3, "B": 1.0}],
        }
        grid = write_grid(tmp_path, json.dumps(doc))
        assert main(["compare", grid, "--t-end", "30", "--burn-in", "5",
                     "--models", "reduced-xi,reduced-naive", "--out-dir", str(tmp_path)]) == 0
        assert "omitted" not in capsys.readouterr().out
        rows = (tmp_path / "compare.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 2
        for row in rows:
            cells = row.split(",")
            assert float(cells[1]) > float(cells[2]) > 0.0

    def test_one_setup_for_all_models(self, tmp_path, monkeypatch):
        import kronred.cli
        import kronred.reduction
        import kronred.simulate
        calls = {"solve_fixed_point": 0, "factor_fast_block": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        # every module that calls the fixed-point solver through its own name
        for module in (kronred.cli, kronred.simulate):
            if hasattr(module, "solve_fixed_point"):
                count(module, "solve_fixed_point")
        count(kronred.reduction, "factor_fast_block")
        grid = homogeneous_grid_file(tmp_path)
        assert main(["compare", grid, "--out-dir", str(tmp_path), "--models",
                     "full-nonlinear,full-linear,reduced-xi,reduced-naive",
                     "--t-end", "1", "--burn-in", "0.5", "--ensemble", "1"]) == 0
        assert calls == {"solve_fixed_point": 1, "factor_fast_block": 1}

    @staticmethod
    def count_noise_draws(monkeypatch):
        """The seeds of every OU stream drawn, one tuple per stream."""
        import kronred.simulate
        draws = []
        ou_chunks = kronred.simulate._ou_chunks

        def counted(sigma, tau, seeds, *args):
            draws.append(seeds)
            return ou_chunks(sigma, tau, seeds, *args)
        monkeypatch.setattr(kronred.simulate, "_ou_chunks", counted)
        return draws

    @pytest.mark.parametrize("models,ensemble,budget", [
        ("reduced-xi,reduced-naive,full-linear", 3, 2**15),
        ("reduced-xi,reduced-naive,full-nonlinear", 2, 2**17)])
    def test_columns_equal_each_model_run_alone(self, tmp_path, monkeypatch, models, ensemble,
                                                budget):
        # a small buffer budget splits the run into many chunks, and the
        # shared plan chunks (and, with three members, batches) the models
        # unlike their runs alone; the nonlinear model's windows stay whole
        import kronred.simulate
        monkeypatch.setattr(kronred.simulate, "_BATCH_BYTES", budget)
        draws = self.count_noise_draws(monkeypatch)
        path = homogeneous_grid_file(tmp_path)
        assert main(["compare", path, "--models", models, "--t-end", "20", "--dt", "0.01",
                     "--burn-in", "5", "--ensemble", str(ensemble), "--seed", "6",
                     "--epsilon", "0.5", "--out-dir", str(tmp_path)]) == 0
        # each member batch's noise is drawn once, for all models
        assert [s for seeds in draws for s in seeds] == [member_seed(6, i)
                                                         for i in range(ensemble)]
        assert len(draws) == (2 if ensemble == 3 else 1)
        with open(tmp_path / "compare.csv") as fh:
            rows = list(csv.DictReader(fh))
        grid = parse_grid_json(Path(path).read_text())
        for model in models.split(","):
            cfg = SimConfig(dt_max=0.01, t_end=20.0, burn_in=5.0,
                            ensemble_size=ensemble, base_seed=6, epsilon=0.5)
            alone = run_model_ensemble(grid, model, cfg).variance
            np.testing.assert_allclose([float(row[f"var_sim_{model}"]) for row in rows], alone,
                                       rtol=1e-12, atol=0, err_msg=model)

    def test_unknown_model_refused_before_any_simulation(self, tmp_path, capsys, monkeypatch):
        runs = count_simulation_runs(monkeypatch)
        grid = homogeneous_grid_file(tmp_path)
        assert main(["compare", grid, "--models", "reduced-xi,full-nonlinear,bogus",
                     "--t-end", "1", "--burn-in", "0.5", "--out-dir", str(tmp_path)]) == 2
        assert "'bogus'" in capsys.readouterr().err
        assert runs == []
        assert not (tmp_path / "compare.csv").exists()

    def test_duplicate_model_refused(self, tmp_path, capsys):
        # two var_sim_reduced-xi columns would collapse into one under csv.DictReader
        grid = homogeneous_grid_file(tmp_path)
        assert main(["compare", grid, "--models", "reduced-xi,reduced-xi",
                     "--t-end", "1", "--burn-in", "0.5", "--out-dir", str(tmp_path)]) == 2
        assert "twice" in capsys.readouterr().err
        assert not (tmp_path / "compare.csv").exists()

    def test_empty_model_list_refused(self, tmp_path, capsys):
        grid = homogeneous_grid_file(tmp_path)
        assert main(["compare", grid, "--models", ",",
                     "--t-end", "1", "--burn-in", "0.5", "--out-dir", str(tmp_path)]) == 2
        assert "names no model" in capsys.readouterr().err
        assert not (tmp_path / "compare.csv").exists()

    def test_failing_trajectory_named_with_seed(self, tmp_path, capsys):
        doc = json.loads(TWO_BUS)
        for bus in doc["buses"]:
            bus["sigma"] = 50.0  # noise far beyond the b=1 line capacity
        grid = write_grid(tmp_path, json.dumps(doc))
        # the four members are stepped as one batch, which the message names
        # with the failing model, also where a linear model steps beside it
        seeds = ", ".join(str(member_seed(4, i)) for i in range(4))
        for models in ("full-nonlinear", "reduced-xi,full-nonlinear"):
            assert main(["compare", grid, "--models", models, "--t-end", "5", "--burn-in", "1",
                         "--seed", "4", "--out-dir", str(tmp_path)]) == 3
            err = capsys.readouterr().err
            assert f"full-nonlinear: trajectories 0-3 (seeds {seeds}) failed" in err, models


class TestStarDemo:
    def test_load_center_gamma_vanishes(self, tmp_path, capsys):
        assert main(["star-demo", "--n-outer", "8", "--center", "fast",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        value = float(out.split("modes >= 2 :")[1].split()[0])
        assert value < 1e-10

    def test_generator_center_gamma_value(self, tmp_path, capsys):
        assert main(["star-demo", "--n-outer", "8", "--center", "slow", "--sigma", "0.01",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        value = float(out.split("Gamma value : ")[1].split()[0])
        assert value == pytest.approx(8e-4, rel=1e-12)

    def test_smallest_star_runs(self, tmp_path, capsys):
        for center in ("slow", "fast"):
            assert main(["star-demo", "--n-outer", "2", "--center", center,
                         "--out-dir", str(tmp_path)]) == 0

    def test_n_outer_one_rejected(self, tmp_path, capsys):
        assert main(["star-demo", "--n-outer", "1", "--out-dir", str(tmp_path)]) == 2

    def test_star_above_bus_limit_is_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(kronred.grid, "MAX_BUSES", 8)
        out = tmp_path / "out"
        assert main(["star-demo", "--n-outer", "8", "--out-dir", str(out)]) == 2
        assert "9 buses, above the limit of 8" in capsys.readouterr().err
        assert not out.exists()

    def test_sigma_squared_overflow_is_input_error(self, tmp_path, capsys):
        assert main(["star-demo", "--sigma", "1e300", "--out-dir", str(tmp_path)]) == 2
        assert "sigma^2 must be finite" in capsys.readouterr().err

    def test_noise_covariance_overflow_is_input_error(self, tmp_path, capsys):
        # sigma^2 = 1e308 is finite; the 8 loads' sum at the center is not.
        # star-demo never builds sigma_xi: its Gamma overflows first
        assert main(["star-demo", "--sigma", "1e154", "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "Gamma overflows" in captured.err
        assert captured.out == ""
        grid = write_grid(tmp_path, serialize_grid_json(make_star_grid(8, "slow", sigma=1e154)))
        assert main(["reduce", grid, "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "sigma_xi overflows" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "reduced.json").exists()


def test_modal_printouts(tmp_path, capsys):
    # reduce's spectral gap is J_red's second largest eigenvalue, negated;
    # star-demo's Gamma values are criterion 2's closed forms
    assert main(["reduce", str(DATA_DIR / "five_bus.json"), "--out-dir", str(tmp_path)]) == 0
    j_red = np.array(json.loads((tmp_path / "reduced.json").read_text())["j_red"])
    gap = capsys.readouterr().out.split("spectral gap of J_red : ")[1].split()[0]
    assert gap == f"{-np.linalg.eigvalsh(j_red)[-2]:.6g}"
    sigma, n_outer = 0.01, 8
    assert main(["star-demo", "--n-outer", str(n_outer), "--sigma", str(sigma),
                 "--out-dir", str(tmp_path)]) == 0
    value = float(capsys.readouterr().out.split("uniform-mode Gamma value : ")[1].split()[0])
    assert value == pytest.approx(sigma**2 * n_outer, rel=1e-12, abs=0)
    assert main(["star-demo", "--center", "fast", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert float(out.split("max |Gamma_ab| over modes >= 2 : ")[1].split()[0]) < 1e-10


def test_no_command_imports_scipy(tmp_path):
    # The run path computes with numpy alone: no scipy module is loaded by
    # the import of the CLI, nor by any command, all four models included.
    grid = homogeneous_grid_file(tmp_path)
    sim_flags = ["--t-end", "1", "--burn-in", "0.5", "--ensemble", "1"]
    runs = [[],
            ["reduce", grid, "--out-dir", str(tmp_path / "reduce")],
            ["variance", grid, "--out-dir", str(tmp_path / "variance")],
            ["star-demo", "--out-dir", str(tmp_path / "star-demo")],
            *(["simulate", grid, "--model", model, *sim_flags,
               "--out-dir", str(tmp_path / f"simulate-{model}")] for model in MODELS),
            ["compare", grid, "--models", ",".join(MODELS), *sim_flags,
             "--out-dir", str(tmp_path / "compare")]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, kronred.cli\n"
            "assert not sys.argv[1:] or kronred.cli.main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    for argv in runs:
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert out.strip().splitlines()[-1] == "[]", argv


def test_cli_import_starts_blas_on_one_thread():
    # the package loads no numpy, so kronred.cli sets OPENBLAS_NUM_THREADS
    # before numpy starts its OpenBLAS
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import ctypes, glob, os, sys, kronred\n"
            "print('numpy' in sys.modules)\n"
            "import kronred.cli, numpy\n"
            "libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),"
            " 'numpy.libs', 'libscipy_openblas*.so'))\n"
            "count = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_ if libs else None\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], count() if count else None)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout.split()
    assert out[0] == "False"
    assert out[1] == "1" and out[2] in ("1", "None"), out
    # the exported names still load on first use
    code = "import kronred; print(kronred.SimConfig.__module__, kronred.__version__)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout.split()
    assert out == ["kronred.simulate", "0.1.0"]


def test_export_table_resolves():
    # every exported name loads through the package's PEP 562 __getattr__
    # from the submodule its table entry names; the removed ensemble API
    # and per-model collectors are not exported
    import kronred
    for name in kronred.__all__:
        module = importlib.import_module(f"kronred.{kronred._EXPORTS[name]}")
        assert kronred.__getattr__(name) is getattr(module, name), name
    for name in ("make_builder", "run_ensemble", "coi_frequency_variance_estimate",
                 "MemberBatch", "integrate_full_linear", "integrate_reduced",
                 "integrate_full_nonlinear"):
        with pytest.raises(AttributeError, match=name):
            kronred.__getattr__(name)
        assert not hasattr(kronred, name)


def test_data_files_do_not_depend_on_blas_threads(tmp_path):
    # A threaded BLAS product splits its sums differently: at two OpenBLAS
    # threads these grids' variance.csv and compare.csv moved in the last
    # digits.  Every command runs on one BLAS thread and restores the count.
    grid = random_connected_grid(np.random.default_rng(7), 300, homogeneous=True,
                                 sigma_range=(0.005, 0.02))
    runs = [["variance", write_grid(tmp_path, serialize_grid_json(grid))],
            ["compare", str(DATA_DIR / "ieee118.m"), "--models", "full-linear",
             "--t-end", "10", "--dt", "0.01", "--burn-in", "5", "--ensemble", "2"]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import ctypes, glob, os, sys, numpy, kronred.cli\n"
            "libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),"
            " 'numpy.libs', 'libscipy_openblas*.so'))\n"
            "count = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_ if libs else None\n"
            "before = count() if count else None\n"
            "assert kronred.cli.main(sys.argv[1:]) == 0\n"
            "print(before, count() if count else None)")
    for argv in runs:
        files = []
        for threads in ("1", "2"):
            out = tmp_path / f"{argv[0]}-{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p)}
            counts = subprocess.run([sys.executable, "-c", code, *argv, "--out-dir", str(out)],
                                    env=env, capture_output=True, text=True, timeout=120,
                                    check=True).stdout.split()[-2:]
            assert counts[0] == counts[1], (argv[0], threads, counts)
            manifest = json.loads((out / f"manifest_{argv[0]}.json").read_text())
            libraries = manifest["libraries"]
            assert libraries["numpy"] == np.__version__ and "scipy" not in libraries
            assert all(blas["threads"] == 1 for blas in libraries["blas"].values())
            files.append({f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))})
        assert files[0] and files[0] == files[1], argv[0]


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OPENBLAS_CORETYPE=Prescott needs an x86-64 CPU")
def test_variance_bounded_across_blas_kernels(tmp_path):
    # The bytes repeat under one BLAS kernel only: another kernel rounds
    # differently (ieee118's columns moved by up to 1.2e-14 of their
    # largest value under Prescott and Haswell against SkylakeX).  The
    # oldest x86-64 kernel keeps the bus order and stays within 1e-12.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    runs = []
    for kernel in (None, "Prescott"):
        out = tmp_path / (kernel or "native")
        subprocess.run([sys.executable, "-m", "kronred.cli", "variance",
                        str(DATA_DIR / "ieee118.m"), "--out-dir", str(out)],
                       env={**env, "OPENBLAS_CORETYPE": kernel} if kernel else env,
                       capture_output=True, text=True, timeout=120, check=True)
        manifest = json.loads((out / "manifest_variance.json").read_text())
        with open(out / "variance.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        runs.append((manifest["libraries"]["blas"], rows))  # the kernel is in its config
    (native, rows), (prescott, other) = runs
    if native == prescott:
        pytest.skip(f"OPENBLAS_CORETYPE=Prescott selected the native kernel: {native}")
    assert rows[0] == other[0]
    assert [row[0] for row in rows] == [row[0] for row in other]
    want = np.array([row[1:] for row in rows[1:]], dtype=float)
    got = np.array([row[1:] for row in other[1:]], dtype=float)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=0))
