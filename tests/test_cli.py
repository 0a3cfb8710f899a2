"""CLI surface: commands, file outputs, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kronred.grid
from kronred.cli import main
from kronred.errors import NumericsError
from kronred.grid import serialize_grid_json
from kronred.reduction import make_star_grid
from kronred.simulate import MODELS, member_seed
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
                                  "out-dir under a file"])
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
    else:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    assert main(["reduce", str(grid), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    named = out if case.startswith("out-dir") else grid
    assert captured.err.startswith("input error:") and str(named) in captured.err
    if case == "out-dir is a file":  # refused before the command ran
        assert captured.out == "" and out.read_text() == ""


@pytest.mark.parametrize("argv,message", [
    (["compare", "--theta", "0.7"], "theta must be 0.5 or 1.0"),
    (["simulate", "--model", "reduced-xi", "--epsilon", "2"], "epsilon must be in (0, 1]"),
    (["compare", "--epsilon", "2"], "epsilon must be in (0, 1]"),
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

    def test_sigma_dist_overflowing_sigma_squared_is_input_error(self, tmp_path, capsys):
        case = write_grid(tmp_path, THREE_BUS_CASE, name="case3.m")
        assert main(["variance", case, "--sigma-dist", "uniform:0:1e300",
                     "--out-dir", str(tmp_path)]) == 2
        assert "sigma^2 must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["variance", "compare"])
    def test_gamma_overflow_is_input_error(self, tmp_path, capsys, command):
        # 8 loads, each tied to all 4 generators: K = 1/4, so sigma_xi holds
        # 8 sigma^2 / 16 but the uniform mode of Gamma 8 sigma^2 / 4 > max float
        sigma = 1.26e154
        grid = make_grid([(i, SLOW, 0.0, 0.0) for i in range(1, 5)]
                         + [(i, FAST, 0.0, sigma) for i in range(5, 13)],
                         [(s, f, 1.0) for f in range(5, 13) for s in range(1, 5)])
        path = write_grid(tmp_path, serialize_grid_json(grid))
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
        import kronred.cli
        built = []
        make_builder = kronred.cli.make_builder

        def counted(*args, **kwargs):
            built.append(args[-1].model)
            return make_builder(*args, **kwargs)
        monkeypatch.setattr(kronred.cli, "make_builder", counted)
        grid = homogeneous_grid_file(tmp_path)
        assert main(["simulate", grid, "--model", "full-nonlinear", "--decimate", "0",
                     "--t-end", "100", "--ensemble", "2", "--out-dir", str(tmp_path)]) == 2
        assert "--decimate must be >= 1" in capsys.readouterr().err
        assert built == []
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

    def test_unknown_model_refused_before_any_simulation(self, tmp_path, capsys, monkeypatch):
        import kronred.cli
        built = []
        make_builder = kronred.cli.make_builder

        def counted(*args, **kwargs):
            built.append(args[-1].model)
            return make_builder(*args, **kwargs)
        monkeypatch.setattr(kronred.cli, "make_builder", counted)
        grid = homogeneous_grid_file(tmp_path)
        assert main(["compare", grid, "--models", "reduced-xi,full-nonlinear,bogus",
                     "--t-end", "1", "--burn-in", "0.5", "--out-dir", str(tmp_path)]) == 2
        assert "'bogus'" in capsys.readouterr().err
        assert built == []
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
        assert main(["compare", grid, "--models", "full-nonlinear", "--t-end", "5",
                     "--burn-in", "1", "--seed", "4", "--out-dir", str(tmp_path)]) == 3
        # the four members are stepped as one batch, which the message names
        seeds = ", ".join(str(member_seed(4, i)) for i in range(4))
        assert f"trajectories 0-3 (seeds {seeds}) failed" in capsys.readouterr().err


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
        # sigma^2 = 1e308 is finite; the 8 loads' sum at the center is not
        assert main(["star-demo", "--sigma", "1e154", "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "sigma_xi overflows" in captured.err
        assert captured.out == ""


def test_analysis_commands_do_not_import_the_simulator_filter(tmp_path):
    # No command loads scipy.signal (or the scipy.stats it pulls in): not
    # the import of the CLI, and not the commands that sample OU noise.
    grid = homogeneous_grid_file(tmp_path)
    sim_flags = ["--t-end", "1", "--burn-in", "0.5", "--ensemble", "1"]
    runs = [[],
            ["simulate", grid, "--model", "reduced-xi", *sim_flags,
             "--out-dir", str(tmp_path / "simulate")],
            ["compare", grid, "--models", ",".join(MODELS), *sim_flags,
             "--out-dir", str(tmp_path / "compare")]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, kronred.cli\n"
            "assert not sys.argv[1:] or kronred.cli.main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    for argv in runs:
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert out.strip().splitlines()[-1] == "[]", argv


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
            assert libraries["numpy"] == np.__version__ and "scipy" in libraries
            assert all(blas["threads"] == 1 for blas in libraries["blas"].values())
            files.append({f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))})
        assert files[0] and files[0] == files[1], argv[0]
