"""Grid parsing, fixed point and linearization."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import kronred.grid as grid_module
from conftest import dense_coupling, make_grid, path3_grid, random_connected_grid, two_bus_grid
from kronred.errors import InputError, NumericsError
from kronred.grid import (Bus, ClassDefaults, FAST, SLOW, Line, OperatingPoint,
                          assemble_linearized, build_jacobian, linearize, parse_grid_json,
                          parse_matpower_case, serialize_grid_json, solve_fixed_point,
                          with_sigma)
from kronred.reduction import make_star_grid

TWO_BUS_JSON = """{
  "buses": [
    {"id": 1, "class": "slow", "m": 0.2, "d": 0.05, "p": 0.5, "sigma": 0.01, "tau": 0.1},
    {"id": 2, "class": "fast", "m": 0.002, "d": 0.0005, "p": -0.5, "sigma": 0.01, "tau": 0.1}
  ],
  "lines": [{"from": 1, "to": 2, "B": 1.0}]
}"""


class TestParseGridJson:
    def test_minimal_two_bus(self):
        grid = parse_grid_json(TWO_BUS_JSON)
        assert grid.slow_ids == [1]
        assert grid.fast_ids == [2]
        assert grid.buses[1].v == 1.0  # default voltage magnitude

    def test_self_loop_rejected(self):
        doc = json.loads(TWO_BUS_JSON)
        doc["lines"] = [{"from": 1, "to": 1, "B": 1.0}]
        with pytest.raises(InputError, match="self-loop"):
            parse_grid_json(json.dumps(doc))

    def test_isolated_bus_rejected(self):
        doc = json.loads(TWO_BUS_JSON)
        doc["buses"].append({"id": 3, "class": "fast", "m": 0.002, "d": 0.0005,
                             "p": 0.0, "sigma": 0.0, "tau": 0.1})
        with pytest.raises(InputError, match="not connected"):
            parse_grid_json(json.dumps(doc))

    def test_unknown_field_rejected_with_path(self):
        doc = json.loads(TWO_BUS_JSON)
        doc["buses"][0]["inertia"] = 1.0
        with pytest.raises(InputError, match=r"buses\[0\].*inertia"):
            parse_grid_json(json.dumps(doc))

    def test_nonpositive_parameters_rejected(self):
        for name in ("m", "d", "tau"):
            doc = json.loads(TWO_BUS_JSON)
            doc["buses"][0][name] = 0.0
            with pytest.raises(InputError):
                parse_grid_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["m", "d", "p", "sigma", "tau", "v"])
    def test_non_finite_bus_parameter_rejected(self, name):
        for value in (math.nan, math.inf, -math.inf):
            doc = json.loads(TWO_BUS_JSON)
            doc["buses"][0][name] = value
            with pytest.raises(InputError, match=rf"bus 1: {name} must be finite"):
                parse_grid_json(json.dumps(doc))

    @pytest.mark.parametrize("sigma", [1e300, 1.4e154])
    def test_sigma_squared_overflow_rejected(self, sigma):
        doc = json.loads(TWO_BUS_JSON)
        doc["buses"][1]["sigma"] = sigma
        with pytest.raises(InputError, match=r"bus 2: sigma\^2 must be finite"):
            parse_grid_json(json.dumps(doc))

    def test_nan_sigma_bus_rejected(self):
        with pytest.raises(InputError, match="sigma must be finite"):
            Bus(id=1, speed_class=SLOW, m=0.2, d=0.05, p=0.0, sigma=math.nan, tau=0.1)
        # a value that is no number is refused by the same check, naming its field
        with pytest.raises(InputError, match="bus 1: m must be finite, got a"):
            Bus(id=1, speed_class=SLOW, m="a", d=0.05, p=0.0, sigma=0.01, tau=0.1)
        with pytest.raises(InputError, match="bus 1: sigma must be finite, got None"):
            make_star_grid(3, SLOW, sigma=None)
        for value in ("a", 2.5):
            with pytest.raises(InputError, match=f"n_outer must be an integer, got {value!r}"):
                make_star_grid(value, SLOW)

    def test_non_finite_susceptance_rejected(self):
        for value in (math.nan, math.inf):
            doc = json.loads(TWO_BUS_JSON)
            doc["lines"][0]["B"] = value
            with pytest.raises(InputError, match="susceptance must be finite"):
                parse_grid_json(json.dumps(doc))
        with pytest.raises(InputError, match="line 1-2: susceptance must be finite"):
            Line(from_bus=1, to_bus=2, b="a")

    def test_non_numeric_susceptance_rejected(self):
        for value in ("abc", None, True):
            doc = json.loads(TWO_BUS_JSON)
            doc["lines"][0]["B"] = value
            with pytest.raises(InputError, match=r"lines\[0\]\.B: must be a number"):
                parse_grid_json(json.dumps(doc))

    @pytest.mark.parametrize("where,key,path", [
        ("buses", "m", r"buses\[0\]\.m"),
        ("lines", "B", r"lines\[0\]\.B"),
    ])
    def test_integer_too_large_for_float_rejected(self, where, key, path):
        doc = json.loads(TWO_BUS_JSON)
        doc[where][0][key] = 10**400
        with pytest.raises(InputError, match=rf"{path}: number too large for a float"):
            parse_grid_json(json.dumps(doc))

    def test_bus_id_must_be_integer(self):
        for value in (True, 1.0, "1"):
            doc = json.loads(TWO_BUS_JSON)
            doc["buses"][0]["id"] = value
            with pytest.raises(InputError, match=r"buses\[0\]\.id: must be an integer"):
                parse_grid_json(json.dumps(doc))

    def test_line_end_must_be_integer(self):
        for value in ([1], "1", 1.0, True):
            doc = json.loads(TWO_BUS_JSON)
            doc["lines"][0]["from"] = value
            with pytest.raises(InputError, match=r"lines\[0\]: from and to must be integers"):
                parse_grid_json(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        # Python >= 3.10.7 refuses to parse the integer; older versions parse it
        TWO_BUS_JSON.replace('"p": 0.5', '"p": 1' + "0" * 5000),
        "[" * 100_000 + "]" * 100_000,  # nested beyond the recursion limit
    ], ids=["over-long-integer", "deep-nesting"])
    def test_unparseable_json_rejected(self, text):
        with pytest.raises(InputError, match=r"invalid JSON|p: number too large"):
            parse_grid_json(text)

    def test_duplicate_line_rejected(self):
        doc = json.loads(TWO_BUS_JSON)
        doc["lines"].append({"from": 2, "to": 1, "B": 2.0})
        with pytest.raises(InputError, match="duplicate line"):
            parse_grid_json(json.dumps(doc))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            grid = random_connected_grid(rng, int(rng.integers(2, 15)))
            again = parse_grid_json(serialize_grid_json(grid))
            assert again == grid


class TestSolveFixedPoint:
    def test_zero_injections_zero_angles(self):
        op = solve_fixed_point(path3_grid())
        np.testing.assert_allclose(op.theta, 0.0, atol=1e-14)
        assert op.angle_window_ok

    def test_two_bus_closed_form(self):
        # p = b sin(dtheta)  =>  dtheta = arcsin(0.5)
        op = solve_fixed_point(two_bus_grid(p=0.5))
        dtheta = op.theta[0] - op.theta[1]
        np.testing.assert_allclose(dtheta, math.asin(0.5), rtol=1e-12)
        assert abs(op.theta.mean()) < 1e-14

    def test_overloaded_line_has_no_fixed_point(self):
        with pytest.raises(NumericsError, match="no fixed point"):
            solve_fixed_point(two_bus_grid(p=1.5))

    def test_unbalanced_injections_rejected(self):
        grid = make_grid([(1, SLOW, 0.3), (2, FAST, 0.0)], [(1, 2, 1.0)])
        with pytest.raises(InputError, match="unbalanced"):
            solve_fixed_point(grid)

    def test_residual_below_tolerance_on_random_grids(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            grid = random_connected_grid(rng, int(rng.integers(3, 25)))
            op = solve_fixed_point(grid)
            assert op.residual_norm <= 1e-10

    def test_large_angles_flagged_not_fatal(self):
        # triangle with a weak chord 1-3: at theta = (0.9, 0, -0.9) the chord
        # angle difference is 1.8 rad > pi/2 while the fixed point exists
        p1 = 2.0 * math.sin(0.9) + 0.4 * math.sin(1.8)
        grid = make_grid([(1, SLOW, p1), (2, FAST, 0.0), (3, FAST, -p1)],
                         [(1, 2, 2.0), (2, 3, 2.0), (1, 3, 0.4)])
        op = solve_fixed_point(grid)
        assert op.flagged_lines == ((1, 3),)
        assert not op.angle_window_ok


class TestBuildJacobian:
    def test_two_bus_flat(self):
        grid = two_bus_grid()
        op = solve_fixed_point(grid)
        np.testing.assert_allclose(build_jacobian(grid, op), [[-1.0, 1.0], [1.0, -1.0]])

    def test_two_bus_at_pi_over_three(self):
        # sin(pi/3) = sqrt(3)/2, so inject exactly that much power
        grid = two_bus_grid(p=math.sin(math.pi / 3))
        op = solve_fixed_point(grid)
        jac = build_jacobian(grid, op)
        np.testing.assert_allclose(jac, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-9)

    def test_path_graph_unit_laplacian(self):
        grid = path3_grid()
        op = solve_fixed_point(grid)
        expected = [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]
        np.testing.assert_allclose(build_jacobian(grid, op), expected)

    def test_laplacian_properties_on_random_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            grid = random_connected_grid(rng, int(rng.integers(2, 30)))
            op = solve_fixed_point(grid)
            jac = build_jacobian(grid, op)
            assert np.abs(jac - jac.T).max() < 1e-12
            assert np.abs(jac.sum(axis=1)).max() < 1e-10
            if op.angle_window_ok:
                eigs = np.sort(np.linalg.eigvalsh(jac))[::-1]
                assert abs(eigs[0]) < 1e-10
                assert np.all(eigs[1:] < 0)


class TestAssembleLinearized:
    def test_two_bus_blocks(self):
        grid = two_bus_grid()
        sys = assemble_linearized(grid, build_jacobian(grid, solve_fixed_point(grid)), 1.0)
        np.testing.assert_allclose(sys.j_ss, [[-1.0]])
        np.testing.assert_allclose(sys.j_sf, [[1.0]])
        np.testing.assert_allclose(sys.j_ff, [[-1.0]])

    def test_path_blocks_slow_ends(self):
        grid = path3_grid()
        sys = assemble_linearized(grid, build_jacobian(grid, solve_fixed_point(grid)), 1.0)
        assert sys.slow_ids == (1, 3)
        assert sys.fast_ids == (2,)
        np.testing.assert_allclose(sys.j_ss, np.diag([-1.0, -1.0]))
        np.testing.assert_allclose(sys.j_sf, [[1.0], [1.0]])
        np.testing.assert_allclose(sys.j_ff, [[-2.0]])
        np.testing.assert_allclose(sys.j_fs, sys.j_sf.T)

    def test_epsilon_zero_rejected(self):
        grid = two_bus_grid()
        op = solve_fixed_point(grid)
        jac = build_jacobian(grid, op)
        with pytest.raises(InputError, match="epsilon"):
            assemble_linearized(grid, jac, 0.0)

    def test_operating_point_of_another_grid_rejected(self):
        grid = path3_grid()
        op = solve_fixed_point(two_bus_grid())
        for build in (build_jacobian, linearize):
            with pytest.raises(InputError, match=r"operating point has \(2,\) angles for 3 buses"):
                build(grid, op)


THREE_BUS_CASE = """
function mpc = case3
mpc.baseMVA = 100;
mpc.bus = [
 1 3 0  0 0 0 1 1.0 0 138 1 1.06 0.94;
 2 1 60 10 0 0 1 1.0 0 138 1 1.06 0.94;
 3 1 40 10 0 0 1 1.0 0 138 1 1.06 0.94;
];
mpc.gen = [
 1 100 0 50 -50 1.02 100 1 200 0;
];
mpc.branch = [
 1 2 0.01 0.1  0 0 0 0 0 0 1 -360 360;
 2 3 0.01 0.2  0 0 0 0 0 0 1 -360 360;
 1 3 0.01 0.25 0 0 0 0 0 0 1 -360 360;
];
"""

DEFAULTS_SLOW = ClassDefaults(m=0.2, d=0.05, tau=0.1)
DEFAULTS_FAST = ClassDefaults(m=0.002, d=0.0005, tau=0.1)


class TestParseMatpower:
    def test_generator_buses_become_slow(self):
        grid = parse_matpower_case(THREE_BUS_CASE, DEFAULTS_SLOW, DEFAULTS_FAST)
        assert grid.slow_ids == [1]
        assert grid.fast_ids == [2, 3]
        assert grid.buses[0].m == 0.2
        assert grid.buses[1].m == 0.002

    def test_injections_and_couplings(self):
        grid = parse_matpower_case(THREE_BUS_CASE, DEFAULTS_SLOW, DEFAULTS_FAST)
        p = {b.id: b.p for b in grid.buses}
        assert p[1] == pytest.approx(1.0)   # 100 MW gen / 100 MVA
        assert p[2] == pytest.approx(-0.6)
        b = {(ln.from_bus, ln.to_bus): ln.b for ln in grid.lines}
        assert b[(1, 2)] == pytest.approx(10.0)  # 1/x
        assert b[(2, 3)] == pytest.approx(5.0)

    def test_rows_ended_by_newline_only(self):
        # MATLAB ends a matrix row with a semicolon or a newline
        plain = re.sub(r"(?m)^( .*);$", r"\1", THREE_BUS_CASE)
        assert plain.count(";") == 4  # mpc.baseMVA and the three closing ];
        assert (parse_matpower_case(plain, DEFAULTS_SLOW, DEFAULTS_FAST)
                == parse_matpower_case(THREE_BUS_CASE, DEFAULTS_SLOW, DEFAULTS_FAST))

    def test_zero_reactance_rejected(self):
        bad = THREE_BUS_CASE.replace("1 2 0.01 0.1 ", "1 2 0.01 0.0 ")
        with pytest.raises(InputError, match="zero reactance"):
            parse_matpower_case(bad, DEFAULTS_SLOW, DEFAULTS_FAST)

    def test_missing_table_rejected(self):
        bad = THREE_BUS_CASE.replace("mpc.gen", "mpc.generators")
        with pytest.raises(InputError, match="missing mpc.gen"):
            parse_matpower_case(bad, DEFAULTS_SLOW, DEFAULTS_FAST)

    def test_branch_with_unknown_bus_rejected(self):
        bad = THREE_BUS_CASE.replace("1 3 0.01 0.25", "1 9 0.01 0.25")
        with pytest.raises(InputError, match="unknown bus"):
            parse_matpower_case(bad, DEFAULTS_SLOW, DEFAULTS_FAST)

    def test_parallel_branches_merge(self):
        doubled = THREE_BUS_CASE.replace(
            "1 3 0.01 0.25 0 0 0 0 0 0 1 -360 360;",
            "1 3 0.01 0.25 0 0 0 0 0 0 1 -360 360;\n 1 3 0.01 0.25 0 0 0 0 0 0 1 -360 360;")
        grid = parse_matpower_case(doubled, DEFAULTS_SLOW, DEFAULTS_FAST)
        b = {(ln.from_bus, ln.to_bus): ln.b for ln in grid.lines}
        assert b[(1, 3)] == pytest.approx(8.0)  # two parallel 1/0.25 branches

    def test_out_of_service_generator_skipped(self):
        off = THREE_BUS_CASE.replace(
            " 1 100 0 50 -50 1.02 100 1 200 0;",
            " 1 100 0 50 -50 1.02 100 1 200 0;\n 2 30 0 50 -50 1.02 100 0 200 0;")
        grid = parse_matpower_case(off, DEFAULTS_SLOW, DEFAULTS_FAST)
        assert grid.slow_ids == [1]
        p = {b.id: b.p for b in grid.buses}
        assert p[2] == pytest.approx(-0.6)

    def test_out_of_service_branch_skipped(self):
        off = THREE_BUS_CASE.replace("1 3 0.01 0.25 0 0 0 0 0 0 1", "1 3 0.01 0.25 0 0 0 0 0 0 0")
        grid = parse_matpower_case(off, DEFAULTS_SLOW, DEFAULTS_FAST)
        assert len(grid.lines) == 2

    def test_isolated_bus_skipped_with_its_rows(self):
        case = THREE_BUS_CASE.replace(
            " 3 1 40 10 0 0 1 1.0 0 138 1 1.06 0.94;",
            " 3 1 40 10 0 0 1 1.0 0 138 1 1.06 0.94;\n 4 4 25 5 0 0 1 1.0 0 138 1 1.06 0.94;")
        case = case.replace(" 1 100 0 50 -50 1.02 100 1 200 0;",
                            " 1 100 0 50 -50 1.02 100 1 200 0;\n 4 50 0 50 -50 1.02 100 1 200 0;")
        case = case.replace(" 1 3 0.01 0.25 0 0 0 0 0 0 1 -360 360;",
                            " 1 3 0.01 0.25 0 0 0 0 0 0 1 -360 360;\n"
                            " 3 4 0.01 0.5 0 0 0 0 0 0 1 -360 360;")
        grid = parse_matpower_case(case, DEFAULTS_SLOW, DEFAULTS_FAST)
        plain = parse_matpower_case(THREE_BUS_CASE, DEFAULTS_SLOW, DEFAULTS_FAST)
        assert grid == plain

    @pytest.mark.parametrize("old,new,match", [
        ("1 3 0.01 0.25", "3 3 0.01 0.25", "branch 3-3 connects a bus to itself"),
        ("1 3 0.01 0.25", "1 nan 0.01 0.25", "mpc.branch: bus number must be an integer"),
        (" 1 100 0 50", " inf 100 0 50", "mpc.gen: bus number must be an integer"),
        (" 3 1 40 10", " 3.5 1 40 10", "mpc.bus: bus number must be an integer"),
    ])
    def test_malformed_bus_reference_rejected(self, old, new, match):
        bad = THREE_BUS_CASE.replace(old, new)
        with pytest.raises(InputError, match=match):
            parse_matpower_case(bad, DEFAULTS_SLOW, DEFAULTS_FAST)

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf", "e"])
    def test_bad_base_mva_rejected(self, value):
        bad = THREE_BUS_CASE.replace("mpc.baseMVA = 100;", f"mpc.baseMVA = {value};")
        with pytest.raises(InputError, match="baseMVA"):
            parse_matpower_case(bad, DEFAULTS_SLOW, DEFAULTS_FAST)

    def test_rebalance_scales_generation(self):
        grid = parse_matpower_case(THREE_BUS_CASE, DEFAULTS_SLOW, DEFAULTS_FAST)
        assert abs(sum(b.p for b in grid.buses)) < 1e-12

    def test_ieee118_counts_match_case_file(self, ieee118_text):
        grid = parse_matpower_case(ieee118_text, DEFAULTS_SLOW, DEFAULTS_FAST)
        assert grid.n_buses == 118
        # the slow set is exactly the set of buses appearing in the gen table
        gen_buses = set()
        in_gen = False
        for line in ieee118_text.splitlines():
            if line.startswith("mpc.gen ="):
                in_gen = True
                continue
            if in_gen:
                if line.startswith("]"):
                    break
                gen_buses.add(int(line.split()[0]))
        assert set(grid.slow_ids) == gen_buses
        assert len(grid.slow_ids) == 54

    def test_with_sigma_replaces_noise(self):
        grid = parse_matpower_case(THREE_BUS_CASE, DEFAULTS_SLOW, DEFAULTS_FAST)
        new = with_sigma(grid, np.array([0.1, 0.2, 0.3]))
        assert [b.sigma for b in new.buses] == [0.1, 0.2, 0.3]
        assert [b.p for b in new.buses] == [b.p for b in grid.buses]


def dense_flows_and_jacobian(coupling, theta):
    """The dense n x n formulas: outflows sum_j b_ij sin(theta_i - theta_j)
    and J = b cos(theta_i - theta_j) off the diagonal, minus row sums on it."""
    diff = theta[:, None] - theta[None, :]
    cos_w = coupling * np.cos(diff)
    np.fill_diagonal(cos_w, 0.0)
    return (coupling * np.sin(diff)).sum(axis=1), cos_w - np.diag(cos_w.sum(axis=1))


class TestEdgeList:
    def grids(self, ieee118_text):
        rng = np.random.default_rng(21)
        grids = [random_connected_grid(rng, int(rng.integers(2, 60))) for _ in range(10)]
        grids.append(parse_matpower_case(ieee118_text, DEFAULTS_SLOW, DEFAULTS_FAST))
        return grids

    def test_flows_and_jacobian_match_dense_formulas(self, ieee118_text):
        rng = np.random.default_rng(8)
        for grid in self.grids(ieee118_text):
            n = grid.n_buses
            for theta in (solve_fixed_point(grid).theta, rng.uniform(-1.0, 1.0, n)):
                flows, jac = dense_flows_and_jacobian(dense_coupling(grid), theta)
                scale = max(1.0, np.abs(jac).max())
                np.testing.assert_allclose(grid.edge_list().flows(theta), flows,
                                           rtol=0, atol=1e-12 * scale)
                np.testing.assert_allclose(build_jacobian(grid, OperatingPoint(theta, 0.0)),
                                           jac, rtol=0, atol=1e-12 * scale)

    def test_lines_in_upper_triangle_order_of_the_bus_order(self, ieee118_text):
        # the order np.nonzero(np.triu(b)) gives, so flow sums keep their terms' order
        for grid in self.grids(ieee118_text):
            order = grid.ordering()
            coupling = dense_coupling(grid)[np.ix_(order, order)]
            src, dst = np.nonzero(np.triu(coupling))
            edges = grid.edge_list(order)
            np.testing.assert_array_equal(edges.ends, np.concatenate([src, dst]))
            np.testing.assert_array_equal(edges.others, np.concatenate([dst, src]))
            np.testing.assert_array_equal(edges.b, coupling[edges.ends, edges.others])

    def test_fixed_point_memory_far_below_dense(self):
        n = 1500
        grid = random_connected_grid(np.random.default_rng(1), n, slow_frac=0.3)
        tracemalloc.start()
        try:
            op = solve_fixed_point(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.residual_norm <= 1e-10
        assert peak < n * n * 8 / 10  # a tenth of one dense n x n float array

    def test_krylov_breakdown_is_numerics_error(self, monkeypatch, tmp_path, capsys):
        # MINRES reports a breakdown, here on a singular system whose
        # right-hand side leaves its range, and a Newton step whose solve
        # breaks down is a singular Jacobian: exit 3, the message unchanged
        lap = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert grid_module._minres(lambda x: lap @ x, np.array([1.0, -1.0, 1.0]), np.ones(3),
                                   1e-8, 50) is None
        monkeypatch.setattr(grid_module, "_minres", lambda *args: None)
        with pytest.raises(NumericsError, match="singular Jacobian away from the uniform mode"):
            solve_fixed_point(two_bus_grid(p=0.5))
        from kronred.cli import main
        path = tmp_path / "grid.json"
        path.write_text(serialize_grid_json(two_bus_grid(p=0.5)))
        assert main(["variance", str(path), "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: singular Jacobian away from the uniform mode\n")

    def test_indefinite_newton_step_reaches_the_sparse_lu_angles(self, monkeypatch):
        # the triangle of test_large_angles_flagged_not_fatal: its chord ends
        # beyond pi/2, so a Newton step solves an indefinite system (a
        # negative weight); the angles are those the sparse-LU Newton
        # reached, to 1e-12
        p1 = 2.0 * math.sin(0.9) + 0.4 * math.sin(1.8)
        grid = make_grid([(1, SLOW, p1), (2, FAST, 0.0), (3, FAST, -p1)],
                         [(1, 2, 2.0), (2, 3, 2.0), (1, 3, 0.4)])
        weights = []
        entries = grid_module._jacobian_entries
        monkeypatch.setattr(grid_module, "_jacobian_entries",
                            lambda *args: weights.append(entries(*args)[0]) or entries(*args))
        op = solve_fixed_point(grid)
        assert any(np.any(w < 0) for w in weights) and op.residual_norm <= 1e-10
        np.testing.assert_allclose(
            op.theta, [0.8999999999717488, -2.1200423180047406e-17, -0.8999999999717487],
            rtol=0, atol=1e-12)
