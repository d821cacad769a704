import os
import subprocess
import sys

import pytest

from tdroute import (
    CONSTANT,
    LINEAR,
    GeneratorConfig,
    build_ael,
    dumps,
    generate,
    sample_graph,
    save,
    shortest_path_to,
    shortest_paths,
)
from tdroute.bench import ChecksumMismatch
from tdroute.cli import main
from tdroute.landmarks import LANDMARKS
from tdroute.model import MAX_NODES

DEMO_FILE = "demo.tdg"


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / DEMO_FILE
    save(sample_graph(), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRoute:
    def test_all_nodes_report(self, demo_path, capsys):
        code, out, err = run_cli(
            capsys, "route", demo_path, "0", "--departure", "6", "--strategy", "fatt"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "node arrival predecessor"
        assert lines[1] == "0 6 -"
        assert lines[2] == "1 27.5 0"

    def test_csv_report(self, demo_path, capsys):
        code, out, _ = run_cli(
            capsys, "route", demo_path, "0", "--departure", "6", "--csv"
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "node,arrival,predecessor"
        node, arrival, pred = rows[2].split(",")
        assert (node, pred) == ("1", "0")
        assert float(arrival) == 27.5

    def test_path_query(self, demo_path, capsys):
        code, out, _ = run_cli(
            capsys, "route", demo_path, "0", "--target", "1", "--departure", "6"
        )
        assert code == 0
        assert "path: 0 1" in out
        assert "arrival: 27.5" in out

    def test_path_query_csv(self, demo_path, capsys):
        code, out, _ = run_cli(
            capsys, "route", demo_path, "0", "--target", "1",
            "--departure", "6", "--csv",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "target,arrival,path"
        target, arrival, path = rows[1].split(",")
        assert (target, path) == ("1", "0 1")
        assert float(arrival) == 27.5

    def test_source_equals_target(self, demo_path, capsys):
        code, out, _ = run_cli(
            capsys, "route", demo_path, "1", "--target", "1", "--departure", "3.5"
        )
        assert code == 0
        assert "path: 1" in out
        assert "arrival: 3.5" in out

    def test_unreachable_target(self, demo_path, capsys):
        # node 1 has no outgoing arcs
        code, out, _ = run_cli(capsys, "route", demo_path, "1", "--target", "0")
        assert code == 0
        assert "unreachable" in out

    def test_require_reachable_exit_code(self, demo_path, capsys):
        code, _, _ = run_cli(
            capsys, "route", demo_path, "1", "--target", "0", "--require-reachable"
        )
        assert code == 3

    def test_strategy_mismatch_is_a_usage_error(self, demo_path, capsys):
        code, _, err = run_cli(capsys, "route", demo_path, "0", "--strategy", "l-fatt")
        assert code == 2
        assert "l-fatt" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "route", "nope.tdg", "0")
        assert code == 2
        assert err

    def test_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.tdg"
        bad.write_text("tdgraph 1 constant static\ndivision 1 0 0\nnodes 1\narcs 0\n")
        code, _, err = run_cli(capsys, "route", str(bad), "0")
        assert code == 2
        assert "non-increasing breakpoints" in err

    def test_non_finite_departure_is_a_usage_error(self, demo_path, capsys):
        for departure in ("nan", "inf"):
            code, out, err = run_cli(
                capsys, "route", demo_path, "0", "--departure", departure
            )
            assert code == 2
            assert out == ""
            assert err.startswith("tdroute: ") and err.count("\n") == 1

    def test_tiny_speed_arc_is_a_usage_error(self, tmp_path, capsys):
        # At 1e-320 m/s the 1 m arc takes no finite time, so loading rejects
        # its line. At 1e-300 m/s it loads, but a 1e-10 s interval covers
        # only 1e-310 m, so its window bound length/shortest overflows.
        cases = (
            ("10", "1e-320", "tdroute: line 5: "),
            ("1e-10", "1e-320", "tdroute: line 5: "),
            ("1e-10", "1e-300",
             "tdroute: arc 0 (0->1): an interval covers only 1e-310 m"),
        )
        for horizon, speed, prefix in cases:
            path = tmp_path / "tiny.tdg"
            path.write_text(
                "tdgraph 1 constant static\n"
                f"division 1 0 {horizon}\n"
                "nodes 2\narcs 1\n"
                f"arc 0 1 1 {speed}\n"
            )
            code, _, err = run_cli(capsys, "route", str(path), "0")
            assert code == 2
            assert err.startswith(prefix)
            assert err.count("\n") == 1
            if prefix.startswith("tdroute: line 5: "):
                code, _, err = run_cli(capsys, "validate", str(path))
                assert code == 2
                assert "line 5: crossing time overflows" in err

    def test_an_absorbed_step_is_a_usage_error_for_the_searches(self, tmp_path, capsys):
        # The 1 m interval's step of the prefix row rounds away against
        # 1e20 m, so the row reads [1e20, 1e20]. The scan answers 16385;
        # a search on that row would answer 16386, so the searches refuse.
        path = tmp_path / "absorbed.tdg"
        path.write_text(
            "tdgraph 1 constant static\ndivision 2 0 1 2\nnodes 2\narcs 1\n"
            "arc 0 1 100000000000000016384 1e20 1\n"
        )
        code, out, err = run_cli(
            capsys, "route", str(path), "0", "--strategy", "att"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[2] == "1 16385 0"
        code, out, err = run_cli(
            capsys, "route", str(path), "0", "--target", "1", "--strategy", "att"
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == ["path: 0 1", "arrival: 16385"]
        for strategy in ("fatt", "b-fatt"):
            code, out, err = run_cli(
                capsys, "route", str(path), "0", "--strategy", strategy
            )
            assert (code, out) == (2, "")
            assert err.startswith(
                "tdroute: arc 0 (0->1): an interval covers only 0.0 m"
            )
            assert err.count("\n") == 1

    def test_tiny_speed_arc_under_the_scan_is_a_usage_error(self, tmp_path, capsys):
        # The scan strategies build no prefix table, so the crossing's cost
        # overflows (static) or the period covers 0 m (periodic).
        cases = (
            ("constant", "1e-320", "att"),
            ("linear", "1e-320 1e-320", "att-linear"),
        )
        for policy in ("static", "periodic"):
            for kind, speeds, strategy in cases:
                path = tmp_path / "tiny.tdg"
                path.write_text(
                    f"tdgraph 1 {kind} {policy}\n"
                    "division 1 0 1e-10\n"
                    "nodes 2\narcs 1\n"
                    f"arc 0 1 1 {speeds}\n"
                )
                for argv in (
                    ("route", str(path), "0", "--strategy", strategy),
                    ("att", str(path), "0", "--strategy", strategy),
                ):
                    code, out, err = run_cli(capsys, *argv)
                    assert code == 2, (policy, argv)
                    assert out == ""
                    assert err.startswith("tdroute: ") and err.count("\n") == 1

    @pytest.mark.parametrize("policy, division, speeds, length, want", [
        # The speed line falls from 30 to 1e-100 m/s and the arc takes the
        # whole interval: the discriminant rounds below zero at its end.
        ("static", "1 0 3.3", "30 1e-100", "49.5", "3.2999999999999998"),
        # The speed line computes to exactly 0 at 3.3 s, so the rest of the
        # crossing rests on the next interval's slope alone.
        ("periodic", "2 0 3.3 100003.3", "1e-100 1e-150 1e-100",
         "5.000000000000001e-96", "100001.64998638729"),
    ])
    def test_linear_arcs_where_the_speed_nearly_vanishes_answer(
        self, tmp_path, capsys, policy, division, speeds, length, want
    ):
        path = tmp_path / "vanishing.tdg"
        path.write_text(
            f"tdgraph 1 linear {policy}\ndivision {division}\n"
            f"nodes 2\narcs 1\narc 0 1 {length} {speeds}\n"
        )
        reports = []
        for strategy in ("att-linear", "l-fatt"):
            code, out, _ = run_cli(
                capsys, "route", str(path), "0", "--target", "1", "--csv",
                "--strategy", strategy,
            )
            assert code == 0
            assert out.splitlines()[1] == f"1,{want},0 1"
            code, out, _ = run_cli(capsys, "att", str(path), "0", "--strategy", strategy)
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]

    def test_an_overflowing_prefix_row_is_a_usage_error(self, tmp_path, capsys):
        # 7 s at 1e308 m/s covers more than the largest float: the search
        # strategies need a finite prefix row, the scan does not.
        path = tmp_path / "overflow.tdg"
        path.write_text(
            "tdgraph 1 constant static\ndivision 1 0 7\n"
            "nodes 2\narcs 1\narc 0 1 1 1e308\n"
        )
        argv = ("route", str(path), "0", "--departure", "10", "--target", "1")
        code, out, _ = run_cli(capsys, *argv, "--csv", "--strategy", "att")
        assert code == 0
        assert out.splitlines()[1] == "1,10,0 1"
        for strategy in ("fatt", "b-fatt"):
            code, out, err = run_cli(capsys, *argv, "--strategy", strategy)
            assert code == 2
            assert out == ""
            assert err == (
                "tdroute: arc 0 (0->1): the distance it covers by the horizon "
                "overflows\n"
            )

    def test_att_and_fatt_reports_agree_on_generated_graphs(self, tmp_path, capsys):
        for seed in range(100):
            config = GeneratorConfig(
                nodes=8, avg_degree=1.8, intervals=5, horizon=120.0,
                speed_range=(2.0, 25.0), length_range=(20.0, 400.0), seed=seed,
            )
            path = tmp_path / f"g{seed}.tdg"
            save(generate(config), path)
            reports = []
            for strategy in ("att", "fatt"):
                code, out, _ = run_cli(
                    capsys, "route", str(path), "0",
                    "--departure", "13", "--strategy", strategy,
                )
                assert code == 0
                reports.append(out)
            assert reports[0] == reports[1]

    def test_a_scan_toward_a_target_runs_over_landmarks(
        self, tmp_path, capsys, monkeypatch
    ):
        handed = []

        def spy(graph, table, *args):
            handed.append(table)
            return shortest_path_to(graph, table, *args)

        monkeypatch.setattr("tdroute.cli.shortest_path_to", spy)
        for seed in range(20):
            config = GeneratorConfig(
                nodes=12, avg_degree=2.0, intervals=5, horizon=120.0,
                speed_range=(2.0, 25.0), length_range=(20.0, 400.0), seed=seed,
                kind=LINEAR if seed % 2 else CONSTANT,
            )
            graph = generate(config)
            path = tmp_path / f"g{seed}.tdg"
            save(graph, path)
            strategy = "att-linear" if seed % 2 else "att"
            plain = shortest_path_to(graph, None, 0, 11, 13.0, strategy)
            for csv in ((), ("--csv",)):
                code, out, _ = run_cli(
                    capsys, "route", str(path), "0", "--target", "11",
                    "--departure", "13", "--strategy", strategy, *csv,
                )
                assert code == 0
                table = handed.pop()
                assert table.rows == [] and len(table.landmarks) == LANDMARKS
                if csv:
                    _, arrival, nodes = out.splitlines()[1].split(",")
                    assert float(arrival) == plain.arrival
                    assert nodes == " ".join(map(str, plain.path or ()))
                elif plain.path is None:
                    assert out == "target 11 unreachable\n"
                else:
                    assert out.splitlines() == [
                        "path: " + " ".join(map(str, plain.path)),
                        f"arrival: {plain.arrival:.9g}",
                    ]

    def test_a_one_to_all_scan_builds_no_table(self, demo_path, capsys, monkeypatch):
        handed = []

        def spy(graph, table, *args):
            handed.append(table)
            return shortest_paths(graph, table, *args)

        monkeypatch.setattr("tdroute.cli.shortest_paths", spy)
        code, _, _ = run_cli(capsys, "route", demo_path, "0", "--strategy", "att")
        assert code == 0 and handed == [None]

    def test_only_a_search_toward_a_target_builds_landmarks(
        self, tmp_path, capsys, monkeypatch
    ):
        handed = []

        def spy(query):
            def wrapped(graph, table, *args):
                handed.append(table)
                return query(graph, table, *args)
            return wrapped

        monkeypatch.setattr("tdroute.cli.shortest_paths", spy(shortest_paths))
        monkeypatch.setattr("tdroute.cli.shortest_path_to", spy(shortest_path_to))
        graph = generate(GeneratorConfig(
            nodes=12, avg_degree=2.0, intervals=5, horizon=120.0,
            speed_range=(2.0, 25.0), length_range=(20.0, 400.0), seed=3,
        ))
        path = tmp_path / "g.tdg"
        save(graph, path)
        full = build_ael(graph)
        for target in ((), ("--target", "11")):
            code, _, _ = run_cli(capsys, "route", str(path), "0", *target)
            assert code == 0
            table = handed.pop()
            assert table.rows == full.rows
            assert table.window_bounds == full.window_bounds
            assert table.landmarks == (full.landmarks if target else [])
        assert len(full.landmarks) == LANDMARKS

    def test_an_out_of_range_node_is_named(self, demo_path, capsys):
        for argv in (("0", "--target", "99"), ("99",)):
            code, out, err = run_cli(capsys, "route", demo_path, *argv)
            assert code == 2 and out == ""
            assert err == "tdroute: node id out of range: 99 (graph has 2 nodes)\n"


class TestAttCommand:
    def test_demo_arc(self, demo_path, capsys):
        code, out, _ = run_cli(capsys, "att", demo_path, "0", "--departure", "6")
        assert code == 0
        assert "cost 21.5" in out
        assert "arrival_interval 2" in out

    def test_short_hop(self, tmp_path, capsys):
        path = tmp_path / "short.tdg"
        path.write_text(
            "tdgraph 1 constant static\ndivision 1 0 10\nnodes 2\narcs 1\n"
            "arc 0 1 30 10\n"
        )
        code, out, _ = run_cli(capsys, "att", str(path), "0")
        assert code == 0
        assert "cost 3" in out

    def test_strategies_agree_on_flat_linear_fixture(self, tmp_path, capsys):
        constant = tmp_path / "c.tdg"
        constant.write_text(
            "tdgraph 1 constant static\ndivision 2 0 10 20\nnodes 2\narcs 1\n"
            "arc 0 1 170 10 10\n"
        )
        linear = tmp_path / "l.tdg"
        linear.write_text(
            "tdgraph 1 linear static\ndivision 2 0 10 20\nnodes 2\narcs 1\n"
            "arc 0 1 170 10 10 10\n"
        )
        _, out_const, _ = run_cli(capsys, "att", str(constant), "0", "--strategy", "att")
        _, out_linear, _ = run_cli(capsys, "att", str(linear), "0", "--strategy", "l-fatt")
        assert out_const.splitlines()[0] == out_linear.splitlines()[0]

    def test_arc_index_out_of_range(self, demo_path, capsys):
        code, _, err = run_cli(capsys, "att", demo_path, "5")
        assert code == 2
        assert "out of range" in err


class TestGenValidate:
    def test_gen_is_deterministic(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.tdg"), str(tmp_path / "b.tdg")
        for out in (a, b):
            code, _, _ = run_cli(capsys, "gen", out, "--seed", "9", "--nodes", "12")
            assert code == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_gen_output_validates(self, tmp_path, capsys):
        out = str(tmp_path / "g.tdg")
        run_cli(capsys, "gen", out, "--kind", "linear", "--policy", "periodic")
        code, _, err = run_cli(capsys, "validate", out)
        assert code == 0
        assert err == ""

    def test_validate_demo(self, demo_path, capsys):
        code, _, _ = run_cli(capsys, "validate", demo_path)
        assert code == 0

    def test_validate_reports_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.tdg"
        bad.write_text(
            "tdgraph 1 constant static\ndivision 2 0 10 10\nnodes 2\narcs 0\n"
        )
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert "non-increasing breakpoints" in err

    def test_a_node_count_over_the_cap_is_a_usage_error(self, tmp_path, capsys):
        big = tmp_path / "big.tdg"
        big.write_text(
            "tdgraph 1 constant static\ndivision 1 0 10\n"
            f"nodes {MAX_NODES + 1}\narcs 0\n"
        )
        for argv in (("validate", str(big)), ("route", str(big), "0")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2
            assert f"line 3: node count {MAX_NODES + 1} exceeds the cap" in err

    @pytest.mark.parametrize("horizon", ["inf", "5e-324"])
    def test_gen_rejects_a_horizon_it_cannot_divide(self, tmp_path, capsys, horizon):
        out = str(tmp_path / "g.tdg")
        code, _, err = run_cli(
            capsys, "gen", out, "--horizon", horizon, "--intervals", "3"
        )
        assert code == 2
        assert "horizon must be finite and at least" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--intervals", "1099511627776"),
             "interval count 1099511627776 is not in [1, 4194304]"),
            (("--nodes", "16777216", "--avg-degree", "16777215"),
             "281474959933440 arcs over 8 intervals need about"),
        ],
        ids=["intervals", "arcs"],
    )
    def test_gen_rejects_a_size_over_its_cap(self, tmp_path, capsys, argv, message):
        out = tmp_path / "g.tdg"
        code, stdout, err = run_cli(capsys, "gen", str(out), *argv)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"tdroute: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_validate_lists_every_arc_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.tdg"
        bad.write_text(
            "tdgraph 1 constant static\ndivision 1 0 10\nnodes 3\narcs 2\n"
            "arc 0 0 5 10\n"
            "arc 0 2 5 -1\n"
        )
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert "self-loop arc" in err
        assert "non-positive speed" in err


class TestBench:
    def test_small_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--kmin", "4", "--kmax", "16",
            "--strategies", "att,fatt,b-fatt", "--queries", "5", "--seed", "3",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "strategy,K,n,m,Q,queries,probes,wall_ns"
        assert len(rows) == 1 + 3 * 3  # three K cells, three strategies
        for row in rows[1:]:
            strategy, k, n, m, q, queries, probes, wall = row.split(",")
            assert strategy in ("att", "fatt", "b-fatt")
            assert int(k) in (4, 8, 16)
            assert (n, m, queries) == ("2", "1", "5")
            assert int(probes) >= 0
            assert int(wall) >= 0
            assert (q == "") == (strategy != "b-fatt")

    def test_zero_queries_yields_empty_row_set(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--kmin", "4", "--kmax", "4",
                               "--queries", "0")
        assert code == 0
        assert out.strip() == "strategy,K,n,m,Q,queries,probes,wall_ns"

    def test_zero_queries_run_no_sweep(self, monkeypatch, capsys):
        def fail(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("tdroute.cli.run_sweep", fail)
        code, out, _ = run_cli(capsys, "bench", "--queries", "0")
        assert code == 0
        assert out == "strategy,K,n,m,Q,queries,probes,wall_ns\n"

    def test_kmax_over_the_cap_rejected(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--kmax", "1099511627776")
        assert (code, out) == (2, "")
        assert err == "tdroute: K 1099511627776 exceeds the cap of 4194304\n"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--kmin", "4", "--kmax", "4", "--queries", "2",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("strategy,K,")

    def test_windowed_sweep_probes_contained(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--kmin", "256", "--kmax", "512",
            "--strategies", "fatt,b-fatt", "--queries", "16",
            "--window", "8", "--seed", "11",
        )
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        by_cell = {}
        for strategy, k, *_rest, probes, _wall in rows:
            by_cell.setdefault(int(k), {})[strategy] = int(probes)
        for k, cell in by_cell.items():
            assert cell["b-fatt"] <= cell["fatt"]

    def test_mixed_kind_strategies_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--kmin", "4", "--kmax", "4",
            "--strategies", "att,l-fatt",
        )
        assert code == 2
        assert "mix" in err

    def test_empty_strategy_list_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--kmin", "4", "--kmax", "4", "--strategies", ",",
        )
        assert code == 2
        assert out == ""
        assert "at least one strategy" in err

    def test_kmin_below_two_rejected(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--kmin", "1", "--kmax", "4")
        assert code == 2
        assert out == ""
        assert err == "tdroute: need 2 <= kmin <= kmax\n"

    def test_checksum_mismatch_exits_1(self, monkeypatch, capsys):
        def disagree(config):
            raise ChecksumMismatch("result checksum mismatch at K=4")

        monkeypatch.setattr("tdroute.cli.run_sweep", disagree)
        code, out, err = run_cli(capsys, "bench", "--kmin", "4", "--kmax", "4")
        assert code == 1
        assert out == ""
        assert err == "tdroute: result checksum mismatch at K=4\n"


class TestEntryPoint:
    def test_module_invocation(self, demo_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "tdroute", "att", demo_path, "0",
             "--departure", "6"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "cost 21.5" in proc.stdout
