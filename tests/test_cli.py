import os
import subprocess
import sys

import pytest

from tdroute import GeneratorConfig, dumps, generate, sample_graph, save
from tdroute.cli import main

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
