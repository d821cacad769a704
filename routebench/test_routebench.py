"""Tests of the route benchmark itself, on shrunken workloads.

Run from the repository root: ``python -m pytest routebench``.
"""

import dataclasses
import hashlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tdroute import PERIODIC, STATIC, build_ael, dumps, load, sample_graph

import measure
from workloads import GRAPHS, STRATA, WORKLOADS, Round, query_rounds, write_input

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
GATED = sorted(w["name"] for w in SPEC["workloads"])


def tiny(name, **changes):
    small = dict(side=5, trace_rounds=3)
    return dataclasses.replace(WORKLOADS[name], **{**small, **changes})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_written_input_round_trips_byte_for_byte(name, tmp_path):
    path = tmp_path / "g.tdg"
    digest = write_input(tiny(name), 7, 0, path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    graph = load(path)
    assert graph.nodes == 25 and graph.arc_count == tiny(name).arcs
    assert dumps(graph).encode("utf-8") == data
    assert measure.round_trip_ok(graph, digest)


def test_inputs_depend_only_on_the_seed(tmp_path):
    w = tiny("ramp")
    a, b, c = (tmp_path / n for n in "abc")
    assert write_input(w, 3, 0, a) == write_input(w, 3, 0, b)
    assert write_input(w, 4, 0, c) != write_input(w, 3, 0, a)
    assert write_input(w, 3, 1, c) != write_input(w, 3, 0, a)


def test_query_rounds_are_seeded_valid_and_stratified():
    w = WORKLOADS["city"]
    first = list(itertools.islice(query_rounds(w, 5, 0), 50))
    assert first == list(itertools.islice(query_rounds(w, 5, 0), 50))
    assert first != list(itertools.islice(query_rounds(w, 6, 0), 50))
    assert first != list(itertools.islice(query_rounds(w, 5, 1), 50))
    lo, hi = w.departure_window
    for i, rnd in enumerate(first):
        assert 0 <= rnd.source < w.nodes
        assert lo <= rnd.departure <= hi
        assert i % STRATA <= rnd.rank * STRATA < i % STRATA + 1


def test_round_target_is_picked_by_arrival_rank():
    arrival = [5.0, 9.0, 7.0, 7.0, 6.0]  # node 0 is the source
    ranks = [Round(0, 5.0, r / 4).target(arrival) for r in range(4)]
    assert ranks == [4, 2, 3, 1]


@pytest.mark.parametrize(
    "tau, cost, policy, outcome",
    [
        (6.0, 3.0, STATIC, "same_interval"),
        (6.0, 21.5, STATIC, "searched"),
        (35.0, 10.0, STATIC, "static_tail"),
        (35.0, 10.0, PERIODIC, "periodic_wrap"),
        (45.0, 1.0, PERIODIC, "periodic_wrap"),
    ],
)
def test_classify(tau, cost, policy, outcome):
    assert measure.classify(sample_graph(policy), tau, cost) == outcome


def _traced(w, seed, tmp_path):
    return measure.traced(w, seed, tmp_path, measure.Tracer())


# Exact counters and the ratios built from them; timings excluded.
EXACT_UNITS = ("count", "ratio", "MiB")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_bit_identically(name, tmp_path):
    w = tiny(name)
    first, gate1, digests1 = _traced(w, 11, tmp_path)
    again, gate2, digests2 = _traced(w, 11, tmp_path)
    assert gate1.failed == gate2.failed == 0
    assert digests1 == digests2 and len(set(digests1)) == GRAPHS
    exact = {
        k: v
        for k, v in first.items()
        if v[1] in EXACT_UNITS and k != "trace.overhead_ratio"
    }
    counters = {
        f"routing.{kind}.{role}.{counter}"
        for kind in ("one_to_all", "p2p")
        for role in w.strategies()
        for counter in measure.COUNTERS
    }
    assert counters <= exact.keys()
    assert exact == {k: again[k] for k in exact}
    assert first["routing.rounds"][0] == GRAPHS * w.trace_rounds
    assert list(tmp_path.iterdir()) == []  # inputs are deleted


@pytest.mark.parametrize("name", GATED)
def test_metric_names_match_benchmark_json(name, tmp_path):
    w = tiny(name)
    metrics, counts, gate, _ = measure.untraced(w, 1, 0.05, tmp_path)
    assert gate.failed == 0 and gate.attempted > 0
    assert counts["one_to_all_ms.p90"] >= measure.MIN_SAMPLES
    # Whole cycles of strata: every stratum of p2p targets is sampled alike.
    assert counts["p2p_ms.p50"] % (GRAPHS * STRATA) == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())
    traced, _, _ = _traced(w, 1, tmp_path)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_, unit) in traced.items()} == declared


def test_linear_graphs_run_no_bounded_strategy(tmp_path):
    traced, gate, _ = _traced(tiny("ramp"), 1, tmp_path)
    assert gate.failed == 0
    assert not [name for name in traced if ".bounded." in name]


def test_gate_counts_a_workload_outside_its_regime(tmp_path):
    # Hour-long intervals: most crossings end in the departure interval,
    # so fine's searched_ratio falls below 0.9.
    _, gate, _ = _traced(tiny("fine", intervals=24), 1, tmp_path)
    assert gate.failed == 1


def test_gate_counts_a_disagreeing_strategy(tmp_path):
    w = tiny("city")
    path = tmp_path / "g.tdg"
    write_input(w, 2, 0, path)
    graph = load(path)
    table = build_ael(graph)
    rnd = next(query_rounds(w, 2, 0))
    gate = measure.Gate()
    out = measure.run_round(graph, table, w, rnd, gate)
    assert gate.failed == 0
    out.one_to_all["scan"].arrival[out.target] *= 1 + 1e-6
    measure.check_round(rnd, out, gate)
    assert gate.failed > 0


def test_round_brackets_each_query_with_yardsticks(tmp_path):
    w = tiny("fine")
    path = tmp_path / "g.tdg"
    write_input(w, 2, 0, path)
    graph = load(path)
    rnd = next(query_rounds(w, 2, 0))
    out = measure.run_round(graph, build_ael(graph), w, rnd, measure.Gate())
    assert len(out.yardstick_ns) == 2 * len(w.strategies()) + 1
    assert all(ns > 0 for ns in out.yardstick_ns)


def test_scaling_reports_cost_at_reference_speed():
    ref = measure.REFERENCE_YARDSTICK_NS
    assert measure.scaled(1000, ref, ref) == 1000
    # The host ran at half speed around the query: the cost halves.
    assert measure.scaled(1000, 2 * ref, 2 * ref) == 500
    assert measure.scaled(1000, ref, 3 * ref) == 500


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = [sys.executable, *SPEC["command"][1:]]
    args = ["--workload", "ramp", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        command + args, cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
