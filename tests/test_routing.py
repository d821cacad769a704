import hashlib
import math
import random
from collections import Counter

import pytest

from tdroute import (
    CONSTANT,
    LINEAR,
    PERIODIC,
    STATIC,
    UNREACHABLE,
    AelTable,
    Arc,
    OpCounter,
    SpeedProfile,
    TdGraph,
    TimeDivision,
    att,
    att_linear,
    build_ael,
    locate_interval,
    sample_graph,
    shortest_path_to,
    shortest_paths,
    traverse_arc,
)
from support import enumerate_arrivals, random_graph


def three_node_graph():
    """Demo road plus a short second hop and a long direct arc."""
    demo = sample_graph()
    steady = SpeedProfile(CONSTANT, (10.0, 10.0, 10.0, 10.0))
    return TdGraph(
        3,
        demo.division,
        STATIC,
        CONSTANT,
        (
            Arc(0, 1, 170.0, demo.arcs[0].profile),
            Arc(1, 2, 30.0, steady),
            Arc(0, 2, 10000.0, steady),
        ),
    )


def strategies_for(kind):
    return ("att", "fatt", "b-fatt") if kind == CONSTANT else ("att-linear", "l-fatt")


class TestSmallGraphs:
    def test_two_hop_beats_direct(self):
        graph = three_node_graph()
        table = build_ael(graph)
        result = shortest_paths(graph, table, 0, 6.0, "fatt")
        assert result.arrival == [6.0, 27.5, 30.5]
        assert result.predecessor == [None, 0, 1]
        assert result.stats.settled == 3

    def test_single_node(self):
        division = TimeDivision((0.0, 10.0))
        graph = TdGraph(1, division, STATIC, CONSTANT, ())
        result = shortest_paths(graph, None, 0, 4.5, "att")
        assert result.arrival == [4.5]
        assert result.predecessor == [None]

    def test_unreachable_nodes(self):
        division = TimeDivision((0.0, 10.0))
        graph = TdGraph(2, division, STATIC, CONSTANT, ())
        result = shortest_paths(graph, None, 0, 0.0, "att")
        assert result.arrival[1] == UNREACHABLE
        assert result.predecessor[1] is None
        assert result.arrival_interval[1] is None

    def test_point_to_point(self):
        graph = three_node_graph()
        table = build_ael(graph)
        outcome = shortest_path_to(graph, table, 0, 2, 6.0, "fatt")
        assert outcome.path == [0, 1, 2]
        assert outcome.arrival == 30.5

    def test_source_equals_target(self):
        graph = three_node_graph()
        outcome = shortest_path_to(graph, None, 1, 1, 7.25, "att")
        assert outcome.path == [1]
        assert outcome.arrival == 7.25

    def test_unreachable_target_is_not_an_error(self):
        division = TimeDivision((0.0, 10.0))
        graph = TdGraph(2, division, STATIC, CONSTANT, ())
        outcome = shortest_path_to(graph, None, 0, 1, 0.0, "att")
        assert outcome.path is None
        assert outcome.arrival == UNREACHABLE


class TestValidation:
    def test_bad_source(self):
        graph = sample_graph()
        with pytest.raises(ValueError):
            shortest_paths(graph, None, 5, 0.0, "att")

    def test_negative_departure(self):
        graph = sample_graph()
        for departure in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                shortest_paths(graph, None, 0, departure, "att")

    def test_unknown_strategy(self):
        graph = sample_graph()
        with pytest.raises(ValueError):
            shortest_paths(graph, None, 0, 0.0, "dijkstra")

    def test_strategy_kind_mismatch(self):
        graph = sample_graph()
        with pytest.raises(ValueError):
            shortest_paths(graph, build_ael(graph), 0, 0.0, "l-fatt")

    def test_missing_table(self):
        graph = sample_graph()
        with pytest.raises(ValueError):
            shortest_paths(graph, None, 0, 0.0, "fatt")

    def test_strategy_names_case_insensitive(self):
        graph = sample_graph()
        result = shortest_paths(graph, build_ael(graph), 0, 6.0, "FATT")
        assert result.arrival[1] == 27.5

    def test_prefix_table_must_match_the_graph(self):
        graph = three_node_graph()
        table = build_ael(graph)
        wider = build_ael(TdGraph(3, graph.division, STATIC, CONSTANT,
                                  graph.arcs + graph.arcs[:1]))
        cases = (
            ("fatt", AelTable(table.rows[:-1], table.window_bounds[:-1]),
             "prefix table has 2 rows, graph has 3 arcs"),
            ("b-fatt", wider, "prefix table has 4 rows, graph has 3 arcs"),
            ("b-fatt", AelTable(table.rows),
             "prefix table has 0 window bounds, graph has 3 arcs"),
        )
        for strategy, bad, message in cases:
            with pytest.raises(ValueError, match=message):
                shortest_paths(graph, bad, 0, 6.0, strategy)
            with pytest.raises(ValueError, match=message):
                shortest_path_to(graph, bad, 0, 2, 6.0, strategy)
            with pytest.raises(ValueError, match=message):
                traverse_arc(graph, bad, 0, 6.0, strategy)


class TestOptimality:
    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(80)
        for _ in range(150):
            graph = random_graph(rng, max_nodes=9)
            table = build_ael(graph)
            source = rng.randrange(graph.nodes)
            departure = rng.uniform(0.0, graph.division.horizon)
            want = enumerate_arrivals(graph, source, departure)
            for strategy in strategies_for(graph.kind):
                got = shortest_paths(graph, table, source, departure, strategy)
                for node in range(graph.nodes):
                    if want[node] == math.inf:
                        assert got.arrival[node] == UNREACHABLE
                    else:
                        assert got.arrival[node] == pytest.approx(
                            want[node], rel=1e-9, abs=1e-9
                        )

    def test_strategies_agree(self):
        rng = random.Random(81)
        for _ in range(150):
            graph = random_graph(rng)
            table = build_ael(graph)
            source = rng.randrange(graph.nodes)
            departure = rng.uniform(0.0, 2.0 * graph.division.horizon)
            names = strategies_for(graph.kind)
            results = [
                shortest_paths(graph, table, source, departure, s) for s in names
            ]
            base = results[0]
            for other in results[1:]:
                for node in range(graph.nodes):
                    if base.arrival[node] == UNREACHABLE:
                        assert other.arrival[node] == UNREACHABLE
                    else:
                        assert math.isclose(
                            base.arrival[node], other.arrival[node], rel_tol=1e-9
                        )
                        assert (
                            base.arrival_interval[node]
                            == other.arrival_interval[node]
                        )

    def test_point_to_point_matches_full_run(self):
        rng = random.Random(82)
        for _ in range(100):
            graph = random_graph(rng)
            table = build_ael(graph)
            source = rng.randrange(graph.nodes)
            target = rng.randrange(graph.nodes)
            departure = rng.uniform(0.0, graph.division.horizon)
            strategy = strategies_for(graph.kind)[0]
            full = shortest_paths(graph, table, source, departure, strategy)
            p2p = shortest_path_to(graph, table, source, target, departure, strategy)
            assert p2p.arrival == full.arrival[target]
            if p2p.path is not None:
                assert p2p.path == full.path_to(target)


class TestRouteResultContract:
    def test_path_reevaluation_reproduces_arrival(self):
        rng = random.Random(83)
        for _ in range(100):
            graph = random_graph(rng)
            table = build_ael(graph)
            source = rng.randrange(graph.nodes)
            departure = rng.uniform(0.0, graph.division.horizon)
            strategy = strategies_for(graph.kind)[1]
            result = shortest_paths(graph, table, source, departure, strategy)
            cost_fn = att if graph.kind == CONSTANT else att_linear
            for node in range(graph.nodes):
                path = result.path_to(node)
                if path is None:
                    continue
                now = departure
                for a, b in zip(path, path[1:]):
                    arc_index = next(
                        i for i in graph.out_arcs(a) if graph.arcs[i].dst == b
                    )
                    arc = graph.arcs[arc_index]
                    now += cost_fn(arc, graph.division, graph.policy, now).cost
                assert now == pytest.approx(result.arrival[node], rel=1e-9)

    def test_an_arrival_on_a_breakpoint_is_placed_past_it(self):
        # Departing at 0, arc 0 covers its 50 m in exactly the 10 s of
        # interval 0 and arrives on the breakpoint 10.0, which interval 1
        # holds; arc 1 then departs from that node.
        division = TimeDivision((0.0, 10.0, 20.0))
        for kind in (CONSTANT, LINEAR):
            speeds = (5.0, 2.0) if kind == CONSTANT else (5.0, 5.0, 5.0)
            profile = SpeedProfile(kind, speeds)
            for policy in (STATIC, PERIODIC):
                graph = TdGraph(3, division, policy, kind, (
                    Arc(0, 1, 50.0, profile), Arc(1, 2, 10.0, profile),
                ))
                table = build_ael(graph)
                for strategy in strategies_for(kind):
                    for departure in (0.0, 20.0, 40.0):
                        result = shortest_paths(graph, table, 0, departure, strategy)
                        arrival = result.arrival
                        if departure == 0.0:
                            assert arrival[1] == 10.0
                        assert result.arrival_interval == [
                            locate_interval(division, a, policy) for a in arrival
                        ]
                        now = departure
                        for arc_index in (0, 1):
                            now += traverse_arc(
                                graph, table, arc_index, now, strategy
                            ).cost
                            assert arrival[arc_index + 1] == now
                        p2p = shortest_path_to(graph, table, 0, 2, departure, strategy)
                        assert p2p.arrival == arrival[2]

    def test_arrival_intervals_reported(self):
        graph = three_node_graph()
        table = build_ael(graph)
        result = shortest_paths(graph, table, 0, 6.0, "fatt")
        # 6.0 in [0,10), 27.5 in [15,30), 30.5 in [30,40)
        assert result.arrival_interval == [0, 2, 3]

    def test_departure_monotonicity(self):
        rng = random.Random(84)
        for _ in range(100):
            graph = random_graph(rng)
            table = build_ael(graph)
            source = rng.randrange(graph.nodes)
            dep1 = rng.uniform(0.0, graph.division.horizon)
            dep2 = dep1 + rng.uniform(1e-6, graph.division.horizon)
            strategy = strategies_for(graph.kind)[0]
            early = shortest_paths(graph, table, source, dep1, strategy)
            late = shortest_paths(graph, table, source, dep2, strategy)
            for node in range(graph.nodes):
                if early.arrival[node] == UNREACHABLE:
                    assert late.arrival[node] == UNREACHABLE
                else:
                    assert early.arrival[node] < late.arrival[node]

    def test_fatt_probe_accounting(self):
        rng = random.Random(85)
        for _ in range(50):
            graph = random_graph(rng, kind=CONSTANT)
            table = build_ael(graph)
            source = rng.randrange(graph.nodes)
            result = shortest_paths(graph, table, source, 0.0, "fatt")
            k = graph.division.intervals
            per_call = (math.ceil(math.log2(k)) + 2) if k > 1 else 2
            assert result.stats.probes <= result.stats.traversal_calls * per_call
            assert result.stats.steps == 0

    def test_settled_counts_reachable_nodes(self):
        rng = random.Random(86)
        for _ in range(50):
            graph = random_graph(rng)
            table = build_ael(graph)
            source = rng.randrange(graph.nodes)
            strategy = strategies_for(graph.kind)[0]
            result = shortest_paths(graph, table, source, 0.0, strategy)
            reachable = sum(1 for a in result.arrival if a != UNREACHABLE)
            assert result.stats.settled == reachable


ENGINE_DIGEST = "f85cfed41e22f021150e603a2f7553fd7535e0003509df5878f2903a49bb29e9"


def engine_corpus():
    """Lines covering every query, point-to-point answer and arc traversal
    over seeded graphs of both kinds and both policies, for every strategy
    of the graph's kind."""
    rng = random.Random(5)
    for _ in range(30):
        for kind in (CONSTANT, LINEAR):
            for policy in (STATIC, PERIODIC):
                graph = random_graph(rng, kind=kind, policy=policy)
                table = build_ael(graph)
                division = graph.division
                horizon = division.horizon
                for strategy in strategies_for(kind):
                    for departure in (
                        rng.uniform(0.0, horizon),
                        horizon + rng.uniform(0.0, 2.0 * horizon),
                    ):
                        source = rng.randrange(graph.nodes)
                        r = shortest_paths(graph, table, source, departure, strategy)
                        yield strategy, (
                            f"{r.arrival!r} {r.predecessor} "
                            f"{r.arrival_interval} {r.stats}"
                        )
                        target = rng.randrange(graph.nodes)
                        p = shortest_path_to(
                            graph, table, source, target, departure, strategy
                        )
                        yield strategy, f"{p.path} {p.arrival!r} {p.stats}"
                        right = locate_interval(division, departure, policy)
                        stale = (right + 1) % division.intervals
                        for index in range(graph.arc_count):
                            for hint in (right, stale, None):
                                counter = OpCounter()
                                t = traverse_arc(
                                    graph, table, index, departure, strategy,
                                    hint, counter,
                                )
                                yield strategy, f"{t!r} {counter!r}"


class TestPinnedOutput:
    def test_every_strategy_reproduces_the_pinned_engine_output(self):
        digest = hashlib.sha256()
        lines = Counter()
        for strategy, line in engine_corpus():
            lines[strategy] += 1
            digest.update(f"{strategy} {line}\n".encode())
        assert lines == {
            "att": 2376, "fatt": 2376, "b-fatt": 2376,
            "att-linear": 2412, "l-fatt": 2412,
        }
        assert digest.hexdigest() == ENGINE_DIGEST
