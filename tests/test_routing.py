import hashlib
import math
import random
import re
import sys
import threading
from array import array
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
    GeneratorConfig,
    GraphFormatError,
    OpCounter,
    SpeedProfile,
    TdGraph,
    TimeDivision,
    att,
    att_linear,
    bounded_fatt,
    build_ael,
    dumps,
    fatt,
    generate,
    l_fatt,
    loads,
    locate_interval,
    sample_graph,
    shortest_path_to,
    shortest_paths,
    traverse_arc,
)
from tdroute import model, routing, traversal
from tdroute.model import _clears_coverage, _pack, _prefix_sums, _window_bound
from tdroute.landmarks import (
    LANDMARKS,
    build_landmarks,
    potential,
    targeting,
)
from support import enumerate_arrivals, random_graph, random_profile


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

    def test_bad_target(self):
        graph = three_node_graph()
        result = shortest_paths(graph, None, 0, 0.0, "att")
        for target in (-1, 3):
            with pytest.raises(ValueError, match="node id out of range"):
                shortest_path_to(graph, None, 0, target, 0.0, "att")
            with pytest.raises(ValueError, match="node id out of range"):
                result.path_to(target)

    def test_negative_departure(self):
        graph = sample_graph()
        for departure in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                shortest_paths(graph, None, 0, departure, "att")

    def test_an_int_departure_beyond_the_float_range_is_rejected(self):
        # 10**400 < inf holds, but the int has no float: every entry point
        # must say so as a ValueError, not an OverflowError.
        graph, departure = sample_graph(), 10**400
        table = build_ael(graph)
        arc, division = graph.arcs[0], graph.division
        linear = Arc(0, 1, 170.0, SpeedProfile(LINEAR, (10.0, 6.0, 8.0, 10.0, 10.0)))
        calls = (
            lambda: shortest_paths(graph, table, 0, departure, "fatt"),
            lambda: shortest_path_to(graph, table, 0, 1, departure, "fatt"),
            lambda: traverse_arc(graph, table, 0, departure, "att"),
            lambda: att(arc, division, STATIC, departure),
            lambda: fatt(arc, table, 0, division, STATIC, departure),
            lambda: bounded_fatt(arc, table, 0, division, STATIC, departure, 6),
            lambda: att_linear(linear, division, STATIC, departure),
            lambda: l_fatt(linear, table, 0, division, STATIC, departure),
        )
        for call in calls:
            with pytest.raises(ValueError, match="must be finite and non-negative"):
                call()

    def test_a_negative_zero_departure_is_positive_zero(self):
        graph = sample_graph()
        result = shortest_paths(graph, build_ael(graph), 0, -0.0, "fatt")
        assert math.copysign(1.0, result.departure) == 1.0
        assert math.copysign(1.0, result.arrival[0]) == 1.0
        to_source = shortest_path_to(graph, None, 0, 0, -0.0, "att")
        assert math.copysign(1.0, to_source.arrival) == 1.0

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

    def test_a_prefix_row_of_the_wrong_length_raises(self):
        # sample_graph() has four intervals; every row one entry short or long.
        graph = sample_graph()
        table = build_ael(graph)
        for rows in ([row[:-1] for row in table.rows],
                     [row + array("d", [row[-1] + 100.0]) for row in table.rows]):
            bad = AelTable(rows, table.window_bounds, table.landmarks)
            message = (f"prefix row has {len(rows[0])} entries, "
                       "division has 4 intervals")
            for strategy in ("fatt", "b-fatt"):
                with pytest.raises(ValueError, match=message):
                    shortest_paths(graph, bad, 0, 6.0, strategy)
                with pytest.raises(ValueError, match=message):
                    shortest_path_to(graph, bad, 0, 1, 6.0, strategy)
                with pytest.raises(ValueError, match=message):
                    traverse_arc(graph, bad, 0, 6.0, strategy)

    def test_the_engine_checks_every_row(self):
        # Only the last row is cut or one entry long; the first is whole.
        graph = generate(GeneratorConfig(
            nodes=6, avg_degree=2, intervals=8, horizon=100, speed_range=(1, 3),
            length_range=(200, 400), seed=1,
        ))
        table = build_ael(graph)
        row = table.rows[-1]
        for last in (row[:2], row + array("d", [row[-1] + 1.0])):
            bad = AelTable(table.rows[:-1] + [last], table.window_bounds,
                           table.landmarks)
            message = (f"prefix row has {len(last)} entries, "
                       "division has 8 intervals")
            for strategy in ("fatt", "b-fatt"):
                for source in range(graph.nodes):
                    with pytest.raises(ValueError, match=message):
                        shortest_paths(graph, bad, source, 1.0, strategy)
                    with pytest.raises(ValueError, match=message):
                        shortest_path_to(graph, bad, source, 0, 1.0, strategy)

    @pytest.mark.parametrize("strategy", ["fatt", "b-fatt", "l-fatt"])
    def test_traverse_arc_raises_what_the_procedure_raises(self, strategy):
        kind = LINEAR if strategy == "l-fatt" else CONSTANT
        graph = generate(GeneratorConfig(
            nodes=6, avg_degree=2, intervals=8, horizon=100, speed_range=(1, 3),
            length_range=(200, 400), seed=1, kind=kind,
        ))
        table = build_ael(graph)
        index = graph.arc_count - 1
        row = table.rows[index]

        def with_last_row(last):
            return AelTable(table.rows[:-1] + [last], table.window_bounds,
                            table.landmarks)

        def procedure(ael, tau):
            args = (graph.arcs[index], ael, index, graph.division, graph.policy, tau)
            if strategy == "b-fatt":
                return bounded_fatt(*args, table.window_bounds[index])
            return (l_fatt if kind == LINEAR else fatt)(*args)

        cases = [(table, tau, "departure instant must be finite and non-negative")
                 for tau in (-1.0, math.nan, math.inf)]
        cases += [
            (with_last_row(row[:2]), 6.0,
             "prefix row has 2 entries, division has 8 intervals"),
            (with_last_row(row + array("d", [row[-1] + 1.0])), 6.0,
             "prefix row has 9 entries, division has 8 intervals"),
        ]
        for ael, tau, message in cases:
            with pytest.raises(ValueError, match=message) as want:
                procedure(ael, tau)
            with pytest.raises(ValueError) as got:
                traverse_arc(graph, ael, index, tau, strategy)
            assert str(got.value) == str(want.value)


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


def neighbours(side):
    """Each pair of neighbouring nodes of a side x side grid, once."""
    for a in range(side * side):
        for b in (a + 1, a + side):
            if b < side * side and (b == a + side or b % side):
                yield a, b


def grid(rng, kind, policy, side, lengths):
    """A side x side grid with an arc each way between neighbours; each arc
    draws its length from ``lengths`` and its speeds at random, half of
    them flat, so that the static bound is tight there."""
    division = TimeDivision((0.0, 15.0, 40.0, 60.0))
    count = division.intervals + (kind == LINEAR)
    arcs = []
    for a, b in neighbours(side):
        length = rng.choice(lengths)()
        for u, v in ((a, b), (b, a)):
            profile = random_profile(rng, kind, division.intervals, policy)
            if rng.random() < 0.5:
                profile = SpeedProfile(kind, (max(profile.values),) * count)
            arcs.append(Arc(u, v, length, profile))
    return TdGraph(side * side, division, policy, kind, tuple(arcs))


def fine_grid(rng, kind, policy, side=5, intervals=1440):
    """A side x side grid in the paper's regime: 1-minute intervals over a
    day and 10-40 km arcs at 10-30 m/s, so that every crossing spans
    intervals, and one departing in the first hours arrives within the
    horizon."""
    division = TimeDivision(tuple(60.0 * i for i in range(intervals + 1)))
    arcs = []
    for a, b in neighbours(side):
        length = rng.uniform(1e4, 4e4)
        for u, v in ((a, b), (b, a)):
            profile = random_profile(rng, kind, intervals, policy, 10.0, 30.0)
            arcs.append(Arc(u, v, length, profile))
    return TdGraph(side * side, division, policy, kind, tuple(arcs))


def tiny_beside_long(rng, kind, policy):
    """A grid whose arcs are 1e3 to 1e4 m or 1e-7 to 1e-6 m long: lengths
    1e9 to 1e11 times apart."""
    lengths = (lambda: rng.uniform(1e3, 1e4), lambda: rng.uniform(1e-7, 1e-6))
    return grid(rng, kind, policy, rng.randint(3, 5), lengths)


def departures(rng, horizon):
    return (rng.uniform(0.0, horizon), rng.uniform(horizon, 4.0 * horizon),
            1e5 + rng.uniform(0.0, horizon))


class TestLandmarks:
    def test_arcs_weigh_their_length_over_their_top_speed_bit_for_bit(self):
        rng = random.Random(89)
        for kind in (CONSTANT, LINEAR):
            for policy in (STATIC, PERIODIC):
                for _ in range(10):
                    graph = random_graph(rng, kind=kind, policy=policy)
                    want = [arc.length / max(tuple(arc.profile.values))
                            for arc in graph.arcs]
                    got = graph._least
                    assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_lists_are_static_distances_from_farthest_first_landmarks(self):
        rng = random.Random(90)
        for _ in range(40):
            graph = random_graph(rng, max_nodes=8)
            n = graph.nodes
            # Floyd-Warshall over length / top speed, the oracle.
            dist = [[0.0 if u == v else math.inf for v in range(n)] for u in range(n)]
            for arc in graph.arcs:
                weight = arc.length / max(arc.profile.values)
                dist[arc.src][arc.dst] = min(dist[arc.src][arc.dst], weight)
            for k in range(n):
                for u in range(n):
                    for v in range(n):
                        dist[u][v] = min(dist[u][v], dist[u][k] + dist[k][v])
            lists = build_landmarks(graph)
            assert len(lists) == min(LANDMARKS, n)
            nearest = dist[0]
            picked = []
            for away, back in lists:
                landmark = away.index(0.0)
                assert back[landmark] == 0.0
                farthest = max(nearest[v] for v in range(n) if v not in picked)
                assert nearest[landmark] == pytest.approx(farthest, rel=1e-12)
                for v in range(n):
                    assert away[v] == pytest.approx(dist[landmark][v], rel=1e-12)
                    assert back[v] == pytest.approx(dist[v][landmark], rel=1e-12)
                picked.append(landmark)
                nearest = [min(dist[p][v] for p in picked) for v in range(n)]
            assert len(set(picked)) == len(picked)

    def test_keys_never_decrease_along_an_arc(self):
        # Pins the margin: shrunk potentials make the key grow along every
        # arc whose crossing is not itself below the keys' rounding; with
        # unshrunk ones, rounding makes some of them fall.
        rng = random.Random(91)
        for _ in range(8):
            for kind in (CONSTANT, LINEAR):
                for policy in (STATIC, PERIODIC):
                    graph = tiny_beside_long(rng, kind, policy)
                    table = build_ael(graph)
                    strategy = strategies_for(kind)[-1]
                    for departure in departures(rng, graph.division.horizon):
                        source = rng.randrange(graph.nodes)
                        arrival = shortest_paths(
                            graph, table, source, departure, strategy).arrival
                        crossings = [
                            (arc, arrival[arc.src], traverse_arc(
                                graph, table, i, arrival[arc.src], strategy).cost)
                            for i, arc in enumerate(graph.arcs)
                        ]
                        for target in range(graph.nodes):
                            terms = targeting(table.landmarks, target)
                            for arc, label, cost in crossings:
                                if cost > 1e-3:
                                    assert (label + cost) + potential(terms, arc.dst) \
                                        >= label + potential(terms, arc.src)

    def test_tiny_arcs_beside_long_ones_keep_the_answers_exact(self):
        rng = random.Random(92)
        for _ in range(8):
            for kind in (CONSTANT, LINEAR):
                for policy in (STATIC, PERIODIC):
                    graph = tiny_beside_long(rng, kind, policy)
                    table = build_ael(graph)
                    plain = AelTable(table.rows, table.window_bounds)
                    for strategy in strategies_for(kind):
                        for departure in departures(rng, graph.division.horizon):
                            source = rng.randrange(graph.nodes)
                            full = shortest_paths(graph, table, source, departure, strategy)
                            for target in range(graph.nodes):
                                fast = shortest_path_to(
                                    graph, table, source, target, departure, strategy)
                                slow = shortest_path_to(
                                    graph, plain, source, target, departure, strategy)
                                assert fast.arrival == full.arrival[target] == slow.arrival
                                assert fast.path == full.path_to(target) == slow.path
                                assert fast.stats.settled <= slow.stats.settled

    def test_disconnected_graphs_give_no_nan_and_the_same_answers(self):
        rng = random.Random(93)
        unreachable = 0
        for _ in range(120):
            graph = random_graph(rng)
            table = build_ael(graph)
            for target in range(graph.nodes):
                terms = targeting(table.landmarks, target)
                for node in range(graph.nodes):
                    assert not math.isnan(potential(terms, node))
            strategy = strategies_for(graph.kind)[0]
            departure = rng.uniform(0.0, 2.0 * graph.division.horizon)
            source = rng.randrange(graph.nodes)
            full = shortest_paths(graph, table, source, departure, strategy)
            for target in range(graph.nodes):
                p2p = shortest_path_to(graph, table, source, target, departure, strategy)
                assert p2p.arrival == full.arrival[target]
                assert p2p.path == full.path_to(target)
                unreachable += p2p.path is None
        assert unreachable > 100

    def test_unreachable_target_and_source_as_target(self):
        # Two components, 0 <-> 1 and 2 -> 3: each node is its own landmark.
        division = TimeDivision((0.0, 10.0))
        profile = SpeedProfile(CONSTANT, (10.0,))
        graph = TdGraph(4, division, STATIC, CONSTANT, (
            Arc(0, 1, 50.0, profile), Arc(1, 0, 50.0, profile),
            Arc(2, 3, 30.0, profile),
        ))
        table = build_ael(graph)
        assert len(table.landmarks) == 4
        for strategy in ("att", "fatt", "b-fatt"):
            for source, target in ((0, 2), (0, 3), (3, 2), (1, 3)):
                outcome = shortest_path_to(graph, table, source, target, 4.0, strategy)
                assert outcome.path is None
                assert outcome.arrival == UNREACHABLE
            for node in range(4):
                outcome = shortest_path_to(graph, table, node, node, 4.0, strategy)
                assert outcome.path == [node]
                assert outcome.arrival == 4.0
                assert outcome.stats.settled == 1
            assert shortest_path_to(graph, table, 2, 3, 4.0, strategy).arrival == 7.0

    def test_landmark_lists_must_match_the_graph(self):
        graph = three_node_graph()
        table = build_ael(graph)
        away, back = table.landmarks[1]
        cases = (
            ([(away, back[:-1])], "landmark distance list has 2 entries, graph has 3 nodes"),
            ([(away + [0.0], back)], "landmark distance list has 4 entries, graph has 3 nodes"),
        )
        for landmarks, message in cases:
            bad = AelTable(table.rows, table.window_bounds, landmarks)
            for strategy in ("att", "fatt", "b-fatt"):
                with pytest.raises(ValueError, match=message):
                    shortest_path_to(graph, bad, 0, 2, 6.0, strategy)
                with pytest.raises(ValueError, match=message):
                    shortest_paths(graph, bad, 0, 6.0, strategy)

    def test_point_to_point_settles_fewer_nodes_on_a_grid(self):
        rng = random.Random(94)
        graph = grid(rng, CONSTANT, STATIC, 12, (lambda: rng.uniform(50.0, 500.0),))
        table = build_ael(graph)
        plain = AelTable(table.rows, table.window_bounds)
        fast = slow = 0
        for _ in range(20):
            source, target = rng.randrange(144), rng.randrange(144)
            departure = rng.uniform(0.0, 60.0)
            fast += shortest_path_to(graph, table, source, target, departure, "fatt").stats.settled
            slow += shortest_path_to(graph, plain, source, target, departure, "fatt").stats.settled
        assert fast < 0.6 * slow


def assert_tree_crossings(graph, table, strategy, result):
    """Each reached node's arrival and arrival interval are those of the
    kernel's crossing from its predecessor, departing at the predecessor's
    arrival with its interval as the hint."""
    for node, before in enumerate(result.predecessor):
        if before is None:
            continue
        (arc_index,) = [i for i in graph.out_arcs(before) if graph.arcs[i].dst == node]
        crossing = traverse_arc(graph, table, arc_index, result.arrival[before],
                                strategy, result.arrival_interval[before])
        assert result.arrival[before] + crossing.cost == result.arrival[node]
        assert crossing.arrival_interval == result.arrival_interval[node]


class TestSearchedExit:
    """The engine's loop finishes a same-interval crossing and hands every
    other, searched ones included, to the crossing kernel; each gives the
    single-arc door's bits."""

    def test_every_crossing_reproduces_the_kernel_bit_for_bit(self):
        rng = random.Random(91)
        for kind in (CONSTANT, LINEAR):
            for policy in (STATIC, PERIODIC):
                graph = fine_grid(rng, kind, policy)
                table = build_ael(graph)
                horizon = graph.division.horizon
                for strategy in strategies_for(kind):
                    # Early departures search or scan within the horizon;
                    # late ones also arrive past it and depart past it.
                    for departure in (rng.uniform(0.0, 3600.0),
                                      horizon - rng.uniform(0.0, 7200.0)):
                        source = rng.randrange(graph.nodes)
                        result = shortest_paths(graph, table, source, departure,
                                                strategy)
                        assert result.stats.settled == graph.nodes
                        assert_tree_crossings(graph, table, strategy, result)

    def test_an_arrival_on_a_breakpoint_or_the_horizon_is_located(self, monkeypatch):
        # At 5 m/s through 10 s intervals, arc 0 covers its 100 m by the end
        # of interval 1 and arrives on the breakpoint 20.0, which interval 2
        # holds; arc 1 covers 150 m and arrives on the horizon 30.0. The
        # search stops in the interval that ends there, so the loop's
        # bracket check fails and locate_interval places the arrival.
        # Arcs 2 and 3 then arrive past the horizon or depart on it; the
        # kernel's hint there is the static tail's last interval or the
        # periodic wrap's interval 0, and the loop places those arrivals too.
        division = TimeDivision((0.0, 10.0, 20.0, 30.0))
        asked = []

        def spy(division, t, policy, hint=None):
            asked.append((t, hint))
            return locate_interval(division, t, policy, hint)

        monkeypatch.setattr(routing, "locate_interval", spy)
        for kind in (CONSTANT, LINEAR):
            profile = SpeedProfile(kind, (5.0,) * (3 + (kind == LINEAR)))
            for policy in (STATIC, PERIODIC):
                graph = TdGraph(4, division, policy, kind, (
                    Arc(0, 1, 100.0, profile), Arc(0, 2, 150.0, profile),
                    Arc(1, 3, 200.0, profile), Arc(2, 3, 10.0, profile),
                ))
                table = build_ael(graph)
                past = 2 if policy == STATIC else 0
                for strategy in strategies_for(kind)[1:]:
                    asked.clear()
                    result = shortest_paths(graph, table, 0, 0.0, strategy)
                    assert result.arrival == [0.0, 20.0, 30.0, 32.0]
                    assert asked == [(0.0, None), (20.0, 1), (30.0, 2),
                                     (60.0, past), (32.0, past)]
                    assert result.arrival_interval == [
                        locate_interval(division, a, policy)
                        for a in result.arrival
                    ]
                    assert_tree_crossings(graph, table, strategy, result)

    def test_a_crossing_rounded_onto_its_interval_end_is_not_searched(self):
        # 7 m/s * (10 - departure) covers the arc's length, yet departure +
        # length / 7 rounds up to the breakpoint 10.0: the kernel's
        # same-interval exit, which the search core would put an ulp short.
        division = TimeDivision((0.0, 10.0, 20.0))
        departure, length = 1.917441039952995, 56.577912720329024
        profile = SpeedProfile(CONSTANT, (7.0, 7.0))
        assert 7.0 * (10.0 - departure) >= length
        for policy in (STATIC, PERIODIC):
            graph = TdGraph(2, division, policy, CONSTANT,
                            (Arc(0, 1, length, profile),))
            table = build_ael(graph)
            for strategy in ("fatt", "b-fatt"):
                result = shortest_paths(graph, table, 0, departure, strategy)
                assert result.arrival[1] == 10.0
                assert result.arrival_interval[1] == 1
                assert_tree_crossings(graph, table, strategy, result)

    def test_each_crossing_out_of_its_interval_is_one_kernel_call(self, monkeypatch):
        graph = fine_grid(random.Random(92), CONSTANT, STATIC)
        table = build_ael(graph)
        calls = []
        kernel = routing._cross

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        def door(*args):
            raise AssertionError("the engine called the single-arc door")

        monkeypatch.setattr(routing, "_cross", counted)
        monkeypatch.setattr(routing, "_cross_at", door)
        queries = ((0, 0.0), (12, 1800.0), (24, 3600.0),
                   (0, graph.division.horizon))
        stats = [
            shortest_paths(graph, table, source, departure, "fatt").stats
            for source, departure in queries
        ]
        # Every relaxation here, inside the horizon and past it, leaves its
        # departure interval: the distance the loop passes as covered there
        # falls short of the arc. Each not pruned is one kernel call.
        assert all(first < length for _, _, length, *_, first, _, _ in calls)
        assert len(calls) == sum(s.traversal_calls for s in stats) == 128
        # The counters of the three in-horizon queries.
        assert [(s.settled, s.traversal_calls, s.probes, s.steps)
                for s in stats[:3]] == [(25, 33, 189, 0), (25, 34, 230, 0),
                                    (25, 32, 196, 0)]

    def test_a_span_that_is_nan_is_refused_at_load(self):
        # A flat linear arc over one 1e200 s interval: its slope 0 times the
        # interval's square, inf, makes the interval's span NaN, and with it
        # the distance first coverable from any departure in it. The arc's
        # prefix row is NaN, so loading refuses the line, and the graph and
        # the single-arc procedures refuse the arc: no query meets the NaN.
        text = ("tdgraph 1 linear static\ndivision 1 0 1e200\nnodes 2\narcs 1\n"
                "arc 0 1 1 10 10\n")
        message = "the distance the arc covers by the horizon overflows"
        with pytest.raises(GraphFormatError, match=f"^line 5: {message}$"):
            loads(text)
        division = TimeDivision((0.0, 1e200))
        arc = Arc(0, 1, 1.0, SpeedProfile(LINEAR, (10.0, 10.0)))
        with pytest.raises(ValueError, match=f"^{message}$"):
            TdGraph(2, division, STATIC, LINEAR, (arc,))
        with pytest.raises(ValueError, match=f"^{message}$"):
            att_linear(arc, division, STATIC, 0.0)


class TestPruning:
    """The engine skips a crossing out of its departure interval when the
    arc's least crossing time, shrunk by ``landmarks.SCALE``, cannot improve
    the label it leads to."""

    def test_an_arrival_past_the_largest_float_raises_as_in_traverse_arc(self):
        # Both the crossing and its bound, 1e308 + 1e308 (1 - 1e-6) s,
        # overflow. The engine prunes only on a finite bound, so the kernel
        # computes the crossing, and its arrival raises as traverse_arc's does.
        graph = loads("tdgraph 1 constant static\ndivision 1 0 1\nnodes 2\n"
                      "arcs 1\narc 0 1 1e308 1\n")
        table = build_ael(graph)
        message = "^time instant must be finite, got inf$"
        for strategy in strategies_for(CONSTANT):
            with pytest.raises(ValueError, match=message):
                traverse_arc(graph, table, 0, 1e308, strategy)
            with pytest.raises(ValueError, match=message):
                shortest_paths(graph, table, 0, 1e308, strategy)
            with pytest.raises(ValueError, match=message):
                shortest_path_to(graph, table, 0, 1, 1e308, strategy)

    def test_the_margin_keeps_a_crossing_computed_below_its_least_time(self):
        # At 5.5 m/s throughout, arc 1's 50.189 m compute an ulp below
        # 50.189 / 5.5, and arc 0, an ulp longer and relaxed first, arrives
        # exactly at 50.189 / 5.5. Pruned by the unshrunk bound, arc 1
        # would leave node 1 an ulp late.
        division = TimeDivision((0.0, 8.0, 10.0))
        profile = SpeedProfile(CONSTANT, (5.5, 5.5))
        best = float.fromhex("0x1.24023bf356f26p+3")
        assert best < 50.189 / 5.5
        for policy in (STATIC, PERIODIC):
            graph = TdGraph(2, division, policy, CONSTANT, (
                Arc(0, 1, 50.18900000000001, profile), Arc(0, 1, 50.189, profile),
            ))
            table = build_ael(graph)
            assert graph._least[0] == 50.189 / 5.5
            for strategy in strategies_for(CONSTANT):
                result = shortest_paths(graph, table, 0, 0.0, strategy)
                assert result.arrival[1] == best
                assert (result.stats.traversal_calls, result.stats.pruned) == (2, 0)
                assert shortest_path_to(graph, table, 0, 1, 0.0, strategy).arrival == best

    def test_a_degenerate_arc_is_refused_before_pruning_can_skip_it(self):
        # The second arc's period covers 1e-300 m/s * 1e-300 s, which
        # underflows to 0. No crossing of it takes less than 1 s, so once
        # the first arc has put node 1 at 0.0 the engine would skip it; the
        # other way round, its crossing would raise. Loading refuses the
        # arc's line whatever the order, so no query depends on it.
        first, second = "arc 0 1 1e-300 1e+300\n", "arc 0 1 1e-300 1e-300\n"
        head = "tdgraph 1 constant periodic\ndivision 1 0 1e-300\nnodes 2\narcs 2\n"
        for arcs, line in ((first + second, 6), (second + first, 5)):
            with pytest.raises(GraphFormatError,
                               match=f"^line {line}: an interval covers only 0.0 m"):
                loads(head + arcs)

    def test_a_label_past_the_horizon_reaches_the_prune_test(self):
        # From 15.0, past the horizon 10.0, crossings depart from the mapped
        # instant 5.0 and end within its interval 0, yet never take the
        # same-interval exit: that interval ends before the label. Node 1
        # settles at 15.1, and its 1 s crossing cannot beat node 2's 15.1.
        for kind in (CONSTANT, LINEAR):
            fast, slow = ("10", "1") if kind == CONSTANT else ("10 10", "1 1")
            graph = loads(
                f"tdgraph 1 {kind} periodic\ndivision 1 0 10\nnodes 3\narcs 3\n"
                f"arc 0 1 1 {fast}\narc 0 2 1 {fast}\narc 1 2 1 {slow}\n"
            )
            table = build_ael(graph)
            for strategy in strategies_for(kind):
                result = shortest_paths(graph, table, 0, 15.0, strategy)
                assert result.arrival == [15.0, 15.1, 15.1]
                assert result.arrival_interval == [0, 0, 0]
                stats = result.stats
                assert (stats.settled, stats.traversal_calls, stats.pruned) == (3, 2, 1)
                assert_tree_crossings(graph, table, strategy, result)


ENGINE_DIGEST = "1f6c408c5926cb5ff70a15f1d9add4fb7499aa247b43edd6fd8b578a646124c8"
# The same corpus without the point-to-point stats: every one-to-all result,
# every arc traversal and every point-to-point path and arrival.
ANSWER_DIGEST = "718e81f130899cc4a8863823543dbce13b99b2353dc85e48b86ada64b7d1c14b"
# The same corpus with every counter left out: the answers alone.
COUNTER_FREE_DIGEST = "d62e22ad42cef347386ddc40869dd5e53dcd90be82f03b96cd2a402cb8bef1aa"


def engine_corpus(p2p_stats=True):
    """Lines covering every query, point-to-point answer and arc traversal
    over seeded graphs of both kinds and both policies, for every strategy
    of the graph's kind; ``p2p_stats`` False leaves the point-to-point
    stats out."""
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
                        stats = f" {p.stats}" if p2p_stats else ""
                        yield strategy, f"{p.path} {p.arrival!r}{stats}"
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


# A QueryStats or OpCounter repr, with the space before it.
COUNTERS = re.compile(r" (?:QueryStats|OpCounter)\([^)]*\)")


def corpus_digest(p2p_stats=True, counters=True):
    """SHA-256 of :func:`engine_corpus`; ``counters`` False drops every
    ``QueryStats`` and ``OpCounter`` from its lines."""
    digest = hashlib.sha256()
    lines = Counter()
    for strategy, line in engine_corpus(p2p_stats):
        lines[strategy] += 1
        if not counters:
            line = COUNTERS.sub("", line)
        digest.update(f"{strategy} {line}\n".encode())
    assert lines == {
        "att": 2376, "fatt": 2376, "b-fatt": 2376,
        "att-linear": 2412, "l-fatt": 2412,
    }
    return digest.hexdigest()


class TestPinnedOutput:
    def test_every_strategy_reproduces_the_pinned_engine_output(self):
        assert corpus_digest() == ENGINE_DIGEST

    def test_every_strategy_reproduces_the_pinned_answers(self):
        assert corpus_digest(p2p_stats=False) == ANSWER_DIGEST

    def test_every_strategy_reproduces_the_pinned_answers_without_counters(self):
        # A change to how the kernel searches moves the counters in the
        # two digests above, never this one.
        assert corpus_digest(counters=False) == COUNTER_FREE_DIGEST


class TestRowsOnFirstUse:
    """A table built from a graph fills an arc's prefix row, and its window
    bound, the first time a crossing out of the departure interval reads
    it; the public reads of ``rows`` and ``window_bounds`` fill the rest."""

    @staticmethod
    def whole(graph):
        """The rows and window bounds of every arc, summed afresh."""
        sums = [_prefix_sums(arc.profile.values, graph.division) for arc in graph.arcs]
        return ([array("d", row) for row in sums],
                [_window_bound(arc.length, row) for arc, row in zip(graph.arcs, sums)])

    def test_a_table_fills_only_the_rows_its_queries_read(self):
        graph = generate(GeneratorConfig(
            nodes=60, avg_degree=3.0, intervals=48, horizon=3600.0,
            speed_range=(5.0, 30.0), length_range=(50.0, 2000.0), seed=4,
        ))
        m = graph.arc_count
        table = build_ael(graph)
        assert table._rows == table._bounds == [None] * m
        shortest_paths(graph, table, 0, 0.0, "fatt")
        filled = sum(row is not None for row in table._rows)
        assert 0 < filled < m
        assert table._bounds == [None] * m
        shortest_paths(graph, table, 0, 0.0, "b-fatt")
        assert sum(row is not None for row in table._rows) == filled
        assert 0 < sum(bound is not None for bound in table._bounds) <= filled
        rows, bounds = self.whole(graph)
        assert table.rows == rows and table.window_bounds == bounds
        assert table._rows == rows and table._bounds == bounds

    def test_traverse_arc_does_not_check_the_graph_arcs_again(self, monkeypatch):
        # Speeds 1e13 apart: the O(1) bound does not clear the arc, so every
        # check of it sums its prefix row. The graph checked it; traverse_arc
        # sums the row once, to fill it, while fatt checks the arc each call.
        division = TimeDivision((0.0, 1.0, 2.0))
        arc = Arc(0, 1, 1.0, SpeedProfile(CONSTANT, (1e-13, 1.0)))
        assert not _clears_coverage(arc.profile, arc.length, division)
        graph = TdGraph(2, division, STATIC, CONSTANT, (arc,))
        table = build_ael(graph)
        sums = []

        def counted(values, division):
            sums.append(values)
            return _prefix_sums(values, division)

        monkeypatch.setattr(model, "_prefix_sums", counted)
        monkeypatch.setattr(traversal, "_prefix_sums", counted)
        departures = (0.0, 0.5, 3.0)
        for strategy in strategies_for(CONSTANT):
            for tau in departures:
                traverse_arc(graph, table, 0, tau, strategy)
        assert len(sums) == 1
        for tau in departures:
            fatt(arc, table, 0, division, STATIC, tau)
        assert len(sums) == 1 + len(departures)

    def test_two_threads_over_one_fresh_table_give_the_one_thread_answers(self):
        graph = generate(GeneratorConfig(
            nodes=80, avg_degree=3.0, intervals=96, horizon=3600.0,
            speed_range=(5.0, 30.0), length_range=(50.0, 2000.0), seed=6,
        ))
        queries = [(source, departure, strategy) for source in range(0, 80, 9)
                   for departure in (0.0, 1234.5) for strategy in ("fatt", "b-fatt")]

        def run(table):
            out = []
            for source, departure, strategy in queries:
                tree = shortest_paths(graph, table, source, departure, strategy)
                path = shortest_path_to(graph, table, source, 79 - source,
                                        departure, strategy)
                out.append(([a.hex() for a in tree.arrival], tree.predecessor,
                            tree.arrival_interval, tree.stats,
                            path.path, path.arrival.hex(), path.stats))
            return out

        want = run(build_ael(graph))
        shared = build_ael(graph)
        got = [None, None]

        def worker(i):
            got[i] = run(shared)

        # Switch threads often, so that they interleave inside the fills.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want, want]
        rows, bounds = self.whole(graph)
        assert shared.rows == rows and shared.window_bounds == bounds


class TestExactStorage:
    """Every speed list and prefix row is one array of exactly its doubles:
    8 B each plus the array's header, with no spare capacity."""

    @staticmethod
    def exact(arrays):
        header = sys.getsizeof(array("d"))
        return all(sys.getsizeof(a) == header + 8 * len(a) for a in arrays)

    @staticmethod
    def graphs():
        config = GeneratorConfig(
            nodes=40, avg_degree=3.0, intervals=96, horizon=86400.0,
            speed_range=(5.0, 30.0), length_range=(50.0, 2000.0), seed=3,
        )
        made = generate(config)
        linear = generate(GeneratorConfig(**{**vars(config), "kind": LINEAR,
                                             "policy": PERIODIC}))
        return (made, linear, loads(dumps(made)), loads(dumps(linear)),
                three_node_graph())

    def test_speeds_of_loaded_generated_and_built_graphs(self):
        for graph in self.graphs():
            assert self.exact(graph._speeds)
            assert self.exact(arc.profile.values for arc in graph.arcs)

    def test_rows_filled_by_the_engine_and_by_a_read(self):
        for graph in self.graphs():
            table = build_ael(graph)
            strategy = "fatt" if graph.kind == CONSTANT else "l-fatt"
            shortest_paths(graph, table, 0, 1000.0, strategy)
            filled = [row for row in table._rows if row is not None]
            assert filled and self.exact(filled)
            assert self.exact(table.rows)

    @pytest.mark.parametrize("count", [1, 3, 96, 1440])
    def test_pack_gives_the_doubles_of_an_array(self, count):
        awkward = (-0.0, 5e-324, 1e308, -1e308, 2.2250738585072014e-308,
                   0.1, math.inf, math.nan)
        values = [awkward[i % len(awkward)] * (1 + i // len(awkward))
                  for i in range(count)]
        packed = _pack(values)
        assert packed.typecode == "d"
        assert packed.tobytes() == array("d", values).tobytes()
        assert self.exact([packed])
