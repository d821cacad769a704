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
    GeneratorConfig,
    OpCounter,
    SpeedProfile,
    TdGraph,
    TimeDivision,
    att,
    att_linear,
    bounded_fatt,
    build_ael,
    fatt,
    generate,
    l_fatt,
    locate_interval,
    sample_graph,
    shortest_path_to,
    shortest_paths,
    traverse_arc,
)
from tdroute import routing
from tdroute.landmarks import LANDMARKS, build_landmarks, potential, targeting
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
                     [row + [row[-1] + 100.0] for row in table.rows]):
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
            (with_last_row(row + [row[-1] + 1.0]), 6.0,
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
    """A searched crossing whose arrival lies within the horizon resolves
    in the engine's loop through the kernel's search core."""

    def test_every_crossing_reproduces_the_kernel_bit_for_bit(self):
        rng = random.Random(91)
        for kind in (CONSTANT, LINEAR):
            for policy in (STATIC, PERIODIC):
                graph = fine_grid(rng, kind, policy)
                table = build_ael(graph)
                horizon = graph.division.horizon
                for strategy in strategies_for(kind)[1:]:
                    # Early departures search within the horizon; late ones
                    # also arrive past it and depart past it.
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
        # Arcs 2 and 3 then arrive past the horizon or depart on it.
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
                for strategy in strategies_for(kind)[1:]:
                    asked.clear()
                    result = shortest_paths(graph, table, 0, 0.0, strategy)
                    assert result.arrival == [0.0, 20.0, 30.0, 32.0]
                    assert asked == [(0.0, None), (20.0, 1), (30.0, 2)]
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

    def test_searched_crossings_make_no_kernel_calls(self, monkeypatch):
        graph = fine_grid(random.Random(92), CONSTANT, STATIC)
        table = build_ael(graph)
        calls = []
        kernel = routing._cross

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(routing, "_cross", counted)
        stats = [
            shortest_paths(graph, table, source, departure, "fatt").stats
            for source, departure in ((0, 0.0), (12, 1800.0), (24, 3600.0))
        ]
        assert calls == []
        # The counters each of these crossings gave as a kernel call.
        assert [(s.settled, s.traversal_calls, s.probes, s.steps)
                for s in stats] == [(25, 40, 442, 0), (25, 40, 429, 0),
                                    (25, 40, 423, 0)]
        # The engine calls the wrapper: departing past the horizon, it counts.
        shortest_paths(graph, table, 0, graph.division.horizon, "fatt")
        assert len(calls) == 40


ENGINE_DIGEST = "f032436f604252957006b56866e2430961be5f01d7d0d11cae25c48413059ccf"
# The same corpus without the point-to-point stats: every one-to-all result,
# every arc traversal and every point-to-point path and arrival.
ANSWER_DIGEST = "32392358f7994a9bc5532e1cf70d93ca15d2a661ca19b68bd53fe4f1cd075e50"


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


def corpus_digest(p2p_stats=True):
    digest = hashlib.sha256()
    lines = Counter()
    for strategy, line in engine_corpus(p2p_stats):
        lines[strategy] += 1
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
