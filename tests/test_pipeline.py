"""Whole-pipeline property test on adversarial numbers.

Every graph that can be built goes through ``loads(dumps(g))``,
``build_ael`` and every strategy of its kind, one-to-all from each node and
to each target. Each step either answers or raises ValueError
(GraphFormatError included); any other exception fails the test. Where
every strategy answers, their arrivals agree at rel 1e-9 and their arrival
intervals match. A scan may answer where the search strategies reject the
graph's prefix table.

The same cases check the engine's pruning against a copy of each graph
that prunes nothing: the answers are the same bits and every pruned
relaxation is one crossing the copy computed.
"""

import copy
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdroute import (
    CONSTANT,
    LINEAR,
    PERIODIC,
    STATIC,
    Arc,
    SpeedProfile,
    TdGraph,
    TimeDivision,
    build_ael,
    dumps,
    effective_length,
    loads,
    shortest_path_to,
    shortest_paths,
)

STRATEGIES = {CONSTANT: ("att", "fatt", "b-fatt"), LINEAR: ("att-linear", "l-fatt")}
SCANS = ("att", "att-linear")
NODES = 3
PAIRS = [(u, v) for u in range(NODES) for v in range(NODES) if u != v]

# Subnormal, least normal and near-overflow magnitudes beside ordinary ones.
ADVERSARIAL = (1e-300, 2.2e-308, 5e-324, 1e300, 1e308)
numbers = st.one_of(
    st.sampled_from(ADVERSARIAL),
    st.sampled_from((0.5, 1.0, 3.3, 10.0, 60.0, 1000.0)),
    st.floats(0.01, 1e4),
)


@st.composite
def cases(draw):
    """(kind, policy, interval widths, arcs, departure); an arc is (src, dst,
    length, speeds), where an int length j stands for the distance the arc
    covers from 0 through interval j, so that crossings end on breakpoints."""
    kind = draw(st.sampled_from((CONSTANT, LINEAR)))
    policy = draw(st.sampled_from((STATIC, PERIODIC)))
    intervals = draw(st.integers(1, 3))
    widths = draw(st.lists(numbers, min_size=intervals, max_size=intervals))
    count = intervals + (kind == LINEAR)
    arcs = []
    for src, dst in draw(st.lists(st.sampled_from(PAIRS), min_size=1, max_size=4)):
        speeds = draw(st.lists(numbers, min_size=count, max_size=count))
        if kind == LINEAR and policy == PERIODIC:
            speeds[-1] = speeds[0]
        length = draw(st.one_of(numbers, st.integers(0, intervals - 1)))
        arcs.append((src, dst, length, speeds))
    departure = draw(st.one_of(st.just(0.0), numbers))
    return kind, policy, widths, arcs, departure


def build(kind, policy, widths, arcs):
    """The graph, keeping the arcs that can be built; ValueError when the
    widths make no time division."""
    points = [0.0]
    for width in widths:
        points.append(points[-1] + width)
    division = TimeDivision(tuple(points))
    built = []
    for src, dst, length, speeds in arcs:
        try:
            profile = SpeedProfile(kind, tuple(speeds))
            if isinstance(length, int):
                unit = Arc(src, dst, min(speeds), profile)
                length = sum(effective_length(unit, division, k) for k in range(length + 1))
            built.append(Arc(src, dst, length, profile))
        except ValueError:
            pass
    return TdGraph(NODES, division, policy, kind, tuple(built))


def answers(graph, table, departure, strategy):
    """Every arrival and arrival interval of ``strategy`` from every source,
    or None when it raises ValueError."""
    arrivals, to, intervals = [], [], []
    try:
        for source in range(NODES):
            tree = shortest_paths(graph, table, source, departure, strategy)
            arrivals += tree.arrival
            intervals += tree.arrival_interval
            to += [shortest_path_to(graph, table, source, t, departure, strategy).arrival
                   for t in range(NODES)]
    except ValueError:
        return None
    return arrivals, to, intervals


def agree(a, b):
    return a == b or math.isclose(a, b, rel_tol=1e-9)


@given(cases())
# The discriminant of the crossing rounds below zero.
@example((LINEAR, STATIC, [3.3], [(0, 1, 49.5, [30.0, 1e-100])], 0.0))
# The speed line computes to exactly 0 at 3.3 s.
@example((LINEAR, PERIODIC, [3.3, 100000.0],
          [(0, 1, 5.000000000000001e-96, [1e-100, 1e-150, 1e-100])], 0.0))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_adversarial_graphs_answer_or_raise_value_error(case):
    kind, policy, widths, arcs, departure = case
    try:
        graph = loads(dumps(build(kind, policy, widths, arcs)))
    except ValueError:
        return
    try:
        table = build_ael(graph)
    except ValueError:
        table = None
    results = [
        answers(graph, table, departure, strategy)
        for strategy in STRATEGIES[kind]
        if table is not None or strategy in SCANS
    ]
    if table is None or None in results:
        return
    arrivals, to, intervals = results[0]
    for other_arrivals, other_to, other_intervals in results[1:]:
        assert all(map(agree, arrivals, other_arrivals))
        assert all(map(agree, to, other_to))
        assert intervals == other_intervals
    assert all(map(agree, arrivals, to))


def unpruned(graph):
    """A copy of ``graph`` whose least crossing times are all -inf, so that
    the engine prunes no relaxation."""
    plain = copy.copy(graph)
    object.__setattr__(plain, "_least", [-math.inf] * graph.arc_count)
    return plain


def answer(query, *args):
    """``query(*args)``, or None when it raises ValueError."""
    try:
        return query(*args)
    except ValueError:
        return None


def tree_bits(result):
    return ([a.hex() for a in result.arrival], result.predecessor,
            result.arrival_interval)


def compare_with_unpruned(case):
    """How many relaxations the engine pruned over every query of ``case``,
    once each answer it gives is checked against the unpruned copy's."""
    kind, policy, widths, arcs, departure = case
    try:
        graph = build(kind, policy, widths, arcs)
    except ValueError:
        return 0
    try:
        table = build_ael(graph)
    except ValueError:
        table = None
    plain = unpruned(graph)
    pruned = 0
    for strategy in STRATEGIES[kind]:
        if table is None and strategy not in SCANS:
            continue
        for source in range(NODES):
            queries = [(shortest_paths, source, departure, strategy)]
            queries += [(shortest_path_to, source, target, departure, strategy)
                        for target in range(NODES)]
            for query, *args in queries:
                want = answer(query, plain, table, *args)
                if want is None:
                    continue  # pruning may skip the crossing that raised
                got = answer(query, graph, table, *args)
                assert got is not None
                if query is shortest_paths:
                    assert tree_bits(got) == tree_bits(want)
                else:
                    assert got.path == want.path
                    assert got.arrival.hex() == want.arrival.hex()
                assert want.stats.pruned == 0
                assert got.stats.settled == want.stats.settled
                assert (got.stats.traversal_calls + got.stats.pruned
                        == want.stats.traversal_calls)
                pruned += got.stats.pruned
    return pruned


def test_pruning_gives_the_unpruned_answers_bit_for_bit():
    pruned = []

    @given(cases())
    # The second arc's period covers no distance, which raises unless its
    # relaxation is pruned behind the first arc's arrival at 0.0.
    @example((CONSTANT, PERIODIC, [1e-300],
              [(0, 1, 1e-300, [1e300]), (0, 1, 1e-300, [1e-300])], 0.0))
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def check(case):
        pruned.append(compare_with_unpruned(case))

    check()
    assert sum(pruned) > 0
