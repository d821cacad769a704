"""Whole-pipeline property test on adversarial numbers.

Every graph that can be built goes through ``loads(dumps(g))``,
``build_ael`` and every strategy of its kind, one-to-all from each node and
to each target. Each step either answers or raises ValueError
(GraphFormatError included); any other exception fails the test. Where
every strategy answers, their arrivals agree at rel 1e-9 and their arrival
intervals match.

The same cases check the engine's pruning against a copy of each graph
that prunes nothing: the answers are the same bits and every pruned
relaxation is one crossing the copy computed. They check its row-free
exits, and its own calls of the kernel's search and walk, against an
engine that hands every crossing out of its departure interval to the
kernel: the same bits and counters, one path per crossing and no interval
walked twice. Their
arcs check the O(1) bound of the coverage rule against its exact check,
and their files check that loading, validation and ``build_ael`` give
one verdict. After any mix of queries, the rows and window bounds that a
table fills on first use are the bits a table built whole holds.
"""

import copy
import math
import re
from array import array
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdroute import (
    CONSTANT,
    GraphFormatError,
    LINEAR,
    PERIODIC,
    STATIC,
    AelTable,
    Arc,
    PathResult,
    SpeedProfile,
    TdGraph,
    TimeDivision,
    build_ael,
    dumps,
    effective_length,
    loads,
    shortest_path_to,
    shortest_paths,
    traverse_arc,
)
from tdroute import routing
from tdroute.io_gen import _parse
from tdroute.model import (REACH_MARGIN, _clears_coverage, _prefix_sums,
                           _window_bound, check_arc)
from support import crossing_paths, no_exits

STRATEGIES = {CONSTANT: ("att", "fatt", "b-fatt"), LINEAR: ("att-linear", "l-fatt")}
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


def division_of(widths):
    """The time division of the interval ``widths``; ValueError when they
    make none."""
    points = [0.0]
    for width in widths:
        points.append(points[-1] + width)
    return TimeDivision(tuple(points))


def built_arcs(kind, division, arcs):
    """Each arc that can be built, without the graph's checks."""
    for src, dst, length, speeds in arcs:
        try:
            profile = SpeedProfile(kind, tuple(speeds))
            if isinstance(length, int):
                unit = Arc(src, dst, min(speeds), profile)
                length = sum(effective_length(unit, division, k) for k in range(length + 1))
            yield Arc(src, dst, length, profile)
        except ValueError:
            pass


def build(kind, policy, widths, arcs):
    """The graph, keeping the arcs that can be built and that the graph
    accepts; ValueError when the widths make no time division."""
    division = division_of(widths)
    kept = []
    for arc in built_arcs(kind, division, arcs):
        try:
            check_arc(arc, NODES, kind, division, policy)
            kept.append(arc)
        except ValueError:
            pass
    return TdGraph(NODES, division, policy, kind, tuple(kept))


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
    table = build_ael(graph)
    results = [answers(graph, table, departure, strategy)
               for strategy in STRATEGIES[kind]]
    if None in results:
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
    table = build_ael(graph)
    plain = unpruned(graph)
    pruned = 0
    for strategy in STRATEGIES[kind]:
        for source in range(NODES):
            queries = [(shortest_paths, source, departure, strategy)]
            queries += [(shortest_path_to, source, target, departure, strategy)
                        for target in range(NODES)]
            for query, *args in queries:
                try:
                    want = query(plain, table, *args)
                except ValueError as error:
                    # The graph refused every arc whose crossing could raise
                    # otherwise: only an arrival past the largest float still
                    # raises, and the engine raises on it too.
                    message = "time instant must be finite, got inf"
                    assert str(error) == message
                    with pytest.raises(ValueError, match=f"^{message}$"):
                        query(graph, table, *args)
                    continue
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
    # The arrival at node 1, 1e308 + 1e308 s, overflows, and so does its
    # bound, 1e308 + 1e308 (1 - 1e-6) s. The engine prunes only on a finite
    # bound, so it raises on the crossing, as the unpruned copy does.
    @example((CONSTANT, STATIC, [1.0], [(0, 1, 1e308, [1.0])], 1e308))
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def check(case):
        pruned.append(compare_with_unpruned(case))

    check()
    assert sum(pruned) > 0


def outcome(query, *args):
    """The bits of ``query(*args)`` with its stats, or the ValueError it
    raises."""
    try:
        result = query(*args)
    except ValueError as error:
        return "raises", str(error)
    if isinstance(result, PathResult):
        return result.path, result.arrival.hex(), result.stats
    return tree_bits(result), result.stats


def compare_without_exits(case, hand_built):
    """Check every query of ``case`` under every strategy against an engine
    that sends every crossing out of its departure interval to the kernel,
    over a table built from the graph or, when ``hand_built``, by hand from
    its rows and bounds: the same bits and QueryStats, or the same
    ValueError. Each crossing that the engine sends down its own search or
    walk, or to the kernel, is one that the reference hands the kernel, and
    no interval walk is made that the reference does not make."""
    kind, policy, widths, arcs, departure = case
    try:
        graph = build(kind, policy, widths, arcs)
    except ValueError:
        return
    table = build_ael(graph)
    if hand_built:
        table = AelTable(table.rows, table.window_bounds, table.landmarks)
    for strategy in STRATEGIES[kind]:
        for source in range(NODES):
            queries = [(shortest_paths, source, departure, strategy)]
            queries += [(shortest_path_to, source, target, departure, strategy)
                        for target in range(NODES)]
            for query, *args in queries:
                with crossing_paths() as taken:
                    got = outcome(query, graph, table, *args)
                with crossing_paths() as every, mock.patch.object(
                        routing, "_exits", no_exits):
                    assert got == outcome(query, graph, table, *args)
                # A walk from interval 0 is a periodic wrap's, past the
                # horizon, not a crossing's own.
                assert Counter((k, rest) for path, k, rest in taken
                               if path != "walk" or k >= 0) <= Counter(
                    (k, rest) for path, k, rest in every if path == "kernel")
                assert (Counter(p for p in taken if p[0] == "walk")
                        <= Counter(p for p in every if p[0] == "walk"))


# 1 m/s over two 1 s intervals, departing 2^-6 s before the breakpoint: the
# arc covers 2^-6 m in interval 0 and has its reach, 1 - 2^-5 m of its least
# span, left, or an ulp more.
AT_REACH = 2.0**-6 + REACH_MARGIN


@given(cases(), st.booleans())
@example((CONSTANT, STATIC, [1.0, 1.0], [(0, 1, AT_REACH, [1.0, 1.0])],
          1.0 - 2.0**-6), False)
@example((LINEAR, PERIODIC, [1.0, 1.0], [(0, 1, AT_REACH, [1.0, 1.0, 1.0])],
          1.0 - 2.0**-6), False)
@example((CONSTANT, STATIC, [1.0, 1.0],
          [(0, 1, math.nextafter(AT_REACH, 2.0), [1.0, 1.0])], 1.0 - 2.0**-6), False)
# Speeds 1e13 apart: the O(1) bound does not clear the arc, whose reach is 0,
# though the 5e-14 m left past interval 0 ends in interval 1.
@example((CONSTANT, STATIC, [1.0, 1.0], [(0, 1, 0.5 + 5e-14, [1.0, 1e-13])], 0.5),
         False)
# Periodic, from the last interval: the crossing wraps into the next period.
@example((CONSTANT, PERIODIC, [1.0, 1.0], [(0, 1, 1.0, [1.0, 1.0])], 1.5), False)
@example((CONSTANT, STATIC, [1.0, 1.0], [(0, 1, AT_REACH, [1.0, 1.0])],
          1.0 - 2.0**-6), True)
# From 0.5 s the 2 m left past interval 0 is row[last] - row[0] exactly, the
# most a search inside the horizon holds; an ulp more passes the horizon.
@example((CONSTANT, STATIC, [1.0] * 3, [(0, 1, 2.5, [1.0] * 3)], 0.5), False)
@example((CONSTANT, STATIC, [1.0] * 3,
          [(0, 1, math.nextafter(2.5, 3.0), [1.0] * 3)], 0.5), False)
@example((LINEAR, PERIODIC, [1.0] * 3,
          [(0, 1, math.nextafter(2.5, 3.0), [1.0] * 4)], 0.5), False)
# A scan that walks past the horizon into the static tail, or wraps once
# into the next period.
@example((CONSTANT, STATIC, [1.0, 1.0], [(0, 1, 5.0, [1.0, 2.0])], 0.5), False)
@example((CONSTANT, PERIODIC, [1.0, 1.0], [(0, 1, 5.0, [1.0, 2.0])], 0.5), False)
@example((LINEAR, PERIODIC, [1.0, 1.0], [(0, 1, 5.0, [1.0, 2.0, 1.0])], 0.5), False)
# Every interval covers 10 m, so b-fatt's window is 3 intervals for the 24 m
# arc, though its least span is 1 m (1 m/s times 1 s): the window alone
# confines the search of the 19 m left past interval 0.
@example((CONSTANT, STATIC, [10.0] + [1.0] * 6,
          [(0, 1, 24.0, [1.0] + [10.0] * 6)], 5.0), False)
@example((CONSTANT, STATIC, [10.0] + [1.0] * 6,
          [(0, 1, 24.0, [1.0] + [10.0] * 6)], 5.0), True)
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_row_free_exits_give_the_kernel_answers_bit_for_bit(case, hand_built):
    # The same arrivals, predecessors, arrival intervals and QueryStats as an
    # engine that hands every crossing out of its interval to the kernel, or
    # the same ValueError, from the row-free exits and from the engine's own
    # calls of the kernel's search and walk.
    compare_without_exits(case, hand_built)


def test_a_nan_first_reaches_the_kernel_and_raises_as_traverse_arc_does():
    # No graph that builds has a NaN first: the span from an instant inside
    # an interval is bounded by the interval's whole span, which the coverage
    # rule keeps finite, so cases() cannot give one. A speed poisoned in
    # place after the graph checked it does, and fails both exits' tests.
    for kind in (CONSTANT, LINEAR):
        for policy in (STATIC, PERIODIC):
            count = 2 + (kind == LINEAR)
            graph = build(kind, policy, [1.0, 1.0], [(0, 1, 1.5, [1.0] * count)])
            graph.arcs[0].profile.values[0] = math.nan
            for strategy in STRATEGIES[kind]:
                table = build_ael(graph)
                with pytest.raises(ValueError) as crossing:
                    traverse_arc(graph, table, 0, 0.5, strategy)
                message = f"^{re.escape(str(crossing.value))}$"
                for query, *args in ((shortest_paths, 0, 0.5, strategy),
                                     (shortest_path_to, 0, 1, 0.5, strategy)):
                    with pytest.raises(ValueError, match=message):
                        query(graph, table, *args)
                    with mock.patch.object(routing, "_exits", no_exits):
                        with pytest.raises(ValueError, match=message):
                            query(graph, table, *args)


@given(cases())
# Speeds of 1e300 m/s over a 1e300 s interval: slowest speed times narrowest
# width overflows, and so does the prefix row.
@example((CONSTANT, STATIC, [1e300], [(0, 1, 1.0, [1e300])], 0.0))
# Subnormal speeds over intervals near 2^499 s: the second interval's slope
# underflows to 0 and its intercept is negative, so its span computes
# below 0, though every speed is positive.
@example((LINEAR, STATIC, [2.0**499, 2.0**498],
          [(0, 1, 2.0**-60, [5e-324, 5e-324, 1.5e-323])], 0.0))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_the_coverage_bound_clears_only_arcs_the_exact_check_passes(case):
    kind, _, widths, arcs, _ = case
    try:
        division = division_of(widths)
    except ValueError:
        return
    for arc in built_arcs(kind, division, arcs):
        if _clears_coverage(arc.profile, arc.length, division):
            _window_bound(arc.length, _prefix_sums(arc.profile.values, division))


def unchecked_text(kind, policy, division, arcs):
    """The graph file of ``arcs``, which no graph has checked."""
    lines = [f"tdgraph 1 {kind} {policy}",
             f"division {division.intervals} {' '.join(map(repr, division.breakpoints))}",
             f"nodes {NODES}", f"arcs {len(arcs)}"]
    lines += [f"arc {arc.src} {arc.dst} {arc.length!r} "
              + " ".join(map(repr, arc.profile.values)) for arc in arcs]
    return "\n".join(lines) + "\n"


@given(cases())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_loading_validation_and_the_table_give_one_verdict(case):
    # A file loads exactly when validation reports nothing, and exactly when
    # the exact check, which build_ael runs on every row, passes each arc.
    kind, policy, widths, arcs, _ = case
    try:
        division = division_of(widths)
    except ValueError:
        return
    unchecked = tuple(built_arcs(kind, division, arcs))
    bounds = []
    for arc in unchecked:
        try:
            bounds.append(_window_bound(
                arc.length, _prefix_sums(arc.profile.values, division)))
        except ValueError:
            bounds.append(None)
    text = unchecked_text(kind, policy, division, unchecked)
    errors = _parse(text.splitlines())[1]
    assert [error.line - 5 for error in errors] == [
        index for index, bound in enumerate(bounds) if bound is None]
    try:
        graph = loads(text)
    except GraphFormatError:
        assert errors
        return
    assert build_ael(graph).window_bounds == bounds


@given(cases(), st.lists(st.tuples(st.integers(0, 2), st.integers(0, NODES - 1),
                                   st.integers(-1, NODES - 1)), max_size=4))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_rows_filled_on_first_use_are_the_bits_of_a_whole_table(case, mix):
    # Each query of the mix is one strategy's one-to-all tree from a source
    # (target -1), its query to another node, or, when the target is the
    # source, its crossing of an arc.
    kind, policy, widths, arcs, departure = case
    try:
        graph = build(kind, policy, widths, arcs)
    except ValueError:
        return
    table = build_ael(graph)
    assert table._rows == table._bounds == [None] * graph.arc_count
    strategies = STRATEGIES[kind]
    for pick, source, target in mix:
        strategy = strategies[pick % len(strategies)]
        if target < 0:
            answer(shortest_paths, graph, table, source, departure, strategy)
        elif target != source or not graph.arc_count:
            answer(shortest_path_to, graph, table, source, target, departure, strategy)
        else:
            arc = source % graph.arc_count
            answer(traverse_arc, graph, table, arc, departure, strategy)
    assert len(table.rows) == len(table.window_bounds) == graph.arc_count
    for arc, row, bound in zip(graph.arcs, table.rows, table.window_bounds):
        sums = _prefix_sums(arc.profile.values, graph.division)
        assert row.typecode == "d"
        assert row.tobytes() == array("d", sums).tobytes()
        assert bound == _window_bound(arc.length, sums)
