"""Label-setting shortest paths with pluggable arc-cost procedures.

The engine is Dijkstra's algorithm where relaxing arc <x, y> evaluates
the arc's traversal time at the settled arrival instant of x. Because
the speed model is FIFO (leaving later never arrives earlier), settling
nodes in non-decreasing label order yields minimum arrival times.

The loop reads only locals: the graph's adjacency, its flat per-arc
target, length and speed lists (built once by :class:`TdGraph`), the
breakpoints and the table's prefix rows and windows. No
``TraversalResult`` is allocated per relaxation.

The loop takes the two common exits of the crossing kernel
``traversal._cross`` itself. For a node settled at ``label`` inside the
horizon, in interval k:

* Same interval, as most crossings on realistic networks end. An arc
  relaxes at cost ``length / values[k]`` with arrival interval k when
  ``values[k] * (points[k+1] - label) >= length`` and ``label + cost <
  points[k+1]``: the kernel's own test and cost, the kind's ``cover`` and
  ``within``, inlined for constant speeds and called for linear ones.
* Searched, as every crossing is in the paper's regime of long arcs and
  short intervals. When the test above fails, a searching strategy whose
  prefix row says the arrival lies within the horizon calls the kernel's
  search core ``traversal._searched``, which bisects the row and counts
  into the query's stats. The arrival keeps the core's interval ``stop``
  when ``points[stop] <= label + cost < points[stop+1]``; otherwise
  ``locate_interval`` places it, as in the kernel.

Every other crossing is one kernel call: a scan's, one that ends in its
departure interval on or past ``points[k+1]``, one that arrives past the
horizon, and every crossing from a label at or past the horizon. Both
ways give the same bits, so answers and counters do not depend on which
one ran. The strategy picks the procedure the kernel runs:

========== ======================================== ================
strategy   procedure                                profile kind
========== ======================================== ================
att        sequential interval scan                 constant
fatt       prefix-sum binary search                 constant
b-fatt     windowed binary search (per-arc bound)   constant
att-linear sequential scan, closed-form finish      linear
l-fatt     prefix-sum binary search, linear speeds  linear
========== ======================================== ================

Each settled node remembers the interval its arrival lies in; that index
seeds the next traversal call's interval location, making it O(1).
A query owns its working state exclusively, so any number of queries may
run concurrently over one shared graph/table.

Point-to-point queries run A* whenever the table carries landmark lists
(:func:`tdroute.traversal.build_ael` always adds them), whatever the
strategy. A node reached at ``label`` enters the heap with the key
``label + pi(v)``, where ``pi(v)`` is the landmark bound on the travel
time from v to the target (:func:`tdroute.landmarks.potential`), computed
the first time v is reached. One-to-all queries, and point-to-point ones
without landmarks, use the label as the key: plain Dijkstra.

* Admissible. No crossing of an arc is faster than ``length /
  max(values)``: a constant speed never exceeds its largest value, a
  linear one is largest at a breakpoint, and past the horizon both
  policies reuse the same values. So static distances over these weights
  bound every travel time from below, and by the triangle inequality each
  landmark term ``d(v, L) - d(t, L)`` or ``d(L, t) - d(L, v)`` bounds the
  static distance from v to t. A term whose two distances are both inf is
  NaN and skipped, so no key is NaN; a key of inf means v cannot reach t.
* Ordered. Heap entries are ``(key, label, node)``, so equal keys pop in
  label order, and a key that rounding would put below the key of the
  node it was reached from is raised to that key. Keys therefore pop in
  non-decreasing order, which the loop asserts.
* Exact under rounding. The potentials are shrunk by the factor
  ``landmarks.SCALE`` (1 - 1e-6), not reopened when a label improves. A
  node v settles at plain Dijkstra's label ``D(v)`` as long as every node
  x before it on Dijkstra's path to v has ``fl(D(x) + pi(x)) <=
  fl(D(v) + pi(v))``: then the first node of that path not yet settled
  pops before any worse label of v, and hands v the label Dijkstra gives
  it, through the same crossing computation. In exact arithmetic the
  right side exceeds the left by at least 1e-6 of the static distance
  from x to v. Rounding takes back a few ulps of the distance lists and
  of the labels per arc, which the lists' per-arc triangle inequality
  (exact in floating point) keeps from compounding. So the margin holds
  whenever a crossing on the way lasts over about 2e6 ulps of the labels
  (3e-5 s for labels near a day); only a chain of crossings all shorter
  than that, reaching v within a few ulps of its best label, could settle
  v early. The target's arrival is then bit-identical to plain
  Dijkstra's. When two paths reach a node at exactly the same instant,
  the path returned may be the other one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .landmarks import potential, targeting
from .model import CONSTANT, LINEAR, TdGraph, _check_node, locate_interval
from .traversal import (
    _KINDS,
    AelTable,
    OpCounter,
    TraversalResult,
    _check_departure,
    _check_row_length,
    _checked_cross,
    _cross,
    _searched,
)

ATT = "att"
FATT = "fatt"
B_FATT = "b-fatt"
ATT_LINEAR = "att-linear"
L_FATT = "l-fatt"

# Each strategy's profile kind, whether it searches the prefix table (a
# scan needs none), and whether the search is confined to the arc's window
# bound. _check_strategy is the one place a strategy is resolved.
_PLANS = {
    ATT: (CONSTANT, False, False),
    FATT: (CONSTANT, True, False),
    B_FATT: (CONSTANT, True, True),
    ATT_LINEAR: (LINEAR, False, False),
    L_FATT: (LINEAR, True, False),
}
STRATEGIES = tuple(_PLANS)

UNREACHABLE = math.inf


@dataclass
class QueryStats:
    """Work done by one query."""

    settled: int = 0
    traversal_calls: int = 0
    probes: int = 0
    steps: int = 0


@dataclass
class RouteResult:
    """Shortest-path tree from one source at one departure instant.

    ``arrival[x]`` is the minimum arrival instant at x (inf when x is
    unreachable), ``predecessor[x]`` the previous node on that path, and
    ``arrival_interval[x]`` the interval index the arrival lies in.
    """

    source: int
    departure: float
    arrival: list[float]
    predecessor: list[int | None]
    arrival_interval: list[int | None]
    stats: QueryStats = field(default_factory=QueryStats)

    def path_to(self, target: int) -> list[int] | None:
        """Node sequence from the source to ``target``, or None."""
        _check_node(target, len(self.arrival))
        if self.arrival[target] == UNREACHABLE:
            return None
        path = [target]
        while path[-1] != self.source:
            step = self.predecessor[path[-1]]
            assert step is not None
            path.append(step)
        path.reverse()
        return path


@dataclass
class PathResult:
    """Point-to-point answer: node sequence and arrival, or unreachable."""

    path: list[int] | None
    arrival: float
    stats: QueryStats = field(default_factory=QueryStats)


def shortest_paths(
    graph: TdGraph,
    ael: AelTable | None,
    source: int,
    departure: float,
    strategy: str,
) -> RouteResult:
    """Minimum arrival instants from ``source`` to every node."""
    return _run(graph, ael, source, departure, strategy, stop_at=None)


def shortest_path_to(
    graph: TdGraph,
    ael: AelTable | None,
    source: int,
    target: int,
    departure: float,
    strategy: str,
) -> PathResult:
    """Point-to-point query; stops as soon as ``target`` settles. Runs A*
    over the table's landmark lists when it carries them."""
    _check_node(target, graph.nodes)
    result = _run(graph, ael, source, departure, strategy, stop_at=target)
    return PathResult(
        path=result.path_to(target),
        arrival=result.arrival[target],
        stats=result.stats,
    )


def traverse_arc(
    graph: TdGraph,
    ael: AelTable | None,
    arc_index: int,
    departure: float,
    strategy: str,
    hint: int | None = None,
    counter: OpCounter | None = None,
) -> TraversalResult:
    """One arc traversal under ``strategy`` (debug-level query), checked and
    run by ``traversal._checked_cross`` as the single-arc procedures are."""
    rows, windows, _ = _check_strategy(graph, ael, strategy)
    if not 0 <= arc_index < graph.arc_count:
        raise ValueError(f"arc index {arc_index} out of range")
    row = None if rows is None else rows[arc_index]
    window = None if windows is None else windows[arc_index]
    return _checked_cross(graph.arcs[arc_index], row, graph.division, graph.kind,
                          graph.policy, departure, counter, hint, window)


def _check_strategy(
    graph: TdGraph, ael: AelTable | None, strategy: str
) -> tuple[list[list[float]] | None, list[int] | None, list]:
    """The kernel's per-arc prefix rows (None for a scan) and search windows
    (None unless windowed) under ``strategy``, and the table's landmark
    lists (empty without a table), once the strategy suits the graph and
    the table has one row and window per arc, a first row of one entry per
    interval and one landmark distance per node of the graph."""
    strategy = strategy.lower()
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    kind, searches, windowed = _PLANS[strategy]
    if kind != graph.kind:
        raise ValueError(
            f"strategy {strategy!r} requires {kind} profiles, "
            f"graph has {graph.kind}"
        )
    landmarks = [] if ael is None else ael.landmarks
    for distances in (d for pair in landmarks for d in pair):
        if len(distances) != graph.nodes:
            raise ValueError(
                f"landmark distance list has {len(distances)} entries, "
                f"graph has {graph.nodes} nodes"
            )
    if not searches:
        return None, None, landmarks
    if ael is None:
        raise ValueError(f"strategy {strategy!r} needs a prefix table")
    if len(ael.rows) != graph.arc_count:
        raise ValueError(
            f"prefix table has {len(ael.rows)} rows, graph has "
            f"{graph.arc_count} arcs"
        )
    if ael.rows:  # O(1): the other rows are trusted to match the first
        _check_row_length(ael.rows[0], graph.division.intervals)
    if not windowed:
        return ael.rows, None, landmarks
    if len(ael.window_bounds) != graph.arc_count:
        raise ValueError(
            f"prefix table has {len(ael.window_bounds)} window bounds, "
            f"graph has {graph.arc_count} arcs"
        )
    return ael.rows, ael.window_bounds, landmarks


def _run(
    graph: TdGraph,
    ael: AelTable | None,
    source: int,
    departure: float,
    strategy: str,
    stop_at: int | None,
) -> RouteResult:
    rows, windows, landmarks = _check_strategy(graph, ael, strategy)
    _check_node(source, graph.nodes)
    _check_departure(departure)

    division = graph.division
    policy = graph.policy
    points = division.breakpoints
    horizon = points[-1]
    last = len(points) - 2
    constant = graph.kind == CONSTANT
    cover, within, _ = _KINDS[graph.kind]
    arcs = graph.arcs
    adjacency = graph._adjacency
    dsts = graph._dst
    lengths = graph._length
    speeds = graph._speeds
    n = graph.nodes
    arrival = [UNREACHABLE] * n
    predecessor: list[int | None] = [None] * n
    hint: list[int | None] = [None] * n
    settled = [False] * n
    stats = QueryStats()
    settled_count = 0
    calls = 0
    inf = math.inf

    # A* towards stop_at when the table carries landmarks: each node's
    # potential, computed the first time the node is reached.
    terms = None
    if stop_at is not None and landmarks:
        terms = targeting(landmarks, stop_at)
        potentials: list[float | None] = [None] * n

    arrival[source] = departure
    hint[source] = locate_interval(division, departure, policy)
    # Heap entries are (key, label, node): equal keys pop in label order.
    frontier: list[tuple[float, float, int]] = [(departure, departure, source)]
    previous_key = -math.inf
    while frontier:
        key, label, node = heappop(frontier)
        if settled[node]:
            continue  # stale heap entry superseded by a better label
        assert key >= previous_key, "keys must settle in order"
        previous_key = key
        settled[node] = True
        settled_count += 1
        if node == stop_at:
            break
        k = hint[node]
        end = points[k + 1]
        room = end - label
        # Inside the horizon points[k] <= label < end; past it k is the
        # interval label maps to under the policy, and every crossing goes
        # to the kernel.
        inside = label < horizon
        for arc_index in adjacency[node]:
            dst = dsts[arc_index]
            if settled[dst]:
                continue
            calls += 1
            cost = inf  # until the same-interval exit applies
            if inside:
                length = lengths[arc_index]
                if constant:
                    # _cover_constant(values, points, k, label) >= length, then
                    # _within_constant(values, points, k, label, length), inline
                    speed = speeds[arc_index][k]
                    if speed * room >= length:
                        cost = length / speed
                elif cover(speeds[arc_index], points, k, label) >= length:
                    cost = within(speeds[arc_index], points, k, label, length)
            if label + cost < end:
                # _cross's same-interval exit, arriving before the interval ends.
                interval = k
            elif (
                # _cross's searched exit: the same-interval test failed, so the
                # remaining distance (recomputed here to keep it off that
                # exit's path) is positive, and the prefix row puts the
                # arrival within the horizon.
                inside
                and rows is not None
                and 0.0 < (remaining := length - (
                    speeds[arc_index][k] * room if constant
                    else cover(speeds[arc_index], points, k, label)
                )) <= (row := rows[arc_index])[last] - row[k]
            ):
                cost, interval = _searched(
                    within, speeds[arc_index], row, points, k + 1, -label,
                    remaining, None if windows is None else windows[arc_index],
                    stats,
                )
                arrive = label + cost
                # _cross's locate_interval call, inline while the hint holds
                if not points[interval] <= arrive < points[interval + 1]:
                    interval = locate_interval(division, arrive, policy, interval)
            else:
                # The stats serve as the kernel's counter: it adds to probes
                # and steps.
                cost, interval = _cross(
                    arcs[arc_index],
                    None if rows is None else rows[arc_index],
                    division, policy, label, k, stats,
                    None if windows is None else windows[arc_index],
                )
            candidate = label + cost
            if candidate < arrival[dst]:
                arrival[dst] = candidate
                predecessor[dst] = node
                hint[dst] = interval
                if terms is None:
                    heappush(frontier, (candidate, candidate, dst))
                    continue
                bound = potentials[dst]
                if bound is None:
                    bound = potentials[dst] = potential(terms, dst)
                # A key never falls below the key it was reached from.
                step = candidate + bound
                heappush(frontier, (step if step > key else key, candidate, dst))
    stats.settled = settled_count
    stats.traversal_calls = calls
    # hint[x] is None exactly where arrival[x] is inf.
    return RouteResult(
        source=source,
        departure=departure,
        arrival=arrival,
        predecessor=predecessor,
        arrival_interval=hint,
        stats=stats,
    )
