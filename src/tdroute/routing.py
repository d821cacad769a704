"""Label-setting shortest paths with pluggable arc-cost procedures.

The engine is Dijkstra's algorithm where relaxing arc <x, y> evaluates
the arc's traversal time at the settled arrival instant of x. Because
the speed model is FIFO (leaving later never arrives earlier), settling
nodes in non-decreasing label order yields minimum arrival times.

The loop reads only locals: the graph's adjacency, its flat per-arc
target, length and least-crossing-time lists and its list of speed
arrays (built once by :class:`TdGraph`), the breakpoints and the table's
prefix rows and windows. Speeds and rows are each one ``array('d')`` per
arc, dense doubles that the loop indexes as it would a list. No
``TraversalResult`` is allocated per relaxation.

The loop finishes a same-interval crossing, and two crossings out of the
departure interval that read no prefix row (Row-free exits, below). It
runs the crossing kernel's own search for a crossing that ends inside the
horizon, and its walk for a scan (In-horizon crossings, below); everything
else is one call to the kernel ``traversal._cross``.
A node settled at ``label`` in interval k gives the departure instant t,
the label itself inside the horizon and past it the instant the policy
maps the label to (``model.map_instant``), and ``room = points[k+1] -
t``. Each relaxation computes ``first``, the distance coverable from t
to the end of interval k, with the kind's ``cover``: ``values[k] *
room`` inline for constant speeds. The crossing ends in interval k when
``first >= length`` and ``candidate = label + cost < points[k+1]``, the
cost being the kind's ``within`` (``length / values[k]`` inline): the
kernel's own test and cost, computed once, in that test, and kept as the
arrival. Most crossings on realistic networks end so; none from a label
past the horizon does, as there ``points[k+1] <= label``, and there the
loop leaves a linear arc's ``within`` to the kernel, so no crossing
computes it twice in the loop. A crossing that fails the test goes
straight to the prune test. It is a row-free exit, a search, a walk or
one kernel call given k, t and ``first``, or none of them when the arc's
least crossing time rules the crossing out (Pruned, below). The arrival
keeps the interval ``stop`` where the crossing ends when ``points[stop]
<= label + cost < points[stop+1]``; otherwise ``locate_interval`` places
it, as the single-arc door does. The strategy picks the procedure:

========== ======================================== ================
strategy   procedure                                profile kind
========== ======================================== ================
att        sequential interval scan                 constant
fatt       prefix-sum search                        constant
b-fatt     windowed search (per-arc bound)          constant
att-linear sequential scan, closed-form finish      linear
l-fatt     prefix-sum search, linear speeds         linear
========== ======================================== ================

Each settled node remembers the interval its arrival lies in; that index
seeds the next traversal call's interval location, making it O(1).
A query owns its working state exclusively, so any number of queries may
run concurrently over one shared graph/table. The loop fills an arc's row
(and b-fatt's window) when a crossing first needs a search: the same bits
from any query, in one atomic list-slot store (``traversal.AelTable``).

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
* Pruned. Before it computes a crossing out of the departure interval,
  the loop skips the relaxation when
  ``arrival[dst] <= label + least * SCALE < inf``, where ``least`` is the arc's
  ``length / max(values)``, kept by the graph, and ``SCALE`` is the
  landmarks' 1 - 1e-6; ``QueryStats.pruned`` counts the skips. No crossing
  of the arc is faster than ``least`` (Admissible, above). With δ the
  kernel's relative rounding error, the computed cost is at least 1 - δ
  times the true one, and ``fl(least * SCALE)`` lies within a few ulps of
  (1 - 1e-6) ``least``. So while δ stays below about 1e-6 the computed
  cost is at least ``fl(least * SCALE)``, and since rounding is monotone,
  ``fl(label + cost) >= fl(label + fl(least * SCALE)) >= arrival[dst]``:
  the relaxation's own test ``label + cost < arrival[dst]`` would have
  failed. A pruned relaxation would have changed no label, predecessor,
  hint or heap entry, so the answers are bit-identical to the unpruned
  loop's. The margin is needed: a crossing made at top speed throughout
  can compute a few ulps below ``least`` and improve a label by those
  ulps. The worst cancellation measured in a crossing's arithmetic, 4,506
  ulps of a linear span (about 1e-12 relative), is far below 1e-6. The
  graph refused every arc whose crossing fails but by an arrival past the
  largest float (``model.check_arc``); only a finite bound prunes, so that
  one raises in the engine as in ``traverse_arc``. The same-interval exit
  is not pruned: it costs about what the test does.
* Row-free exits. After the prune test, two crossings out of interval k
  need no row, and the loop finishes them with the kernel's bits and
  counts, reading and filling no row or window. Let ``rest = length -
  first`` be the distance left past interval k.

  - Next interval: ``0 < rest <= reach`` and k is not the last interval.
    The cost is ``(end - t) + within(values, points, k + 1, end, rest)``,
    counted as one probe for a search or one step for a scan. ``reach`` is
    the graph's (``TdGraph._reach``): the arc's least span ``low`` times
    ``model.REACH_MARGIN``, 1 - 2^-5, when the O(1) coverage bound
    (``model._clears_coverage``) clears the arc, and 0 otherwise. There
    low >= 2^-40 high, with the bound's high, so an ulp of high is at most
    2^-12 low. Each computed span, and each step of the computed row, is
    at least low in exact arithmetic, and rounding moves it by under ten
    ulps of high (a linear span's two products and their sum, then the
    running sum): under 2^-8 low, far inside the margin. So
    ``rest <= reach`` passes the search's first probe, the test of
    interval k + 1, ``rest <= row[k+1] - row[k]``: one probe. A scan's walk
    meets interval k + 1's span first and stops there: one step. Either
    way the kernel returns the cost above, ``lead + at`` being ``end - t``.
  - Static tail: k is the last interval under "static" and ``rest > 0``.
    Interval k's row step and the walk add nothing, so the kernel returns
    ``(horizon - t) + rest / values[-1]`` and counts nothing.

  A NaN ``first`` fails both tests and reaches the kernel, which raises. A
  table built by hand takes neither exit (``_exits``): its rows need
  not be the graph's. The kernel keeps both for the single-arc door.
* In-horizon crossings. Any other crossing with ``rest > 0`` runs a
  primitive that ``_cross`` composes, called by the loop itself, with the
  kernel's bits and counts:

  - A search whose rest ends inside the horizon, ``rest <= row[last] -
    row[k]``, is one ``traversal._search`` of intervals k + 1 to ``last``
    (``min(k + 1 + window, last)`` for b-fatt) from ``row[k]``, read once
    for this test and as the search's base.
  - A scan is one walk of the kind from interval k + 1. A walk that
    reaches the horizon goes on from there in ``traversal._past_horizon``,
    the static tail or the periodic wrap, which walks only the period it
    wraps into: no kernel call walks the crossing again.

  The cost is ``(points[stop] - t) + within(values, points, stop,
  points[stop], rest)``, ``rest / values[stop]`` inline for constant
  speeds: the kernel's own sum. The loop counts the probes and steps in a
  local and adds them to ``QueryStats`` once per query. It hands the
  kernel only a search that passes the horizon and a crossing whose
  ``first`` is NaN or covers the arc: one that departs past the horizon
  and ends in its departure interval, or whose arrival rounds onto the end
  of interval k. With ``_exits`` replaced, the loop takes no row-free exit
  and runs no search or walk: every crossing out of its departure
  interval is one kernel call, the reference the tests hold it to.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .landmarks import SCALE, potential, targeting
from .model import (CONSTANT, LINEAR, STATIC, TdGraph, _check_node,
                    locate_interval, map_instant)
from .traversal import (
    _KINDS,
    AelTable,
    OpCounter,
    TraversalResult,
    _check_departure,
    _check_row_length,
    _cross,
    _cross_at,
    _past_horizon,
    _search,
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
    """Work done by one query.

    ``settled`` counts the nodes settled, the target included.
    ``traversal_calls`` counts the crossings computed: relaxations of an
    arc into a node not yet settled that the loop finished itself (in the
    departure interval, by a row-free exit, or by its own call of the
    kernel's search or walk) or handed to the kernel. ``pruned`` counts the
    relaxations out of the departure interval skipped instead, because the
    arc's least crossing time could not improve the label they lead to; the
    two together are every relaxation. ``probes`` counts the arrival
    search's probes of the prefix rows and ``steps`` the intervals a scan
    walked. The loop counts both for the crossings it finishes, as the
    kernel would, in a local added here once per query; the kernel counts
    them for the crossings it is handed, into this object from the engine
    or into an :class:`~tdroute.traversal.OpCounter` from the single-arc
    door.
    """

    settled: int = 0
    traversal_calls: int = 0
    pruned: int = 0
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
    """One arc traversal under ``strategy`` (debug-level query), run by
    ``traversal._cross_at`` as the single-arc procedures are, less the
    profile check that the graph made."""
    rows, windows, _ = _check_strategy(graph, ael, strategy)
    if not 0 <= arc_index < graph.arc_count:
        raise ValueError(f"arc index {arc_index} out of range")
    row = None if rows is None else ael._fill_row(arc_index)
    window = None if windows is None else ael._fill_bound(arc_index)
    return _cross_at(graph.arcs[arc_index], row, graph.division, graph.kind,
                     graph.policy, departure, counter, hint, window)


def _check_strategy(
    graph: TdGraph, ael: AelTable | None, strategy: str
) -> tuple[list[array[float]] | None, list[int] | None, list]:
    """The table's per-arc prefix rows (None for a scan) and search windows
    (None unless windowed) under ``strategy``, each entry None until filled,
    and its landmark lists (empty without a table), once the strategy suits
    the graph and the table has one row and window per arc, rows of one
    entry per interval and one landmark distance per node of the graph. The
    rows' shared length, recorded when the table was built, makes their
    check O(1); the rows are walked, to name the first bad one, only when
    that length is not the interval count."""
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
    if len(ael._rows) != graph.arc_count:
        raise ValueError(
            f"prefix table has {len(ael._rows)} rows, graph has "
            f"{graph.arc_count} arcs"
        )
    if ael._row_length != graph.division.intervals:
        for row in ael.rows:
            _check_row_length(row, graph.division.intervals)
    if not windowed:
        return ael._rows, None, landmarks
    if len(ael._bounds) != graph.arc_count:
        raise ValueError(
            f"prefix table has {len(ael._bounds)} window bounds, "
            f"graph has {graph.arc_count} arcs"
        )
    return ael._rows, ael._bounds, landmarks


def _exits(graph: TdGraph, ael: AelTable | None,
           rows: list | None) -> tuple[array[float] | list[float], bool, bool]:
    """Each arc's reach for the loop's next-interval exit, whether its
    static-tail exit applies (Row-free exits, above), and whether the loop
    runs the kernel's search and walk itself (In-horizon crossings, above).
    No row-free exit applies when the search reads a table built by hand,
    whose rows need not be the graph's; the search and walk always run in
    the loop. Replaced, this is the seam through which a reference engine
    sends every crossing out of its departure interval to the kernel."""
    if rows is None or ael._graph is graph:
        return graph._reach, graph.policy == STATIC, True
    return [0.0] * graph.arc_count, False, True


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
    departure += 0.0  # -0.0 becomes +0.0; every other value keeps its bits

    division = graph.division
    policy = graph.policy
    points = division.breakpoints
    horizon = points[-1]
    last = len(points) - 2
    constant = graph.kind == CONSTANT
    kind = _KINDS[graph.kind]
    cover, within, walk = kind.cover, kind.within, kind.walk
    adjacency = graph._adjacency
    dsts = graph._dst
    lengths = graph._length
    speeds = graph._speeds
    least = graph._least
    reach, tail, direct = _exits(graph, ael, rows)
    n = graph.nodes
    arrival = [UNREACHABLE] * n
    predecessor: list[int | None] = [None] * n
    hint: list[int | None] = [None] * n
    settled = [False] * n
    stats = QueryStats()
    settled_count = 0
    calls = 0
    pruned = 0
    ops = 0  # the probes of a search, or the steps of a scan, counted here
    inf = math.inf
    scale = SCALE

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
        # Crossings depart from t, the instant label maps to under the
        # policy, which interval k holds: label itself inside the horizon.
        t = label if label < horizon else map_instant(division, label, policy, k)[0]
        room = end - t
        for arc_index in adjacency[node]:
            dst = dsts[arc_index]
            if settled[dst]:
                continue
            calls += 1
            length = lengths[arc_index]
            values = speeds[arc_index]
            # The distance coverable in interval k; _cover_constant inline
            first = ((speed := values[k]) * room if constant
                     else cover(values, points, k, t))
            # _cross's same-interval exit, arriving before the interval ends:
            # the kernel's own test, so that a NaN first reaches the kernel,
            # and its cost, _within_constant inline. Past the horizon end <=
            # label, so it never applies, and a linear within is left to the
            # kernel: each crossing computes it at most once here.
            if first >= length and (candidate := label + (
                    length / speed if constant
                    else within(values, points, k, t, length) if label < end
                    else inf)) < end:
                interval = k
            else:
                # No crossing of the arc beats its least crossing time, so
                # none from label improves dst: skip the kernel, unless inf.
                if arrival[dst] <= label + least[arc_index] * scale < inf:
                    pruned += 1
                    continue
                rest = length - first
                if 0.0 < rest <= reach[arc_index] and k < last:
                    # Row-free: the crossing ends in interval k + 1.
                    cost = (end - t) + (rest / values[k + 1] if constant else
                                        within(values, points, k + 1, end, rest))
                    interval = k + 1
                    ops += 1
                elif tail and k == last and rest > 0.0:
                    # Row-free: the static tail at the last measured speed.
                    cost = (horizon - t) + rest / values[-1]
                    interval = last
                elif direct and 0.0 < rest and (
                        rows is None or rest <= (
                            row := rows[arc_index] or ael._fill_row(arc_index)
                        )[last] - (base := row[k])):
                    # A scan, or a search that ends inside the horizon: the
                    # kernel's own walk or search, from interval k + 1.
                    if rows is None:
                        stop, rest = walk(values, division, k + 1, last + 1, rest)
                        ops += (stop if stop <= last else last) - k
                    else:
                        stop, rest, probes = _search(
                            row, base, k + 1, last if windows is None else min(
                                k + 1 + (windows[arc_index]
                                         or ael._fill_bound(arc_index)), last),
                            rest)
                        ops += probes
                    if stop > last:
                        # The walk reached the horizon: on past it, not again.
                        cost, interval = _past_horizon(
                            kind, values, None, division, policy, t, rest, None,
                            stats)
                    else:
                        at = points[stop]
                        cost = (at - t) + (rest / values[stop] if constant else
                                           within(values, points, stop, at, rest))
                        interval = stop
                else:
                    # One kernel call, given the distance first coverable in
                    # interval k, filling the row on first use: a search past
                    # the horizon, or a first that is NaN or covers the arc.
                    # Stats count it.
                    cost, interval = _cross(
                        kind, values, length,
                        None if rows is None
                        else rows[arc_index] or ael._fill_row(arc_index),
                        division, policy, k, t, first,
                        None if windows is None
                        else windows[arc_index] or ael._fill_bound(arc_index),
                        stats,
                    )
                candidate = label + cost
                # The door's locate_interval call, inline while the hint holds
                if not points[interval] <= candidate < points[interval + 1]:
                    interval = locate_interval(division, candidate, policy, interval)
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
    stats.traversal_calls = calls - pruned
    stats.pruned = pruned
    if rows is None:
        stats.steps += ops
    else:
        stats.probes += ops
    # hint[x] is None exactly where arrival[x] is inf.
    return RouteResult(
        source=source,
        departure=departure,
        arrival=arrival,
        predecessor=predecessor,
        arrival_interval=hint,
        stats=stats,
    )
