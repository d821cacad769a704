"""Label-setting shortest paths with pluggable arc-cost procedures.

The engine is Dijkstra's algorithm where relaxing arc <x, y> evaluates
the arc's traversal time at the settled arrival instant of x. Because
the speed model is FIFO (leaving later never arrives earlier), settling
nodes in non-decreasing label order yields minimum arrival times.

Relaxing an arc is one call to the crossing kernel ``traversal._cross``;
the strategy picks the procedure it runs:

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .model import CONSTANT, LINEAR, TdGraph, locate_interval
from .traversal import (
    AelTable,
    OpCounter,
    TraversalResult,
    _check_departure,
    _cross,
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
        if not 0 <= target < len(self.arrival):
            raise ValueError("node id out of range")
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
    """Point-to-point query; stops as soon as ``target`` settles."""
    if not 0 <= target < graph.nodes:
        raise ValueError("node id out of range")
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
    """One arc traversal as the route engine makes it (debug-level query)."""
    rows, windows = _check_strategy(graph, ael, strategy)
    if not 0 <= arc_index < graph.arc_count:
        raise ValueError(f"arc index {arc_index} out of range")
    _check_departure(departure)
    row = None if rows is None else rows[arc_index]
    window = None if windows is None else windows[arc_index]
    return _cross(graph.arcs[arc_index], row, graph.division, graph.policy,
                  departure, hint, counter, window)


def _check_strategy(
    graph: TdGraph, ael: AelTable | None, strategy: str
) -> tuple[list[list[float]] | None, list[int] | None]:
    """The kernel's per-arc prefix rows (None for a scan) and search windows
    (None unless windowed) under ``strategy``, once it suits the graph."""
    strategy = strategy.lower()
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    kind, searches, windowed = _PLANS[strategy]
    if kind != graph.kind:
        raise ValueError(
            f"strategy {strategy!r} requires {kind} profiles, "
            f"graph has {graph.kind}"
        )
    if not searches:
        return None, None
    if ael is None:
        raise ValueError(f"strategy {strategy!r} needs a prefix table")
    return ael.rows, ael.window_bounds if windowed else None


def _run(
    graph: TdGraph,
    ael: AelTable | None,
    source: int,
    departure: float,
    strategy: str,
    stop_at: int | None,
) -> RouteResult:
    rows, windows = _check_strategy(graph, ael, strategy)
    if not 0 <= source < graph.nodes:
        raise ValueError("node id out of range")
    _check_departure(departure)

    division = graph.division
    policy = graph.policy
    n = graph.nodes
    arrival = [UNREACHABLE] * n
    predecessor: list[int | None] = [None] * n
    hint: list[int | None] = [None] * n
    settled = [False] * n
    stats = QueryStats()

    arrival[source] = departure
    hint[source] = locate_interval(division, departure, policy)
    frontier: list[tuple[float, int]] = [(departure, source)]
    previous_label = -math.inf
    while frontier:
        label, node = heappop(frontier)
        if settled[node]:
            continue  # stale heap entry superseded by a better label
        assert label >= previous_label, "labels must settle in order"
        previous_label = label
        settled[node] = True
        stats.settled += 1
        if node == stop_at:
            break
        node_hint = hint[node]
        for arc_index in graph.out_arcs(node):
            arc = graph.arcs[arc_index]
            if settled[arc.dst]:
                continue
            row = None if rows is None else rows[arc_index]
            window = None if windows is None else windows[arc_index]
            # The stats serve as the kernel's counter: it adds to probes and steps.
            outcome = _cross(arc, row, division, policy, label, node_hint,
                             stats, window)
            stats.traversal_calls += 1
            candidate = label + outcome.cost
            if candidate < arrival[arc.dst]:
                arrival[arc.dst] = candidate
                predecessor[arc.dst] = node
                hint[arc.dst] = outcome.arrival_interval
                heappush(frontier, (candidate, arc.dst))
    return RouteResult(
        source=source,
        departure=departure,
        arrival=arrival,
        predecessor=predecessor,
        arrival_interval=[h if a != UNREACHABLE else None for h, a in zip(hint, arrival)],
        stats=stats,
    )
