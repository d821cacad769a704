"""Label-setting shortest paths with pluggable arc-cost procedures.

The engine is Dijkstra's algorithm where relaxing arc <x, y> evaluates
the arc's traversal time at the settled arrival instant of x. Because
the speed model is FIFO (leaving later never arrives earlier), settling
nodes in non-decreasing label order yields minimum arrival times.

Strategies pick the traversal procedure:

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
from typing import Callable

from .model import CONSTANT, LINEAR, Arc, TdGraph, locate_interval
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

# The one place a strategy is resolved: its profile kind and its kernel,
# the scan, the search, or the search confined to the arc's window bound.
_SCAN = "scan"
_SEARCH = "search"
_WINDOWED = "windowed"
_PLANS = {
    ATT: (CONSTANT, _SCAN),
    FATT: (CONSTANT, _SEARCH),
    B_FATT: (CONSTANT, _WINDOWED),
    ATT_LINEAR: (LINEAR, _SCAN),
    L_FATT: (LINEAR, _SEARCH),
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
    """One arc traversal through the strategy dispatch (debug-level query)."""
    strategy = _check_strategy(graph, ael, strategy)
    if not 0 <= arc_index < graph.arc_count:
        raise ValueError(f"arc index {arc_index} out of range")
    _check_departure(departure)
    evaluate = _evaluator(graph, ael, strategy, counter)
    return evaluate(graph.arcs[arc_index], arc_index, departure, hint)


def _check_strategy(graph: TdGraph, ael: AelTable | None, strategy: str) -> str:
    """The strategy name, normalised, once it is known to suit the graph."""
    strategy = strategy.lower()
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    kind, kernel = _PLANS[strategy]
    if kind != graph.kind:
        raise ValueError(
            f"strategy {strategy!r} requires {kind} profiles, "
            f"graph has {graph.kind}"
        )
    if kernel != _SCAN and ael is None:
        raise ValueError(f"strategy {strategy!r} needs a prefix table")
    return strategy


def _run(
    graph: TdGraph,
    ael: AelTable | None,
    source: int,
    departure: float,
    strategy: str,
    stop_at: int | None,
) -> RouteResult:
    strategy = _check_strategy(graph, ael, strategy)
    if not 0 <= source < graph.nodes:
        raise ValueError("node id out of range")
    _check_departure(departure)

    counter = OpCounter()
    evaluate = _evaluator(graph, ael, strategy, counter)
    n = graph.nodes
    arrival = [UNREACHABLE] * n
    predecessor: list[int | None] = [None] * n
    hint: list[int | None] = [None] * n
    settled = [False] * n
    stats = QueryStats()

    arrival[source] = departure
    hint[source] = locate_interval(graph.division, departure, graph.policy)
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
            outcome = evaluate(arc, arc_index, label, node_hint)
            stats.traversal_calls += 1
            candidate = label + outcome.cost
            if candidate < arrival[arc.dst]:
                arrival[arc.dst] = candidate
                predecessor[arc.dst] = node
                hint[arc.dst] = outcome.arrival_interval
                heappush(frontier, (candidate, arc.dst))
    stats.probes = counter.probes
    stats.steps = counter.steps
    return RouteResult(
        source=source,
        departure=departure,
        arrival=arrival,
        predecessor=predecessor,
        arrival_interval=[h if a != UNREACHABLE else None for h, a in zip(hint, arrival)],
        stats=stats,
    )


def _evaluator(
    graph: TdGraph,
    ael: AelTable | None,
    strategy: str,
    counter: OpCounter | None,
) -> Callable[[Arc, int, float, int | None], TraversalResult]:
    """The strategy's kernel as f(arc, arc_index, departure, hint).

    The kernel trusts its arguments: callers check the strategy and the
    departure first, and the graph guarantees the kind and the policy.
    """
    division = graph.division
    policy = graph.policy
    kernel = _PLANS[strategy][1]
    if kernel == _SCAN:
        return lambda arc, i, tau, hint: _cross(
            arc, None, division, policy, tau, hint, counter, None
        )
    assert ael is not None
    rows = ael.rows
    if kernel == _WINDOWED:
        bounds = ael.window_bounds
        return lambda arc, i, tau, hint: _cross(
            arc, rows[i], division, policy, tau, hint, counter, bounds[i]
        )
    return lambda arc, i, tau, hint: _cross(
        arc, rows[i], division, policy, tau, hint, counter, None
    )
