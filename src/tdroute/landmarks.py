"""Landmark lower bounds for point-to-point queries (ALT).

No crossing of an arc is faster than its length at the arc's top speed,
``length / max(values)``: a constant speed never exceeds its largest
value, a linear one peaks at a breakpoint, and past the horizon both
policies reuse the same values. Static shortest distances under these
weights therefore bound every time-dependent travel time from below.
The graph holds the one list of these least crossing times,
``TdGraph._least``, which the landmark runs weigh arcs with and the
routing engine prunes relaxations by.

A few landmarks L are picked farthest-first, and a static Dijkstra run
from each, forward and over the reversed arcs, gives ``away[v] = d(L, v)``
and ``back[v] = d(v, L)``. The triangle inequality then bounds the
remaining travel time from v to a target t by ``back[v] - back[t]`` and by
``away[t] - away[v]``; :func:`potential` takes the largest such bound.
:func:`tdroute.traversal.build_ael` stores the lists on the prefix table,
and the routing engine turns them into A* keys.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from heapq import heappop, heappush

from .model import TdGraph

# How many landmarks a table carries (fewer on graphs with fewer nodes).
# More landmarks cut few further nodes on grids and cost more set-up.
LANDMARKS = 4

# Every potential is shrunk by this factor, far more than the rounding in
# the distance lists, so that keys grow along a path by more than rounding
# takes back; the routing engine shrinks each least crossing time by it
# before pruning by it (:mod:`tdroute.routing` gives both arguments and
# their limits).
SCALE = 1.0 - 1e-6

Distances = list[float]
# A landmark's lists with their entries at the target: back, back[t],
# away, away[t].
Term = tuple[Distances, float, Distances, float]


def build_landmarks(graph: TdGraph) -> list[tuple[Distances, Distances]]:
    """``(away, back)`` static distance lists for ``min(LANDMARKS, n)``
    landmarks of ``graph``; unreachable nodes are at inf.

    The first landmark is the node farthest from node 0, each next one the
    node farthest from those already picked (an unreachable node counts
    as farthest, so other components get landmarks of their own).
    """
    n = graph.nodes
    weights = graph._least
    incoming: list[list[int]] = [[] for _ in range(n)]
    for index, dst in enumerate(graph._dst):
        incoming[dst].append(index)
    sources = [arc.src for arc in graph.arcs]
    outgoing = graph._adjacency
    nearest = _distances(0, outgoing, graph._dst, weights, n)
    picked: set[int] = set()
    lists = []
    for _ in range(min(LANDMARKS, n)):
        landmark = max(
            (v for v in range(n) if v not in picked), key=nearest.__getitem__
        )
        picked.add(landmark)
        away = _distances(landmark, outgoing, graph._dst, weights, n)
        back = _distances(landmark, incoming, sources, weights, n)
        nearest = away if not lists else list(map(min, nearest, away))
        lists.append((away, back))
    return lists


def targeting(landmarks: list[tuple[Distances, Distances]], target: int) -> list[Term]:
    """The terms :func:`potential` reads for ``target``, one per landmark."""
    return [(back, back[target], away, away[target]) for away, back in landmarks]


def potential(terms: list[Term], node: int) -> float:
    """A lower bound on the travel time from ``node`` to the target of
    ``terms``, scaled by :data:`SCALE`: never NaN, inf when ``node``
    provably cannot reach the target."""
    best = 0.0
    for back, back_target, away, away_target in terms:
        # Two infinite distances give a NaN gap, which no comparison takes:
        # the term is skipped.
        gap = back[node] - back_target
        if gap > best:
            best = gap
        gap = away_target - away[node]
        if gap > best:
            best = gap
    return best * SCALE


def _distances(
    source: int,
    adjacency: Sequence[Sequence[int]],
    ends: list[int],
    weights: list[float],
    n: int,
) -> Distances:
    """Static Dijkstra from ``source`` over arcs listed per node in
    ``adjacency``, arc i leading to ``ends[i]`` at cost ``weights[i]``."""
    dist = [math.inf] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, node = heappop(heap)
        if d > dist[node]:
            continue  # superseded by a shorter distance
        for arc in adjacency[node]:
            end = ends[arc]
            candidate = d + weights[arc]
            if candidate < dist[end]:
                dist[end] = candidate
                heappush(heap, (candidate, end))
    return dist
