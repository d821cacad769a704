"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check:
``brute_locate`` scans intervals linearly, ``integrate_motion`` marches
fixed time steps through the speed function, and ``enumerate_arrivals``
walks every simple path of a small graph.
"""

from __future__ import annotations

import math
import random
from contextlib import ExitStack, contextmanager
from functools import partial
from unittest import mock

from tdroute import (
    CONSTANT,
    LINEAR,
    PERIODIC,
    STATIC,
    Arc,
    GeneratorConfig,
    SpeedProfile,
    TdGraph,
    TimeDivision,
    att,
    att_linear,
    generate,
    profile_speed,
)
from tdroute import routing, traversal


def random_division(rng: random.Random, max_intervals: int = 8,
                    max_horizon: float = 100.0) -> TimeDivision:
    horizon = rng.uniform(5.0, max_horizon)
    wanted = rng.randint(1, max_intervals)
    interior = sorted({rng.uniform(0.02, 0.98) * horizon for _ in range(wanted - 1)})
    return TimeDivision((0.0, *interior, horizon))


def random_profile(rng: random.Random, kind: str, intervals: int, policy: str,
                   low: float = 0.5, high: float = 30.0) -> SpeedProfile:
    count = intervals if kind == CONSTANT else intervals + 1
    speeds = [rng.uniform(low, high) for _ in range(count)]
    if kind == LINEAR and policy == PERIODIC:
        speeds[-1] = speeds[0]
    return SpeedProfile(kind, tuple(speeds))


def random_arc(rng: random.Random, division: TimeDivision, kind: str,
               policy: str, src: int = 0, dst: int = 1) -> Arc:
    profile = random_profile(rng, kind, division.intervals, policy)
    return Arc(src, dst, rng.uniform(1.0, 5000.0), profile)


def single_arc_graph(rng: random.Random, kind: str, policy: str) -> TdGraph:
    division = random_division(rng)
    arc = random_arc(rng, division, kind, policy)
    return TdGraph(2, division, policy, kind, (arc,))


def random_graph(rng: random.Random, max_nodes: int = 12,
                 kind: str | None = None, policy: str | None = None) -> TdGraph:
    nodes = rng.randint(1, max_nodes)
    degree_cap = min(2.0, float(nodes - 1))
    config = GeneratorConfig(
        nodes=nodes,
        avg_degree=rng.uniform(0.0, degree_cap) if nodes > 1 else 0.0,
        intervals=rng.randint(1, 8),
        horizon=rng.uniform(20.0, 80.0),
        speed_range=(0.5, 30.0),
        length_range=(10.0, 500.0),
        kind=kind or rng.choice((CONSTANT, LINEAR)),
        policy=policy or rng.choice((STATIC, PERIODIC)),
        seed=rng.randrange(2**62),
    )
    return generate(config)


def no_exits(graph: TdGraph, ael, rows) -> tuple[list[float], bool, bool]:
    """``tdroute.routing._exits`` for an engine with no row-free exits that
    runs no search or walk itself: every crossing out of its departure
    interval is one call to the kernel, ``traversal._cross``."""
    return [0.0] * graph.arc_count, False, False


@contextmanager
def crossing_paths():
    """Within it, the list it yields records, in order, each path the route
    engine sends a crossing out of its departure interval down: its own call
    of the kernel's search, ``("search", k, rest)``, the kernel's call
    ``("kernel", k, rest)``, where k is the departure interval and rest the
    distance left past it, and every walk over whole intervals, from the
    engine or inside the kernel, ``("walk", start - 1, remaining)``. A
    row-free exit records nothing."""
    taken = []
    search, kernel = routing._search, routing._cross

    def searched(row, base, stop, *args):
        taken.append(("search", stop - 1, args[1]))
        return search(row, base, stop, *args)

    def crossed(kind, values, length, row, division, policy, k, t, first, *args):
        taken.append(("kernel", k, length - first))
        return kernel(kind, values, length, row, division, policy, k, t, first, *args)

    def walked(walk, values, division, start, end, remaining):
        taken.append(("walk", start - 1, remaining))
        return walk(values, division, start, end, remaining)

    kinds = {name: traversal._Kind(kind.cover, kind.within, partial(walked, kind.walk))
             for name, kind in routing._KINDS.items()}
    with ExitStack() as stack:
        for name, spy in (("_search", searched), ("_cross", crossed),
                          ("_KINDS", kinds)):
            stack.enter_context(mock.patch.object(routing, name, spy))
        yield taken


def brute_locate(division: TimeDivision, t: float) -> int:
    """Linear scan replacement for the binary interval search."""
    points = division.breakpoints
    for k in range(division.intervals):
        if points[k] <= t < points[k + 1]:
            return k
    raise AssertionError(f"{t} outside [0, {points[-1]})")


def integrate_motion(arc: Arc, division: TimeDivision, policy: str,
                     tau: float, step: float = 1e-4) -> float:
    """Fixed-step numeric traversal: advance dx = speed(t) * step."""
    covered = 0.0
    t = tau
    while True:
        speed = profile_speed(arc.profile, division, policy, t)
        gain = speed * step
        if covered + gain >= arc.length:
            return (t - tau) + (arc.length - covered) / speed
        covered += gain
        t += step


def enumerate_arrivals(graph: TdGraph, source: int, departure: float) -> list[float]:
    """Exhaustive simple-path minimum arrivals (independent of Dijkstra)."""
    cost_fn = att if graph.kind == CONSTANT else att_linear
    best = [math.inf] * graph.nodes
    best[source] = departure
    on_path = [False] * graph.nodes
    on_path[source] = True

    def walk(node: int, now: float) -> None:
        for index in graph.out_arcs(node):
            arc = graph.arcs[index]
            if on_path[arc.dst]:
                continue
            then = now + cost_fn(arc, graph.division, graph.policy, now).cost
            if then < best[arc.dst]:
                best[arc.dst] = then
            on_path[arc.dst] = True
            walk(arc.dst, then)
            on_path[arc.dst] = False

    walk(source, departure)
    return best


def static_dijkstra(graph: TdGraph, source: int, speed: float) -> list[float]:
    """Classic fixed-speed Dijkstra, for the constant-speed degeneracy check."""
    import heapq

    dist = [math.inf] * graph.nodes
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = [False] * graph.nodes
    while heap:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        for index in graph.out_arcs(node):
            arc = graph.arcs[index]
            candidate = d + arc.length / speed
            if candidate < dist[arc.dst]:
                dist[arc.dst] = candidate
                heapq.heappush(heap, (candidate, arc.dst))
    return dist
