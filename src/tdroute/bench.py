"""Operation-count benchmark comparing traversal strategies.

Each cell of a sweep builds one two-node graph whose single arc is long
enough (``span`` of the total distance coverable over the horizon) that a
traversal crosses a sizable share of the K intervals, then runs the same
departure instants through every requested strategy. Every query goes
through :func:`routing.traverse_arc`. Operation counters are the primary
evidence (deterministic, machine independent): sequential strategies report
interval steps, binary-search strategies report probes. Wall time is
secondary; ``wall_ns`` includes strategy, profile and table checks that the
route engine makes once per query, not once per crossing.

Every strategy in a cell must produce the same costs (relative tolerance
1e-9) and identical arrival intervals; a mismatch raises
:class:`ChecksumMismatch` so divergent code is never benchmarked.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .io_gen import MAX_INTERVALS, _random_profile
from .model import STATIC, Arc, TdGraph, TimeDivision
from .routing import _PLANS, STRATEGIES, traverse_arc
from .traversal import AelTable, OpCounter, _prefix_row, _smallest_step, build_ael

CSV_HEADER = "strategy,K,n,m,Q,queries,probes,wall_ns"

_SPEED_RANGE = (5.0, 30.0)
# Departures are drawn from the first few percent of the horizon so the
# scan is forced across most of the division.
_DEPARTURE_SPAN = 0.05


class ChecksumMismatch(RuntimeError):
    """Strategies disagreed on a cell's results."""


@dataclass(frozen=True)
class SweepConfig:
    """One benchmark sweep: the K values, strategies, and load per cell."""

    k_values: tuple[int, ...]
    strategies: tuple[str, ...]
    queries: int
    seed: int = 0
    span: float = 0.9
    policy: str = STATIC
    window: int | None = None  # force a uniform Q for b-fatt cells

    def __post_init__(self) -> None:
        if not self.k_values:
            raise ValueError("sweep needs at least one K value")
        if any(k < 2 for k in self.k_values):
            raise ValueError("K must be at least 2")
        if max(self.k_values) > MAX_INTERVALS:
            raise ValueError(f"K {max(self.k_values)} exceeds the cap of {MAX_INTERVALS}")
        if self.queries < 0:
            raise ValueError("query count must be non-negative")
        if not 0.0 < self.span < 1.0:
            raise ValueError("span must be inside (0, 1)")
        if self.window is not None and self.window < 1:
            raise ValueError("window bound must be at least 1")
        if not self.strategies:
            raise ValueError("sweep needs at least one strategy")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ValueError(f"unknown strategies: {unknown}")
        if len({_PLANS[s][0] for s in self.strategies}) > 1:
            raise ValueError(
                "cannot mix constant-kind and linear-kind strategies "
                "in one sweep"
            )


@dataclass
class BenchRecord:
    """Measurements for one (strategy, K) cell."""

    strategy: str
    intervals: int
    nodes: int
    arcs: int
    window_bound: int | None
    queries: int
    probes: int
    wall_ns: int
    max_probes_per_query: int = 0

    def csv_row(self) -> str:
        q = "" if self.window_bound is None else str(self.window_bound)
        return (
            f"{self.strategy},{self.intervals},{self.nodes},{self.arcs},"
            f"{q},{self.queries},{self.probes},{self.wall_ns}"
        )


def run_sweep(config: SweepConfig) -> list[BenchRecord]:
    """All cells of the sweep, ordered by (K, strategy position)."""
    return [
        record for k in sorted(config.k_values) for record in run_cell(k, config)
    ]


def run_cell(k_intervals: int, config: SweepConfig) -> list[BenchRecord]:
    """One K cell: identical queries through every strategy."""
    rng = random.Random(config.seed * 1_000_003 + k_intervals)
    kind = _PLANS[config.strategies[0]][0]
    division = TimeDivision(tuple(float(i) for i in range(k_intervals + 1)))
    profile = _random_profile(rng, kind, config.policy, _SPEED_RANGE, k_intervals)

    # The arc's prefix row does not depend on its length.
    row = _prefix_row(Arc(0, 1, 1.0, profile), division)
    length = config.span * row[-1]
    if config.window is not None:
        # Shrink the arc until the requested uniform window is valid; like
        # compute_q, divide by the row's smallest step.
        length = min(length, config.window * _smallest_step(row) * 0.99)
    arc = Arc(0, 1, length, profile)
    graph = TdGraph(2, division, config.policy, kind, (arc,))
    table = build_ael(graph)
    q = table.window_bounds[0]
    if config.window is not None and config.window > q:
        q = config.window
        table = AelTable(table.rows, [q])

    horizon = division.horizon
    departures = [
        rng.uniform(0.0, _DEPARTURE_SPAN * horizon)
        for _ in range(config.queries)
    ]

    records = []
    reference: list[tuple[float, int]] | None = None
    for strategy in config.strategies:
        counter = OpCounter()
        results: list[tuple[float, int]] = []
        max_per_query = 0
        started = time.perf_counter_ns()
        for tau in departures:
            before = counter.probes + counter.steps
            out = traverse_arc(graph, table, 0, tau, strategy, counter=counter)
            max_per_query = max(
                max_per_query, counter.probes + counter.steps - before
            )
            results.append((out.cost, out.arrival_interval))
        wall = time.perf_counter_ns() - started
        if reference is None:
            reference = results
        else:
            _verify(reference, results, k_intervals, strategy)
        records.append(
            BenchRecord(
                strategy=strategy,
                intervals=k_intervals,
                nodes=graph.nodes,
                arcs=graph.arc_count,
                window_bound=q if _PLANS[strategy][2] else None,
                queries=config.queries,
                probes=counter.probes + counter.steps,
                wall_ns=wall,
                max_probes_per_query=max_per_query,
            )
        )
    return records


def to_csv(records: list[BenchRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(record.csv_row() for record in records)
    return "\n".join(lines) + "\n"


def _verify(reference, results, k_intervals, strategy):
    for i, ((want_cost, want_interval), (cost, interval)) in enumerate(
        zip(reference, results)
    ):
        if interval != want_interval or not math.isclose(
            cost, want_cost, rel_tol=1e-9, abs_tol=1e-12
        ):
            raise ChecksumMismatch(
                f"result checksum mismatch at K={k_intervals}, "
                f"strategy={strategy}, query {i}: "
                f"{cost} vs {want_cost}"
            )
