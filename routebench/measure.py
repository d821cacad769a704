"""Timed phases of the route benchmark, the correctness gate and the
traced per-layer replay.

Everything here reaches the library only through its public functions:
``load``/``loads``/``dumps`` (io_gen), ``TdGraph`` (model),
``build_ael`` and the traversal kernels (traversal), and
``shortest_paths``/``shortest_path_to`` (routing). The benchmark is a
closed loop: one process, one client, no threads; each query is issued
after the previous one returns.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from tdroute import (
    OpCounter,
    TdGraph,
    att,
    att_linear,
    bounded_fatt,
    build_ael,
    dumps,
    fatt,
    l_fatt,
    load,
    loads,
    locate_interval,
    shortest_path_to,
    shortest_paths,
)

from workloads import GRAPHS, STRATA, Round, Workload, query_rounds, write_input

MIB = 1024 * 1024
COUNTERS = ("settled", "traversal_calls", "probes", "steps")
OUTCOMES = ("same_interval", "searched", "static_tail", "periodic_wrap")
REL_TOL = 1e-9
# A p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
# The regime each workload exists for, judged on its traced metrics
# ({name: value}). A traced run that leaves it fails the gate.
REGIMES = {
    "city": lambda w, m: m["traversal.same_interval_ratio"] >= 0.9,
    "fine": lambda w, m: (
        m["traversal.searched_ratio"] >= 0.9
        and m["traversal.scan.steps_per_call"]
        >= 3 * m["traversal.search.probes_per_call"]
    ),
    "ramp": lambda w, m: w.kind == "linear" and m["traversal.periodic_wrap_ratio"] > 0,
}


# Wall clock: span timestamps and the run's deadline.
now = time.perf_counter_ns
# Costs are the calling thread's CPU time. Queries and set-up are
# single-threaded, CPU-bound and read only a file just written (so in the
# page cache), so on a dedicated core this equals their wall time. On a
# shared virtual machine wall time also counts the time the host takes
# the core away, which varied by 5-10 % between identical runs.
cpu = time.thread_time_ns

# Host speed reference. On a shared virtual machine the CPU time of a fixed
# query moves by a third or more over seconds, as other tenants load the
# host: a fixed fine one-to-all query sat at one of three levels (about
# 2.6, 3.5 and 4.3 ms) for seconds to tens of seconds. So every timed
# query is bracketed by runs of a fixed yardstick, and its cost is
# reported at the speed of a reference host on which the yardstick takes
# exactly REFERENCE_YARDSTICK_NS:
#     cost x REFERENCE_YARDSTICK_NS / mean(yardstick before, yardstick after)
# The yardstick is the benchmark's own code and never calls the library,
# so a change to the library moves only the numerator.
YARDSTICK_LOOPS = 16_000
# About the yardstick's median on a 2-core Intel Xeon VM (Python 3.11.7),
# so the scaled figures read close to that host's own.
REFERENCE_YARDSTICK_NS = 2_000_000
# Yardsticks run before, between and after the two set-up calls.
SETUP_YARDSTICKS = 5


def yardstick() -> int:
    """CPU time (ns) of a fixed piece of pure-Python arithmetic.

    It allocates no container objects, so the cyclic garbage collector
    never runs inside it, whatever the heap holds.
    """
    start = cpu()
    total = 0.0
    for i in range(YARDSTICK_LOOPS):
        total += (i * 1.000001) % 7.0
    return cpu() - start


def yardsticks(count: int) -> int:
    """Median cost of ``count`` yardstick runs."""
    return int(statistics.median(yardstick() for _ in range(count)))


def scaled(cost_ns: int, before_ns: int, after_ns: int) -> float:
    """``cost_ns`` at reference speed, from the yardsticks around it."""
    return cost_ns * REFERENCE_YARDSTICK_NS / ((before_ns + after_ns) / 2)


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); q=50 is the median."""
    if q == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Gate:
    """Counts attempted and failed operations; a failure is never dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, count: int, ok: bool, what: str) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            print(f"routebench: check failed: {what}", file=sys.stderr)

    def raised(self, count: int, what: str) -> None:
        self.attempted += count
        self.failed += count
        print(f"routebench: {what} raised:", file=sys.stderr)
        traceback.print_exc()


class Tracer:
    """In-memory spans: name, start, end, parent and the query they serve."""

    def __init__(self) -> None:
        self.origin = now()
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, query: int | None = None):
        parent = self._open[-1] if self._open else None
        if query is None and parent is not None:
            query = self.spans[parent][2]
        record = [len(self.spans), parent, query, name, now(), 0]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[5] = now()
            self._open.pop()

    def export(self) -> list[dict]:
        keys = ("id", "parent", "query", "name", "start_ns", "end_ns")
        out = []
        for record in self.spans:
            item = dict(zip(keys, record))
            item["start_ns"] -= self.origin
            item["end_ns"] -= self.origin
            out.append(item)
        return out


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------- queries


@dataclass
class RoundResult:
    """Latencies (ns) and stats of one round, per role and query kind.

    ``yardstick_ns`` holds the yardstick costs taken before the first
    query and after each query, in query order (one-to-all per role, then
    p2p per role).
    """

    target: int = -1
    one_to_all_ns: dict[str, int] = field(default_factory=dict)
    p2p_ns: dict[str, int] = field(default_factory=dict)
    one_to_all: dict[str, object] = field(default_factory=dict)
    p2p: dict[str, object] = field(default_factory=dict)
    yardstick_ns: list[int] = field(default_factory=list)


def run_round(
    graph: TdGraph,
    table,
    workload: Workload,
    rnd: Round,
    gate: Gate,
    tracer: Tracer | None = None,
    query_id: int | None = None,
) -> RoundResult | None:
    """Issue the round's queries through every strategy, then check them.

    A yardstick runs before the first query and after each query. Returns
    None when a query raised (already counted as failed).
    """
    out = RoundResult()
    roles = workload.strategies()
    try:
        out.yardstick_ns.append(yardstick())
        for role, strategy in roles.items():
            out.one_to_all[role], out.one_to_all_ns[role] = _timed(
                tracer, f"shortest_paths[{strategy}]", query_id,
                shortest_paths, graph, table, rnd.source, rnd.departure, strategy,
            )
            out.yardstick_ns.append(yardstick())
        out.target = rnd.target(out.one_to_all["search"].arrival)
        for role, strategy in roles.items():
            out.p2p[role], out.p2p_ns[role] = _timed(
                tracer, f"shortest_path_to[{strategy}]", query_id,
                shortest_path_to, graph, table, rnd.source, out.target,
                rnd.departure, strategy,
            )
            out.yardstick_ns.append(yardstick())
    except Exception:
        gate.raised(2 * len(roles), f"round {rnd}")
        return None
    check_round(rnd, out, gate)
    return out


def _timed(tracer, name, query_id, fn, *args):
    """``fn(*args)`` and its CPU time in ns, inside a span when tracing."""
    start = cpu()
    if tracer is None:
        value = fn(*args)
    else:
        with tracer.span(name, query_id):
            value = fn(*args)
    return value, cpu() - start


def check_round(rnd: Round, out: RoundResult, gate: Gate) -> None:
    """The correctness gate for one round.

    * one-to-all arrivals agree across every strategy (relative 1e-9,
      arrival intervals exact), and every node is reached (grids are
      connected);
    * each p2p answer equals its own strategy's one-to-all arrival at the
      target, and its path runs from the source to the target.
    """
    reference = out.one_to_all["search"]
    ok = all(a != math.inf for a in reference.arrival)
    for result in out.one_to_all.values():
        ok = ok and result.arrival_interval == reference.arrival_interval
        ok = ok and all(
            math.isclose(a, b, rel_tol=REL_TOL)
            for a, b in zip(result.arrival, reference.arrival)
        )
    gate.record(len(out.one_to_all), ok, f"one-to-all agreement, {rnd}")
    ok = True
    for role, answer in out.p2p.items():
        ok = ok and answer.arrival == out.one_to_all[role].arrival[out.target]
        ok = ok and answer.path is not None
        ok = ok and answer.path[0] == rnd.source and answer.path[-1] == out.target
    gate.record(len(out.p2p), ok, f"p2p equals one-to-all, {rnd}")


# ----------------------------------------------------------------- inputs


@contextmanager
def graph_input(workload: Workload, seed: int, index: int, workdir: Path):
    """Write graph ``index`` for the run, yield (path, sha256), delete it."""
    path = workdir / f"{workload.name}-seed{seed}-g{index}-{os.getpid()}.tdg"
    try:
        digest = write_input(workload, seed, index, path)
        print(f"input {workload.name} seed {seed} graph {index}: sha256 {digest}")
        yield path, digest
    finally:
        path.unlink(missing_ok=True)


def round_trip_ok(graph: TdGraph, digest: str) -> bool:
    """``dumps`` of the loaded graph reproduces the input byte for byte.

    Since ``loads`` is deterministic, this also proves
    ``loads(dumps(g)) == g``.
    """
    return hashlib.sha256(dumps(graph).encode("utf-8")).hexdigest() == digest


# ------------------------------------------------------ untraced (trace 0)


def untraced(
    workload: Workload, seed: int, seconds: float, workdir: Path
) -> tuple[dict, dict, Gate, list[str]]:
    """End-to-end metrics, tracing off, at reference speed (see ``yardstick``).

    Prints the same figures unscaled. Returns (metrics, sample counts,
    gate, input digests).
    """
    gate = Gate()
    roles = workload.strategies()
    setups: list[float] = []
    raw_setups: list[float] = []
    yardstick_ns: list[int] = []
    digests: list[str] = []
    samples = {(kind, role): [] for kind in ("one_to_all", "p2p") for role in roles}
    raw = {key: [] for key in samples}
    rss = None
    share_ns = seconds * 1e9 / GRAPHS
    spent_ns = 0  # wall time of the query phases so far
    least = math.ceil(MIN_SAMPLES / GRAPHS)
    for index in range(GRAPHS):
        with graph_input(workload, seed, index, workdir) as (path, digest):
            digests.append(digest)
            gc.collect()
            before = yardsticks(SETUP_YARDSTICKS)
            start = cpu()
            graph = load(path)
            loaded = cpu()
            between = yardsticks(SETUP_YARDSTICKS)
            built = cpu()
            table = build_ael(graph)
            done = cpu()
            after = yardsticks(SETUP_YARDSTICKS)
            setup = scaled(loaded - start, before, between) + scaled(done - built, between, after)
            setups.append(setup / 1e9)
            raw_setups.append((loaded - start + done - built) / 1e9)
            gc.collect()
            rounds = query_rounds(workload, seed, index)
            run_round(graph, table, workload, next(rounds), gate)  # warm-up
            # A graph's queries stop at the first whole cycle that brings
            # the run's query time to its share, so one graph's overrun
            # shortens the next graph's phase, not lengthens the run.
            begun = now()
            deadline = begun + (index + 1) * share_ns - spent_ns
            issued = 0
            while now() < deadline or issued < least:
                # Whole cycles of strata, so that every stratum of p2p
                # targets has as many samples as any other.
                for rnd in itertools.islice(rounds, STRATA):
                    issued += 1
                    result = run_round(graph, table, workload, rnd, gate)
                    if result is None:
                        continue
                    p = result.yardstick_ns
                    yardstick_ns.extend(p)
                    for kind, costs, first in (
                        ("one_to_all", result.one_to_all_ns, 0),
                        ("p2p", result.p2p_ns, len(roles)),
                    ):
                        for j, role in enumerate(roles):
                            cost = costs[role]
                            samples[kind, role].append(
                                scaled(cost, p[first + j], p[first + j + 1]) / 1e6
                            )
                            raw[kind, role].append(cost / 1e6)
            spent_ns += now() - begun
            if rss is None:
                # One graph, one table and a query phase: later graphs only
                # re-measure set-up and would add allocator noise.
                rss = peak_rss_mib()
            gate.record(1, round_trip_ok(graph, digest), "dumps(load(input)) == input")
            graph = table = None

    if len(samples["one_to_all", "search"]) < 2:
        raise RuntimeError("too few successful queries to report latencies")
    metrics = _end_to_end(setups, rss, samples)
    unscaled = _end_to_end(raw_setups, rss, raw)
    print(f"unscaled CPU time (yardstick median {statistics.median(yardstick_ns) / 1e6:.4g} ms, "
          f"reference {REFERENCE_YARDSTICK_NS / 1e6:.4g} ms):")
    for name, (value, unit) in unscaled.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    o2a, p2p = samples["one_to_all", "search"], samples["p2p", "search"]
    # Every timed round adds one sample per strategy and query kind.
    counts = {name: len(o2a) for name in metrics if name.endswith((".p50", ".p90"))}
    counts.update(setup_s=len(setups), queries_per_s=len(o2a) + len(p2p))
    return metrics, counts, gate, digests


def _end_to_end(setups: list[float], rss: float, samples: dict) -> dict:
    o2a, p2p = samples["one_to_all", "search"], samples["p2p", "search"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (rss, "MiB"),
        "one_to_all_ms.p50": (percentile(o2a, 50), "ms"),
        "one_to_all_ms.p90": (percentile(o2a, 90), "ms"),
        "p2p_ms.p50": (percentile(p2p, 50), "ms"),
        "p2p_ms.p90": (percentile(p2p, 90), "ms"),
        "queries_per_s": ((len(o2a) + len(p2p)) * 1e3 / (sum(o2a) + sum(p2p)), "1/s"),
        "scan.one_to_all_ms.p50": (percentile(samples["one_to_all", "scan"], 50), "ms"),
        "scan.p2p_ms.p50": (percentile(samples["p2p", "scan"], 50), "ms"),
    }


# -------------------------------------------------------- traced (trace 1)


@dataclass
class ReplayTally:
    """Kernel replay sums over every graph of a run."""

    calls: int = 0
    ns: Counter = field(default_factory=Counter)  # per role
    probes: Counter = field(default_factory=Counter)
    steps: Counter = field(default_factory=Counter)
    outcomes: Counter = field(default_factory=Counter)


def traced(
    workload: Workload, seed: int, workdir: Path, tracer: Tracer
) -> tuple[dict, Gate, list[str]]:
    """Per-layer metrics from a fixed amount of work, so that counters
    repeat exactly at a given seed. Returns (metrics, gate, digests)."""
    gate = Gate()
    setup: dict[str, list[float]] = {}
    digests: list[str] = []
    done: list[tuple[RoundResult, RoundResult]] = []
    tally = ReplayTally()
    for index in range(GRAPHS):
        with graph_input(workload, seed, index, workdir) as (path, digest):
            digests.append(digest)
            graph, table = _traced_setup(path, tracer, gate, setup, -1 - index)
            stream = query_rounds(workload, seed, index)
            run_round(graph, table, workload, next(stream), gate)  # warm-up
            rounds = list(itertools.islice(stream, workload.trace_rounds))
            plain = [run_round(graph, table, workload, rnd, gate) for rnd in rounds]
            first = index * workload.trace_rounds
            spanned = [
                run_round(graph, table, workload, rnd, gate, tracer, first + i)
                for i, rnd in enumerate(rounds)
            ]
            pairs = [(a, b) for a, b in zip(plain, spanned) if a is not None and b is not None]
            done.extend(pairs)
            _replay(workload, graph, table, [a for a, _ in pairs], tracer, gate, tally)
            graph = table = None

    metrics = {
        "io_gen.loads_s": (statistics.median(setup["loads"]), "s"),
        "io_gen.text_mib": (statistics.median(setup["text"]) / MIB, "MiB"),
        "io_gen.dumps_s": (statistics.median(setup["dumps"]), "s"),
        "model.tdgraph_s": (statistics.median(setup["TdGraph"]), "s"),
        "traversal.build_ael_s": (statistics.median(setup["build_ael"]), "s"),
        # Computed, not measured: m rows of K doubles.
        "traversal.table_mib": (workload.arcs * workload.intervals * 8 / MIB, "MiB"),
    }
    roles = workload.strategies()
    for role in roles:
        metrics[f"traversal.{role}.ns_per_call"] = (tally.ns[role] / tally.calls, "ns")
        metrics[f"traversal.{role}.probes_per_call"] = (tally.probes[role] / tally.calls, "count")
        metrics[f"traversal.{role}.steps_per_call"] = (tally.steps[role] / tally.calls, "count")
    for name in OUTCOMES:
        metrics[f"traversal.{name}_ratio"] = (tally.outcomes[name] / tally.calls, "ratio")
    metrics["traversal.replay_calls"] = (tally.calls, "count")
    metrics.update(_routing_metrics(done, roles, gate))
    in_regime = REGIMES[workload.name](workload, {k: v for k, (v, _) in metrics.items()})
    gate.record(1, in_regime, f"{workload.name} is in its regime")
    return metrics, gate, digests


def _traced_setup(path, tracer, gate, setup, query_id):
    """Time each set-up layer separately, inside spans."""

    def timed(name, fn, *args):
        with tracer.span(name):
            start = cpu()
            value = fn(*args)
            setup.setdefault(name, []).append((cpu() - start) / 1e9)
        return value

    gc.collect()
    with tracer.span("setup", query_id):
        text = path.read_text(encoding="utf-8")
        setup.setdefault("text", []).append(path.stat().st_size)
        graph = timed("loads", loads, text)
        timed("TdGraph", TdGraph, graph.nodes, graph.division, graph.policy, graph.kind, graph.arcs)
        table = timed("build_ael", build_ael, graph)
        dumped = timed("dumps", dumps, graph)
    gate.record(1, loads(dumped) == graph, "loads(dumps(g)) == g")
    del text, dumped
    gc.collect()
    return graph, table


def _routing_metrics(done, roles, gate) -> dict:
    metrics = {}
    n = len(done)
    for kind in ("one_to_all", "p2p"):
        for role in roles:
            for name in COUNTERS:
                first = [getattr(getattr(a, kind)[role].stats, name) for a, _ in done]
                again = [getattr(getattr(b, kind)[role].stats, name) for _, b in done]
                gate.record(1, first == again, f"{kind} {role} {name} repeat")
                metrics[f"routing.{kind}.{role}.{name}"] = (sum(first) / n, "count")
    o2a_ns = sum(a.one_to_all_ns["search"] for a, _ in done)
    calls = sum(a.one_to_all["search"].stats.traversal_calls for a, _ in done)
    metrics["routing.ns_per_relaxation"] = (o2a_ns / calls, "ns")
    metrics["routing.p2p_settled_ratio"] = (
        sum(a.p2p["search"].stats.settled for a, _ in done)
        / sum(a.one_to_all["search"].stats.settled for a, _ in done),
        "ratio",
    )
    if "bounded" in roles:
        metrics["routing.bounded.one_to_all_ms.p50"] = (
            percentile([a.one_to_all_ns["bounded"] / 1e6 for a, _ in done], 50),
            "ms",
        )
    metrics["routing.rounds"] = (n, "count")
    plain = sum(sum(a.one_to_all_ns.values()) + sum(a.p2p_ns.values()) for a, _ in done)
    spanned = sum(sum(b.one_to_all_ns.values()) + sum(b.p2p_ns.values()) for _, b in done)
    metrics["trace.overhead_ratio"] = (spanned / plain, "ratio")
    return metrics


def _kernel(strategy: str, graph: TdGraph, table):
    """One public traversal kernel as f(arc_index, tau, hint, counter)."""
    arcs, division, policy = graph.arcs, graph.division, graph.policy
    if strategy == "att":
        return lambda i, tau, hint, c: att(arcs[i], division, policy, tau, c)
    if strategy == "att-linear":
        return lambda i, tau, hint, c: att_linear(arcs[i], division, policy, tau, c)
    if strategy == "fatt":
        return lambda i, tau, hint, c: fatt(
            arcs[i], table, i, division, policy, tau, hint, c
        )
    if strategy == "l-fatt":
        return lambda i, tau, hint, c: l_fatt(
            arcs[i], table, i, division, policy, tau, hint, c
        )
    bounds = table.window_bounds
    return lambda i, tau, hint, c: bounded_fatt(
        arcs[i], table, i, division, policy, tau, bounds[i], hint, c
    )


def _replay(workload, graph, table, done, tracer, gate, tally):
    """Re-run each one-to-all query's relaxations through the kernels.

    The set is rebuilt from the public result: for every reached node x,
    each out-arc is evaluated at ``arrival[x]`` with hint
    ``arrival_interval[x]``. That is a superset of the engine's calls
    (the engine skips arcs into settled nodes).
    """
    calls = []
    for result in done:
        routes = result.one_to_all["search"]
        for x, tau in enumerate(routes.arrival):
            hint = routes.arrival_interval[x]
            calls.extend((i, tau, hint) for i in graph.out_arcs(x))
    reference = None
    for role, strategy in workload.strategies().items():
        kernel = _kernel(strategy, graph, table)
        counter = OpCounter()
        # The list of results would otherwise trigger full collections
        # that the engine, which drops each result at once, never pays.
        gc.disable()
        try:
            with tracer.span(f"replay[{strategy}]"):
                start = cpu()
                outcomes = [kernel(i, tau, hint, counter) for i, tau, hint in calls]
                tally.ns[role] += cpu() - start
        finally:
            gc.enable()
        tally.probes[role] += counter.probes
        tally.steps[role] += counter.steps
        if reference is None:
            reference = outcomes
            continue
        ok = all(
            a.arrival_interval == b.arrival_interval
            and math.isclose(a.cost, b.cost, rel_tol=REL_TOL)
            for a, b in zip(outcomes, reference)
        )
        gate.record(1, ok, f"replay {strategy} agrees with {workload.strategies()['search']}")
    for (i, tau, _), result in zip(calls, reference):
        tally.outcomes[classify(graph, tau, result.cost)] += 1
    tally.calls += len(calls)


def classify(graph: TdGraph, tau: float, cost: float) -> str:
    """How a traversal resolved, from its departure and cost alone.

    ``same_interval``: it ends inside the departure interval, so no search
    runs; ``searched``: it ends later inside the horizon (the O(log K)
    search, or the scan's walk); ``static_tail`` / ``periodic_wrap``: it
    departs or arrives past the horizon T, so the policy's closed-form
    tail (static) or the modulo-T wrap and period skip (periodic) run.
    """
    points = graph.division.breakpoints
    end = tau + cost
    if end > points[-1]:
        return "static_tail" if graph.policy == "static" else "periodic_wrap"
    k = locate_interval(graph.division, tau, graph.policy)
    return "same_interval" if end <= points[k + 1] else "searched"
