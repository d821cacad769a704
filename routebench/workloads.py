"""Seeded grid road networks and query plans for the route benchmark.

Each workload is a 4-neighbour grid: every pair of adjacent cells is
joined by two arcs (one per direction) that share a length but carry
independent speeds. The time division is uniform. Every arc draws a base
speed, and its speed in each interval (constant kind) or at each
breakpoint (linear kind) is that base times U(0.4, 1.0).

The benchmark writes the ``.tdg`` text itself instead of calling
``tdroute.io_gen.generate``, so the inputs stay byte-identical however
the library's generator changes, and a seed alone fixes them.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

HORIZON = 86400.0
HOUR = 3600.0
SPEED_RANGE = (5.0, 30.0)  # base speed of an arc, m/s
# Independently seeded graphs per run. Each is set up once (setup_s is the
# median) and queried for an equal share of the run, so one unusual graph
# cannot swing the run's percentiles.
GRAPHS = 3
# Point-to-point targets cycle through this many strata of arrival rank.
STRATA = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark regime: graph shape, profile model and query mix."""

    name: str
    side: int  # grid is side x side nodes
    kind: str  # "constant" or "linear"
    policy: str  # "static" or "periodic"
    intervals: int
    length_range: tuple[float, float]  # metres
    departure_window: tuple[float, float]  # seconds, drawn uniformly
    trace_rounds: int  # fixed query rounds per graph in the traced run
    why: str

    @property
    def nodes(self) -> int:
        return self.side * self.side

    @property
    def arcs(self) -> int:
        return 4 * self.side * (self.side - 1)

    def strategies(self) -> dict[str, str]:
        """Role -> strategy, in the order queries run.

        ``search`` is the default strategy (also the CLI's choice), ``scan``
        the paper's O(K) reference and ``bounded`` the windowed search,
        which exists for constant profiles only.
        """
        if self.kind == "constant":
            return {"search": "fatt", "scan": "att", "bounded": "b-fatt"}
        return {"search": "l-fatt", "scan": "att-linear"}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="city",
            side=64,
            kind="constant",
            policy="static",
            intervals=96,
            length_range=(50.0, 500.0),
            departure_window=(0.0, HORIZON),
            trace_rounds=6,
            why=(
                "realistic regime: short arcs, 15 min intervals; over 90 % "
                "of relaxations end in the departure interval, so the "
                "engine, the traversal wrapper and loads dominate"
            ),
        ),
        Workload(
            name="fine",
            side=16,
            kind="constant",
            policy="static",
            intervals=1440,
            length_range=(10_000.0, 60_000.0),
            departure_window=(0.0, 6 * HOUR),
            trace_rounds=12,
            why=(
                "the paper's regime: 1 min intervals and 10-60 km arcs, so "
                "every crossing spans dozens of intervals and O(log K) "
                "search beats the O(K) scan"
            ),
        ),
        Workload(
            name="ramp",
            side=32,
            kind="linear",
            policy="periodic",
            intervals=48,
            length_range=(500.0, 5_000.0),
            departure_window=(HORIZON - 7 * HOUR, HORIZON),
            trace_rounds=6,
            why=(
                "the only linear-kind, periodic workload: runs att-linear "
                "and l-fatt, the closed-form finish and the period wrap"
            ),
        ),
    )
}


def _rng(workload: Workload, seed: int, stream: str) -> random.Random:
    # String seeds hash with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random(f"{workload.name}:{seed}:{stream}")


def _num(x: float) -> str:
    return f"{x:.17g}"


def grid_edges(side: int) -> list[tuple[int, int]]:
    """Undirected neighbour pairs (u < v), row by row."""
    edges = []
    for r in range(side):
        for c in range(side):
            node = r * side + c
            if c + 1 < side:
                edges.append((node, node + 1))
            if r + 1 < side:
                edges.append((node, node + side))
    return edges


def write_input(workload: Workload, seed: int, graph: int, path: Path) -> str:
    """Write graph number ``graph`` of the workload at ``seed`` to ``path``
    and return its SHA-256 (hex).

    Follows the documented format exactly (17 significant digits, one
    space between fields, newline-terminated lines, no comments), so the
    library's ``dumps`` of the loaded graph must reproduce it byte for
    byte.
    """
    rng = _rng(workload, seed, f"graph{graph}")
    uniform, unit = rng.uniform, rng.random
    k = workload.intervals
    step = HORIZON / k
    points = " ".join(_num(i * step) for i in range(k)) + " " + _num(HORIZON)
    speeds_per_arc = k if workload.kind == "constant" else k + 1
    periodic_linear = workload.kind == "linear" and workload.policy == "periodic"
    digest = hashlib.sha256()
    with path.open("w", encoding="utf-8", newline="\n") as out:

        def emit(line: str) -> None:
            data = line + "\n"
            out.write(data)
            digest.update(data.encode("utf-8"))

        emit(f"tdgraph 1 {workload.kind} {workload.policy}")
        emit(f"division {k} {points}")
        emit(f"nodes {workload.nodes}")
        emit(f"arcs {workload.arcs}")
        for u, v in grid_edges(workload.side):
            length = _num(uniform(*workload.length_range))
            for src, dst in ((u, v), (v, u)):
                base = uniform(*SPEED_RANGE)
                # base * U(0.4, 1.0)
                speeds = [base * (0.4 + 0.6 * unit()) for _ in range(speeds_per_arc)]
                if periodic_linear:
                    speeds[-1] = speeds[0]  # the seam must be continuous
                emit(f"arc {src} {dst} {length} " + " ".join(map(_num, speeds)))
    return digest.hexdigest()


@dataclass(frozen=True)
class Round:
    """One closed-loop round: a one-to-all query from ``source`` at
    ``departure``, then a point-to-point query from the same source and
    departure to the node at arrival ``rank`` (a share in [0, 1) of the
    other nodes, ordered by arrival in the one-to-all answer)."""

    source: int
    departure: float
    rank: float

    def target(self, arrival: list[float]) -> int:
        """The node at this round's rank; ties go to the lower node id."""
        order = sorted(range(len(arrival)), key=arrival.__getitem__)
        # order[0] is the source itself: every arc takes positive time.
        return order[1 + int(self.rank * (len(arrival) - 1))]


def query_rounds(workload: Workload, seed: int, graph: int):
    """Endless deterministic stream of rounds on graph number ``graph``.

    Targets are stratified by arrival rank: round i's target lies in the
    (i mod STRATA)-th of STRATA equal shares of the nodes, ordered by
    arrival from the round's source. A uniformly random target has a
    uniformly distributed rank, so this samples uniform targets with less
    variance, and a point-to-point query settles about the same share of
    the graph at every seed.
    """
    rng = _rng(workload, seed, f"queries{graph}")
    lo, hi = workload.departure_window
    for i in itertools.count():
        source = rng.randrange(workload.nodes)
        departure = rng.uniform(lo, hi)
        yield Round(source, departure, (i % STRATA + rng.random()) / STRATA)
