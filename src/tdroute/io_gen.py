"""Graph serialization, fixtures, and random network generation.

File format (UTF-8 text, '#' starts a comment, blank lines ignored)::

    tdgraph 1 <kind:constant|linear> <policy:static|periodic>
    division <K> <tau_0> <tau_1> ... <tau_K>
    nodes <n>
    arcs <m>
    arc <from> <to> <length> <s_0> ... <s_{K-1}>     # constant kind
    arc <from> <to> <length> <s_0> ... <s_K>         # linear kind

Numbers are written with 17 significant digits ('.' decimal separator),
which round-trips doubles exactly: load(save(g)) == g and a second save
is byte-identical to the first.

Random generation is driven by :class:`random.Random` (the Mersenne
Twister MT19937), so a seed fully determines the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .model import (
    CONSTANT,
    KINDS,
    LINEAR,
    PERIODIC,
    POLICIES,
    STATIC,
    Arc,
    SpeedProfile,
    TdGraph,
    TimeDivision,
    check_arc,
)

FORMAT_VERSION = "1"


class GraphFormatError(ValueError):
    """A malformed or invalid graph file, pointing at the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


def load(path: str | Path) -> TdGraph:
    """Read a graph file, raising :class:`GraphFormatError` on the first
    violation."""
    return loads(Path(path).read_text(encoding="utf-8"))


def loads(text: str) -> TdGraph:
    graph, errors = _parse(text)
    if errors:
        raise errors[0]
    assert graph is not None
    return graph


def save(graph: TdGraph, path: str | Path) -> None:
    Path(path).write_text(dumps(graph), encoding="utf-8")


def dumps(graph: TdGraph) -> str:
    lines = [f"tdgraph {FORMAT_VERSION} {graph.kind} {graph.policy}"]
    division = " ".join(_num(b) for b in graph.division.breakpoints)
    lines.append(f"division {graph.division.intervals} {division}")
    lines.append(f"nodes {graph.nodes}")
    lines.append(f"arcs {graph.arc_count}")
    for arc in graph.arcs:
        speeds = " ".join(_num(v) for v in arc.profile.values)
        lines.append(f"arc {arc.src} {arc.dst} {_num(arc.length)} {speeds}")
    return "\n".join(lines) + "\n"


def validate_file(path: str | Path) -> list[GraphFormatError]:
    """All diagnostics for a file; empty when it loads cleanly."""
    _, errors = _parse(Path(path).read_text(encoding="utf-8"))
    return errors


def _num(x: float) -> str:
    return f"{x:.17g}"


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((number, body.split()))
    return lines


def _parse(text: str) -> tuple[TdGraph | None, list[GraphFormatError]]:
    """Parse graph text.

    Structural problems (header, division, counts) end the parse at the
    first error; independent per-arc problems are all collected so a
    validation pass can report every bad arc line at once.
    """
    lines = _content_lines(text)
    cursor = 0

    def take(expected: str) -> tuple[int, list[str]]:
        nonlocal cursor
        if cursor >= len(lines):
            last = lines[-1][0] if lines else 1
            raise GraphFormatError(f"missing {expected} line", last)
        entry = lines[cursor]
        cursor += 1
        return entry

    try:
        number, tokens = take("header")
        if (
            len(tokens) != 4
            or tokens[0] != "tdgraph"
            or tokens[1] != FORMAT_VERSION
            or tokens[2] not in KINDS
            or tokens[3] not in POLICIES
        ):
            raise GraphFormatError(
                "malformed header: expected "
                "'tdgraph 1 <constant|linear> <static|periodic>'",
                number,
            )
        kind, policy = tokens[2], tokens[3]

        number, tokens = take("division")
        if len(tokens) < 2 or tokens[0] != "division":
            raise GraphFormatError("malformed division line", number)
        intervals = _parse_int(tokens[1], number)
        if intervals < 1:
            raise GraphFormatError("interval count must be at least 1", number)
        if len(tokens) - 2 != intervals + 1:
            raise GraphFormatError(
                f"breakpoint count mismatch: expected {intervals + 1}, "
                f"got {len(tokens) - 2}",
                number,
            )
        breakpoints = tuple(_parse_float(t, number) for t in tokens[2:])
        try:
            division = TimeDivision(breakpoints)
        except ValueError as error:
            raise GraphFormatError(str(error), number) from None

        number, tokens = take("nodes")
        if len(tokens) != 2 or tokens[0] != "nodes":
            raise GraphFormatError("malformed nodes line", number)
        nodes = _parse_int(tokens[1], number)
        if nodes < 1:
            raise GraphFormatError("node count must be at least 1", number)

        number, tokens = take("arcs")
        if len(tokens) != 2 or tokens[0] != "arcs":
            raise GraphFormatError("malformed arcs line", number)
        arc_count = _parse_int(tokens[1], number)
        if arc_count < 0:
            raise GraphFormatError("arc count must be non-negative", number)
    except GraphFormatError as error:
        return None, [error]

    errors: list[GraphFormatError] = []
    arcs: list[Arc] = []
    for _ in range(arc_count):
        try:
            number, tokens = take("arc")
            arcs.append(_parse_arc(tokens, number, kind, policy, nodes, intervals))
        except GraphFormatError as error:
            errors.append(error)
            if cursor >= len(lines):
                break
    if cursor < len(lines):
        errors.append(GraphFormatError("trailing content", lines[cursor][0]))
    if errors:
        return None, errors
    return TdGraph(nodes, division, policy, kind, tuple(arcs)), errors


def _parse_arc(
    tokens: list[str],
    number: int,
    kind: str,
    policy: str,
    nodes: int,
    intervals: int,
) -> Arc:
    if len(tokens) < 4 or tokens[0] != "arc":
        raise GraphFormatError("malformed arc line", number)
    src = _parse_int(tokens[1], number)
    dst = _parse_int(tokens[2], number)
    length = _parse_float(tokens[3], number)
    speeds = tuple(_parse_float(t, number) for t in tokens[4:])
    try:
        arc = Arc(src, dst, length, SpeedProfile(kind, speeds))
        check_arc(arc, nodes, kind, intervals, policy)
    except ValueError as error:
        raise GraphFormatError(str(error), number) from None
    return arc


def _parse_int(token: str, number: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"invalid integer {token!r}", number) from None


def _parse_float(token: str, number: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise GraphFormatError(f"invalid number {token!r}", number) from None


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for :func:`generate`; the seed fully determines output."""

    nodes: int
    avg_degree: float
    intervals: int
    horizon: float
    speed_range: tuple[float, float]
    length_range: tuple[float, float]
    kind: str = CONSTANT
    policy: str = STATIC
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("node count must be at least 1")
        if self.intervals < 1:
            raise ValueError("interval count must be at least 1")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        lo, hi = self.speed_range
        if not (0.0 < lo <= hi):
            raise ValueError("degenerate speed range")
        lo, hi = self.length_range
        if not (0.0 < lo <= hi):
            raise ValueError("degenerate length range")
        if not 0.0 <= self.avg_degree <= self.nodes - 1:
            raise ValueError("average degree must be in [0, nodes-1]")
        if self.kind not in KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown horizon policy {self.policy!r}")


def generate(config: GeneratorConfig) -> TdGraph:
    """Random digraph; every node gets an outgoing arc when avg_degree >= 1."""
    rng = random.Random(config.seed)
    division = _random_division(rng, config.intervals, config.horizon)

    n = config.nodes
    target_arcs = round(n * config.avg_degree)
    chosen: list[set[int]] = [set() for _ in range(n)]
    order: list[tuple[int, int]] = []
    if config.avg_degree >= 1.0:
        for src in range(n):
            dst = _pick_target(rng, src, n, chosen[src])
            chosen[src].add(dst)
            order.append((src, dst))
    while len(order) < target_arcs:
        src = rng.randrange(n)
        if len(chosen[src]) >= n - 1:
            continue
        dst = _pick_target(rng, src, n, chosen[src])
        chosen[src].add(dst)
        order.append((src, dst))

    order.sort(key=lambda pair: pair[0])  # stable: keeps draw order per source
    arcs = []
    for src, dst in order:
        length = rng.uniform(*config.length_range)
        profile = _random_profile(
            rng, config.kind, config.policy, config.speed_range, division.intervals
        )
        arcs.append(Arc(src, dst, length, profile))
    return TdGraph(n, division, config.policy, config.kind, tuple(arcs))


def _random_division(
    rng: random.Random, intervals: int, horizon: float
) -> TimeDivision:
    interior: set[float] = set()
    while len(interior) < intervals - 1:
        point = rng.uniform(0.0, horizon)
        if 0.0 < point < horizon:
            interior.add(point)
    return TimeDivision((0.0, *sorted(interior), horizon))


def _pick_target(
    rng: random.Random, src: int, n: int, taken: set[int]
) -> int:
    # Uniform over the free targets, of which callers guarantee one.
    while True:
        target = rng.randrange(n)
        if target != src and target not in taken:
            return target


def _random_profile(
    rng: random.Random,
    kind: str,
    policy: str,
    speed_range: tuple[float, float],
    intervals: int,
) -> SpeedProfile:
    count = intervals + (0 if kind == CONSTANT else 1)
    speeds = [rng.uniform(*speed_range) for _ in range(count)]
    if kind == LINEAR and policy == PERIODIC:
        speeds[-1] = speeds[0]  # wrap smoothly across the period seam
    return SpeedProfile(kind, tuple(speeds))


def sample_graph(policy: str = STATIC) -> TdGraph:
    """Two-node demo network: one 170 m road over four speed intervals.

    The road slows from 10 m/s to 6 m/s during [10, 15), recovers to
    8 m/s for [15, 30) and is back at 10 m/s for [30, 40). Departing at
    t=6 the crossing takes 21.5 s, so interpolating between the t=0 and
    t=10 crossings (20 s and 22 s) underestimates it.
    """
    division = TimeDivision((0.0, 10.0, 15.0, 30.0, 40.0))
    profile = SpeedProfile(CONSTANT, (10.0, 6.0, 8.0, 10.0))
    arc = Arc(0, 1, 170.0, profile)
    return TdGraph(2, division, policy, CONSTANT, (arc,))
