"""Network model for roads whose speed changes over time.

A measured horizon [0, T) is split into K half-open intervals
[tau_k, tau_{k+1}); the same division is shared by every arc. Each arc
carries one speed per interval ("constant" profiles) or one speed per
breakpoint, interpolated linearly inside each interval ("linear"
profiles). Instants at or beyond T are resolved by the graph's extension
policy: "static" freezes the last measured behaviour, "periodic" repeats
the whole pattern with period T.

All times are seconds, lengths are meters, speeds are meters/second.
Graphs are immutable after construction and safe to share between
concurrent queries.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import sub

CONSTANT = "constant"
LINEAR = "linear"
KINDS = (CONSTANT, LINEAR)

STATIC = "static"
PERIODIC = "periodic"
POLICIES = (STATIC, PERIODIC)

# Periodic linear profiles must wrap around smoothly; the first and last
# breakpoint speeds may differ by at most this much (m/s).
SEAM_TOLERANCE = 1e-9

# The most nodes a graph may have. The adjacency takes a list per node
# (56 B each, arcs aside), so without a cap a four-line file declaring
# 10^8 nodes asks for over 5 GB; at the cap it is under 1 GB.
MAX_NODES = 2**24


@dataclass(frozen=True)
class TimeDivision:
    """Breakpoints 0 = tau_0 < tau_1 < ... < tau_K = T, in seconds."""

    breakpoints: tuple[float, ...]
    # tau_{k+1} - tau_k per interval, for building prefix rows in bulk.
    _widths: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = tuple(float(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", points)
        if len(points) < 2:
            raise ValueError("a time division needs at least one interval")
        if points[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if not all(math.isfinite(b) for b in points):
            raise ValueError("breakpoints must be finite")
        for left, right in zip(points, points[1:]):
            if not left < right:
                raise ValueError("non-increasing breakpoints")
        object.__setattr__(self, "_widths", tuple(map(sub, points[1:], points)))

    @property
    def intervals(self) -> int:
        """Number of intervals K."""
        return len(self.breakpoints) - 1

    @property
    def horizon(self) -> float:
        """End of the measured horizon T."""
        return self.breakpoints[-1]


@dataclass(frozen=True)
class SpeedProfile:
    """Per-arc speeds: K values for "constant", K+1 for "linear"."""

    kind: str
    values: tuple[float, ...]
    # The slowest speed, which bounds every crossing's time from above.
    _slowest: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("profile needs at least one speed")
        slowest = min(values)
        # Fast accept: min misses a NaN that is not first, but sum catches
        # it and inf. The loop decides the rest, overflowing sums included.
        if not (0.0 < slowest and sum(values) < math.inf):
            for v in values:
                if not (math.isfinite(v) and v > 0.0):
                    raise ValueError("non-positive speed")
        object.__setattr__(self, "_slowest", slowest)

    def expected_values(self, intervals: int) -> int:
        """How many speeds this kind needs for a K-interval division."""
        return intervals if self.kind == CONSTANT else intervals + 1


@dataclass(frozen=True)
class Arc:
    """Directed road segment with a fixed length and a speed profile."""

    src: int
    dst: int
    length: float
    profile: SpeedProfile

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", float(self.length))
        if self.src == self.dst:
            raise ValueError("self-loop arc")
        if self.src < 0 or self.dst < 0:
            raise ValueError("node id out of range")
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError("non-positive arc length")
        slowest = self.profile._slowest
        if not math.isfinite(self.length / slowest):
            raise ValueError(
                f"crossing time overflows: {self.length!r} m at {slowest!r} m/s"
            )


@dataclass(frozen=True)
class TdGraph:
    """Directed network sharing one time division across all arcs.

    Arcs keep their construction order (so external arc indices stay
    stable); adjacency is grouped by source node for scanning. The routing
    engine's hot loop reads each arc's target, length and speeds from flat
    per-arc lists indexed like ``arcs``, built once here. Each arc is
    checked against the graph with :func:`check_arc` as it is grouped, so
    the first bad arc raises.
    """

    nodes: int
    division: TimeDivision
    policy: str
    kind: str
    arcs: tuple[Arc, ...]
    _adjacency: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    _dst: list[int] = field(init=False, repr=False, compare=False)
    _length: list[float] = field(init=False, repr=False, compare=False)
    _speeds: list[tuple[float, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(self.arcs))
        _check_node_count(self.nodes)
        if self.policy not in POLICIES:
            raise ValueError(f"unknown horizon policy {self.policy!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        arcs = self.arcs
        speeds = [arc.profile.values for arc in arcs]
        # New objects (x + 0 and x * 1.0 are exact): the targets and lengths
        # the engine reads then lie together in memory, not among the speeds.
        dst = [arc.dst + 0 for arc in arcs]
        length = [arc.length * 1.0 for arc in arcs]
        intervals = self.division.intervals
        outgoing: list[list[int]] = [[] for _ in range(self.nodes)]
        for index, arc in enumerate(arcs):
            check_arc(arc, self.nodes, self.kind, intervals, self.policy)
            outgoing[arc.src].append(index)
        object.__setattr__(
            self, "_adjacency", tuple(tuple(ids) for ids in outgoing)
        )
        object.__setattr__(self, "_dst", dst)
        object.__setattr__(self, "_length", length)
        object.__setattr__(self, "_speeds", speeds)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def out_arcs(self, node: int) -> tuple[int, ...]:
        """Indices of the arcs leaving ``node``."""
        _check_node(node, self.nodes)
        return self._adjacency[node]


def _check_node_count(nodes: int) -> None:
    """Reject a node count below 1 or above :data:`MAX_NODES`."""
    if nodes < 1:
        raise ValueError("node count must be at least 1")
    if nodes > MAX_NODES:
        raise ValueError(f"node count {nodes} exceeds the cap of {MAX_NODES}")


def _check_node(node: int, nodes: int) -> None:
    """Reject a node id outside a graph of ``nodes`` nodes, naming both."""
    if not 0 <= node < nodes:
        raise ValueError(f"node id out of range: {node} (graph has {nodes} nodes)")


def locate_interval(
    division: TimeDivision,
    t: float,
    policy: str = STATIC,
    hint: int | None = None,
) -> int:
    """Index k with tau_k <= t' < tau_{k+1} for the policy-mapped instant.

    Instants at or past the horizon map to the last interval (static) or
    wrap modulo T (periodic). A ``hint`` index is verified with a single
    comparison pair and used when it still brackets the instant; a stale
    hint silently falls back to binary search. NaN and inf raise
    ValueError.
    """
    if not t >= 0.0:
        raise ValueError(f"time instant must be finite and non-negative, got {t!r}")
    points = division.breakpoints
    last = len(points) - 2
    if t >= points[-1]:
        if t == math.inf:
            raise ValueError("time instant must be finite, got inf")
        if policy == STATIC:
            return last
        if policy != PERIODIC:
            raise ValueError(f"unknown horizon policy {policy!r}")
        t = math.fmod(t, points[-1])
    if hint is not None and 0 <= hint <= last:
        if points[hint] <= t < points[hint + 1]:
            return hint
    return bisect_right(points, t) - 1


def check_arc(arc: Arc, nodes: int, kind: str, intervals: int, policy: str) -> None:
    """Raise ValueError unless ``arc`` fits a graph of ``nodes`` nodes and
    ``kind`` profiles over ``intervals`` intervals under the ``policy``.

    These are the arc invariants that need the graph; :class:`Arc` and
    :class:`SpeedProfile` check the rest on construction.
    """
    if arc.src >= nodes or arc.dst >= nodes:
        raise ValueError("node id out of range")
    _check_profile(arc.profile, kind, intervals, policy)


def _check_profile(
    profile: SpeedProfile, kind: str, intervals: int, policy: str
) -> None:
    """The profile half of :func:`check_arc`: its kind, its speed count and,
    when linear under the periodic policy, its seam."""
    if profile.kind != kind:
        raise ValueError(f"expected a {kind} profile, got {profile.kind}")
    values = profile.values
    expected = profile.expected_values(intervals)
    if len(values) != expected:
        raise ValueError(
            f"speed count mismatch: expected {expected}, got {len(values)}"
        )
    if (
        policy == PERIODIC
        and profile.kind == LINEAR
        and abs(values[0] - values[-1]) > SEAM_TOLERANCE
    ):
        raise ValueError(
            "periodic linear profile must begin and end at the same speed"
        )


def linear_coeffs(
    profile: SpeedProfile, division: TimeDivision, k: int
) -> tuple[float, float]:
    """Slope (m/s^2) and intercept (m/s) of the speed line in interval k."""
    return speed_line(profile.values, division.breakpoints, k)


def speed_line(
    values: tuple[float, ...], points: tuple[float, ...], k: int
) -> tuple[float, float]:
    """:func:`linear_coeffs` from the breakpoint speeds and breakpoints."""
    t0, t1 = points[k], points[k + 1]
    v0, v1 = values[k], values[k + 1]
    span = t1 - t0
    return (v1 - v0) / span, (v0 * t1 - v1 * t0) / span


def speed_at(graph: TdGraph, arc: Arc, t: float) -> float:
    """Speed on ``arc`` at absolute instant ``t`` under the graph's policy."""
    return profile_speed(arc.profile, graph.division, graph.policy, t)


def profile_speed(
    profile: SpeedProfile, division: TimeDivision, policy: str, t: float
) -> float:
    """Speed of a single profile at instant ``t`` (policy extended)."""
    k = locate_interval(division, t, policy)
    if profile.kind == CONSTANT:
        return profile.values[k]
    points = division.breakpoints
    if t >= points[-1]:
        if policy == STATIC:
            # Frozen continuation: the last measured speed holds after T.
            return profile.values[-1]
        t = math.fmod(t, points[-1])
    if t == points[k]:
        # Exact at breakpoints regardless of rounding in the coefficients.
        return profile.values[k]
    slope, intercept = linear_coeffs(profile, division, k)
    return slope * t + intercept
