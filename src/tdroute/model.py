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
import struct
import sys
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import mul, sub

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
    # The widths tau_{k+1} - tau_k, for prefix rows in bulk, and the least.
    _widths: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _narrowest: float = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_narrowest", min(self._widths))

    @property
    def intervals(self) -> int:
        """Number of intervals K."""
        return len(self.breakpoints) - 1

    @property
    def horizon(self) -> float:
        """End of the measured horizon T."""
        return self.breakpoints[-1]


@dataclass(frozen=True, slots=True)
class SpeedProfile:
    """Per-arc speeds: K values for "constant", K+1 for "linear".

    ``values`` is packed into one ``array('d')`` that the graph's engine
    lists share; like a prefix row, it must not be edited in place. A
    profile hashes as its kind and the tuple of its speeds. Slotted: a
    graph holds one profile per arc.
    """

    kind: str
    values: array[float]
    # The slowest speed, which bounds every crossing's time from above, and
    # the fastest, which bounds it from below.
    _slowest: float = field(init=False, repr=False, compare=False)
    _fastest: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        # Checked as floats, then packed: min, max and sum over the array
        # would box every speed again.
        values = tuple(map(float, self.values))
        if not values:
            raise ValueError("profile needs at least one speed")
        slowest = min(values)
        # Fast accept: min misses a NaN that is not first, but sum catches
        # it and inf. The loop decides the rest, overflowing sums included.
        if not (0.0 < slowest and sum(values) < math.inf):
            for v in values:
                if not (math.isfinite(v) and v > 0.0):
                    raise ValueError("non-positive speed")
        object.__setattr__(self, "values", _pack(values))
        object.__setattr__(self, "_slowest", slowest)
        object.__setattr__(self, "_fastest", max(values))

    def __hash__(self) -> int:
        return hash((self.kind, tuple(self.values)))

    def expected_values(self, intervals: int) -> int:
        """How many speeds this kind needs for a K-interval division."""
        return intervals if self.kind == CONSTANT else intervals + 1


@dataclass(frozen=True, slots=True)
class Arc:
    """Directed road segment with a fixed length and a speed profile.

    Slotted, like :class:`SpeedProfile`: a graph holds one arc per road.
    """

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
    engine's hot loop reads each arc's target, length, speeds and least
    crossing time from flat per-arc lists indexed like ``arcs``, built once
    here; the speeds entry is the profile's own array, not a copy. The
    least crossing time, ``length / top speed``, bounds every crossing of
    the arc from below. ``_least`` is the one list of it: the engine prunes
    by it and the landmarks weigh arcs with it, and neither edits it.
    ``_reach`` holds the distance left past the departure interval that the
    next interval surely holds, row step and scan span alike: the arc's
    least span (:func:`_least_span`) times :data:`REACH_MARGIN` for an arc
    the O(1) coverage bound clears, else 0, in one ``array('d')``, 8 B an
    arc. Each arc is checked against the graph with :func:`check_arc` as it
    is grouped, whose verdict sets its reach, so the first bad arc raises.
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
    _speeds: list[array[float]] = field(init=False, repr=False, compare=False)
    _least: list[float] = field(init=False, repr=False, compare=False)
    _reach: array[float] = field(init=False, repr=False, compare=False)

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
        least = [arc.length / arc.profile._fastest for arc in arcs]
        reach = _ZERO * len(arcs)
        outgoing: list[list[int]] = [[] for _ in range(self.nodes)]
        for index, arc in enumerate(arcs):
            if check_arc(arc, self.nodes, self.kind, self.division, self.policy):
                reach[index] = _least_span(arc.profile, self.division) * REACH_MARGIN
            outgoing[arc.src].append(index)
        object.__setattr__(
            self, "_adjacency", tuple(tuple(ids) for ids in outgoing)
        )
        object.__setattr__(self, "_dst", dst)
        object.__setattr__(self, "_length", length)
        object.__setattr__(self, "_speeds", speeds)
        object.__setattr__(self, "_least", least)
        object.__setattr__(self, "_reach", reach)

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


def locate_interval(division: TimeDivision, t: float, policy: str = STATIC,
                    hint: int | None = None) -> int:
    """The interval of the instant that :func:`map_instant` maps ``t`` to."""
    return map_instant(division, t, policy, hint)[1]


def map_instant(division: TimeDivision, t: float, policy: str,
                hint: int | None = None) -> tuple[float, int]:
    """The instant t' whose speeds hold at ``t`` under the horizon policy,
    and the k with tau_k <= t' < tau_{k+1} (the last k when t' is T).

    The one statement of the policy: inside the horizon t' is t. At or past
    it, t' is T under "static", which freezes the last measured speeds, and
    ``t`` modulo T under "periodic". A ``hint`` index is verified with a
    single comparison pair and used when it still brackets t'; a stale hint
    falls back to binary search. NaN, inf, an int past every float and,
    past the horizon, an unknown policy raise ValueError.
    """
    if not t >= 0.0:
        raise ValueError(f"time instant must be finite and non-negative, got {t!r}")
    points = division.breakpoints
    last = len(points) - 2
    if t >= points[-1]:
        if t > sys.float_info.max:  # inf, or an int past every float
            raise ValueError(f"time instant must be finite, got {t!r}")
        if policy == STATIC:
            return points[-1], last
        if policy != PERIODIC:
            raise ValueError(f"unknown horizon policy {policy!r}")
        t = math.fmod(t, points[-1])
    if hint is not None and 0 <= hint <= last:
        if points[hint] <= t < points[hint + 1]:
            return t, hint
    return t, bisect_right(points, t) - 1


def check_arc(arc: Arc, nodes: int, kind: str, division: TimeDivision,
              policy: str) -> bool:
    """Raise ValueError unless ``arc`` fits a graph of ``nodes`` nodes and
    ``kind`` profiles over the ``division`` under the ``policy``; return
    whether the O(1) bound (:func:`_clears_coverage`) cleared the arc.

    These are the arc invariants that need the graph, the coverage rule
    among them; :class:`Arc` and :class:`SpeedProfile` check the rest.
    """
    if arc.src >= nodes or arc.dst >= nodes:
        raise ValueError("node id out of range")
    return _check_profile(arc, kind, division, policy)


def _check_profile(arc: Arc, kind: str, division: TimeDivision, policy: str) -> bool:
    """The half of :func:`check_arc` that needs no node count: the profile's
    kind, its speed count, when linear under the periodic policy its seam,
    and the coverage rule the searches need: every interval adds distance to
    the arc's prefix row, whose total and window bound are finite. Returns
    whether the O(1) bound cleared the rule, without the exact check."""
    profile = arc.profile
    if profile.kind != kind:
        raise ValueError(f"expected a {kind} profile, got {profile.kind}")
    values = profile.values
    expected = profile.expected_values(division.intervals)
    if len(values) != expected:
        raise ValueError(f"speed count mismatch: expected {expected}, got {len(values)}")
    if (policy == PERIODIC and profile.kind == LINEAR
            and abs(values[0] - values[-1]) > SEAM_TOLERANCE):
        raise ValueError("periodic linear profile must begin and end at the same speed")
    if _clears_coverage(profile, arc.length, division):
        return True
    _window_bound(arc.length, _prefix_sums(values, division))
    return False


def _clears_coverage(profile: SpeedProfile, length: float,
                     division: TimeDivision) -> bool:
    """Whether an O(1) bound proves the coverage rule for the arc.

    Each span is at least low = slowest speed x narrowest width, and each
    prefix entry at most high = fastest speed x horizon T, to K ulps. With
    low >= 2^-40 high, rounding takes at most an ulp of high, 2^-13 of low,
    from a step; high and length / low below 2^1000 keep the row's total and
    the window bound finite. ``_linear_span`` rounds to a few ulps of
    |slope| T^2 <= high T / narrowest: a linear high takes that factor, and
    the margin leaves 2^13 ulps of it. T < 2^500 and fastest / narrowest <
    2^1000 keep T^2 and the slope finite; low > 2^-50 dwarfs underflow
    (2^-1075 times either)."""
    narrowest, horizon = division._narrowest, division.breakpoints[-1]
    low = _least_span(profile, division)
    high = profile._fastest * horizon
    if profile.kind == LINEAR:
        if not (horizon < 2.0**500 and profile._fastest / narrowest < 2.0**1000
                and low > 2.0**-50):
            return False
        high *= max(1.0, horizon / narrowest)
    return (0.0 < low and high < 2.0**1000 and high * 2.0**-40 <= low
            and length / low < 2.0**1000)


# An arc's reach (TdGraph._reach) is its least span shrunk by this margin,
# 2^-5 of the span: on an arc the O(1) bound clears, rounding moves a span or
# a row step by under 2^-8 of it (see "Row-free exits" in tdroute.routing).
REACH_MARGIN = 1.0 - 2.0**-5


def _least_span(profile: SpeedProfile, division: TimeDivision) -> float:
    """slowest speed x narrowest width: no interval adds less to the arc's
    prefix row, in exact arithmetic, for either kind (a linear span is its
    interval's mean speed times its width). It bounds the O(1) coverage
    check (:func:`_clears_coverage`) and the arc's reach. It may round to 0
    or inf."""
    return profile._slowest * division._narrowest


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


def _linear_span(slope: float, intercept: float, t0: float, t1: float) -> float:
    """Distance covered between t0 and t1 under speed slope*t+intercept."""
    return slope * (t1 * t1 - t0 * t0) * 0.5 + intercept * (t1 - t0)


def _prefix_sums(values: array[float], division: TimeDivision) -> list[float]:
    """The prefix row of an arc with speed ``values`` (K constant, K + 1
    linear), as a list, which packs fast: the one sum of the spans, so the
    rule, the table and the scan's period total read the same bits."""
    if len(values) == len(division._widths):
        return list(accumulate(map(mul, values, division._widths)))
    points = division.breakpoints
    return list(accumulate(
        _linear_span(*speed_line(values, points, k), points[k], points[k + 1])
        for k in range(len(points) - 1)))


# Speeds and prefix rows are packed by one struct.Struct per length into an
# array of exactly their doubles (repetition allocates no spare capacity), in
# place: the same doubles as array('d', values), with no bytes copy between.
_packer = lru_cache(maxsize=64)(lambda count: struct.Struct(f"{count}d"))
_ZERO = array("d", [0.0])


def _pack(values: Sequence[float]) -> array[float]:
    packed = _ZERO * len(values)
    _packer(len(values)).pack_into(packed, 0, *values)
    return packed


def _window_bound(length: float, row: Sequence[float]) -> int:
    """The smallest integer Q such that every interval adds at least
    length/Q to the prefix ``row``: the exact check of the coverage rule."""
    if not row[-1] < math.inf:
        raise ValueError("the distance the arc covers by the horizon overflows")
    shortest = _smallest_step(row)
    bound = length / shortest if shortest > 0.0 else math.inf
    if not math.isfinite(bound):
        raise ValueError(f"an interval covers only {shortest!r} m of the arc's "
                         f"{length!r} m length")
    return max(1, math.ceil(bound))


def _smallest_step(row: Sequence[float]) -> float:
    """The least distance any one interval adds to the prefix ``row``."""
    # The first step is row[0] itself; the rest pair the row with itself.
    return min(row[0], min(map(sub, row[1:], row), default=row[0]))


def speed_at(graph: TdGraph, arc: Arc, t: float) -> float:
    """Speed on ``arc`` at absolute instant ``t`` under the graph's policy."""
    return profile_speed(arc.profile, graph.division, graph.policy, t)


def profile_speed(
    profile: SpeedProfile, division: TimeDivision, policy: str, t: float
) -> float:
    """Speed of a single profile at instant ``t`` (policy extended)."""
    t, k = map_instant(division, t, policy)
    if profile.kind == CONSTANT:
        return profile.values[k]
    points = division.breakpoints
    if t == points[k]:
        # Exact at breakpoints regardless of rounding in the coefficients.
        return profile.values[k]
    if t == points[k + 1]:
        # The horizon, under static: the last measured speed holds after T.
        return profile.values[k + 1]
    slope, intercept = linear_coeffs(profile, division, k)
    return slope * t + intercept
