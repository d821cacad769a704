"""Arc traversal-time procedures.

Crossing an arc can span several speed intervals, so the traversal time
depends on the departure instant. One kernel, ``_cross``, computes it for
both speed kinds. Its two finders of the arrival interval make the two
families of procedures:

* the scan (``att`` for constant speeds, ``att_linear`` for linear ones)
  walks the intervals in order, consuming the remaining distance one
  interval at a time: O(K) per call. It is the reference the search is
  checked against.
* the search (``fatt`` / ``bounded_fatt`` for constant speeds, ``l_fatt``
  for linear ones) binary-searches the arrival interval over precomputed
  per-arc prefix sums of the distance coverable in each interval (the
  :class:`AelTable`): O(log K) per call, or O(log Q) when the search
  window can be bounded.

A speed kind enters the kernel only through three primitives (a
:class:`_Kind`): the distance coverable from an instant to the end of its
interval, the time to cover a distance inside one interval, and a walk
over whole intervals. The first, taken from an interval's start, is that
interval's span; :func:`effective_length`, :func:`build_ael` and the
scan's period total all read it. The walk keeps its loop inline, because
a call per interval would dominate the scan, and a constant-kind prefix
row takes every span in one pass, as speed times interval width.

Departures past the measured horizon follow the graph's policy: under
"static" the remainder is covered at the last measured speed in closed
form; under "periodic" whole repeats of the pattern are skipped in O(1)
using the total distance coverable per period, then one in-period search
(or walk) runs. Both keep the per-call complexity bounds intact.

The five public procedures and ``routing.traverse_arc`` share one door,
``_checked_cross``: it checks the policy, the profile, the departure and
the length of the prefix row it reads, runs the unchecked kernel and
wraps its ``(cost, arrival interval)`` pair in a
:class:`TraversalResult`. The routing engine, which validates once per
query, calls the kernel directly and keeps the pair. For a departure
inside the horizon it resolves a crossing that ends in its departure
interval itself, and hands one whose searched arrival lies within the
horizon to ``_searched``, the one function that bisects a prefix row.

Instrumentation: an :class:`OpCounter` tallies ``steps`` (sequential
interval visits) and ``probes`` (arrival-search iterations over the
prefix table: the first-candidate check plus every bisection step).
Constant-time guards such as the horizon-boundary test and period
skipping are not probes. The kernel always counts: the door supplies a
counter when the caller passes none.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul, sub
from typing import Callable, NamedTuple

from .landmarks import build_landmarks
from .model import (
    CONSTANT,
    LINEAR,
    PERIODIC,
    POLICIES,
    STATIC,
    Arc,
    TdGraph,
    TimeDivision,
    _check_profile,
    locate_interval,
    speed_line,
)


@dataclass
class OpCounter:
    """Operation tallies used by complexity assertions and the bench."""

    probes: int = 0
    steps: int = 0


@dataclass(frozen=True)
class TraversalResult:
    """Cost of one arc traversal plus the interval the arrival lies in.

    ``arrival_interval`` is the index of departure+cost under the graph's
    policy; feeding it back as the ``hint`` of the next call from the
    arrived node makes that call's interval location O(1).
    """

    cost: float
    arrival_interval: int


@dataclass
class AelTable:
    """Per-arc prefix sums of the distance coverable in each interval.

    ``rows[i][j]`` is the distance covered on arc ``i`` from tau_0 through
    the end of interval ``j``; rows are strictly increasing because speeds
    are strictly positive. ``window_bounds[i]`` caches the smallest valid
    search window for arc ``i`` (see :func:`compute_q`). ``landmarks``
    holds one ``(away, back)`` pair of static distance lists per landmark,
    from it to every node and from every node to it, which bound
    point-to-point queries from below (see :mod:`tdroute.landmarks`).
    The single-arc procedures check the length of the row they read; the
    route engine checks the row count and the first row's length only, so
    a table for it is meant to come from ``build_ael(graph)``.
    """

    rows: list[list[float]]
    window_bounds: list[int] = field(default_factory=list)
    landmarks: list[tuple[list[float], list[float]]] = field(default_factory=list)


def effective_length(arc: Arc, division: TimeDivision, k: int) -> float:
    """Distance (m) coverable on ``arc`` during interval ``k``."""
    if not 0 <= k < division.intervals:
        raise ValueError(f"interval index {k} out of range")
    points = division.breakpoints
    return _KINDS[arc.profile.kind].cover(arc.profile.values, points, k, points[k])


def build_ael(graph: TdGraph) -> AelTable:
    """Prefix-sum every arc's interval distances; O(mK) time and space.

    A constant-kind row is one ``accumulate`` of speed times interval
    width. The table also carries the landmark distance lists, a few
    static Dijkstra runs. Raises ValueError naming the first arc whose
    prefix sums cannot bound a search (see :func:`compute_q`).
    """
    table = _prefix_table(graph)
    table.landmarks = build_landmarks(graph)
    return table


def _prefix_table(graph: TdGraph) -> AelTable:
    """:func:`build_ael` without the landmark lists."""
    table = AelTable(rows=[_prefix_row(arc, graph.division) for arc in graph.arcs])
    table.window_bounds = [
        compute_q(arc, table, i) for i, arc in enumerate(graph.arcs)
    ]
    return table


def compute_q(arc: Arc, ael: AelTable, index: int) -> int:
    """Smallest integer Q such that every interval covers >= length/Q.

    Bounds the arrival search of :func:`bounded_fatt` to Q consecutive
    intervals. Computed once per arc at preprocessing time. Raises
    ValueError when some interval adds no distance to the prefix sums, or
    so little that length/Q overflows, or when the sums themselves
    overflow: the arrival search needs finite, strictly increasing rows.
    """
    row = _row(ael, index)
    if not row[-1] < math.inf:
        raise ValueError(f"arc {index} ({arc.src}->{arc.dst}): the distance it "
                         "covers by the horizon overflows")
    shortest = _smallest_step(row)
    bound = arc.length / shortest if shortest > 0.0 else math.inf
    if not math.isfinite(bound):
        raise ValueError(f"arc {index} ({arc.src}->{arc.dst}): an interval covers "
                         f"only {shortest!r} m of its {arc.length!r} m length")
    return max(1, math.ceil(bound))


def att(
    arc: Arc,
    division: TimeDivision,
    policy: str,
    tau: float,
    counter: OpCounter | None = None,
) -> TraversalResult:
    """Traversal time by sequential interval scan; O(K) worst case."""
    return _checked_cross(arc, None, division, CONSTANT, policy, tau, counter)


def fatt(
    arc: Arc,
    ael: AelTable,
    index: int,
    division: TimeDivision,
    policy: str,
    tau: float,
    hint: int | None = None,
    counter: OpCounter | None = None,
) -> TraversalResult:
    """Traversal time via binary search over prefix sums; O(log K)."""
    return _checked_cross(arc, _row(ael, index), division, CONSTANT, policy, tau,
                          counter, hint)


def bounded_fatt(
    arc: Arc,
    ael: AelTable,
    index: int,
    division: TimeDivision,
    policy: str,
    tau: float,
    q: int,
    hint: int | None = None,
    counter: OpCounter | None = None,
) -> TraversalResult:
    """Like :func:`fatt` with the search confined to Q intervals.

    Valid only when every interval of the arc covers at least length/Q,
    which holds exactly when ``q >= compute_q(arc, ...)``; the cached
    per-arc bound makes that an O(1) check.
    """
    row = _row(ael, index)
    if index >= len(ael.window_bounds):
        raise ValueError(f"prefix table has no window bound at index {index}")
    if q < 1:
        raise ValueError("window bound must be at least 1")
    if q < ael.window_bounds[index]:
        raise ValueError(
            f"window bound {q} too small: some interval covers less "
            f"than length/{q}"
        )
    return _checked_cross(arc, row, division, CONSTANT, policy, tau, counter, hint, q)


def att_linear(
    arc: Arc,
    division: TimeDivision,
    policy: str,
    tau: float,
    counter: OpCounter | None = None,
) -> TraversalResult:
    """Sequential scan for linear-speed profiles; O(K) worst case.

    Inside the final interval the remaining distance is converted to time
    by solving the quadratic distance integral in closed form.
    """
    return _checked_cross(arc, None, division, LINEAR, policy, tau, counter)


def l_fatt(
    arc: Arc,
    ael: AelTable,
    index: int,
    division: TimeDivision,
    policy: str,
    tau: float,
    hint: int | None = None,
    counter: OpCounter | None = None,
) -> TraversalResult:
    """Binary-search traversal for linear-speed profiles; O(log K)."""
    return _checked_cross(arc, _row(ael, index), division, LINEAR, policy, tau,
                          counter, hint)


def interp_piecewise_linear(
    samples: list[tuple[float, float]], tau: float
) -> float:
    """Linear interpolation of (instant, value) samples at ``tau``.

    Kept as the point of comparison for models that store traversal times
    directly: interpolating sampled traversal times is not exact for
    interval-speed networks, which the exact procedures demonstrate.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    instants = [s[0] for s in samples]
    if any(b <= a for a, b in zip(instants, instants[1:])):
        raise ValueError("samples must be sorted by instant")
    if not instants[0] <= tau <= instants[-1]:
        raise ValueError("instant outside the sampled range")
    k = min(bisect_right(instants, tau) - 1, len(samples) - 2)
    t0, f0 = samples[k]
    t1, f1 = samples[k + 1]
    return (f1 - f0) / (t1 - t0) * (tau - t0) + f0


def _checked_cross(arc: Arc, row: list[float] | None, division: TimeDivision,
                   kind: str, policy: str, tau: float, counter: OpCounter | None,
                   hint: int | None = None,
                   window: int | None = None) -> TraversalResult:
    """The one door of the single-arc procedures and ``routing.traverse_arc``:
    checks the policy, the ``kind`` profile, the departure and the length of
    the prefix ``row`` it reads, then runs :func:`_cross`, counting into a
    fresh counter when ``counter`` is None."""
    if policy not in POLICIES:
        raise ValueError(f"unknown horizon policy {policy!r}")
    _check_profile(arc.profile, kind, division.intervals, policy)
    _check_departure(tau)
    if row is not None:
        _check_row_length(row, division.intervals)
    counter = OpCounter() if counter is None else counter
    crossing = _cross(arc, row, division, policy, tau, hint, counter, window)
    return TraversalResult(*crossing)


def _row(ael: AelTable, index: int) -> list[float]:
    """The table's prefix row at ``index``; a negative index is no row."""
    if not 0 <= index < len(ael.rows):
        raise ValueError(f"prefix table has no row at index {index}")
    return ael.rows[index]


def _check_departure(tau: float) -> None:
    if not 0.0 <= tau < math.inf:
        raise ValueError(
            f"departure instant must be finite and non-negative, got {tau!r}"
        )


def _check_row_length(row: list[float], intervals: int) -> None:
    if len(row) != intervals:
        raise ValueError(
            f"prefix row has {len(row)} entries, division has {intervals} intervals"
        )


def _cross(
    arc: Arc,
    row: list[float] | None,
    division: TimeDivision,
    policy: str,
    tau: float,
    hint: int | None,
    counter: OpCounter,
    window: int | None,
) -> tuple[float, int]:
    """The crossing of ``arc`` departing at ``tau`` as (cost, arrival
    interval); arguments are not checked.

    The scan (``row`` None) finds the arrival interval with the kind's walk,
    the search (:func:`_searched`) over the prefix ``row``, confined to
    ``window`` intervals unless None. locate_interval verifies it as a
    hint, so a crossing that ends on a breakpoint still lands in the right
    interval.
    """
    cover, within, walk = _KINDS[arc.profile.kind]
    values = arc.profile.values
    length = arc.length
    points = division.breakpoints
    horizon = points[-1]
    last = len(points) - 2
    t = tau
    if t >= horizon:
        # Static speeds stay frozen past the horizon: a later departure
        # costs what departing at the horizon does.
        t = horizon if policy == STATIC else math.fmod(t, horizon)
    k = locate_interval(division, t, policy, hint)
    first = cover(values, points, k, t)
    if first >= length:
        # The same-interval exit. The routing engine takes it without this
        # call when the arrival also stays before points[k + 1].
        cost = within(values, points, k, t, length)
        return cost, locate_interval(division, tau + cost, policy, k)
    remaining = length - first
    if row is not None and remaining <= row[last] - row[k]:
        # The routing engine calls the search core itself for a label inside
        # the horizon.
        cost, stop = _searched(within, values, row, points, k + 1, -t, remaining,
                               window, counter)
        return cost, locate_interval(division, tau + cost, policy, stop)
    # The arrival lies in interval stop (last + 1: past the horizon), entered
    # lead + points[stop] after tau with rest still to cover.
    if row is None:
        stop, rest = walk(values, points, k + 1, last + 1, remaining)
        counter.steps += min(stop, last) - k
    else:
        stop, rest = last + 1, remaining - (row[last] - row[k])
    lead = -t
    if stop > last and policy == PERIODIC:
        # Skip whole repeats of the pattern, then find the arrival in one period.
        total = _prefix_row(arc, division)[-1] if row is None else row[last]
        if not total > 0.0:
            raise ValueError(f"arc {arc.src}->{arc.dst}: a period covers no distance")
        repeats, rest = divmod(rest, total)
        lead = (horizon - t) + repeats * horizon
        if row is not None:
            cost, stop = _searched(within, values, row, points, 0, lead, rest,
                                   window, counter)
            return cost, locate_interval(division, tau + cost, policy, stop)
        stop, rest = walk(values, points, 0, last, rest)
        counter.steps += last + 1 + min(stop + 1, last)  # K for the total, then walk
    if stop > last:
        # Static tail: the rest at the last measured speed.
        cost, stop = (horizon - t) + rest / values[-1], last
    else:
        cost = (lead + points[stop]) + within(values, points, stop, points[stop], rest)
    return cost, locate_interval(division, tau + cost, policy, stop)


def _searched(
    within: Callable[..., float],
    values: tuple[float, ...],
    row: list[float],
    points: tuple[float, ...],
    start: int,
    lead: float,
    remaining: float,
    window: int | None,
    counter: OpCounter,
) -> tuple[float, int]:
    """The searched end of a crossing as (cost, interval ``stop`` of the
    arrival); only the search window is checked.

    ``remaining`` is the distance still to cover from the start of
    interval ``start``, an instant ``lead + points[start]`` after the
    departure. The search bisects ``row`` over intervals ``start`` through
    the last, or through ``start + window`` if that comes first and
    ``window`` is not None, for the one that holds the end of
    ``remaining``. It checks interval ``start`` first, so a crossing that
    ends there costs one probe. The caller maps the arrival instant to its
    interval with ``stop`` as the hint.
    """
    last = len(points) - 2
    hi = last if window is None else min(start + window, last)
    base = row[start - 1] if start > 0 else 0.0
    # Checked once: with row increasing, this makes the bisection terminate.
    if not (start <= hi and remaining <= row[hi] - base):
        raise ValueError(
            f"arrival search: {remaining!r} m exceeds intervals {start}..{hi}"
        )
    probes = 1
    stop = start
    if remaining > row[start] - base:
        lo = start + 1
        while True:
            probes += 1
            stop = (lo + hi) >> 1
            before = row[stop - 1] - base
            if remaining < before:
                hi = stop - 1
            elif remaining > row[stop] - base:
                lo = stop + 1
            else:
                remaining -= before
                break
    counter.probes += probes
    at = points[stop]
    return (lead + at) + within(values, points, stop, at, remaining), stop


def _prefix_row(arc: Arc, division: TimeDivision) -> list[float]:
    """Distance covered on ``arc`` from tau_0 through the end of each
    interval: the arc's :class:`AelTable` row."""
    cover = _KINDS[arc.profile.kind].cover
    values = arc.profile.values
    if cover is _cover_constant:
        # cover(values, points, k, points[k]) for every k, in bulk
        return list(accumulate(map(mul, values, division._widths)))
    points = division.breakpoints
    return list(
        accumulate(cover(values, points, k, points[k]) for k in range(len(points) - 1))
    )


def _smallest_step(row: list[float]) -> float:
    """The least distance any one interval adds to the prefix ``row``."""
    return min(map(sub, row, (0.0, *row)))


class _Kind(NamedTuple):
    """The primitives through which a speed kind enters the kernels.

    ``cover(values, points, k, t)``: distance coverable from ``t`` to the
    end of interval ``k``. ``within(values, points, k, t, d)``: time to
    cover ``d`` departing at ``t`` inside interval ``k``. ``walk(values,
    points, start, end, remaining)``: the first interval j in
    [start, end) whose whole span holds ``remaining``, with the distance
    still left at its start, as (j, rest); (end, rest) when none does.
    """

    cover: Callable[..., float]
    within: Callable[..., float]
    walk: Callable[..., tuple[int, float]]


def _cover_constant(values, points, k, t):
    return values[k] * (points[k + 1] - t)


def _within_constant(values, points, k, t, d):
    return d / values[k]


def _walk_constant(values, points, start, end, remaining):
    for j in range(start, end):
        # _cover_constant(values, points, j, points[j]), inline
        span = values[j] * (points[j + 1] - points[j])
        if span >= remaining:
            return j, remaining
        remaining -= span
    return end, remaining


def _cover_linear(values, points, k, t):
    slope, intercept = speed_line(values, points, k)
    return _linear_span(slope, intercept, t, points[k + 1])


def _within_linear(values, points, k, t, d):
    slope, intercept = speed_line(values, points, k)
    return _travel_time(slope, intercept, t, d)


def _walk_linear(values, points, start, end, remaining):
    for j in range(start, end):
        span = _cover_linear(values, points, j, points[j])
        if span >= remaining:
            return j, remaining
        remaining -= span
    return end, remaining


_KINDS = {
    CONSTANT: _Kind(_cover_constant, _within_constant, _walk_constant),
    LINEAR: _Kind(_cover_linear, _within_linear, _walk_linear),
}


def _linear_span(slope: float, intercept: float, t0: float, t1: float) -> float:
    """Distance covered between t0 and t1 under speed slope*t+intercept."""
    return slope * (t1 * t1 - t0 * t0) * 0.5 + intercept * (t1 - t0)


def _travel_time(slope: float, intercept: float, start: float, dist: float) -> float:
    """Time to cover ``dist`` departing at ``start`` on a linear speed.

    The root 2*dist / (u + sqrt(u^2 + 2*slope*dist)), u the speed at
    ``start``, cancels at no slope; a negative discriminant is rounding (the
    speed stays positive to the interval's end) and counts as 0.
    """
    if dist <= 0.0:
        return 0.0
    speed = slope * start + intercept
    disc = speed * speed + 2.0 * slope * dist
    if speed > 0.0 and 1e-290 < disc < 1e290:
        return dist / (speed + math.sqrt(disc)) * 2.0
    # Out of range, or rounded below 0: redo it in units of 2^e near max(u,
    # sqrt(2*slope*dist)), which scale exactly; a term that is 0 sets no scale.
    (ms, es), (ma, ea), (md, ed) = map(math.frexp, (speed, slope, dist))
    e = max(es if ms else -1100, (ea + ed) >> 1 if ma else -1100)
    u = math.ldexp(ms, es - e)
    disc = u * u + math.ldexp(2.0 * ma * md, ea + ed - 2 * e)
    denominator = u + math.sqrt(max(disc, 0.0))
    if not denominator > 0.0:
        raise ValueError(f"speed {speed!r} m/s cannot cover {dist!r} m")
    return math.ldexp(md / denominator, ed + 1 - e)
