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
a call per interval would dominate the scan.

Departures past the measured horizon follow the graph's policy: under
"static" the remainder is covered at the last measured speed in closed
form; under "periodic" whole repeats of the pattern are skipped in O(1)
using the total distance coverable per period, then one in-period search
(or walk) runs. Both keep the per-call complexity bounds intact.

The public procedures validate their arguments once and call the
unchecked kernel; the routing engine, which validates once per query,
calls it directly.

Instrumentation: an :class:`OpCounter` tallies ``steps`` (sequential
interval visits) and ``probes`` (arrival-search iterations over the
prefix table: the first-candidate check plus every bisection step).
Constant-time guards such as the horizon-boundary test and period
skipping are not probes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import sub
from typing import Callable, NamedTuple

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

# Below this magnitude (m/s^2) the speed line is treated as flat and the
# traversal time degrades to distance/speed, avoiding cancellation.
FLAT_SLOPE = 1e-12


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
    search window for arc ``i`` (see :func:`compute_q`).
    """

    rows: list[list[float]]
    window_bounds: list[int] = field(default_factory=list)


def effective_length(arc: Arc, division: TimeDivision, k: int) -> float:
    """Distance (m) coverable on ``arc`` during interval ``k``."""
    if not 0 <= k < division.intervals:
        raise ValueError(f"interval index {k} out of range")
    points = division.breakpoints
    return _KINDS[arc.profile.kind].cover(arc.profile.values, points, k, points[k])


def build_ael(graph: TdGraph) -> AelTable:
    """Prefix-sum every arc's interval distances; O(mK) time and space.

    Raises ValueError naming the first arc whose prefix sums cannot bound
    a search (see :func:`compute_q`).
    """
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
    so little that length/Q overflows: the arrival search needs strictly
    increasing rows.
    """
    shortest = _smallest_step(ael.rows[index])
    bound = arc.length / shortest if shortest > 0.0 else math.inf
    if not math.isfinite(bound):
        raise ValueError(
            f"arc {index} ({arc.src}->{arc.dst}): an interval covers only "
            f"{shortest!r} m of its {arc.length!r} m length"
        )
    return max(1, math.ceil(bound))


def att(
    arc: Arc,
    division: TimeDivision,
    policy: str,
    tau: float,
    counter: OpCounter | None = None,
) -> TraversalResult:
    """Traversal time by sequential interval scan; O(K) worst case."""
    _check(arc, division.intervals, CONSTANT, policy, tau)
    return _cross(arc, None, division, policy, tau, None, counter, None)


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
    _check(arc, division.intervals, CONSTANT, policy, tau)
    return _cross(arc, ael.rows[index], division, policy, tau, hint, counter, None)


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
    _check(arc, division.intervals, CONSTANT, policy, tau)
    if q < 1:
        raise ValueError("window bound must be at least 1")
    if q < ael.window_bounds[index]:
        raise ValueError(
            f"window bound {q} too small: some interval covers less "
            f"than length/{q}"
        )
    return _cross(arc, ael.rows[index], division, policy, tau, hint, counter, q)


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
    _check(arc, division.intervals, LINEAR, policy, tau)
    return _cross(arc, None, division, policy, tau, None, counter, None)


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
    _check(arc, division.intervals, LINEAR, policy, tau)
    return _cross(arc, ael.rows[index], division, policy, tau, hint, counter, None)


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
    if tau < instants[0] or tau > instants[-1]:
        raise ValueError("instant outside the sampled range")
    k = min(bisect_right(instants, tau) - 1, len(samples) - 2)
    t0, f0 = samples[k]
    t1, f1 = samples[k + 1]
    return (f1 - f0) / (t1 - t0) * (tau - t0) + f0


def _check(arc: Arc, intervals: int, kind: str, policy: str, tau: float) -> None:
    if policy not in POLICIES:
        raise ValueError(f"unknown horizon policy {policy!r}")
    _check_profile(arc.profile, kind, intervals, policy)
    _check_departure(tau)


def _check_departure(tau: float) -> None:
    if not 0.0 <= tau < math.inf:
        raise ValueError(
            f"departure instant must be finite and non-negative, got {tau!r}"
        )


def _cross(
    arc: Arc,
    row: list[float] | None,
    division: TimeDivision,
    policy: str,
    tau: float,
    hint: int | None,
    counter: OpCounter | None,
    window: int | None,
) -> TraversalResult:
    """The crossing of ``arc`` departing at ``tau``; arguments are not checked.

    The scan (``row`` None) finds the arrival interval with the kind's walk,
    the search over the prefix ``row``, confined to ``window`` intervals
    unless None. locate_interval verifies it as a hint, so a crossing that
    ends on a breakpoint still lands in the right interval.
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
        cost = within(values, points, k, t, length)
        return TraversalResult(cost, locate_interval(division, tau + cost, policy, k))
    # The arrival lies in interval stop (last + 1: past the horizon), entered
    # lead + points[stop] after tau with rest still to cover.
    remaining = length - first
    if row is None:
        stop, rest = walk(values, points, k + 1, last + 1, remaining, counter)
    elif remaining <= row[last] - row[k]:
        hi = last if window is None else min(k + 1 + window, last)
        stop, consumed = _search_arrival(row, k + 1, remaining, hi, counter)
        rest = remaining - consumed
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
        if row is None:
            if counter is not None:
                counter.steps += last + 1  # the period total visits every interval
            stop, rest = walk(values, points, 0, last, rest, counter)
        else:
            hi = last if window is None else min(window, last)
            stop, consumed = _search_arrival(row, 0, rest, hi, counter)
            rest -= consumed
    if stop > last:
        # Static tail: the rest at the last measured speed.
        cost, stop = (horizon - t) + rest / values[-1], last
    else:
        cost = (lead + points[stop]) + within(values, points, stop, points[stop], rest)
    return TraversalResult(cost, locate_interval(division, tau + cost, policy, stop))


def _search_arrival(
    row: list[float],
    start: int,
    a: float,
    hi: int,
    counter: OpCounter | None,
) -> tuple[int, float]:
    """Find the interval j in [start, hi] whose cumulative span holds ``a``.

    ``a`` is the residual distance with the start of interval ``start`` as
    the departure instant. Returns (j, distance consumed before j), i.e.
    the interval satisfying row[j-1]-base <= a <= row[j]-base. The first
    candidate is checked directly before bisecting, so traversals that
    finish in the very next interval cost a single probe.
    """
    base = row[start - 1] if start > 0 else 0.0
    # Checked once: with row increasing, this makes the bisection terminate.
    if not (start <= hi and a <= row[hi] - base):
        raise ValueError(f"arrival search: {a!r} m exceeds intervals {start}..{hi}")
    probes = 1
    if a <= row[start] - base:
        found = start, 0.0
    else:
        lo = start + 1
        while True:
            probes += 1
            mid = (lo + hi) >> 1
            before = row[mid - 1] - base
            if a < before:
                hi = mid - 1
            elif a > row[mid] - base:
                lo = mid + 1
            else:
                found = mid, before
                break
    if counter is not None:
        counter.probes += probes
    return found


def _prefix_row(arc: Arc, division: TimeDivision) -> list[float]:
    """Distance covered on ``arc`` from tau_0 through the end of each
    interval: the arc's :class:`AelTable` row."""
    cover = _KINDS[arc.profile.kind].cover
    values = arc.profile.values
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
    points, start, end, remaining, counter)``: the first interval j in
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


def _walk_constant(values, points, start, end, remaining, counter):
    for j in range(start, end):
        # _cover_constant(values, points, j, points[j]), inline
        span = values[j] * (points[j + 1] - points[j])
        if span >= remaining:
            if counter is not None:
                counter.steps += j - start + 1
            return j, remaining
        remaining -= span
    if counter is not None:
        counter.steps += end - start
    return end, remaining


def _cover_linear(values, points, k, t):
    slope, intercept = speed_line(values, points, k)
    return _linear_span(slope, intercept, t, points[k + 1])


def _within_linear(values, points, k, t, d):
    slope, intercept = speed_line(values, points, k)
    return _travel_time(slope, intercept, t, d)


def _walk_linear(values, points, start, end, remaining, counter):
    for j in range(start, end):
        span = _cover_linear(values, points, j, points[j])
        if span >= remaining:
            if counter is not None:
                counter.steps += j - start + 1
            return j, remaining
        remaining -= span
    if counter is not None:
        counter.steps += end - start
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

    Solves slope*c^2/2 + (slope*start + intercept)*c = dist for the unique
    positive root, written in the cancellation-free conjugate form
    2*dist / (u + sqrt(u^2 + 2*slope*dist)).
    """
    if dist <= 0.0:
        return 0.0
    speed = slope * start + intercept
    if abs(slope) < FLAT_SLOPE:
        return dist / speed
    disc = speed * speed + 2.0 * slope * dist
    if disc < 0.0:
        raise AssertionError("speed line vanished inside the interval")
    return 2.0 * dist / (speed + math.sqrt(disc))
