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
  for linear ones) finds the arrival interval in precomputed per-arc
  prefix sums of the distance coverable in each interval (the
  :class:`AelTable`) by interpolation, each guess clamped to what the
  probes left can bisect, so that a call takes at most bisection's worst
  case plus one: ceil(log2 K) + 2 probes, or
  ceil(log2(Q + 1)) + 2 when the search window can be bounded. A prefix
  row is a running sum of speed times width, close to linear, so the
  expected count is O(log log K) once the search is bracketed on both
  sides. Its far end is bounded before the first guess by the arc's least
  span, slowest speed x narrowest width (``model._least_span``): no
  interval adds less, so a crossing with d m left ends within d / span
  intervals. On routebench's ``fine`` graphs (1-minute intervals) a
  crossing's search takes 1.8 probes, against 2.2 when a missed guess fell
  back to bisection and 5.3 with the far end at the horizon.

A speed kind enters the kernel only through three primitives (a
:class:`_Kind`): the distance coverable from an instant to the end of its
interval, the time to cover a distance inside one interval, and a walk
over whole intervals. The first, taken from an interval's start, is that
interval's span, summed by ``model._prefix_sums`` for the coverage rule,
the table's rows and the scan's period total. The walk keeps its loop
inline, because a call per interval would dominate the scan.

Departures past the measured horizon follow the graph's policy: under
"static" the remainder is covered at the last measured speed in closed
form; under "periodic" whole repeats of the pattern are skipped in O(1)
using the total distance coverable per period, then one in-period search
(or walk) runs. Both keep the per-call complexity bounds intact.

The kernel, ``_cross``, composes every exit of a crossing from its
primitives: the same interval; inside the horizon the search
(``_search``, the one search of a prefix row) or the scan (the kind's
walk); past it ``_past_horizon``, the static tail or the periodic wrap.
The five public procedures share one door, ``_checked_cross``: it checks
the policy and the profile with its coverage rule (``model.check_arc``),
then ``_cross_at`` checks the departure and the length of the prefix row
it reads, locates the departure, runs the unchecked kernel and locates
the arrival. ``routing.traverse_arc`` enters at ``_cross_at``, as its
graph checked every arc. The routing engine, which validates once per
query, finishes a same-interval crossing itself, and one that ends in the
next interval or in the static tail, which needs no row. It calls
``_search`` itself for a crossing that ends inside the horizon, and the
walk, then ``_past_horizon`` if the walk reaches the horizon, for a scan;
everything else is one call to the kernel. So each primitive exists
once, whoever calls it.

Instrumentation: an :class:`OpCounter` tallies ``steps`` (sequential
interval visits) and ``probes`` (arrival-search iterations over the
prefix table: every interpolated guess, or one when the bracket holds a
single interval, which is then the answer). The checks of
the bracket's far end are not probes, nor are constant-time guards such
as the horizon-boundary test and period skipping. The kernel always
counts: the door supplies a counter when the caller passes none.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain
from math import floor
from operator import lt

from .landmarks import build_landmarks
from .model import (
    CONSTANT,
    LINEAR,
    POLICIES,
    STATIC,
    Arc,
    TdGraph,
    TimeDivision,
    _check_profile,
    _least_span,
    _linear_span,
    _pack,
    _prefix_sums,
    _window_bound,
    locate_interval,
    map_instant,
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


class AelTable:
    """Per-arc prefix sums of the distance coverable in each interval.

    ``rows[i][j]`` is the distance covered on arc ``i`` from tau_0 through
    the end of interval ``j``; rows are strictly increasing because speeds
    are strictly positive. ``window_bounds[i]`` caches the smallest valid
    search window for arc ``i`` (see :func:`compute_q`). ``landmarks``
    holds one ``(away, back)`` pair of static distance lists per landmark,
    from it to every node and from every node to it, which bound
    point-to-point queries from below (see :mod:`tdroute.landmarks`).

    Each row is one ``array('d')``. A table built from a graph
    (:func:`build_ael`) fills arc i's row when a crossing first needs a
    search (the route engine finishes one that ends in the next interval, or
    in the static tail, without it), and its window bound when a windowed
    search first does; reading ``rows`` or ``window_bounds`` fills the rest.
    A filled entry is a pure function of the graph, stored by one atomic
    list-slot store: queries that fill the same row store the same bits, so
    they may share a table across threads. A table built from ``rows``
    records the length they share, so the route engine checks all rows'
    lengths in O(1) per query, and raises ValueError naming the first row
    that is not finite, positive and strictly increasing, as the arrival
    search needs, or the first window bound that is not an int of at least
    1; a table built from a graph, whose rows the coverage rule vouches for,
    skips that walk.
    """

    def __init__(self, rows: list[array[float]], window_bounds: list[int] | None = None,
                 landmarks: list[tuple[list[float], list[float]]] | None = None) -> None:
        for index, row in enumerate(rows):
            # 0 < row[0] < ... < row[-1] < inf; a NaN fails its comparisons.
            if not all(map(lt, chain((0.0,), row), chain(row, (math.inf,)))):
                raise ValueError(f"prefix row {index} is not finite, positive "
                                 "and strictly increasing")
        for index, bound in enumerate(window_bounds or ()):
            if not (isinstance(bound, int) and bound >= 1):
                raise ValueError(f"window bound {index} is {bound!r}, not an "
                                 "int of at least 1")
        lengths = set(map(len, rows))
        vars(self).update(_rows=rows, _bounds=window_bounds or [], _graph=None,
                          landmarks=landmarks or [],
                          _row_length=lengths.pop() if len(lengths) == 1 else None)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def rows(self) -> list[array[float]]:
        return list(map(self._fill_row, range(len(self._rows))))

    @property
    def window_bounds(self) -> list[int]:
        return list(map(self._fill_bound, range(len(self._bounds))))

    def _fill_row(self, index: int) -> array[float]:
        if (row := self._rows[index]) is None:
            row = self._rows[index] = _pack(_prefix_sums(
                self._graph._speeds[index], self._graph.division))
        return row

    def _fill_bound(self, index: int) -> int:
        if (bound := self._bounds[index]) is None:
            bound = self._bounds[index] = _window_bound(
                self._graph._length[index], self._fill_row(index))
        return bound


def effective_length(arc: Arc, division: TimeDivision, k: int) -> float:
    """Distance (m) coverable on ``arc`` during interval ``k``."""
    if not 0 <= k < division.intervals:
        raise ValueError(f"interval index {k} out of range")
    points = division.breakpoints
    return _KINDS[arc.profile.kind].cover(arc.profile.values, points, k, points[k])


def build_ael(graph: TdGraph) -> AelTable:
    """The prefix table of ``graph``, with its landmark distance lists (a few
    static Dijkstra runs). Arc i's row, O(K) time and space, is filled when
    a crossing of the arc first needs a search, so a one-shot query sums
    only the rows it searches; queries that share the table across threads
    fill the same bits (see :class:`AelTable`). No fill can fail: the graph
    checked that every arc's prefix sums bound a search
    (``model.check_arc``).
    """
    return _prefix_table(graph, build_landmarks(graph))


def _prefix_table(graph: TdGraph, landmarks: list | None = None) -> AelTable:
    """The table of ``graph`` with ``landmarks``, filled on first use."""
    table, missing = AelTable([], [], landmarks), [None] * graph.arc_count
    vars(table).update(_rows=missing, _bounds=missing[:], _graph=graph,
                       _row_length=graph.division.intervals)
    return table


def compute_q(arc: Arc, ael: AelTable, index: int) -> int:
    """Smallest integer Q such that every interval covers >= length/Q.

    Bounds the arrival search of :func:`bounded_fatt` to Q consecutive
    intervals. A table built from a graph caches it, filled on first use
    with the same bits by any query. It cannot fail on such a table, whose
    graph checked each arc's coverage (``model.check_arc``); on a row built
    by hand that breaks the rule it raises ValueError: the arrival search
    needs finite, increasing rows.
    """
    return _window_bound(arc.length, _row(ael, index))


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
    """Traversal time via interpolation search over prefix sums, bracketed
    by the arc's least span and bounded by bisection's worst case plus one;
    O(log K) (see :func:`_cross`)."""
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
    """Like :func:`fatt` with the search confined to Q intervals, and
    within them to the least span's bracket when that is tighter.

    Valid only when every interval of the arc covers at least length/Q,
    which holds exactly when ``q >= compute_q(arc, ...)``; the cached
    per-arc bound makes that an O(1) check.
    """
    row = _row(ael, index)
    if index >= len(ael._bounds):
        raise ValueError(f"prefix table has no window bound at index {index}")
    if q < 1:
        raise ValueError("window bound must be at least 1")
    if q < ael._fill_bound(index):
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
    """Interpolation-search traversal for linear-speed profiles, bracketed
    by the arc's least span (a linear span is at least its interval's
    slowest breakpoint speed times its width) and bounded by bisection's
    worst case plus one; O(log K)."""
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


def _checked_cross(arc: Arc, row: array[float] | None, division: TimeDivision,
                   kind: str, policy: str, tau: float, counter: OpCounter | None,
                   hint: int | None = None,
                   window: int | None = None) -> TraversalResult:
    """The door of the single-arc procedures: checks the policy and the
    ``kind`` profile with its coverage rule, then runs :func:`_cross_at`."""
    if policy not in POLICIES:
        raise ValueError(f"unknown horizon policy {policy!r}")
    _check_profile(arc, kind, division, policy)
    return _cross_at(arc, row, division, kind, policy, tau, counter, hint, window)


def _cross_at(arc: Arc, row: array[float] | None, division: TimeDivision,
              kind: str, policy: str, tau: float, counter: OpCounter | None,
              hint: int | None, window: int | None) -> TraversalResult:
    """The door of ``routing.traverse_arc`` too, whose graph checked its arcs:
    checks the departure and the length of the prefix ``row``, locates the
    departure from ``hint``, runs :func:`_cross`, counting into a fresh
    counter when ``counter`` is None, and locates the arrival."""
    _check_departure(tau)
    if row is not None:
        _check_row_length(row, division.intervals)
    counter = OpCounter() if counter is None else counter
    t, k = map_instant(division, tau, policy, hint)
    primitives, values = _KINDS[kind], arc.profile.values
    first = primitives.cover(values, division.breakpoints, k, t)
    cost, stop = _cross(primitives, values, arc.length, row, division, policy, k,
                        t, first, window, _least_span(arc.profile, division), counter)
    return TraversalResult(cost, locate_interval(division, tau + cost, policy, stop))


def _row(ael: AelTable, index: int) -> array[float]:
    """The table's prefix row at ``index``, filled on first use, if any."""
    if not 0 <= index < len(ael._rows):
        raise ValueError(f"prefix table has no row at index {index}")
    return ael._fill_row(index)


def _check_departure(tau: float) -> None:
    if not 0.0 <= tau <= sys.float_info.max:  # an int past it is < inf
        raise ValueError(
            f"departure instant must be finite and non-negative, got {tau!r}"
        )


def _check_row_length(row: Sequence[float], intervals: int) -> None:
    if len(row) != intervals:
        raise ValueError(
            f"prefix row has {len(row)} entries, division has {intervals} intervals"
        )


def _cross(
    kind: _Kind,
    values: array[float],
    length: float,
    row: array[float] | None,
    division: TimeDivision,
    policy: str,
    k: int,
    t: float,
    first: float,
    window: int | None,
    least_span: float,
    counter: OpCounter,
) -> tuple[float, int]:
    """The crossing of an arc of ``length`` m with speed ``values`` of the
    ``kind`` from ``t`` in interval ``k``, as (cost, interval ``stop`` where
    it ends in the period); only the search window is checked.

    The arguments are the values that the route engine holds per query and
    per arc, so a crossing costs the engine no lookups. ``t`` lies inside
    the horizon, mapped there by the policy when the departure does not,
    and ``first`` is the distance coverable from ``t`` to the end of
    interval ``k``. The kernel composes its primitives: the same-interval
    exit, then inside the horizon the scan (``row`` None), which finds the
    arrival interval with the kind's walk, or the search
    (:func:`_search`) of the prefix ``row`` from interval k + 1, confined
    to ``window`` intervals unless None, and past it
    :func:`_past_horizon`. The route engine runs the same primitives
    itself for a crossing that ends inside the horizon, so each exists
    once. The caller locates the arrival instant with ``stop`` as the hint,
    so a crossing that ends on a breakpoint or past the horizon still lands
    in the right interval.
    """
    points = division.breakpoints
    if first >= length:
        return kind.within(values, points, k, t, length), k
    last = len(points) - 2
    rest = length - first
    if row is None:
        stop, rest = kind.walk(values, division, k + 1, last + 1, rest)
        counter.steps += min(stop, last) - k
    elif rest <= (reach := row[last] - row[k]):
        hi = last if window is None else min(k + 1 + window, last)
        stop, rest, probes = _search(row, row[k], k + 1, hi, rest, least_span)
        counter.probes += probes
    else:
        stop, rest = last + 1, rest - reach
    if stop > last:
        return _past_horizon(kind, values, row, division, policy, t, rest, window,
                             least_span, counter)
    at = points[stop]
    return (at - t) + kind.within(values, points, stop, at, rest), stop


def _past_horizon(kind: _Kind, values: array[float], row: array[float] | None,
                  division: TimeDivision, policy: str, t: float, rest: float,
                  window: int | None, least_span: float,
                  counter: OpCounter) -> tuple[float, int]:
    """The end of a crossing from ``t`` that reaches the horizon with
    ``rest`` m still to cover, as :func:`_cross` returns it.

    Under "static" the rest is covered at the last measured speed in closed
    form. Under "periodic" whole repeats of the pattern are skipped in O(1)
    by the distance coverable per period, then one in-period walk (``row``
    None, after K steps to sum the period) or search finds the arrival.
    """
    points = division.breakpoints
    last = len(points) - 2
    horizon = points[-1]
    if policy == STATIC:
        return (horizon - t) + rest / values[-1], last
    total = (_prefix_sums(values, division) if row is None else row)[last]
    repeats, rest = divmod(rest, total)
    lead = (horizon - t) + repeats * horizon
    if row is None:
        stop, rest = kind.walk(values, division, 0, last, rest)
        # K steps for the total, then the walk's
        counter.steps += last + 1 + min(stop + 1, last)
    else:
        hi = last if window is None else min(window, last)
        stop, rest, probes = _search(row, 0.0, 0, hi, rest, least_span)
        counter.probes += probes
    at = points[stop]
    return (lead + at) + kind.within(values, points, stop, at, rest), stop


def _search(row: array[float], base: float, stop: int, hi: int, rest: float,
            least_span: float) -> tuple[int, float, int]:
    """The arrival search: the interval among ``stop..hi`` that holds the
    end of ``rest`` m covered from the start of interval ``stop``, where
    the prefix ``row`` reads ``base``, as (interval, the distance still
    left at its start, probes).

    Every probe interpolates in the row between the bracket's ends. One
    rule bounds it: when the probes left could not bisect what a missed
    guess would leave, the guess is clamped into the middle window from
    which a miss on either side leaves no more than they bisect. So a search
    takes at most bisection's worst case plus one probe. The bracket
    is confined to ``hi`` and within it to ``rest / least_span`` intervals
    past ``stop``: every interval adds at least ``least_span``, the arc's
    (``model._least_span``), to the row. The far end is checked to hold the
    rest, as ``hi`` is; when rounding or a span that overstates the row's
    least step defeats it, the search falls back to ``hi``, so the span
    moves probes, never an answer. A bracket of one interval is the answer
    at one probe: on short arcs nearly every crossing out of its interval
    ends so. When not even ``hi`` holds the rest (a window bound built by
    hand too small), it raises ValueError.

    Ties: when the rest equals a prefix entry exactly, the end of interval
    j, both j (covered to its end) and j + 1 (entered with nothing left)
    pass the accept test, and the first of the two that a probe reaches
    wins; a bracket that ends at j holds only j. Both put the arrival on
    the same breakpoint, with costs that agree to rounding, and bit for bit
    when a span over its speed gives back the interval's width, as integer
    spans do.
    """
    # The bracket: every interval adds at least least_span to the row, so
    # rest ends within rest / least_span intervals past stop. A span rounded
    # to 0 fails the product test and one rounded to inf puts end on stop,
    # so no quotient divides by 0 or truncates inf. Checked once, end or
    # else hi: with row increasing, this makes the search terminate.
    if rest <= least_span:
        end = stop
    elif rest < least_span * (hi - stop):
        end = stop + int(rest / least_span)
    else:
        end = hi
    if not (stop <= end <= hi and rest <= (high := row[end] - base)):
        if not (stop <= hi and rest <= (high := row[hi] - base)):
            raise ValueError(
                f"arrival search: {rest!r} m exceeds intervals {stop}..{hi}"
            )
        end = hi
    if end == stop:
        return stop, rest, 1  # a one-interval bracket is its own answer
    # Interpolation in lo..hi, where low = row[lo - 1] - base <= rest <= high
    # = row[hi] - base, and low < rest once lo passes stop. Rows are finite
    # and increasing, so a guess divides by a positive finite span, takes a
    # fraction in [0, 1] of the n intervals and, clamped, lands in lo..hi: no
    # NaN or inf arises. The first guess spends one of the n.bit_length()
    # probes that bisect the bracket, and each later one spends one of
    # spare, the probes left; n < 2**(spare + 1) holds at every later guess,
    # so spare never falls below 0 before the answer. When n >= 2**spare, a
    # miss could leave more than the spare probes bisect, and the guess is
    # clamped to hi - most..lo + most, most = 2**spare - 1: a window inside
    # lo..hi from which either miss leaves at most most intervals. So the
    # search ends within n.bit_length() + 1 probes, bisection's worst case
    # plus one. The first guess, which n < 2**n.bit_length() never clamps,
    # is made before the loop, so a search that it ends sets up no budget.
    lo, hi, low = stop, end, 0.0
    n = hi - lo + 1
    stop = lo + floor(rest / high * n)
    if stop > hi:
        stop = hi
    before = row[stop - 1] - base if stop else low
    if rest < before:
        hi, high = stop - 1, before
    elif rest > (low := row[stop] - base):
        lo = stop + 1
    else:
        return stop, rest - before, 1
    spare = (probes := n.bit_length()) - 1
    while True:
        n = hi - lo + 1
        stop = lo + floor((rest - low) / (high - low) * n)
        if n >> spare:
            most = (1 << spare) - 1
            if stop < hi - most:
                stop = hi - most
            elif stop > lo + most:
                stop = lo + most
        elif stop > hi:
            stop = hi
        spare -= 1
        before = row[stop - 1] - base if stop else low
        if rest < before:
            hi, high = stop - 1, before
        elif rest > (low := row[stop] - base):
            lo = stop + 1
        else:
            return stop, rest - before, probes - spare


@dataclass(frozen=True, slots=True)
class _Kind:
    """The primitives through which a speed kind enters the kernels.

    ``cover(values, points, k, t)``: distance coverable from ``t`` to the
    end of interval ``k``. ``within(values, points, k, t, d)``: time to
    cover ``d`` departing at ``t`` inside interval ``k``. ``walk(values,
    division, start, end, remaining)``: the first interval j in
    [start, end) whose whole span holds ``remaining``, with the distance
    still left at its start, as (j, rest); (end, rest) when none does.
    Slotted, so the kernel reads a primitive in one cheap attribute load.
    """

    cover: Callable[..., float]
    within: Callable[..., float]
    walk: Callable[..., tuple[int, float]]


def _cover_constant(values, points, k, t):
    return values[k] * (points[k + 1] - t)


def _within_constant(values, points, k, t, d):
    return d / values[k]


def _walk_constant(values, division, start, end, remaining):
    widths = division._widths
    for j in range(start, end):
        # _cover_constant(values, points, j, points[j]), inline: the width
        # is the same subtraction, made once per division
        span = values[j] * widths[j]
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


def _walk_linear(values, division, start, end, remaining):
    points = division.breakpoints
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
