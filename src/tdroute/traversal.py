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
  :class:`AelTable`): one probe of the first interval, then the standard
  library's ``bisect_left`` over the rest, O(log K). A call takes at most
  ceil(log2 K) + 1 probes, or ceil(log2(Q + 1)) + 1 when the search
  window can be bounded to Q intervals.

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
prefix table: one when the first interval holds the end, else that one
plus bisection's worst case over the rest of the window). The reads that
guard the bisection against rounding are not probes, nor are
constant-time guards such as the horizon-boundary test and period
skipping. The kernel always counts: the door supplies a counter when the
caller passes none.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain
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
    """Traversal time via binary search over prefix sums; O(log K) (see
    :func:`_search`)."""
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
                        t, first, window, counter)
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
        stop, rest, probes = _search(row, row[k], k + 1, hi, rest)
        counter.probes += probes
    else:
        stop, rest = last + 1, rest - reach
    if stop > last:
        return _past_horizon(kind, values, row, division, policy, t, rest, window,
                             counter)
    at = points[stop]
    return (at - t) + kind.within(values, points, stop, at, rest), stop


def _past_horizon(kind: _Kind, values: array[float], row: array[float] | None,
                  division: TimeDivision, policy: str, t: float, rest: float,
                  window: int | None, counter: OpCounter) -> tuple[float, int]:
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
        stop, rest, probes = _search(row, 0.0, 0, hi, rest)
        counter.probes += probes
    at = points[stop]
    return (lead + at) + kind.within(values, points, stop, at, rest), stop


def _search(row: array[float], base: float, stop: int, hi: int,
            rest: float) -> tuple[int, float, int]:
    """The arrival search: the interval among ``stop..hi`` that holds the
    end of ``rest`` m covered from the start of interval ``stop``, where
    the prefix ``row`` reads ``base``, as (interval, the distance still
    left at its start, probes).

    The answer is the least j with ``rest <= row[j] - base``, a test
    monotone in j, as rows strictly increase and rounding is monotone. The
    first probe tests interval ``stop``: on short arcs nearly every
    crossing out of its interval ends there. Otherwise ``bisect_left``
    finds ``base + rest`` in the row after it, in C, and the answer is
    moved to the least j that passes the test itself, which the rounding
    of that sum can put an interval off: those reads are guards, not
    probes. A bisection counts its worst case plus the first probe,
    ``1 + n.bit_length()`` probes for the n = hi - stop intervals after
    ``stop``. An empty window, or a ``hi`` that cannot hold the rest (a
    window bound built by hand too small), raises ValueError.

    Ties: when the rest equals a prefix entry exactly, the end of interval
    j, the answer is j, covered to its end, not j + 1 entered with nothing
    left; both put the arrival on the same breakpoint.
    """
    if stop <= hi and rest <= row[stop] - base:
        return stop, rest, 1
    if not (stop <= hi and rest <= row[hi] - base):
        raise ValueError(f"arrival search: {rest!r} m exceeds intervals {stop}..{hi}")
    # Interval stop fails the test and hi passes it, so both loops stop
    # inside stop + 1..hi.
    j = bisect_left(row, base + rest, stop + 1, hi)
    while rest > row[j] - base:
        j += 1
    while rest <= (before := row[j - 1] - base):
        j -= 1
    return j, rest - before, 1 + (hi - stop).bit_length()


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
