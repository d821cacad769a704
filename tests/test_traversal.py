import dataclasses
import hashlib
import math
import random
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdroute import (
    CONSTANT,
    LINEAR,
    PERIODIC,
    STATIC,
    AelTable,
    Arc,
    GeneratorConfig,
    OpCounter,
    SpeedProfile,
    TdGraph,
    TimeDivision,
    att,
    att_linear,
    bounded_fatt,
    build_ael,
    compute_q,
    effective_length,
    fatt,
    generate,
    interp_piecewise_linear,
    l_fatt,
    locate_interval,
    sample_graph,
    shortest_paths,
)
from tdroute import traversal
from tdroute.model import _least_span, _linear_span, _prefix_sums, speed_line
from tdroute.traversal import _KINDS, _cross, _search, _travel_time
from support import (
    integrate_motion,
    random_division,
    random_graph,
    random_profile,
    single_arc_graph,
)

DEMO = sample_graph()
DEMO_ARC = DEMO.arcs[0]
DEMO_AEL = build_ael(DEMO)


def make_arc(length, kind, speeds):
    return Arc(0, 1, length, SpeedProfile(kind, tuple(speeds)))


def constant_setup(rng, policy):
    graph = single_arc_graph(rng, CONSTANT, policy)
    return graph.arcs[0], graph.division, build_ael(graph)


def search_arrival(row, start, a, hi, counter):
    """The kernel's arrival search over intervals ``start``..``hi``, as
    (interval j, distance consumed before j). The intervals last one second
    each and the speed is 1 m/s. The crossing of ``a`` m departs at the end
    of interval start - 1 under static, or for start 0 at the end of the
    period under periodic, with nothing covered there; so the searched cost
    is j - start plus the residual distance."""
    points = tuple(map(float, range(len(row) + 1)))
    k, policy = (start - 1, STATIC) if start else (len(row) - 1, PERIODIC)
    cost, stop = _cross(_KINDS[CONSTANT], (1.0,) * len(row), a, row,
                        TimeDivision(points), policy, k, points[k + 1], 0.0,
                        hi - start, counter)
    return stop, a - (cost - (stop - start))


def scan_answer(row, base, stop, hi, rest):
    """What :func:`tdroute.traversal._search` of ``rest`` m from the start of
    interval ``stop``, where the row reads ``base``, returns, found by a
    linear scan of intervals ``stop``..``hi``: the least interval j whose
    end holds the rest, the distance still left at its start, and the
    probes, one when j is ``stop`` and bisection's worst case over the rest
    of the window plus one otherwise; None when no interval holds it."""
    for j in range(stop, hi + 1):
        if rest <= row[j] - base:
            if j == stop:
                return j, rest, 1
            return j, rest - (row[j - 1] - base), 1 + (hi - stop).bit_length()
    return None


class TestEffectiveLength:
    def test_demo_values(self):
        assert effective_length(DEMO_ARC, DEMO.division, 0) == 100.0
        assert effective_length(DEMO_ARC, DEMO.division, 1) == 30.0
        assert effective_length(DEMO_ARC, DEMO.division, 2) == 120.0
        assert effective_length(DEMO_ARC, DEMO.division, 3) == 100.0

    def test_linear_integral(self):
        division = TimeDivision((0.0, 10.0))
        arc = make_arc(999.0, LINEAR, (10.0, 20.0))
        assert effective_length(arc, division, 0) == pytest.approx(150.0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            effective_length(DEMO_ARC, DEMO.division, 4)
        with pytest.raises(ValueError):
            effective_length(DEMO_ARC, DEMO.division, -1)

    def test_always_positive(self):
        rng = random.Random(1)
        for _ in range(300):
            division = random_division(rng)
            kind = rng.choice((CONSTANT, LINEAR))
            profile = random_profile(rng, kind, division.intervals, STATIC)
            arc = Arc(0, 1, 1.0, profile)
            for k in range(division.intervals):
                assert effective_length(arc, division, k) > 0.0


class TestAelTable:
    def test_demo_prefix_sums(self):
        assert list(DEMO_AEL.rows[0]) == [100.0, 130.0, 250.0, 350.0]

    def test_a_table_is_frozen(self):
        table = build_ael(sample_graph())
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.landmarks = []

    def test_single_interval(self):
        division = TimeDivision((0.0, 10.0))
        arc = make_arc(50.0, CONSTANT, (10.0,))
        graph = TdGraph(2, division, STATIC, CONSTANT, (arc,))
        assert list(build_ael(graph).rows[0]) == [100.0]

    def test_rows_are_the_accumulated_spans_bit_for_bit(self):
        # Every row is the running sum of the kind's per-interval span, and
        # the scan's period total is the row's last entry.
        rng = random.Random(17)
        for kind in (CONSTANT, LINEAR):
            for policy in (STATIC, PERIODIC):
                for _ in range(10):
                    graph = random_graph(rng, kind=kind, policy=policy)
                    division = graph.division
                    rows = build_ael(graph).rows
                    assert len(rows) == graph.arc_count
                    for arc, row in zip(graph.arcs, rows):
                        spans = (
                            effective_length(arc, division, k)
                            for k in range(division.intervals)
                        )
                        want = list(accumulate(spans))
                        assert list(map(float.hex, row)) == list(map(float.hex, want))
                        total = _prefix_sums(arc.profile.values, division)[-1]
                        assert total.hex() == row[-1].hex()

    def test_a_row_built_by_hand_must_bound_a_search(self):
        # Over four 1 s intervals at 1 m/s, a 3.5 m arc ends in interval 3.
        # Taken unchecked, the first three bad rows below broke that search:
        # the first raised "cannot convert float NaN to integer", the second
        # answered from a NaN entry and the third answered 4.5 s. The table
        # names the row instead; the whole row before it passes.
        whole = array("d", [1.0, 2.0, 3.0, 4.0])
        assert fatt(make_arc(3.5, CONSTANT, (1.0,) * 4), AelTable([whole]), 0,
                    TimeDivision((0.0, 1.0, 2.0, 3.0, 4.0)), STATIC, 0.0).cost == 3.5
        message = "^prefix row 1 is not finite, positive and strictly increasing$"
        for bad in ([1.0, -math.inf, 3.0, 4.0], [1.0, math.nan, 3.0, 4.0],
                    [1.0, 3.0, 2.0, 4.0], [-1.0, 2.0, 3.0, 4.0],
                    [1.0, 2.0, 3.0, math.inf], [1.0, 2.0, 2.0, 4.0]):
            with pytest.raises(ValueError, match=message):
                AelTable([whole, array("d", bad)])

    def test_rows_strictly_increasing(self):
        rng = random.Random(2)
        for _ in range(100):
            graph = single_arc_graph(rng, rng.choice((CONSTANT, LINEAR)), STATIC)
            row = build_ael(graph).rows[0]
            assert all(a < b for a, b in zip(row, row[1:]))

    def test_differences_recover_interval_lengths(self):
        rng = random.Random(3)
        for _ in range(100):
            graph = single_arc_graph(rng, rng.choice((CONSTANT, LINEAR)), STATIC)
            arc, division = graph.arcs[0], graph.division
            row = build_ael(graph).rows[0]
            for k in range(1, division.intervals):
                want = effective_length(arc, division, k)
                assert row[k] - row[k - 1] == pytest.approx(want, rel=1e-9)

    def test_range_sums(self):
        rng = random.Random(4)
        graph = single_arc_graph(rng, CONSTANT, STATIC)
        arc, division = graph.arcs[0], graph.division
        row = build_ael(graph).rows[0]
        for i in range(division.intervals):
            for j in range(i, division.intervals):
                want = sum(
                    effective_length(arc, division, k) for k in range(i + 1, j + 1)
                )
                assert row[j] - row[i] == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestComputeQ:
    def test_demo_value(self):
        # shortest interval covers 30 m, arc is 170 m -> ceil(170/30)
        assert compute_q(DEMO_ARC, DEMO_AEL, 0) == 6

    def test_interval_covers_whole_arc(self):
        division = TimeDivision((0.0, 10.0))
        arc = make_arc(100.0, CONSTANT, (10.0,))
        graph = TdGraph(2, division, STATIC, CONSTANT, (arc,))
        assert compute_q(arc, build_ael(graph), 0) == 1

    def test_never_below_one(self):
        division = TimeDivision((0.0, 10.0))
        arc = make_arc(100.0, CONSTANT, (30.0,))
        graph = TdGraph(2, division, STATIC, CONSTANT, (arc,))
        assert compute_q(arc, build_ael(graph), 0) == 1

    def test_a_row_whose_total_overflows_raises(self):
        # 7 s at 1e308 m/s: the row is [inf], whose only step is not small.
        # The graph refuses the arc, so no table built from a graph holds
        # the row, and a table built by hand refuses it too.
        division = TimeDivision((0.0, 7.0))
        arc = make_arc(1.0, CONSTANT, (1e308,))
        row = _prefix_sums(arc.profile.values, division)
        assert row == [math.inf]
        message = r"^the distance the arc covers by the horizon overflows$"
        with pytest.raises(ValueError, match=message):
            TdGraph(2, division, STATIC, CONSTANT, (arc,))
        message = "^prefix row 0 is not finite, positive and strictly increasing$"
        with pytest.raises(ValueError, match=message):
            AelTable(rows=[array("d", row)])


class TestAtt:
    def test_demo_departures(self):
        assert att(DEMO_ARC, DEMO.division, STATIC, 6.0).cost == 21.5
        assert att(DEMO_ARC, DEMO.division, STATIC, 0.0).cost == 20.0
        assert att(DEMO_ARC, DEMO.division, STATIC, 10.0).cost == 22.0

    def test_fits_first_interval(self):
        arc = make_arc(30.0, CONSTANT, (10.0, 6.0, 8.0, 10.0))
        assert att(arc, DEMO.division, STATIC, 0.0).cost == 3.0

    def test_negative_departure(self):
        for tau in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                att(DEMO_ARC, DEMO.division, STATIC, tau)

    def test_requires_constant_profile(self):
        division = TimeDivision((0.0, 10.0))
        arc = make_arc(5.0, LINEAR, (10.0, 10.0))
        with pytest.raises(ValueError):
            att(arc, division, STATIC, 0.0)

    def test_static_tail(self):
        division = TimeDivision((0.0, 10.0, 20.0))
        arc = make_arc(500.0, CONSTANT, (10.0, 20.0))
        # 50 m by t=10, 200 m more by t=20, remaining 250 m at 20 m/s
        assert att(arc, division, STATIC, 5.0).cost == 27.5

    def test_periodic_multi_period(self):
        division = TimeDivision((0.0, 10.0))
        arc = make_arc(1050.0, CONSTANT, (10.0,))
        assert att(arc, division, PERIODIC, 0.0).cost == 105.0

    def test_period_covering_no_distance_raises(self):
        # Each 1e-30 s period covers 1e-330 m, which underflows to 0: the
        # door's coverage check refuses the arc before any scan runs.
        division = TimeDivision((0.0, 1e-30))
        for procedure, arc in (
            (att, make_arc(1.0, CONSTANT, (1e-300,))),
            (att_linear, make_arc(1.0, LINEAR, (1e-300, 1e-300))),
        ):
            with pytest.raises(ValueError, match="^an interval covers only 0.0 m"):
                procedure(arc, division, PERIODIC, 0.0)
        # A search reads the period's distance off its prefix row, which a
        # table built by hand refuses to hold as 0.
        message = "^prefix row 0 is not finite, positive and strictly increasing$"
        with pytest.raises(ValueError, match=message):
            AelTable([array("d", [0.0])])

    def test_departure_past_horizon(self):
        assert att(DEMO_ARC, DEMO.division, STATIC, 100.0).cost == 17.0
        periodic = att(DEMO_ARC, DEMO.division, PERIODIC, 46.0)
        assert periodic.cost == att(DEMO_ARC, DEMO.division, PERIODIC, 6.0).cost


class TestArgumentChecks:
    def test_every_procedure_rejects_a_wrong_speed_count(self):
        # Three intervals need three constant or four linear speeds.
        division = TimeDivision((0.0, 1.0, 2.0, 3.0))
        constant = make_arc(100.0, CONSTANT, (1.0,))
        linear = make_arc(100.0, LINEAR, (1.0, 1.0))
        calls = (
            lambda policy: att(constant, division, policy, 0.0),
            lambda policy: fatt(constant, DEMO_AEL, 0, division, policy, 0.0),
            lambda policy: bounded_fatt(
                constant, DEMO_AEL, 0, division, policy, 0.0, 6),
            lambda policy: att_linear(linear, division, policy, 0.0),
            lambda policy: l_fatt(linear, DEMO_AEL, 0, division, policy, 0.0),
        )
        for policy in (STATIC, PERIODIC):
            for call in calls:
                with pytest.raises(ValueError, match="speed count mismatch"):
                    call(policy)

    def test_an_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown horizon policy 'weekly'"):
            att(DEMO_ARC, DEMO.division, "weekly", 6.0)

    def test_a_table_index_without_a_row_raises(self):
        # A negative index must not wrap around to the last arc's row.
        config = dict(
            nodes=5, avg_degree=2, intervals=40, horizon=100,
            speed_range=(5, 30), length_range=(500, 2000), seed=3,
        )
        constant = generate(GeneratorConfig(**config))
        linear = generate(GeneratorConfig(**config, kind=LINEAR))
        c_arc, c_table = constant.arcs[0], build_ael(constant)
        l_arc, l_table = linear.arcs[0], build_ael(linear)
        division, policy = constant.division, constant.policy
        calls = (
            lambda i: fatt(c_arc, c_table, i, division, policy, 1.0),
            lambda i: l_fatt(l_arc, l_table, i, linear.division, policy, 1.0),
            lambda i: bounded_fatt(c_arc, c_table, i, division, policy, 1.0, 99),
            lambda i: compute_q(c_arc, c_table, i),
        )
        for index in (-1, constant.arc_count, linear.arc_count, 99):
            for call in calls:
                with pytest.raises(ValueError, match=f"no row at index {index}$"):
                    call(index)
        with pytest.raises(ValueError, match="no window bound at index 0$"):
            bounded_fatt(c_arc, AelTable(c_table.rows), 0, division, policy, 1.0, 99)

    def test_a_prefix_row_of_the_wrong_length_raises(self):
        # DEMO has four intervals; a row one entry short or long is rejected.
        rows = DEMO_AEL.rows[0]
        linear = make_arc(200.0, LINEAR, (10.0, 5.0, 30.0, 10.0, 10.0))
        for row in (rows[:-1], rows + array("d", [rows[-1] + 100.0])):
            table = AelTable([row], DEMO_AEL.window_bounds[:1])
            calls = (
                lambda: fatt(DEMO_ARC, table, 0, DEMO.division, STATIC, 6.0),
                lambda: bounded_fatt(DEMO_ARC, table, 0, DEMO.division, STATIC, 6.0, 9),
                lambda: l_fatt(linear, table, 0, DEMO.division, STATIC, 6.0),
            )
            message = f"prefix row has {len(row)} entries, division has 4 intervals"
            for call in calls:
                with pytest.raises(ValueError, match=message):
                    call()

    def test_a_missing_counter_changes_no_result(self):
        rng = random.Random(63)
        for _ in range(300):
            kind = rng.choice((CONSTANT, LINEAR))
            policy = rng.choice((STATIC, PERIODIC))
            graph = single_arc_graph(rng, kind, policy)
            arc, division = graph.arcs[0], graph.division
            table = build_ael(graph)
            tau = rng.uniform(0.0, 3.0 * division.horizon)
            if kind == CONSTANT:
                calls = (
                    lambda c: att(arc, division, policy, tau, c),
                    lambda c: fatt(arc, table, 0, division, policy, tau, None, c),
                    lambda c: bounded_fatt(arc, table, 0, division, policy, tau,
                                           table.window_bounds[0], None, c),
                )
            else:
                calls = (
                    lambda c: att_linear(arc, division, policy, tau, c),
                    lambda c: l_fatt(arc, table, 0, division, policy, tau, None, c),
                )
            for call in calls:
                assert call(None) == call(OpCounter())


class TestFatt:
    def test_demo_departures_with_intervals(self):
        result = fatt(DEMO_ARC, DEMO_AEL, 0, DEMO.division, STATIC, 6.0)
        assert result.cost == 21.5
        assert result.arrival_interval == 2  # arrives at 27.5, inside [15, 30)
        assert fatt(DEMO_ARC, DEMO_AEL, 0, DEMO.division, STATIC, 0.0).cost == 20.0
        assert fatt(DEMO_ARC, DEMO_AEL, 0, DEMO.division, STATIC, 10.0).cost == 22.0

    def test_early_exit_branch(self):
        arc = make_arc(30.0, CONSTANT, (10.0, 6.0, 8.0, 10.0))
        graph = TdGraph(2, DEMO.division, STATIC, CONSTANT, (arc,))
        table = build_ael(graph)
        result = fatt(arc, table, 0, DEMO.division, STATIC, 0.0)
        assert result.cost == 3.0
        assert result.arrival_interval == 0

    def test_matches_att_on_randoms(self):
        rng = random.Random(20)
        for _ in range(4000):
            policy = rng.choice((STATIC, PERIODIC))
            arc, division, table = constant_setup(rng, policy)
            tau = rng.uniform(0.0, 3.0 * division.horizon)
            want = att(arc, division, policy, tau)
            got = fatt(arc, table, 0, division, policy, tau)
            assert math.isclose(got.cost, want.cost, rel_tol=1e-9)
            assert got.arrival_interval == want.arrival_interval

    def test_hint_round_trip_is_exact(self):
        rng = random.Random(21)
        for _ in range(500):
            policy = rng.choice((STATIC, PERIODIC))
            arc, division, table = constant_setup(rng, policy)
            first = fatt(arc, table, 0, division, policy, rng.uniform(0, division.horizon))
            onward = rng.uniform(0.0, 1.0)
            tau = rng.uniform(0, division.horizon) + first.cost + onward
            hinted = fatt(arc, table, 0, division, policy, tau, hint=first.arrival_interval)
            plain = fatt(arc, table, 0, division, policy, tau)
            assert hinted == plain

    def test_probe_budget(self):
        rng = random.Random(22)
        for _ in range(2000):
            policy = rng.choice((STATIC, PERIODIC))
            arc, division, table = constant_setup(rng, policy)
            counter = OpCounter()
            fatt(arc, table, 0, division, policy,
                 rng.uniform(0.0, 3 * division.horizon), counter=counter)
            budget = math.ceil(math.log2(division.intervals)) + 2 \
                if division.intervals > 1 else 2
            assert counter.probes <= budget
            assert counter.steps == 0

    def test_a_tie_met_inside_the_search_arrives_on_the_breakpoint(self, monkeypatch):
        # Integer speeds over 1 s intervals give integer spans, so each
        # length below ends exactly on breakpoint j + 1: the distance left
        # equals a prefix entry, and intervals j and j + 1 both hold the
        # end. j > k + 1 puts the tie past the departure's interval, so the
        # first probe fails and the bisection meets it. Either interval
        # gives the same bits here; the search takes j, the least, which the
        # door's locate_interval hint shows, and the door places the arrival
        # in interval j + 1.
        rng = random.Random(23)
        intervals = 16
        division = TimeDivision(tuple(map(float, range(intervals + 1))))
        speeds = tuple(float(rng.randint(1, 9)) for _ in range(intervals))
        arc_at = lambda length: make_arc(length, CONSTANT, speeds)
        horizon = division.horizon
        hints = []

        def spy(division, t, policy, hint=None):
            hints.append(hint)
            return locate_interval(division, t, policy, hint)

        monkeypatch.setattr(traversal, "locate_interval", spy)
        for policy in (STATIC, PERIODIC):
            table = build_ael(TdGraph(2, division, policy, CONSTANT,
                                      (arc_at(1.0),)))
            row = table.rows[0]
            cases = [(k + 0.5, speeds[k] * 0.5 + row[j] - row[k], j + 1.0)
                     for k in range(intervals - 3)
                     for j in range(k + 2, intervals - 1)]
            if policy == PERIODIC:
                # Past the horizon, and wrapping into the next period.
                cases += [(tau + 2 * horizon, length, end + 2 * horizon)
                          for tau, length, end in cases]
                cases += [(horizon - 0.5, speeds[-1] * 0.5 + row[j], horizon + j + 1.0)
                          for j in range(1, intervals - 1)]
            for tau, length, end in cases:
                counter = OpCounter()
                result = fatt(arc_at(length), table, 0, division, policy, tau,
                              counter=counter)
                assert result.cost == end - tau
                assert result.arrival_interval == int(end) % intervals
                assert hints.pop() == (int(end) - 1) % intervals
                assert counter.probes > 1


class TestBoundedFatt:
    def test_demo_equivalence(self):
        q = DEMO_AEL.window_bounds[0]
        got = bounded_fatt(DEMO_ARC, DEMO_AEL, 0, DEMO.division, STATIC, 6.0, q)
        assert got.cost == 21.5

    def test_matches_fatt_on_randoms(self):
        rng = random.Random(30)
        for _ in range(3000):
            policy = rng.choice((STATIC, PERIODIC))
            arc, division, table = constant_setup(rng, policy)
            q = table.window_bounds[0] + rng.randint(0, 3)
            tau = rng.uniform(0.0, 3.0 * division.horizon)
            want = fatt(arc, table, 0, division, policy, tau)
            got = bounded_fatt(arc, table, 0, division, policy, tau, q)
            assert math.isclose(got.cost, want.cost, rel_tol=1e-9)
            assert got.arrival_interval == want.arrival_interval

    def test_rejects_windows_below_the_arc_bound(self):
        assert DEMO_AEL.window_bounds[0] == 6
        with pytest.raises(ValueError):
            bounded_fatt(DEMO_ARC, DEMO_AEL, 0, DEMO.division, STATIC, 6.0, 5)
        with pytest.raises(ValueError):
            bounded_fatt(DEMO_ARC, DEMO_AEL, 0, DEMO.division, STATIC, 6.0, 0)

    def test_probe_budget(self):
        rng = random.Random(31)
        for _ in range(2000):
            policy = rng.choice((STATIC, PERIODIC))
            arc, division, table = constant_setup(rng, policy)
            q = table.window_bounds[0]
            counter = OpCounter()
            bounded_fatt(arc, table, 0, division, policy,
                         rng.uniform(0.0, 3 * division.horizon), q, counter=counter)
            assert counter.probes <= math.ceil(math.log2(q + 1)) + 2

    def test_whole_arc_intervals_need_two_probes_at_most(self):
        rng = random.Random(32)
        for _ in range(500):
            division = random_division(rng)
            profile = random_profile(rng, CONSTANT, division.intervals, STATIC)
            shortest = min(
                profile.values[k] * (division.breakpoints[k + 1] - division.breakpoints[k])
                for k in range(division.intervals)
            )
            arc = Arc(0, 1, rng.uniform(0.05, 1.0) * shortest, profile)
            policy = rng.choice((STATIC, PERIODIC))
            graph = TdGraph(2, division, policy, CONSTANT, (arc,))
            table = build_ael(graph)
            assert table.window_bounds[0] == 1
            tau = rng.uniform(0.0, 3 * division.horizon)
            for call in (
                lambda c: fatt(arc, table, 0, division, policy, tau, counter=c),
                lambda c: bounded_fatt(arc, table, 0, division, policy, tau, 1, counter=c),
            ):
                counter = OpCounter()
                call(counter)
                assert counter.probes <= 2


class TestAttLinear:
    def test_analytic_ramp(self):
        division = TimeDivision((0.0, 10.0))
        arc = make_arc(150.0, LINEAR, (10.0, 20.0))
        assert att_linear(arc, division, STATIC, 0.0).cost == pytest.approx(10.0)

    def test_flat_profile_degenerates(self):
        division = TimeDivision((0.0, 10.0))
        arc = make_arc(50.0, LINEAR, (10.0, 10.0))
        assert att_linear(arc, division, STATIC, 0.0).cost == pytest.approx(5.0)

    def test_against_numeric_integration(self):
        division = TimeDivision((0.0, 10.0, 25.0))
        arc = make_arc(150.0, LINEAR, (10.0, 20.0, 20.0))
        got = att_linear(arc, division, STATIC, 5.0).cost
        want = integrate_motion(arc, division, STATIC, 5.0)
        assert got > 0.0
        assert got == pytest.approx(want, abs=2e-3)

    def test_negative_departure(self):
        division = TimeDivision((0.0, 10.0))
        arc = make_arc(50.0, LINEAR, (10.0, 10.0))
        for tau in (-2.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                att_linear(arc, division, STATIC, tau)

    def test_more_numeric_cross_checks(self):
        rng = random.Random(40)
        for _ in range(10):
            division = random_division(rng, max_intervals=4, max_horizon=30.0)
            policy = rng.choice((STATIC, PERIODIC))
            profile = random_profile(rng, LINEAR, division.intervals, policy, low=2.0, high=20.0)
            arc = Arc(0, 1, rng.uniform(10.0, 400.0), profile)
            tau = rng.uniform(0.0, division.horizon)
            got = att_linear(arc, division, policy, tau).cost
            want = integrate_motion(arc, division, policy, tau)
            assert got == pytest.approx(want, abs=2e-3)


class TestLFatt:
    def test_analytic_ramp(self):
        division = TimeDivision((0.0, 10.0))
        arc = make_arc(150.0, LINEAR, (10.0, 20.0))
        graph = TdGraph(2, division, STATIC, LINEAR, (arc,))
        table = build_ael(graph)
        assert l_fatt(arc, table, 0, division, STATIC, 0.0).cost == pytest.approx(10.0)

    def test_matches_att_linear_on_randoms(self):
        rng = random.Random(50)
        for _ in range(4000):
            policy = rng.choice((STATIC, PERIODIC))
            graph = single_arc_graph(rng, LINEAR, policy)
            arc, division = graph.arcs[0], graph.division
            table = build_ael(graph)
            tau = rng.uniform(0.0, 3.0 * division.horizon)
            want = att_linear(arc, division, policy, tau)
            got = l_fatt(arc, table, 0, division, policy, tau)
            assert math.isclose(got.cost, want.cost, rel_tol=1e-9)
            assert got.arrival_interval == want.arrival_interval

    def test_uniform_flat_profile_cross_model(self):
        rng = random.Random(52)
        for _ in range(300):
            division = random_division(rng)
            policy = rng.choice((STATIC, PERIODIC))
            v = rng.uniform(0.5, 30.0)
            length = rng.uniform(1.0, 5000.0)
            flat = Arc(0, 1, length, SpeedProfile(LINEAR, (v,) * (division.intervals + 1)))
            const = Arc(0, 1, length, SpeedProfile(CONSTANT, (v,) * division.intervals))
            gl = TdGraph(2, division, policy, LINEAR, (flat,))
            gc = TdGraph(2, division, policy, CONSTANT, (const,))
            tau = rng.uniform(0.0, 2.0 * division.horizon)
            a = l_fatt(flat, build_ael(gl), 0, division, policy, tau)
            b = fatt(const, build_ael(gc), 0, division, policy, tau)
            assert math.isclose(a.cost, b.cost, rel_tol=1e-9)
            assert a.arrival_interval == b.arrival_interval

    def test_probe_budget(self):
        rng = random.Random(53)
        for _ in range(1000):
            policy = rng.choice((STATIC, PERIODIC))
            graph = single_arc_graph(rng, LINEAR, policy)
            arc, division = graph.arcs[0], graph.division
            table = build_ael(graph)
            counter = OpCounter()
            l_fatt(arc, table, 0, division, policy,
                   rng.uniform(0.0, 3 * division.horizon), counter=counter)
            budget = math.ceil(math.log2(division.intervals)) + 2 \
                if division.intervals > 1 else 2
            assert counter.probes <= budget


class TestQuadraticRoot:
    def test_root_is_positive_and_consistent(self):
        rng = random.Random(60)
        for _ in range(2000):
            t0 = rng.uniform(0.0, 100.0)
            t1 = t0 + rng.uniform(0.05, 50.0)
            v0 = rng.uniform(0.5, 40.0)
            v1 = rng.uniform(0.5, 40.0)
            slope = (v1 - v0) / (t1 - t0)
            intercept = v0 - slope * t0
            capacity = _linear_span(slope, intercept, t0, t1)
            dist = rng.uniform(0.0, 1.0) * capacity
            c = _travel_time(slope, intercept, t0, dist)
            assert c >= 0.0
            assert _linear_span(slope, intercept, t0, t0 + c) == pytest.approx(
                dist, rel=1e-6, abs=1e-9
            )

    def test_flat_slope_shortcut(self):
        assert _travel_time(0.0, 10.0, 5.0, 30.0) == 3.0
        assert _travel_time(1e-15, 10.0, 5.0, 30.0) == pytest.approx(3.0)

    def test_a_discriminant_rounding_below_zero_counts_as_zero(self):
        # 30 m/s falling to 1e-100 m/s over 3.3 s covers 49.5 m: the speed
        # at the end squares to about 0, which u^2 + 2*slope*d undershoots.
        slope, intercept = speed_line((30.0, 1e-100), (0.0, 3.3), 0)
        assert intercept * intercept + 2.0 * slope * 49.5 < 0.0
        assert _travel_time(slope, intercept, 0.0, 49.5) == 2.0 * 49.5 / 30.0

    def test_no_distance_takes_no_time_even_at_no_speed(self):
        assert _travel_time(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_a_speed_that_vanishes_is_a_value_error(self):
        for slope, intercept in ((0.0, 0.0), (-1.0, 0.0), (0.0, -1.0)):
            with pytest.raises(ValueError, match="cannot cover 1.0 m"):
                _travel_time(slope, intercept, 0.0, 1.0)

    def test_flat_line_is_distance_over_speed_at_every_magnitude(self):
        # u^2 overflows past 1.3e154 m/s and loses bits below 1.5e-154.
        magnitudes = (5e-324, 1e-300, 1e-160, 0.1, 3.0, 1e160, 1e300, 1e308)
        for speed in magnitudes:
            for dist in magnitudes:
                if 0.0 < dist / speed < math.inf:
                    assert _travel_time(0.0, speed, 0.0, dist) == dist / speed

    def test_root_matches_the_plain_formula_bit_for_bit(self):
        rng = random.Random(62)
        for _ in range(5000):
            slope = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-15.0, 3.0)
            speed = 10 ** rng.uniform(-6.0, 6.0)
            dist = 10 ** rng.uniform(-6.0, 8.0)
            disc = speed * speed + 2.0 * slope * dist
            if disc >= 0.0:
                plain = 2.0 * dist / (speed + math.sqrt(disc))
                assert _travel_time(slope, speed, 0.0, dist) == plain


class TestSearchArrival:
    def test_residual_stays_within_interval(self):
        rng = random.Random(61)
        counter = OpCounter()
        for _ in range(2000):
            spans = [rng.uniform(0.5, 50.0) for _ in range(rng.randint(2, 12))]
            row = []
            acc = 0.0
            for s in spans:
                acc += s
                row.append(acc)
            start = rng.randrange(len(row))
            base = row[start - 1] if start else 0.0
            a = rng.uniform(0.0, row[-1] - base)
            stop, consumed = search_arrival(row, start, a, len(row) - 1, counter)
            assert start <= stop <= len(row) - 1
            residual = a - consumed
            assert 0.0 <= residual
            assert residual <= row[stop] - (row[stop - 1] if stop else 0.0) + 1e-9
        assert counter == OpCounter(probes=4922)

    def test_boundary_tie_lands_with_zero_residual(self):
        row = [100.0, 130.0, 250.0, 350.0]
        counter = OpCounter()
        stop, consumed = search_arrival(row, 1, 30.0, 3, counter)
        # 30 == row[1]-row[0]: interval 1, covered to its end, wins over
        # interval 2 entered with nothing left, at the first probe.
        assert (stop, consumed) == (1, 0.0)
        assert counter == OpCounter(probes=1)

    def test_residual_outside_the_window_raises(self):
        row = [100.0, 130.0, 250.0, 350.0]
        # Intervals 1..2 cover 150 m; an empty window covers nothing.
        for start, a, hi in ((1, 200.0, 2), (3, 10.0, 2)):
            counter = OpCounter()
            with pytest.raises(ValueError, match="arrival search"):
                search_arrival(row, start, a, hi, counter)
            assert counter == OpCounter()

    def test_an_arc_whose_least_span_underflows_searches_as_it_scans(self):
        # The slowest speed and the narrowest interval lie in different
        # intervals here, each span is 1e-200 m, and their product, the
        # arc's least span, underflows to 0: the graph keeps the arc, and
        # its searches answer as its scans do.
        division = TimeDivision((0.0, 1e-200, 1.0))
        arc = make_arc(1.5e-200, CONSTANT, (1.0, 1e-200))
        assert _least_span(arc.profile, division) == 0.0
        graph = TdGraph(2, division, STATIC, CONSTANT, (arc,))
        table = build_ael(graph)
        want = att(arc, division, STATIC, 0.0)
        assert want.cost == 0.5 + 1e-200
        assert fatt(arc, table, 0, division, STATIC, 0.0) == want
        for strategy in ("att", "fatt", "b-fatt"):
            result = shortest_paths(graph, table, 0, 0.0, strategy)
            assert result.arrival[1] == want.cost

    def test_sequential_scan_settles_where_predicate_holds(self):
        rng = random.Random(62)
        for _ in range(1000):
            policy = STATIC
            graph = single_arc_graph(rng, CONSTANT, policy)
            arc, division = graph.arcs[0], graph.division
            row = build_ael(graph).rows[0]
            points = division.breakpoints
            speeds = arc.profile.values
            tau = rng.uniform(0.0, division.horizon * 0.999)
            k = next(
                i for i in range(division.intervals)
                if points[i] <= tau < points[i + 1]
            )
            first = speeds[k] * (points[k + 1] - tau)
            if first >= arc.length:
                continue
            a = arc.length - first
            if a > row[-1] - row[k]:
                continue
            cursor = k + 1
            while speeds[cursor] * (points[cursor + 1] - points[cursor]) < a:
                a -= speeds[cursor] * (points[cursor + 1] - points[cursor])
                cursor += 1
            # the residual distance a, re-expressed against the prefix sums,
            # satisfies the binary-search predicate at the settled interval
            total = arc.length - first
            assert row[cursor - 1] - row[k] <= total <= row[cursor] - row[k] \
                or math.isclose(total, row[cursor - 1] - row[k], rel_tol=1e-12) \
                or math.isclose(total, row[cursor] - row[k], rel_tol=1e-12)


class TestSearchBudget:
    """Rows that grow, shrink, spike or alternate: each search finds the
    interval bisection finds, in one probe when the first interval holds
    the end and in bisection's worst case over the rest plus one
    otherwise."""

    @staticmethod
    def rows(k):
        # 2 ** j, flattened past 1,000 intervals to keep the row finite, and
        # its mirror, flattened past 40 to keep the last unit spans exact.
        grow, shrink = min(1.0, 1000.0 / k), min(1.0, 40.0 / k)
        shapes = {
            "geometric": [2.0 ** (j * grow) for j in range(k)],
            "shrinking": [2.0 ** ((k - j) * shrink) for j in range(k)],
            "giant": [1e12 if j == k // 3 else 1.0 for j in range(k)],
            "alternating": [1e6 if j % 2 else 1.0 for j in range(k)],
            "equal": [1.0] * k,
        }
        return {name: list(accumulate(spans)) for name, spans in shapes.items()}

    def test_every_target_within_bisections_worst_case_plus_one(self):
        sizes = sorted({*range(2, 33), *(2**i + d for i in range(6, 13)
                                         for d in (-1, 0, 1) if 2**i + d <= 4096)})
        for k in sizes:
            points = tuple(map(float, range(k + 1)))
            division = TimeDivision(points)
            speeds = (1.0,) * k
            q = max(1, k // 3)
            for name, row in self.rows(k).items():
                packed = array("d", row)
                for window, hi in ((None, k - 1), (q, min(q, k - 1))):
                    for j in range(hi + 1):
                        # Mid-span, so one interval holds the end. Departing
                        # at the horizon under periodic, the search starts
                        # at interval 0 with the whole length left.
                        rest = ((row[j - 1] if j else 0.0) + row[j]) / 2.0
                        counter = OpCounter()
                        _, stop = _cross(_KINDS[CONSTANT], speeds, rest, packed,
                                         division, PERIODIC, k - 1, points[-1],
                                         0.0, window, counter)
                        assert stop == bisect_left(row, rest) == j, (name, k, j)
                        assert counter.probes == (1 + hi.bit_length() if j else 1), (
                            name, k, window, j)

    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(("wide", "spiky", "near-linear", "concave",
                                  "equal")),
           size=st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_a_search_answers_as_a_linear_scan_within_the_budget(self, seed, shape,
                                                                 size):
        # A quarter of the rests end exactly on an interval's end, a tie
        # that the interval ending there wins, not the next one.
        rng = random.Random(seed)
        if shape == "wide":
            spans = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(size)]
        elif shape == "spiky":
            spans = [rng.choice((1e-6, 1.0, 1e6)) for _ in range(size)]
        elif shape == "near-linear":
            spans = [1.0 + rng.uniform(-1e-3, 1e-3) for _ in range(size)]
        else:
            cut = rng.randint(0, size) if shape == "concave" else 0
            spans = [2.0] * cut + [1.0] * (size - cut)
        row = array("d", accumulate(spans))
        stop = rng.randrange(size)
        hi = rng.randrange(stop, size)
        base = row[stop - 1] if stop else 0.0
        if rng.random() < 0.25:
            rest = row[rng.randint(stop, hi)] - base
        else:
            rest = rng.uniform(0.0, row[hi] - base) or row[hi] - base
        assert _search(row, base, stop, hi, rest) == scan_answer(row, base, stop, hi,
                                                                 rest)

    def test_the_exact_test_moves_the_bisections_answer_either_way(self):
        # bisect_left finds base + rest in the row, and the sum rounds. 0.2 +
        # 0.5 rounds to row[2], 0.7, but 0.7 - 0.2 rounds to
        # 0.49999999999999994, short of the 0.5 left: the answer is one
        # interval later. 0.7 + 2.2 rounds to 2.9000000000000004, past
        # row[2], 2.9, yet 2.9 - 0.7 is 2.2: the answer is one earlier.
        for spans, rest, found, answer in (((0.2, 0.2, 0.3, 0.1), 0.5, 2, 3),
                                           ((0.7, 0.2, 2.0, 0.1), 2.2, 3, 2)):
            row = array("d", accumulate(spans))
            base = row[0]
            assert bisect_left(row, base + rest, 2, 3) == found
            assert _search(row, base, 1, 3, rest) == (
                answer, rest - (row[answer - 1] - base), 3)
            assert _search(row, base, 1, 3, rest) == scan_answer(row, base, 1, 3, rest)


class TestFifoProperty:
    @given(
        seed=st.integers(0, 2**32 - 1),
        gap=st.floats(0.01, 50.0),
        kind=st.sampled_from((CONSTANT, LINEAR)),
        policy=st.sampled_from((STATIC, PERIODIC)),
    )
    @settings(max_examples=300, deadline=None)
    def test_later_departure_arrives_later(self, seed, gap, kind, policy):
        rng = random.Random(seed)
        graph = single_arc_graph(rng, kind, policy)
        arc, division = graph.arcs[0], graph.division
        tau1 = rng.uniform(0.0, 2.0 * division.horizon)
        tau2 = tau1 + gap
        cost_fn = att if kind == CONSTANT else att_linear
        c1 = cost_fn(arc, division, policy, tau1).cost
        c2 = cost_fn(arc, division, policy, tau2).cost
        assert tau1 + c1 < tau2 + c2


class TestTraversalResultContract:
    def test_cost_positive_and_interval_consistent(self):
        rng = random.Random(70)
        for _ in range(1500):
            kind = rng.choice((CONSTANT, LINEAR))
            policy = rng.choice((STATIC, PERIODIC))
            graph = single_arc_graph(rng, kind, policy)
            arc, division = graph.arcs[0], graph.division
            table = build_ael(graph)
            tau = rng.uniform(0.0, 3.0 * division.horizon)
            if kind == CONSTANT:
                result = fatt(arc, table, 0, division, policy, tau)
            else:
                result = l_fatt(arc, table, 0, division, policy, tau)
            assert result.cost > 0.0
            assert result.arrival_interval == locate_interval(
                division, tau + result.cost, policy
            )


class TestInterpolation:
    SAMPLES = [(0.0, 20.0), (10.0, 22.0)]

    def test_demo_point(self):
        assert interp_piecewise_linear(self.SAMPLES, 6.0) == 21.2

    def test_exact_sample_points(self):
        assert interp_piecewise_linear(self.SAMPLES, 0.0) == 20.0
        assert interp_piecewise_linear(self.SAMPLES, 10.0) == 22.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            interp_piecewise_linear(self.SAMPLES, -0.1)
        with pytest.raises(ValueError):
            interp_piecewise_linear(self.SAMPLES, 10.1)
        with pytest.raises(ValueError, match="outside the sampled range"):
            interp_piecewise_linear(self.SAMPLES, math.nan)

    def test_one_sample_rejected(self):
        with pytest.raises(ValueError, match="need at least two samples"):
            interp_piecewise_linear([(0.0, 20.0)], 0.0)

    def test_unsorted_samples_rejected(self):
        with pytest.raises(ValueError):
            interp_piecewise_linear([(10.0, 22.0), (0.0, 20.0)], 5.0)

    def test_interpolation_disagrees_with_exact_traversal(self):
        # sampled crossings at t=0 and t=10 interpolate to 21.2 at t=6,
        # but the exact crossing takes 21.5
        exact = att(DEMO_ARC, DEMO.division, STATIC, 6.0).cost
        approx = interp_piecewise_linear(self.SAMPLES, 6.0)
        assert exact == 21.5
        assert approx == 21.2
        assert approx != exact


# SHA-256 of every strategy's exact output on pinned_corpus(). The
# cross-strategy tests above compare at rel 1e-9; this one fails on any
# changed bit of a cost, arrival interval, probe count or step count.
PINNED_DIGEST = "6b23906041ca76b0f6f67904db583e57af4391098d6c6a71faacf75d8a9e503c"
# The same corpus with the probe and step counts left out.
PINNED_ANSWER_DIGEST = "4eadcbd2f3d396dbebfc7fff7fade2ce8cbc5c1b4f72c0fe54663807c38a07c2"


def pinned_corpus():
    """(strategy, call) pairs over seeded one-arc graphs of both kinds and
    both policies, departing before, at and past the horizon, with hints
    that are right, stale or out of range."""
    rng = random.Random(14084113)
    for _ in range(40):
        for kind in (CONSTANT, LINEAR):
            for policy in (STATIC, PERIODIC):
                division = random_division(rng, max_intervals=12)
                points = division.breakpoints
                horizon = division.horizon
                for _ in range(3):
                    profile = random_profile(rng, kind, division.intervals, policy)
                    length = rng.uniform(1.0, 10.0) * rng.choice((1.0, 10.0, 100.0, 1000.0))
                    arc = Arc(0, 1, length, profile)
                    table = build_ael(TdGraph(2, division, policy, kind, (arc,)))
                    q = table.window_bounds[0]
                    for tau in (
                        0.0,
                        rng.uniform(0.0, horizon),
                        rng.choice(points),
                        horizon,
                        horizon + rng.uniform(0.0, 3.0 * horizon),
                        rng.choice(points) + rng.randint(1, 3) * horizon,
                    ):
                        hint = rng.choice((
                            None, -1, division.intervals,
                            rng.randrange(division.intervals),
                            locate_interval(division, tau, policy),
                        ))
                        if kind == CONSTANT:
                            wide = q + rng.randint(0, 3)
                            yield "att", lambda c: att(arc, division, policy, tau, c)
                            yield "fatt", lambda c: fatt(
                                arc, table, 0, division, policy, tau, hint, c)
                            yield "b-fatt", lambda c: bounded_fatt(
                                arc, table, 0, division, policy, tau, wide, hint, c)
                        else:
                            yield "att-linear", lambda c: att_linear(
                                arc, division, policy, tau, c)
                            yield "l-fatt", lambda c: l_fatt(
                                arc, table, 0, division, policy, tau, hint, c)


def pinned_digest(counters=True):
    """SHA-256 of every strategy's output on :func:`pinned_corpus`: cost
    bits and arrival interval, then the probe and step counts unless
    ``counters`` is False."""
    digest = hashlib.sha256()
    calls = Counter()
    for strategy, call in pinned_corpus():
        counter = OpCounter()
        result = call(counter)
        calls[strategy] += 1
        line = f"{strategy} {result.cost!r} {result.arrival_interval}"
        if counters:
            line += f" {counter.probes} {counter.steps}"
        digest.update(f"{line}\n".encode())
    assert calls == {
        "att": 1440, "fatt": 1440, "b-fatt": 1440,
        "att-linear": 1440, "l-fatt": 1440,
    }
    return digest.hexdigest()


class TestPinnedOutput:
    def test_every_strategy_reproduces_the_pinned_bits(self):
        assert pinned_digest() == PINNED_DIGEST

    def test_every_strategy_reproduces_the_pinned_answers(self):
        # The answers alone: a change to how the kernel searches moves the
        # probe counts above, never these.
        assert pinned_digest(counters=False) == PINNED_ANSWER_DIGEST
