import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdroute import (
    CONSTANT,
    LINEAR,
    PERIODIC,
    STATIC,
    Arc,
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
    interp_piecewise_linear,
    l_fatt,
    locate_interval,
    sample_graph,
)
from tdroute.traversal import _linear_span, _search_arrival, _travel_time
from support import integrate_motion, random_division, random_profile, single_arc_graph

DEMO = sample_graph()
DEMO_ARC = DEMO.arcs[0]
DEMO_AEL = build_ael(DEMO)


def make_arc(length, kind, speeds):
    return Arc(0, 1, length, SpeedProfile(kind, tuple(speeds)))


def constant_setup(rng, policy):
    graph = single_arc_graph(rng, CONSTANT, policy)
    return graph.arcs[0], graph.division, build_ael(graph)


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
        assert DEMO_AEL.rows[0] == [100.0, 130.0, 250.0, 350.0]

    def test_single_interval(self):
        division = TimeDivision((0.0, 10.0))
        arc = make_arc(50.0, CONSTANT, (10.0,))
        graph = TdGraph(2, division, STATIC, CONSTANT, (arc,))
        assert build_ael(graph).rows[0] == [100.0]

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
        # Each 1e-30 s period covers 1e-330 m, which underflows to 0.
        division = TimeDivision((0.0, 1e-30))
        for procedure, arc in (
            (att, make_arc(1.0, CONSTANT, (1e-300,))),
            (att_linear, make_arc(1.0, LINEAR, (1e-300, 1e-300))),
        ):
            with pytest.raises(ValueError, match="a period covers no distance"):
                procedure(arc, division, PERIODIC, 0.0)

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


class TestSearchArrival:
    def test_residual_stays_within_interval(self):
        rng = random.Random(61)
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
            stop, consumed = _search_arrival(row, start, a, len(row) - 1, None)
            assert start <= stop <= len(row) - 1
            residual = a - consumed
            assert 0.0 <= residual
            assert residual <= row[stop] - (row[stop - 1] if stop else 0.0) + 1e-9

    def test_boundary_tie_lands_with_zero_residual(self):
        row = [100.0, 130.0, 250.0, 350.0]
        stop, consumed = _search_arrival(row, 1, 30.0, 3, None)
        # 30 == row[1]-row[0]: "found" wins over "too large"
        assert (stop, consumed) in ((2, 30.0), (1, 0.0))
        if stop == 2:
            assert 30.0 - consumed == 0.0

    def test_residual_outside_the_window_raises(self):
        row = [100.0, 130.0, 250.0, 350.0]
        # Intervals 1..2 cover 150 m; an empty window covers nothing.
        for start, a, hi in ((1, 200.0, 2), (3, 10.0, 2)):
            with pytest.raises(ValueError, match="arrival search"):
                _search_arrival(row, start, a, hi, None)

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
PINNED_DIGEST = "67b22ff39685d4739639dd97a974948ac38e967bdb84f22bb37efbdec80157d2"


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


class TestPinnedOutput:
    def test_every_strategy_reproduces_the_pinned_bits(self):
        digest = hashlib.sha256()
        calls = Counter()
        for strategy, call in pinned_corpus():
            counter = OpCounter()
            result = call(counter)
            calls[strategy] += 1
            digest.update(
                f"{strategy} {result.cost!r} {result.arrival_interval} "
                f"{counter.probes} {counter.steps}\n".encode()
            )
        assert calls == {
            "att": 1440, "fatt": 1440, "b-fatt": 1440,
            "att-linear": 1440, "l-fatt": 1440,
        }
        assert digest.hexdigest() == PINNED_DIGEST
