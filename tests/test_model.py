import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdroute import (
    CONSTANT,
    LINEAR,
    PERIODIC,
    STATIC,
    Arc,
    SpeedProfile,
    TdGraph,
    TimeDivision,
    linear_coeffs,
    locate_interval,
    profile_speed,
    sample_graph,
    speed_at,
)
from support import brute_locate, random_division, random_profile

DEMO_DIVISION = TimeDivision((0.0, 10.0, 15.0, 30.0, 40.0))


class TestTimeDivision:
    def test_basic_properties(self):
        assert DEMO_DIVISION.intervals == 4
        assert DEMO_DIVISION.horizon == 40.0

    @pytest.mark.parametrize(
        "points",
        [
            (0.0,),
            (1.0, 2.0),          # must start at 0
            (0.0, 5.0, 5.0),     # not strictly increasing
            (0.0, 5.0, 4.0),
            (0.0, math.inf),
        ],
    )
    def test_rejects_bad_breakpoints(self, points):
        with pytest.raises(ValueError):
            TimeDivision(points)


class TestLocateInterval:
    def test_demo_values(self):
        assert locate_interval(DEMO_DIVISION, 6.0) == 0
        assert locate_interval(DEMO_DIVISION, 0.0) == 0
        # breakpoints belong to the interval on their right
        assert locate_interval(DEMO_DIVISION, 15.0) == 2

    def test_negative_instant(self):
        for policy in (STATIC, PERIODIC):
            for t in (-1.0, math.nan, math.inf):
                with pytest.raises(ValueError):
                    locate_interval(DEMO_DIVISION, t, policy)

    def test_static_clamps_past_horizon(self):
        assert locate_interval(DEMO_DIVISION, 40.0, STATIC) == 3
        assert locate_interval(DEMO_DIVISION, 1e9, STATIC) == 3

    def test_periodic_wraps(self):
        assert locate_interval(DEMO_DIVISION, 45.0, PERIODIC) == 0
        assert locate_interval(DEMO_DIVISION, 80.0, PERIODIC) == 0
        assert locate_interval(DEMO_DIVISION, 96.0, PERIODIC) == 2

    def test_hint_is_used_and_verified(self):
        assert locate_interval(DEMO_DIVISION, 6.0, hint=0) == 0
        # stale hints fall back to the search instead of erroring
        assert locate_interval(DEMO_DIVISION, 6.0, hint=3) == 0
        assert locate_interval(DEMO_DIVISION, 6.0, hint=99) == 0
        assert locate_interval(DEMO_DIVISION, 6.0, hint=-2) == 0

    def test_matches_brute_force_scan(self):
        rng = random.Random(11)
        for _ in range(500):
            division = random_division(rng)
            t = rng.uniform(0.0, division.horizon * 0.999999)
            assert locate_interval(division, t) == brute_locate(division, t)


class TestSpeedProfileValidation:
    def test_rejects_non_positive_speed(self):
        with pytest.raises(ValueError):
            SpeedProfile(CONSTANT, (10.0, 0.0))
        with pytest.raises(ValueError):
            SpeedProfile(CONSTANT, (-3.0,))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SpeedProfile("quadratic", (1.0,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpeedProfile(CONSTANT, ())


class TestArcValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Arc(3, 3, 100.0, SpeedProfile(CONSTANT, (10.0,)))

    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError):
            Arc(0, 1, 0.0, SpeedProfile(CONSTANT, (10.0,)))

    def test_rejects_a_crossing_that_takes_no_finite_time(self):
        # 1 m at 1e-320 m/s (or 1e300 m at 1e-10 m/s) overflows to inf.
        for length, speeds in ((1.0, (10.0, 1e-320)), (1e300, (1e-10, 5.0))):
            with pytest.raises(ValueError, match="crossing time overflows"):
                Arc(0, 1, length, SpeedProfile(CONSTANT, speeds))
        Arc(0, 1, 1.0, SpeedProfile(CONSTANT, (1e-300,)))


class TestTdGraphValidation:
    def test_profile_length_must_match_division(self):
        with pytest.raises(ValueError):
            TdGraph(
                2,
                DEMO_DIVISION,
                STATIC,
                CONSTANT,
                (Arc(0, 1, 10.0, SpeedProfile(CONSTANT, (10.0, 10.0))),),
            )

    def test_linear_needs_one_extra_speed(self):
        division = TimeDivision((0.0, 10.0))
        profile = SpeedProfile(LINEAR, (10.0, 12.0))
        TdGraph(2, division, STATIC, LINEAR, (Arc(0, 1, 5.0, profile),))
        with pytest.raises(ValueError):
            TdGraph(
                2,
                division,
                STATIC,
                LINEAR,
                (Arc(0, 1, 5.0, SpeedProfile(LINEAR, (10.0,))),),
            )

    def test_kind_mismatch_rejected(self):
        division = TimeDivision((0.0, 10.0))
        profile = SpeedProfile(CONSTANT, (10.0,))
        with pytest.raises(ValueError):
            TdGraph(2, division, STATIC, LINEAR, (Arc(0, 1, 5.0, profile),))

    def test_periodic_linear_seam_enforced(self):
        division = TimeDivision((0.0, 10.0))
        bad = SpeedProfile(LINEAR, (10.0, 12.0))
        with pytest.raises(ValueError):
            TdGraph(2, division, PERIODIC, LINEAR, (Arc(0, 1, 5.0, bad),))
        # within tolerance is accepted
        near = SpeedProfile(LINEAR, (10.0, 10.0 + 5e-10))
        TdGraph(2, division, PERIODIC, LINEAR, (Arc(0, 1, 5.0, near),))

    def test_node_ids_checked(self):
        division = TimeDivision((0.0, 10.0))
        profile = SpeedProfile(CONSTANT, (10.0,))
        with pytest.raises(ValueError):
            TdGraph(2, division, STATIC, CONSTANT, (Arc(0, 5, 5.0, profile),))

    def test_adjacency_grouping(self):
        division = TimeDivision((0.0, 10.0))
        profile = SpeedProfile(CONSTANT, (10.0,))
        graph = TdGraph(
            3,
            division,
            STATIC,
            CONSTANT,
            (
                Arc(1, 2, 5.0, profile),
                Arc(0, 1, 5.0, profile),
                Arc(1, 0, 5.0, profile),
            ),
        )
        assert graph.out_arcs(0) == (1,)
        assert graph.out_arcs(1) == (0, 2)
        assert graph.out_arcs(2) == ()
        with pytest.raises(ValueError):
            graph.out_arcs(3)


class TestSpeedAt:
    def test_demo_constant_value(self):
        graph = sample_graph()
        assert speed_at(graph, graph.arcs[0], 6.0) == 10.0
        assert speed_at(graph, graph.arcs[0], 12.0) == 6.0

    def test_linear_flat_reduces_to_constant(self):
        division = TimeDivision((0.0, 10.0))
        profile = SpeedProfile(LINEAR, (10.0, 10.0))
        assert profile_speed(profile, division, STATIC, 4.0) == 10.0

    def test_linear_midpoint(self):
        division = TimeDivision((0.0, 10.0))
        profile = SpeedProfile(LINEAR, (10.0, 20.0))
        assert profile_speed(profile, division, STATIC, 5.0) == pytest.approx(15.0)

    def test_negative_instant(self):
        division = TimeDivision((0.0, 10.0))
        ramp = SpeedProfile(LINEAR, (10.0, 10.0))
        for policy in (STATIC, PERIODIC):
            graph = sample_graph(policy)
            for t in (-0.5, math.nan, math.inf):
                with pytest.raises(ValueError):
                    speed_at(graph, graph.arcs[0], t)
                with pytest.raises(ValueError):
                    profile_speed(ramp, division, policy, t)

    def test_static_extension(self):
        graph = sample_graph(STATIC)
        arc = graph.arcs[0]
        tail = speed_at(graph, arc, graph.division.horizon - 1e-9)
        for t in (40.0, 55.0, 4000.0):
            assert speed_at(graph, arc, t) == tail

    def test_linear_static_extension_keeps_last_value(self):
        division = TimeDivision((0.0, 10.0))
        profile = SpeedProfile(LINEAR, (10.0, 20.0))
        assert profile_speed(profile, division, STATIC, 10.0) == 20.0
        assert profile_speed(profile, division, STATIC, 123.0) == 20.0

    def test_periodic_repeats(self):
        rng = random.Random(3)
        for _ in range(200):
            division = random_division(rng)
            kind = rng.choice((CONSTANT, LINEAR))
            profile = random_profile(rng, kind, division.intervals, PERIODIC)
            # sample away from breakpoints so rounding cannot hop intervals
            k = rng.randrange(division.intervals)
            lo, hi = division.breakpoints[k], division.breakpoints[k + 1]
            t = lo + (hi - lo) * rng.uniform(0.25, 0.75)
            a = profile_speed(profile, division, PERIODIC, t)
            b = profile_speed(profile, division, PERIODIC, t + division.horizon)
            assert b == pytest.approx(a, rel=1e-9)

    def test_always_positive(self):
        rng = random.Random(5)
        for _ in range(300):
            division = random_division(rng)
            kind = rng.choice((CONSTANT, LINEAR))
            policy = rng.choice((STATIC, PERIODIC))
            profile = random_profile(rng, kind, division.intervals, policy)
            t = rng.uniform(0.0, 4.0 * division.horizon)
            assert profile_speed(profile, division, policy, t) > 0.0

    def test_linear_exact_at_breakpoints(self):
        rng = random.Random(9)
        for _ in range(200):
            division = random_division(rng)
            profile = random_profile(rng, LINEAR, division.intervals, STATIC)
            for k in range(division.intervals):
                t = division.breakpoints[k]
                assert profile_speed(profile, division, STATIC, t) == profile.values[k]


class TestLinearCoeffs:
    @given(
        v0=st.floats(0.5, 50.0),
        v1=st.floats(0.5, 50.0),
        t0=st.floats(0.0, 500.0),
        span=st.floats(0.01, 100.0),
    )
    @settings(max_examples=200)
    def test_reconstructs_endpoint_speeds(self, v0, v1, t0, span):
        division = TimeDivision((0.0, t0 + span)) if t0 == 0.0 else TimeDivision(
            (0.0, t0, t0 + span)
        )
        k = division.intervals - 1
        values = (v0, v1) if k == 0 else (1.0, v0, v1)
        profile = SpeedProfile(LINEAR, values)
        slope, intercept = linear_coeffs(profile, division, k)
        points = division.breakpoints
        assert slope * points[k] + intercept == pytest.approx(v0, rel=1e-9, abs=1e-9)
        assert slope * points[k + 1] + intercept == pytest.approx(v1, rel=1e-9, abs=1e-9)
