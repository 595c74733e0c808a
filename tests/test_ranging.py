"""Distance/RTT estimation, threshold gating and the power-stepped scan."""

import math

import pytest
from hypothesis import given, strategies as st

from sfvsim.model import RangingEvidence
from sfvsim.ranging import (
    DEFAULT_PROCESSING_BUDGET,
    LIGHTSPEED,
    REASON_AOA,
    REASON_DISTANCE,
    REASON_RTT,
    ScanPlan,
    ScanResult,
    TimestampSet,
    angular_distance,
    evidence_for_link,
    radial_distance,
    round_trip_time,
    rtt_ceiling,
    scan_for_neighbor,
    validate_evidence,
)

PLAN = ScanPlan(ranges=(230.0, 250.0, 270.0), ranging=True)
FULL = ScanPlan(ranges=(230.0, 250.0, 270.0), ranging=False)


# ----------------------------------------------------------------- estimates

def test_radial_distance_single_pair():
    ts = TimestampSet(pairs=((1e-6, 0.0),), t1=0.0, t2=2e-6)
    assert radial_distance(ts) == pytest.approx(300.0)


def test_radial_distance_averages_pairs():
    ts = TimestampSet(pairs=((1e-6, 0.0), (3e-6, 0.0)), t1=0.0, t2=4e-6)
    assert radial_distance(ts) == pytest.approx(600.0)


def test_radial_distance_scales_linearly():
    one = TimestampSet(pairs=((2e-6, 1e-6),), t1=0.0, t2=3e-6)
    two = TimestampSet(pairs=((3e-6, 1e-6),), t1=0.0, t2=4e-6)
    assert radial_distance(two) == pytest.approx(2 * radial_distance(one))


def test_radial_distance_clamps_negative_mean():
    ts = TimestampSet(pairs=((0.0, 5e-6),), t1=0.0, t2=6e-6)
    with pytest.warns(RuntimeWarning):
        assert radial_distance(ts) == 0.0


def test_radial_distance_needs_samples():
    with pytest.raises(ValueError):
        radial_distance(TimestampSet(pairs=(), t1=0.0, t2=1e-6))


def test_round_trip_time_and_ordering():
    ts = TimestampSet(pairs=((1e-6, 0.0),), t1=1.0, t2=1.000002)
    assert round_trip_time(ts) == pytest.approx(2e-6)
    with pytest.raises(ValueError):
        TimestampSet(pairs=((1e-6, 0.0),), t1=2.0, t2=1.0)


def test_rtt_ceiling_components():
    assert rtt_ceiling(270.0) == pytest.approx(2 * 270 / LIGHTSPEED + DEFAULT_PROCESSING_BUDGET)
    assert rtt_ceiling(0.0, processing_budget=1e-6) == pytest.approx(1e-6)


# -------------------------------------------------------------------- angles

@pytest.mark.parametrize("a,b,want", [
    (0.0, 0.0, 0.0),
    (350.0, 10.0, 20.0),
    (10.0, 350.0, 20.0),
    (0.0, 180.0, 180.0),
    (90.0, 45.0, 45.0),
])
def test_angular_distance_wraps(a, b, want):
    assert angular_distance(a, b) == pytest.approx(want)


@given(st.floats(0, 359.999), st.floats(0, 359.999))
def test_angular_distance_bounded_and_symmetric(a, b):
    d = angular_distance(a, b)
    assert 0.0 <= d <= 180.0
    assert d == pytest.approx(angular_distance(b, a))


# ---------------------------------------------------------------- thresholds

def make_evidence(**overrides):
    base = dict(d_radial=100.0, aoa=40.0, rtt=1e-6, d_max=230.0,
                aoa_center=40.0, aoa_halfwidth=45.0, rtt_max=6.5e-6)
    base.update(overrides)
    return RangingEvidence(**base)


def test_validate_clean_evidence_passes():
    result = validate_evidence(make_evidence())
    assert result.passed
    assert result.reasons == ()


def test_validate_boundary_values_pass():
    # thresholds are inclusive
    result = validate_evidence(make_evidence(d_radial=230.0, rtt=6.5e-6, aoa=85.0))
    assert result.passed


def test_validate_each_violation_is_named():
    assert validate_evidence(make_evidence(d_radial=231.0)).reasons == (REASON_DISTANCE,)
    assert validate_evidence(make_evidence(rtt=7e-6)).reasons == (REASON_RTT,)
    assert validate_evidence(make_evidence(aoa=100.0)).reasons == (REASON_AOA,)


def test_validate_reports_all_violations_in_order():
    result = validate_evidence(make_evidence(d_radial=300.0, rtt=1e-3, aoa=200.0))
    assert not result.passed
    assert result.reasons == (REASON_DISTANCE, REASON_RTT, REASON_AOA)


def test_validate_monotone_in_distance():
    # once failing, moving further away never turns the verdict around
    for d in (231.0, 300.0, 1000.0):
        assert not validate_evidence(make_evidence(d_radial=d)).passed


# ---------------------------------------------------------------------- scan

@pytest.mark.parametrize("distance,want_range,want_attempts", [
    (200.0, 230.0, 1),
    (240.0, 250.0, 2),
    (260.0, 270.0, 3),
    (230.0, 230.0, 1),   # boundary reaches
])
def test_scan_steps_up_through_ranges(distance, want_range, want_attempts):
    result = scan_for_neighbor(PLAN, distance)
    assert result == ScanResult(want_range, want_attempts)


def test_scan_out_of_reach_exhausts_schedule():
    assert scan_for_neighbor(PLAN, 271.0) == ScanResult(None, 3)


def test_scan_full_power_single_attempt():
    assert scan_for_neighbor(FULL, 260.0) == ScanResult(270.0, 1)
    assert scan_for_neighbor(FULL, 280.0) == ScanResult(None, 1)


def test_scan_rejects_negative_distance():
    with pytest.raises(ValueError):
        scan_for_neighbor(PLAN, -1.0)


def test_scan_plan_validation():
    with pytest.raises(ValueError):
        ScanPlan(ranges=(), ranging=True)
    with pytest.raises(ValueError):
        ScanPlan(ranges=(250.0, 230.0), ranging=True)


def _above(distance):
    return math.nextafter(distance, math.inf)


@pytest.mark.parametrize("plan,table", [
    (PLAN, [(230.0, 230.0, 1), (_above(230.0), 250.0, 2), (250.0, 250.0, 2),
            (_above(250.0), 270.0, 3), (270.0, 270.0, 3), (_above(270.0), None, 3),
            (1e9, None, 3)]),
    (FULL, [(230.0, 270.0, 1), (_above(230.0), 270.0, 1), (270.0, 270.0, 1),
            (_above(270.0), None, 1), (1e9, None, 1)]),
], ids=["ranging", "full-power"])
def test_shared_scan_results_equal_fresh_ones_at_every_boundary(plan, table):
    for distance, want_range, want_attempts in table:
        assert scan_for_neighbor(plan, distance) == ScanResult(want_range, want_attempts)


@pytest.mark.parametrize("plan,buckets", [
    (PLAN, [(0.0, 230.0), (_above(230.0), 250.0), (_above(250.0), 270.0),
            (_above(270.0), 1e9)]),
    (FULL, [(0.0, 270.0), (_above(270.0), 1e9)]),
], ids=["ranging", "full-power"])
def test_distances_in_one_bucket_get_the_identical_result(plan, buckets):
    # A plan builds its results once; they are frozen, so scans share them.
    results = [scan_for_neighbor(plan, near) for near, _ in buckets]
    for (near, far), result in zip(buckets, results):
        assert scan_for_neighbor(plan, far) is result
    assert len({id(result) for result in results}) == len(buckets)


@given(st.floats(0.0, 400.0))
def test_scan_selects_tightest_admissible_range(distance):
    result = scan_for_neighbor(PLAN, distance)
    if distance > PLAN.ranges[-1]:
        assert result.selected_range is None
        assert result.attempts == len(PLAN.ranges)
    else:
        assert result.selected_range == min(r for r in PLAN.ranges if r >= distance)
        assert result.attempts == PLAN.ranges.index(result.selected_range) + 1


# ------------------------------------------------------------- link evidence

def test_evidence_for_link_geometry():
    ev = evidence_for_link(150.0, 30.0, 230.0)
    assert ev.d_radial == 150.0
    assert ev.aoa == 30.0
    assert ev.aoa_center == 30.0
    assert ev.rtt == pytest.approx(2 * 150 / LIGHTSPEED)
    assert ev.rtt_max == pytest.approx(rtt_ceiling(230.0))
    assert validate_evidence(ev).passed


def test_evidence_for_link_noise_offsets():
    ev = evidence_for_link(150.0, 0.0, 230.0,
                           distance_noise=2.5, angle_noise=-10.0, rtt_noise=1e-7)
    assert ev.d_radial == pytest.approx(152.5)
    assert ev.aoa == pytest.approx(350.0)
    assert ev.aoa_center == 0.0  # the sector stays on the expected bearing
    assert ev.rtt == pytest.approx(2 * 150 / LIGHTSPEED + 1e-7)


def test_evidence_for_link_wraps_a_tiny_negative_arrival_angle():
    # 5.0 + -5.000000000000001 is -8.9e-16, and a float modulo rounds that
    # up to exactly 360.0, which used to raise "arrival angle outside [0, 360)"
    assert (5.0 - 5.000000000000001) % 360.0 == 360.0
    ev = evidence_for_link(100.0, 5.0, 250.0, angle_noise=-5.000000000000001)
    assert ev.aoa == 0.0
    assert ev.aoa_center == 5.0
    assert validate_evidence(ev).passed


def test_evidence_for_link_wraps_a_tiny_negative_bearing():
    # the sector centre and the noiseless arrival angle both used to be 360.0
    ev = evidence_for_link(100.0, -1e-17, 250.0)
    assert (ev.aoa, ev.aoa_center) == (0.0, 0.0)
    assert validate_evidence(ev).passed


def test_evidence_for_link_rejects_a_nan_distance():
    # max(0.0, nan) is 0.0, so a NaN distance used to measure as 0 m
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match="distance"):
            evidence_for_link(bad, 0.0, 230.0)
