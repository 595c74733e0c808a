"""Mobility, the event engine, and the network-shape properties."""

import heapq
import math
import random
import statistics
from collections import Counter
from types import SimpleNamespace

import pytest

from sfvsim import simulator
from sfvsim.model import IdPool, NodeProfile, SymmetricId
from sfvsim.simulator import (
    QueueModel,
    Scenario,
    cluster_rects,
    measure_metrics,
    run_scenario,
    step_mobility,
)

from conftest import MODES, SPEEDS, rate_scenario

TERRAIN = (300.0, 300.0)
SPEED_RANGE = (5.0, 50.0)


def roamer(position=(0.0, 0.0), waypoint=None, velocity=(0.0, 0.0), pause=0.0):
    return NodeProfile("n", position, velocity, "honest",
                       IdPool([SymmetricId(1)]), waypoint=waypoint,
                       pause_remaining=pause)


# ------------------------------------------------------------------ mobility

def test_step_toward_waypoint_345_triangle():
    node = roamer(position=(0.0, 0.0), waypoint=(30.0, 40.0), velocity=(3.0, 4.0))
    moved = step_mobility(node, 1.0, TERRAIN, SPEED_RANGE, random.Random(0))
    assert moved.position == pytest.approx((3.0, 4.0))
    assert moved.velocity == pytest.approx((3.0, 4.0))
    assert moved.waypoint == (30.0, 40.0)


def test_step_zero_speed_keeps_position():
    node = roamer(position=(10.0, 10.0), waypoint=(100.0, 100.0), velocity=(0.0, 0.0))
    moved = step_mobility(node, 1.0, TERRAIN, (0.0, 0.0), random.Random(0))
    assert moved.position == (10.0, 10.0)


def test_step_arrival_lands_exactly_on_waypoint():
    node = roamer(position=(0.0, 0.0), waypoint=(3.0, 4.0), velocity=(30.0, 40.0))
    moved = step_mobility(node, 1.0, TERRAIN, SPEED_RANGE, random.Random(0))
    assert moved.position == (3.0, 4.0)
    assert moved.waypoint is None
    assert moved.velocity == (0.0, 0.0)


def test_step_arrival_starts_pause():
    node = roamer(position=(0.0, 0.0), waypoint=(1.0, 0.0), velocity=(10.0, 0.0))
    paused = step_mobility(node, 1.0, TERRAIN, SPEED_RANGE, random.Random(0),
                           pause_s=0.5)
    assert paused.pause_remaining == 0.5
    # pausing burns time without moving
    still = step_mobility(paused, 0.3, TERRAIN, SPEED_RANGE, random.Random(0),
                          pause_s=0.5)
    assert still.position == (1.0, 0.0)
    assert still.pause_remaining == pytest.approx(0.2)


def test_step_draws_exactly_three_variates_per_leg():
    rng = random.Random(77)
    shadow = random.Random(77)
    node = roamer(position=(150.0, 150.0))
    step_mobility(node, 0.025, TERRAIN, SPEED_RANGE, rng)
    shadow.uniform(0.0, TERRAIN[0])
    shadow.uniform(0.0, TERRAIN[1])
    shadow.uniform(*SPEED_RANGE)
    assert rng.getstate() == shadow.getstate()


def test_step_requires_positive_dt():
    with pytest.raises(ValueError):
        step_mobility(roamer(), 0.0, TERRAIN, SPEED_RANGE, random.Random(0))


def test_walk_stays_inside_terrain():
    rng = random.Random(3)
    node = roamer(position=(150.0, 150.0))
    for _ in range(4_000):
        node = step_mobility(node, 0.025, TERRAIN, SPEED_RANGE, rng)
        x, y = node.position
        assert 0.0 <= x <= TERRAIN[0]
        assert 0.0 <= y <= TERRAIN[1]


def test_long_walk_concentrates_toward_center():
    # well-known waypoint bias: time-averaged positions pull to the middle
    rng = random.Random(11)
    node = roamer(position=(0.0, 0.0))
    center = (TERRAIN[0] / 2, TERRAIN[1] / 2)
    distances = []
    for _ in range(40_000):
        node = step_mobility(node, 0.025, TERRAIN, SPEED_RANGE, rng)
        distances.append(math.dist(node.position, center))
    # uniform placement would average ~0.3826 * side on a square
    uniform_mean = 0.3826 * TERRAIN[0]
    assert statistics.fmean(distances) < 0.9 * uniform_mean


def test_cluster_rects_disjoint_and_sized():
    sc = Scenario(clusters=2, nodes_per_cluster=20)
    rects = cluster_rects(sc)
    assert len(rects) == 2
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = rects
    assert ax1 - ax0 == pytest.approx(300.0)
    assert ay1 - ay0 == pytest.approx(300.0)
    # no horizontal overlap between the two cells
    assert ax1 <= bx0 or bx1 <= ax0


# ------------------------------------------------------------ engine basics

def desk(seed=1, **kw):
    base = dict(clusters=2, nodes_per_cluster=20, master_seed=seed)
    base.update(kw)
    return Scenario(**base)


def test_equal_seeds_reproduce_metrics_exactly():
    a = measure_metrics(run_scenario(desk(seed=9, sfv_mode="sfv-ranging"), 20.0))
    b = measure_metrics(run_scenario(desk(seed=9, sfv_mode="sfv-ranging"), 20.0))
    assert a == b


def test_different_seeds_differ():
    a = measure_metrics(run_scenario(desk(seed=1), 20.0))
    b = measure_metrics(run_scenario(desk(seed=2), 20.0))
    assert a != b


@pytest.mark.parametrize("kw", [
    dict(sfv_mode="off"),
    dict(sfv_mode="sfv", tx_rate_kbps=2000.0),
    dict(sfv_mode="sfv-ranging", attacker_fraction=0.1, attacker_kind="mixed",
         neighbor_verification=True),
])
def test_packet_conservation_is_exact(kw):
    m = measure_metrics(run_scenario(desk(seed=4, **kw), 30.0))
    assert m.generated == m.delivered + m.dropped_queue + m.dropped_range + m.in_flight


def test_engine_starts_legs_through_public_step_mobility(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].node_id)
        return step_mobility(*args, **kwargs)

    monkeypatch.setattr(simulator, "step_mobility", counting)
    sc = desk(seed=4)
    duration = 2.0
    nodes = sc.clusters * sc.nodes_per_cluster
    steps = round(duration / sc.mobility_step_s)
    run_scenario(sc, duration)
    assert len(set(calls)) == nodes  # every node draws its first leg
    assert len(calls) < nodes * steps / 10  # mid-leg steps stay inline


def test_one_generation_event_per_tick_for_all_flows(monkeypatch):
    pushed = Counter()

    def counting(heap, item):
        pushed[item[2]] += 1
        heapq.heappush(heap, item)

    monkeypatch.setattr(simulator, "heapq",
                        SimpleNamespace(heappush=counting, heappop=heapq.heappop))
    sc = desk(seed=2, flows_per_cluster=4, tx_rate_kbps=600.0)
    run = run_scenario(sc, 10.0)
    flows = sc.clusters * sc.flows_per_cluster
    ticks = run.generated // flows
    assert run.generated == ticks * flows > 0
    generation = sum(n for kind, n in pushed.items() if kind not in ("svc", "mob", "atk"))
    assert generation == ticks


def test_arrivals_dispatch_only_onto_an_idle_channel(monkeypatch):
    # At 2000 kbps the channel is saturated, so an arrival almost always
    # finds it busy.  Only the once-per-step dispatch of each cluster's
    # channel may still find it busy.
    busy = 0
    dispatch = simulator._Engine._dispatch

    def counting(engine, cluster):
        nonlocal busy
        busy += engine.channels[cluster].job is not None
        dispatch(engine, cluster)

    monkeypatch.setattr(simulator._Engine, "_dispatch", counting)
    sc = rate_scenario(2, "sfv", 2000.0)
    duration = 60.0
    run_scenario(sc, duration)
    mobility_events = round(duration / sc.mobility_step_s) + 1  # steps 0..N
    assert 0 < busy <= mobility_events * sc.clusters


def test_zero_traffic_flagged():
    m = measure_metrics(run_scenario(desk(tx_rate_kbps=0.0), 10.0))
    assert m.no_traffic
    assert m.generated == 0
    assert m.throughput_kbps == 0.0
    assert m.pdr == 1.0


def test_mode_alias_normalized():
    sc = desk(sfv_mode="sfv-with-ranging")
    assert sc.sfv_mode == "sfv-ranging"


def test_throughput_never_exceeds_offered_load():
    sc = desk(tx_rate_kbps=600.0, flows_per_cluster=2)
    m = measure_metrics(run_scenario(sc, 20.0))
    offered = 600.0 * 2 * 2  # per-source rate x flows x clusters
    assert m.throughput_kbps <= offered


@pytest.mark.parametrize("kw", [
    dict(tx_rate_kbps=-1.0),
    dict(sfv_mode="totally-on"),
    dict(nodes_per_cluster=0),
    dict(node_speed=(10.0, 5.0)),
    dict(radio_ranges=(250.0, 230.0)),
    dict(mobility="brownian"),
    dict(attacker_fraction=1.5),
    dict(attacker_kind="replay"),  # needs a replay profile
    dict(discovery_interval_s=0.0),
    dict(pause_s=math.nan),
    dict(radio_ranges=(230.0, math.inf)),
    dict(noise_distance_m=math.inf),
])
def test_invalid_scenarios_rejected(kw):
    if "attacker_kind" in kw:
        kw = dict(kw, attacker_fraction=0.1)
    with pytest.raises(ValueError):
        desk(**kw)


def test_queue_model_validation():
    with pytest.raises(ValueError):
        QueueModel(capacity=0)
    with pytest.raises(ValueError):
        QueueModel(service_rate_kbps=0.0)
    with pytest.raises(ValueError):
        QueueModel(service_rate_kbps=math.inf)


def test_ranging_mode_scans_and_shakes_more():
    kw = dict(seed=6, cluster_size=(400.0, 400.0), flows_per_cluster=4)
    plain = measure_metrics(run_scenario(desk(sfv_mode="sfv", **kw), 30.0))
    ranging = measure_metrics(run_scenario(desk(sfv_mode="sfv-ranging", **kw), 30.0))
    assert ranging.scan_attempts >= plain.scan_attempts
    assert ranging.handshakes >= plain.handshakes
    assert plain.handshakes > 0


# ----------------------------------------------------------- verdict counts

def test_all_honest_clusters_have_no_suspects():
    m = measure_metrics(run_scenario(desk(seed=3, neighbor_verification=True), 10.0))
    assert len(m.suspicious_per_cluster) == 2
    assert all(suspicious == 0 for suspicious in m.suspicious_per_cluster)
    assert all(friendly > 0 for friendly in m.friendly_per_cluster)


def test_planted_attackers_are_counted_per_cluster():
    sc = desk(seed=8, attacker_fraction=0.1, attacker_kind="sybil",
              neighbor_verification=True)
    metrics = measure_metrics(run_scenario(sc, 10.0))
    planted = round(0.1 * 20)
    for friendly, suspicious in zip(metrics.friendly_per_cluster,
                                    metrics.suspicious_per_cluster):
        assert suspicious == planted
        assert friendly + suspicious <= 20
    # forged ids lose every handshake, so every recorded attack is caught
    assert metrics.attack_attempts > 0
    assert metrics.empirical_detection_rate == 1.0


def test_wormhole_attackers_detected_by_thresholds():
    sc = desk(seed=12, attacker_fraction=0.1, attacker_kind="wormhole",
              tunnel_latency_s=1e-5)
    m = measure_metrics(run_scenario(sc, 10.0))
    assert m.attack_attempts > 0
    assert m.empirical_detection_rate == 1.0


def test_full_scale_counts_have_the_right_order():
    # full-size deployment, shortened span: most nodes verify friendly and
    # the planted minority is flagged; exact figures are seed business
    sc = Scenario(master_seed=5, sfv_mode="sfv", tx_rate_kbps=200.0,
                  attacker_fraction=0.05, attacker_kind="mixed",
                  neighbor_verification=True)
    m = measure_metrics(run_scenario(sc, 4.0))
    assert len(m.suspicious_per_cluster) == 10
    total_friendly = sum(m.friendly_per_cluster)
    total_suspicious = sum(m.suspicious_per_cluster)
    assert 10 <= total_suspicious <= 80
    assert total_friendly >= 5 * total_suspicious
    for friendly, suspicious in zip(m.friendly_per_cluster, m.suspicious_per_cluster):
        assert friendly + suspicious <= 80
        assert suspicious >= 1


# --------------------------------------------------- network-shape invariants

def test_mode_ordering_at_saturation_20_runs(saturation_runs_20):
    data = saturation_runs_20
    runs = len(data["off"])
    assert runs == 20
    thr_ok = sum(
        data["off"][i].throughput_kbps >= data["sfv"][i].throughput_kbps
        >= data["sfv-ranging"][i].throughput_kbps
        for i in range(runs)
    )
    delay_ok = sum(
        data["off"][i].mean_delay_s <= data["sfv"][i].mean_delay_s
        <= data["sfv-ranging"][i].mean_delay_s
        for i in range(runs)
    )
    assert thr_ok >= 18
    assert delay_ok >= 18


def test_pdr_monotone_in_speed_averaged(speed_sweep):
    for mode in MODES:
        averaged = [
            statistics.fmean(m.pdr for m in speed_sweep[mode][speed])
            for speed in SPEEDS
        ]
        # allow one delivered packet of slack per point
        slack = 1.0 / speed_sweep[mode][SPEEDS[0]][0].generated
        for faster, slower in zip(averaged, averaged[1:]):
            assert slower <= faster + slack, (mode, averaged)
