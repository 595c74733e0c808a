"""Mobility, the event engine, and the network-shape properties."""

import hashlib
import itertools
import math
import random
import statistics
from dataclasses import replace

import pytest

from sfvsim import model, simulator
from sfvsim.adversary import ReplayProfile
from sfvsim.analytics import detection_rate
from sfvsim.simulator import (
    MAX_QUEUED,
    SFV_MODES,
    RandomWaypoint,
    Scenario,
    check_run,
    cluster_rects,
    leg_variates,
    run_scenario,
    step_mobility,
)

from conftest import MODES, SPEEDS, rate_scenario

TERRAIN = (0.0, 0.0, 300.0, 300.0)  # x0, y0, x1, y1
SPEED_RANGE = (5.0, 50.0)


def walker(dt=0.025, speed_range=SPEED_RANGE, pause_s=0.0, seed=0, rects=(TERRAIN,)):
    return RandomWaypoint(list(rects), random.Random(seed), dt, speed_range, pause_s)


def on_leg(walk, to, speed, start=1, origin=(0.0, 0.0)):
    """Put node 0 on a first leg from origin to `to`, moving from step `start`."""
    walk.legs[0] = walk.leg(1, start, *origin, *to, speed)
    return walk


def at(walk, step, i=0):
    walk.advance([i], step)
    return walk.x[i], walk.y[i]


# ------------------------------------------------------------------ mobility

def test_step_toward_waypoint_345_triangle():
    walk = on_leg(walker(dt=1.0), (30.0, 40.0), 5.0)
    assert at(walk, 1) == pytest.approx((3.0, 4.0))
    # start + unit * speed * k * dt, not an accumulated sum
    assert at(walk, 4) == (0.6 * (5.0 * 4), 0.8 * (5.0 * 4))


def test_step_zero_speed_keeps_position():
    walk = walker(speed_range=(0.0, 0.0))
    placed = (walk.x[0], walk.y[0])
    for step in (1, 2, 1000, 10 ** 9):
        assert at(walk, step) == placed
    assert walk.legs[0].index == 1  # the first leg never ends


def test_step_arrival_lands_exactly_on_waypoint():
    # 50 m at 5 m per step: steps 1..9 fall short, step 10 arrives
    walk = on_leg(walker(dt=1.0), (30.0, 40.0), 5.0)
    assert at(walk, 9) == pytest.approx((27.0, 36.0))
    assert at(walk, 10) == (30.0, 40.0)
    # a step longer than the leg lands on the waypoint, too
    assert at(on_leg(walker(dt=1.0), (3.0, 4.0), 50.0), 1) == (3.0, 4.0)


def test_arrival_is_the_first_step_whose_travel_covers_the_distance():
    walk = walker()
    rng = random.Random(3)
    for _ in range(2000):
        origin = (rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0))
        to = (rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0))
        leg = walk.leg(1, 7, *origin, *to, rng.uniform(*SPEED_RANGE))
        k = leg.arrive - leg.start + 1
        distance = math.dist(origin, to)
        assert leg.length * k >= distance
        assert k == 1 or leg.length * (k - 1) < distance


def test_step_arrival_starts_pause():
    walk = on_leg(walker(dt=0.3, pause_s=0.5), (1.0, 0.0), 10.0)
    leg = walk.legs[0]
    assert leg.arrive == 1
    assert leg.next_start == 1 + 1 + math.ceil(0.5 / 0.3) == 4
    # pausing: on the waypoint, standing still, no new leg drawn
    for step in (1, 2, 3):
        assert at(walk, step) == (1.0, 0.0)
        assert walk.legs[0] is leg
    at(walk, 4)
    assert (walk.legs[0].index, walk.legs[0].start) == (2, 4)
    assert (walk.x[0], walk.y[0]) != (1.0, 0.0)
    # without a pause the next leg moves on the step after arrival
    walk = on_leg(walker(dt=0.3), (1.0, 0.0), 10.0)
    assert walk.legs[0].next_start == 2


def test_step_draws_exactly_three_variates_per_leg():
    rng = random.Random(77)
    walk = walker(seed=77, rects=(TERRAIN, TERRAIN))
    # one 64-bit seed per node, drawn from the mobility stream in index order
    assert walk.seeds == [rng.getrandbits(64).to_bytes(8, "little") for _ in range(2)]
    seed = walk.seeds[0]
    u, v, _ = leg_variates(seed, 0)
    assert (walk.x[0], walk.y[0]) == (300.0 * u, 300.0 * v)  # leg 0 is the placement
    legs = {}
    step = 0
    while len(legs) < 6:
        step += 1
        walk.advance([0], step)
        legs[walk.legs[0].index] = walk.legs[0]
    for j, leg in legs.items():
        u, v, w = leg_variates(seed, j)
        assert (leg.wx, leg.wy) == (300.0 * u, 300.0 * v)
        assert leg.length == (5.0 + 45.0 * w) * 0.025
        assert all(0.0 <= x < 1.0 and (x * 2 ** 53).is_integer() for x in (u, v, w))
    assert leg_variates(seed, 1) != leg_variates(seed, 2)
    assert leg_variates(seed, 1) != leg_variates(walk.seeds[1], 1)


def test_step_requires_positive_dt():
    with pytest.raises(ValueError):
        walker(dt=0.0)


def test_walk_stays_inside_terrain():
    walk = walker(seed=3)
    for step in range(1, 4_001):
        x, y = at(walk, step)
        assert TERRAIN[0] <= x <= TERRAIN[2]
        assert TERRAIN[1] <= y <= TERRAIN[3]


def test_long_walk_concentrates_toward_center():
    # well-known waypoint bias: time-averaged positions pull to the middle
    walk = walker(seed=11)
    center = (150.0, 150.0)
    distances = [math.dist(at(walk, step), center) for step in range(1, 40_001)]
    # uniform placement would average ~0.3826 * side on a square
    uniform_mean = 0.3826 * 300.0
    assert statistics.fmean(distances) < 0.9 * uniform_mean


def test_jumping_to_a_step_equals_stepping_there():
    rects = (TERRAIN, (300.0, 0.0, 600.0, 300.0), TERRAIN)
    stepped = walker(dt=0.25, pause_s=0.6, seed=5, rects=rects)
    jumped = walker(dt=0.25, pause_s=0.6, seed=5, rects=rects)
    sparse = walker(dt=0.25, pause_s=0.6, seed=5, rects=rects)
    for step in range(1, 2_001):
        stepped.advance(range(3), step)
        if step % 97 == 0:
            sparse.advance([1], step)  # one node read now and then
    jumped.advance(range(3), 2_000)
    sparse.advance(range(3), 2_000)
    assert stepped.legs[0].index > 20
    for walk in (jumped, sparse):
        assert (walk.x, walk.y, walk.legs) == (stepped.x, stepped.y, stepped.legs)


def test_cluster_rects_disjoint_and_sized():
    sc = Scenario(clusters=2, nodes_per_cluster=20)
    rects = cluster_rects(sc)
    assert len(rects) == 2
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = rects
    assert ax1 - ax0 == pytest.approx(300.0)
    assert ay1 - ay0 == pytest.approx(300.0)
    # no horizontal overlap between the two cells
    assert ax1 <= bx0 or bx1 <= ax0


def test_cluster_as_large_as_its_cell_fills_it():
    sc = Scenario(clusters=4, cluster_width=1500.0, cluster_height=1500.0)
    assert cluster_rects(sc) == [(0.0, 0.0, 1500.0, 1500.0), (1500.0, 0.0, 3000.0, 1500.0),
                                 (0.0, 1500.0, 1500.0, 3000.0),
                                 (1500.0, 1500.0, 3000.0, 3000.0)]


# ------------------------------------------------------------ engine basics

def desk(seed=1, **kw):
    base = dict(clusters=2, nodes_per_cluster=20, master_seed=seed)
    base.update(kw)
    return Scenario(**base)


def test_equal_seeds_reproduce_metrics_exactly():
    a = run_scenario(desk(seed=9, sfv_mode="sfv-ranging"), 20.0)
    b = run_scenario(desk(seed=9, sfv_mode="sfv-ranging"), 20.0)
    assert a == b


def test_different_seeds_differ():
    a = run_scenario(desk(seed=1), 20.0)
    b = run_scenario(desk(seed=2), 20.0)
    assert a != b


@pytest.mark.parametrize("kw", [
    dict(sfv_mode="off"),
    dict(sfv_mode="sfv", tx_rate_kbps=2000.0),
    dict(sfv_mode="sfv-ranging", attacker_fraction=0.1, attacker_kind="mixed",
         neighbor_verification=True),
])
def test_packet_conservation_is_exact(kw):
    m = run_scenario(desk(seed=4, **kw), 30.0)
    assert m.generated == m.delivered + m.dropped_queue + m.dropped_range + m.in_flight


def test_engine_advances_every_node_at_epochs_and_only_due_endpoints_between(monkeypatch):
    # While verification has work, an epoch brings every node up to date;
    # on every other step only the endpoints of the flows due then move.  A
    # connected flow found with slack to its range skips exactly the steps
    # that slack covers, and its link holds on each of them.  A step with
    # no node to move calls no step_mobility.
    moved, examined, verifying = [], [], []
    handle_mob = simulator._Engine._handle_mob

    def counting(walk, nodes, step):
        moved.append((step, list(nodes)))
        step_mobility(walk, nodes, step)

    def mob(engine, step):
        due = [i for i, flow in enumerate(engine.flows) if flow.due <= step]
        verifying.append(bool(engine.unverified))
        handle_mob(engine, step)
        examined.append((due, [(f.connected, f.due, f.selected_range) for f in engine.flows]))

    monkeypatch.setattr(simulator, "step_mobility", counting)
    monkeypatch.setattr(simulator._Engine, "_handle_mob", mob)
    sc = desk(seed=4, neighbor_verification=True)
    duration = 8.0  # verification runs out of pairs before the end
    engine = simulator._Engine(sc, duration)
    engine.execute()
    steps = round(duration / sc.mobility_step_s)
    moving = [step for step in range(1, steps + 1)
              if examined[step][0] or (step % engine.epoch_every == 0 and verifying[step])]
    assert [step for step, _ in moved] == moving
    assert len(moving) < steps
    everyone = list(range(sc.clusters * sc.nodes_per_cluster))
    flows = engine.flows
    at_epochs = [nodes for step, nodes in moved if step % engine.epoch_every == 0]
    working = at_epochs.count(everyone)
    assert 0 < working < len(at_epochs)
    assert at_epochs[:working] == [everyone] * working
    for step, nodes in moved:
        if nodes != everyone:
            due = examined[step][0]
            assert nodes == [node for i in due for node in (flows[i].src, flows[i].dst)]

    fresh = simulator._Engine(sc, duration)
    distance = []
    for step in range(steps + 1):
        fresh.walk.advance(fresh.every_node, step)
        distance.append([fresh._distance(flow.src, flow.dst) for flow in flows])
    holds = []
    for step, (due, states) in enumerate(examined):
        for i in due:
            connected, next_due, selected = states[i]
            if connected and next_due > step + 1:
                hold = range(step + 1, int(min(next_due, steps + 1)))
                slack = selected - distance[step][i] - engine.round_off
                assert next_due - step - 1 == slack // engine.closing
                assert all(i not in examined[t][0] for t in hold)
                assert all(distance[t][i] <= selected for t in hold)
                holds.append(len(hold))
    assert max(holds) >= 20
    assert sum(holds) > steps * len(flows) // 2


# Fast nodes on short ranges over a slow channel: links break and form all
# run long, data jobs outlast a mobility step, and handshakes queue.
BREAKING = dict(cluster_width=300.0, cluster_height=300.0, flows_per_cluster=4,
                queue_capacity=5, radio_ranges=(100.0, 150.0), node_speed_min=40.0,
                node_speed_max=100.0, channel_capacity_kbps=150.0)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kw", [
    dict(sfv_mode="off"),
    dict(sfv_mode="sfv", pause_s=0.4),
    dict(sfv_mode="sfv-ranging", attacker_fraction=0.1, attacker_kind="mixed",
         neighbor_verification=True),
    dict(sfv_mode="sfv", node_speed_min=0.0, node_speed_max=0.0),
    dict(sfv_mode="sfv-ranging", node_speed_min=0.0, pause_s=0.1,
         terrain_width=2e9, terrain_height=2e9),
], ids=["off", "paused-sfv", "attacked-ranging", "motionless", "far-ranging"])
def test_kinetic_checks_match_checking_every_flow_on_every_step(kw, seed):
    # An infinite closing bound leaves no link any slack, so every flow is
    # due on every step; the kinetic run must produce the same metrics
    # from fewer link checks.
    results, checks = [], []
    for closing in (None, math.inf):
        engine = simulator._Engine(desk(seed=seed, **{**BREAKING, **kw}), 10.0)
        if closing is not None:
            engine.closing = closing
        count = [0]
        measure = engine._distance

        def counting(a, b):
            count[0] += 1
            return measure(a, b)

        engine._distance = counting
        results.append(engine.execute())
        checks.append(count[0])
    kinetic, every = results
    assert kinetic == every
    assert kinetic.delivered > 0
    assert checks[0] < checks[1]


def test_the_hold_absorbs_rounding_far_from_the_origin():
    # Near 1.5e11 m a coordinate's ulp is 3e-5 m.  Nodes running along a
    # thin strip at the top speed stretch a link by closing per step plus
    # that rounding, more than a fixed 1e-6 m would cover; round_off covers
    # it with room to spare.
    sc = Scenario(terrain_width=3e11, terrain_height=3e11, clusters=1, cluster_width=300.0,
                  cluster_height=1e-6, nodes_per_cluster=8, node_speed_min=47.3,
                  node_speed_max=47.3, mobility_step_s=0.0273)
    engine = simulator._Engine(sc, 10.0)
    nodes = engine.every_node
    pairs = [(a, b) for a in nodes for b in nodes if a < b]
    distance = []
    for step in range(300):
        engine.walk.advance(nodes, step)
        distance.append([engine._distance(a, b) for a, b in pairs])
    worst = max(distance[t][k] - distance[s][k] - (t - s) * engine.closing
                for s in range(300) for t in range(s + 1, min(300, s + 20))
                for k in range(len(pairs)))
    assert 1e-6 < worst < engine.round_off / 1000


def test_positions_do_not_depend_on_mode_verification_or_attackers():
    positions = []
    for kw in (dict(sfv_mode="off"),
               dict(sfv_mode="sfv-ranging", neighbor_verification=True,
                    attacker_fraction=0.1, attacker_kind="mixed")):
        engine = simulator._Engine(desk(seed=5, **kw), 3.0)
        engine.execute()
        engine.walk.advance(engine.every_node, 137)
        positions.append((engine.x, engine.y))
    assert positions[0] == positions[1]


def test_steps_and_waves_run_once_each_in_time_order(monkeypatch):
    # execute walks mobility steps and attack waves by their own counters.
    # At the default intervals every wave ties a step (wave w, step 40 w),
    # and the wave runs first.
    ran = []
    handle_mob = simulator._Engine._handle_mob
    handle_atk = simulator._Engine._handle_atk

    def mob(engine, step):
        ran.append((engine.now, "step", step))
        handle_mob(engine, step)

    def atk(engine):
        ran.append((engine.now, "wave"))
        handle_atk(engine)

    monkeypatch.setattr(simulator._Engine, "_handle_mob", mob)
    monkeypatch.setattr(simulator._Engine, "_handle_atk", atk)
    sc = replace(rate_scenario(2, "sfv-ranging", 2000.0), attacker_fraction=0.1)
    duration = 10.0
    m = run_scenario(sc, duration)
    steps = [event for event in ran if event[1] == "step"]
    waves = [event for event in ran if event[1] == "wave"]
    assert steps == [(k * sc.mobility_step_s, "step", k)
                     for k in range(round(duration / sc.mobility_step_s) + 1)]
    assert waves == [(w * sc.attack_interval_s, "wave")
                     for w in range(1, math.floor(duration / sc.attack_interval_s) + 1)]
    assert [event[0] for event in ran] == sorted(event[0] for event in ran)
    assert ran.index((1.0, "wave")) + 1 == ran.index((1.0, "step", 40))
    assert m.attack_attempts > 0 and m.generated > 50 * len(ran)


def test_zero_traffic_flagged():
    m = run_scenario(desk(tx_rate_kbps=0.0), 10.0)
    assert m.no_traffic
    assert m.generated == 0
    assert m.throughput_kbps == 0.0
    assert m.pdr == 1.0


def test_zero_traffic_runs_skip_the_data_plane():
    # At a zero rate no arrival ever falls due, so no channel runs a tick.
    # Handshakes still run on the channels, and the run still scans, shakes
    # hands and meets attackers.
    kw = dict(cluster_width=400.0, cluster_height=400.0, flows_per_cluster=4,
              sfv_mode="sfv-ranging", neighbor_verification=True, attacker_fraction=0.1)
    engine = simulator._Engine(desk(seed=3, tx_rate_kbps=0.0, **kw), 10.0)
    m = engine.execute()
    assert [channel.tick for channel in engine.channels] == [1, 1]
    assert (m.generated, m.handshakes, m.attack_attempts) == (0, 325, 40)
    assert hashlib.sha256(repr(m).encode()).hexdigest() == (
        "fca0a80b551fd23b105f7411f098b371df8ea149e41746f4afe5a751ac80e7d1")
    engine = simulator._Engine(desk(seed=3, tx_rate_kbps=200.0, **kw), 1.0)
    engine.execute()
    assert all(channel.tick > 1 for channel in engine.channels)


def test_a_handshake_ending_on_a_step_reads_that_steps_positions(monkeypatch):
    # With one radio range every handshake lasts exactly one step and,
    # with no traffic, starts on the step that queued it, so it ends on
    # the next step's instant.  That step runs first, and the handshake's
    # link check reads its positions.
    dt = 0.03125
    sc = Scenario(clusters=1, nodes_per_cluster=10, flows_per_cluster=1, sfv_mode="sfv",
                  radio_ranges=(60.0,), tx_rate_kbps=0.0, mobility_step_s=dt,
                  discovery_interval_s=dt, handshake_base_s=dt, master_seed=2)
    queued, ended = [], []
    try_connect = simulator._Engine._try_connect
    handshake = simulator._Engine._handshake

    def connecting(engine, flow, distance):
        try_connect(engine, flow, distance)
        if flow.handshaking:
            queued.append(engine.mob_step)

    def shaking(engine, responder, evidence):
        flow = engine.flows[0]
        ended.append((engine.mob_step, engine.x[flow.src], engine.y[flow.src],
                      engine.x[flow.dst], engine.y[flow.dst]))
        return handshake(engine, responder, evidence)

    monkeypatch.setattr(simulator._Engine, "_try_connect", connecting)
    monkeypatch.setattr(simulator._Engine, "_handshake", shaking)
    m = run_scenario(sc, 30.0)
    assert m.handshakes == len(ended) == 3
    assert [step for step, *_ in ended] == [step + 1 for step in queued[:len(ended)]]
    fresh = simulator._Engine(sc, 30.0)
    flow = fresh.flows[0]
    for step, *seen in ended:
        fresh.walk.advance([flow.src, flow.dst], step)
        assert seen == [fresh.x[flow.src], fresh.y[flow.src], fresh.x[flow.dst], fresh.y[flow.dst]]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_service_ending_at_a_tick_frees_its_slot_for_that_tick(seed):
    # Packets every 2^-8 s and a 2^-9 s service are exact in binary, so the
    # channel, serving a tick's two packets back to back, ends the second
    # at the very instant the next tick's packets arrive.  A data service's
    # end runs before that tick's arrivals, so one-packet queues always
    # have room.
    sc = Scenario(clusters=1, nodes_per_cluster=10, cluster_width=100.0,
                  cluster_height=100.0, sfv_mode="off", flows_per_cluster=2,
                  queue_capacity=1, tx_rate_kbps=1048.576,
                  channel_capacity_kbps=2097.152, master_seed=seed)
    m = run_scenario(sc, 5.0)
    assert m.dropped_queue == 0
    assert (m.generated, m.delivered, m.in_flight) == (2560, 2558, 2)


def _data_plane_state(channel):
    flows = channel.flows
    return ([(list(f.queue), f.tick, f.delivered, f.dropped_range, f.total_delay, f.connected)
             for f in flows],
            (channel.tick, channel.done, channel.rr,
             None if channel.job is None else flows.index(channel.job)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_channel_drained_in_pieces_ends_where_one_drain_ends(seed):
    # A channel that holds no handshake runs only when woken, so draining
    # it to T in one call must equal draining it in many, cut anywhere:
    # at a tick's instant, at a job's end, or in between.  Three flows of
    # 2^-8 s packets on a 2^-9 s service overload two-packet queues, and
    # job ends tie ticks.
    sc = Scenario(clusters=1, nodes_per_cluster=10, cluster_width=100.0,
                  cluster_height=100.0, sfv_mode="off", flows_per_cluster=3,
                  queue_capacity=2, tx_rate_kbps=1048.576,
                  channel_capacity_kbps=2097.152, master_seed=seed)
    end = 2.0
    whole, pieces = simulator._Engine(sc, end), simulator._Engine(sc, end)
    for engine in (whole, pieces):
        engine._handle_mob(0)  # connects every flow and wakes the channel at 0
    one, many = whole.channels[0], pieces.channels[0]
    assert all(flow.connected for flow in many.flows)
    whole._drain(one, end)
    cuts = random.Random(seed)
    used = set()
    while True:
        kind = cuts.choice(["tick", "job end", "between"])
        arrival = many.tick * pieces.gen_interval
        busy = many.job is not None
        until = {"tick": arrival, "job end": many.done if busy else arrival,
                 "between": min(many.done, arrival) + cuts.uniform(0.0, 0.02)}[kind]
        if until >= end:
            break
        used.add(kind)
        pieces._drain(many, until)
    pieces._drain(many, end)
    for channel in (one, many):
        for flow in channel.flows:
            flow.take(channel.tick, sc.queue_capacity)
    assert _data_plane_state(many) == _data_plane_state(one)
    assert used == {"tick", "job end", "between"}
    # Ticks 1..511 fall before T = 2 s; two packets go out per tick, so
    # the queues overflow.
    assert one.tick == 512
    kept = sum(flow.delivered + len(flow.queue) for flow in one.flows)
    assert 0 < kept < 3 * 511


# Small saturated scenarios for the batched rounds: dyadic intervals make
# service ends tie arrivals exactly, one- to three-packet queues overflow
# between services, deep queues stay backlogged, fast nodes on short
# ranges flip a flow's reach while its queue holds packets, and slow
# handshakes end in the middle of a channel's data phase.
ROUND_CASES = {
    "dyadic-ties": dict(flows_per_cluster=3, queue_capacity=3, sfv_mode="off",
                        tx_rate_kbps=1048.576, channel_capacity_kbps=2097.152),
    "one-packet-queues": dict(flows_per_cluster=4, queue_capacity=1, sfv_mode="sfv-ranging",
                              tx_rate_kbps=1048.576, channel_capacity_kbps=2097.152,
                              radio_ranges=(60.0, 90.0), node_speed_min=40.0),
    "two-packet-queues": dict(flows_per_cluster=4, queue_capacity=2, sfv_mode="sfv",
                              tx_rate_kbps=524.288, channel_capacity_kbps=1048.576,
                              radio_ranges=(60.0, 90.0), node_speed_min=40.0),
    "deep-queues-breaking-links": dict(flows_per_cluster=4, queue_capacity=50,
                                       sfv_mode="sfv-ranging", tx_rate_kbps=400.0,
                                       radio_ranges=(90.0, 120.0), node_speed_min=30.0),
    # Long handshakes fill every queue; the channel then drains them faster
    # than packets arrive, so some rounds see no new packet.
    "backlogs-draining": dict(flows_per_cluster=3, queue_capacity=50, sfv_mode="sfv-ranging",
                              tx_rate_kbps=350.0, handshake_base_s=0.25,
                              radio_ranges=(100.0, 130.0), node_speed_min=40.0),
    # 200-packet queues outlast the time to the drain's limit, so that
    # limit, not the queues, cuts their batches.
    "queues-cut-at-the-drain-limit": dict(flows_per_cluster=3, queue_capacity=200,
                                          sfv_mode="sfv-ranging", tx_rate_kbps=700.0,
                                          radio_ranges=(90.0, 120.0), node_speed_min=30.0),
    # 1000-packet queues on a wide and on a narrow channel: links break
    # while their queues hold hundreds of packets.
    "thirty-flows-deep-queues": dict(flows_per_cluster=30, queue_capacity=1000,
                                     sfv_mode="sfv-ranging", tx_rate_kbps=400.0,
                                     radio_ranges=(90.0, 120.0), node_speed_min=30.0),
    "two-flows-deep-queues": dict(flows_per_cluster=2, queue_capacity=1000,
                                  sfv_mode="sfv-ranging", tx_rate_kbps=700.0,
                                  radio_ranges=(60.0, 90.0), node_speed_min=40.0),
    "handshakes-mid-phase": dict(flows_per_cluster=6, queue_capacity=20, sfv_mode="sfv-ranging",
                                 tx_rate_kbps=300.0, handshake_base_s=0.03125,
                                 discovery_interval_s=0.05, radio_ranges=(100.0, 130.0),
                                 node_speed_min=40.0),
}


def _random_round_case(seed):
    rng = random.Random(seed)
    kw = dict(clusters=rng.randint(1, 2), flows_per_cluster=rng.randint(1, 8),
              queue_capacity=rng.choice([1, 2, 3, 50, rng.randint(4, 49)]),
              sfv_mode=rng.choice(SFV_MODES), radio_ranges=rng.choice([(60.0, 90.0), (150.0,)]),
              node_speed_min=rng.choice([0.0, 40.0]), master_seed=seed)
    if rng.random() < 0.3:
        kw.update(tx_rate_kbps=rng.choice([262.144, 524.288, 1048.576]),
                  channel_capacity_kbps=rng.choice([1048.576, 2097.152]))
    else:
        kw.update(tx_rate_kbps=rng.uniform(100.0, 2000.0),
                  channel_capacity_kbps=rng.uniform(300.0, 4096.0))
    if rng.random() < 0.3:
        kw.update(attacker_fraction=0.1, neighbor_verification=True, noise_distance_m=5.0)
    return kw


def _serve_no_rounds(engine, flows, live, rr, rounds, done, tick, until):
    return rr, done, tick  # leaves every packet to the per-packet loop


def _run_in_rounds(monkeypatch, sc, duration_s, rounds=True):
    """Run sc.  Returns its metrics, every channel's data-plane state and
    how many packets _serve_rounds served."""
    served = [0]
    serve = simulator._Engine._serve_rounds if rounds else _serve_no_rounds

    def counting(engine, flows, live, *args):
        # A connected flow reaches dst: the step that finds it out of range
        # disconnects it, so a batch delivers every packet it serves.
        assert all(flows[index].reach for index in live)
        before = sum(flow.delivered + flow.dropped_range for flow in flows)
        result = serve(engine, flows, live, *args)
        served[0] += sum(flow.delivered + flow.dropped_range for flow in flows) - before
        return result

    with monkeypatch.context() as patch:
        patch.setattr(simulator._Engine, "_serve_rounds", counting)
        engine = simulator._Engine(sc, duration_s)
        m = engine.execute()
    return m, [_data_plane_state(channel) for channel in engine.channels], served[0]


RANDOM_ROUND_CASES = {f"random-{seed}": _random_round_case(seed) for seed in range(16)}
DEEP_ROUND_CASES = ["queues-cut-at-the-drain-limit", "thirty-flows-deep-queues",
                    "two-flows-deep-queues"]


def _round_scenario(name):
    base = dict(clusters=1, nodes_per_cluster=10, cluster_width=200.0, cluster_height=200.0,
                master_seed=3)
    return Scenario(**{**base, **ROUND_CASES.get(name, RANDOM_ROUND_CASES.get(name))})


@pytest.mark.parametrize("name", [*ROUND_CASES, *RANDOM_ROUND_CASES])
def test_rounds_leave_what_the_per_packet_loop_leaves(monkeypatch, name):
    sc = _round_scenario(name)
    batched = _run_in_rounds(monkeypatch, sc, 10.0)
    per_packet = _run_in_rounds(monkeypatch, sc, 10.0, rounds=False)
    assert batched[:2] == per_packet[:2]
    assert per_packet[2] == 0
    # A round needs two queued packets at every connected flow, which
    # queues of one or two packets seldom hold when a data phase starts.
    if name in ROUND_CASES and sc.queue_capacity > 2:
        assert batched[2] > 0


@pytest.mark.parametrize("name", [*ROUND_CASES, *RANDOM_ROUND_CASES])
def test_a_batch_sums_at_most_two_ends_it_does_not_serve(monkeypatch, name):
    summed = []

    def counting_accumulate(*args, **kwargs):
        ends = list(itertools.accumulate(*args, **kwargs))
        summed.append(len(ends) - 1)  # the service ends after the initial done
        return ends

    batches = []
    serve = simulator._Engine._serve_rounds

    def counting(engine, flows, live, rr, rounds, *args):
        before = sum(flow.delivered for flow in flows)
        result = serve(engine, flows, live, rr, rounds, *args)
        batches.append((rounds * len(live), sum(flow.delivered for flow in flows) - before))
        return result

    monkeypatch.setattr(simulator, "accumulate", counting_accumulate)
    monkeypatch.setattr(simulator._Engine, "_serve_rounds", counting)
    simulator._Engine(_round_scenario(name), 10.0).execute()
    assert len(summed) == len(batches)
    # Every batch serves, sums no end beyond its queues, and no more than
    # two past the last one it serves: the first at or after the drain's
    # limit, and one more where an end falls on that limit exactly.
    for ends, (queued, served) in zip(summed, batches):
        assert 1 <= served <= ends <= min(queued, served + 2)
    if name in DEEP_ROUND_CASES:
        assert any(served + 2 < queued for queued, served in batches)


@pytest.mark.parametrize("name", DEEP_ROUND_CASES)
def test_deep_queue_cases_break_links_while_backlogged(monkeypatch, name):
    depths = []
    handle = simulator._Engine._handle_mob

    def breaking(engine, step_index):
        was = [flow.connected for flow in engine.flows]
        handle(engine, step_index)
        depths.extend(len(flow.queue) for flow, connected in zip(engine.flows, was)
                      if connected and not flow.connected)

    monkeypatch.setattr(simulator._Engine, "_handle_mob", breaking)
    simulator._Engine(_round_scenario(name), 10.0).execute()
    # A link breaks while its queue holds a hundred packets or more.
    assert any(depth >= 100 for depth in depths)


def test_a_default_run_serves_most_packets_in_rounds(monkeypatch):
    m, _, served = _run_in_rounds(monkeypatch, replace(Scenario(), master_seed=7), 60.0)
    assert served > 0.9 * (m.delivered + m.dropped_range)


def test_a_default_run_drains_its_channels_only_when_something_changes(monkeypatch):
    # Only a channel that holds a handshake runs at every instant; the
    # others run when a mobility step changes a link, and at the end.
    calls = []
    drain = simulator._Engine._drain

    def counting(engine, channel, until):
        calls.append(until)
        drain(engine, channel, until)

    monkeypatch.setattr(simulator._Engine, "_drain", counting)
    engine = simulator._Engine(Scenario(), 60.0)
    m = engine.execute()
    steps = round(60.0 / engine.sc.mobility_step_s) + 1
    assert m.handshakes > 0 and m.generated > 0
    assert 10 * len(calls) <= steps * len(engine.flowing)


def test_a_default_run_checks_its_links_only_when_they_can_change(monkeypatch):
    # A 270 m range over 300 m clusters leaves most links tens of steps of
    # slack, so far fewer link checks than steps x flows.
    checks = []
    measure = simulator._Engine._distance

    def counting(engine, a, b):
        checks.append(engine.mob_step)
        return measure(engine, a, b)

    monkeypatch.setattr(simulator._Engine, "_distance", counting)
    engine = simulator._Engine(replace(Scenario(), master_seed=7), 60.0)
    m = engine.execute()
    steps = round(60.0 / engine.sc.mobility_step_s) + 1
    assert m.handshakes > 0 and m.generated > 0
    assert 10 * len(checks) <= steps * len(engine.flows)


@pytest.mark.parametrize("seed, kw", [
    (1, {}),
    (2, dict(sfv_mode="off", pause_s=0.4)),
    (3, dict(node_speed_min=0.0, node_speed_max=0.0)),
], ids=["breaking", "off-paused", "motionless"])
def test_each_step_examines_exactly_its_due_flows_in_flow_order(monkeypatch, seed, kw):
    # _handle_mob measures each flow it examines once, in the order it
    # examines them; a handshake's end (_finish) measures its link too, so
    # those measurements are left out.  The calendar must hand each step
    # exactly the flows whose due step has come, in flow order.
    expected, examined, finishing = [], [], []
    handle_mob = simulator._Engine._handle_mob
    finish = simulator._Engine._finish
    measure = simulator._Engine._distance

    def mob(engine, step):
        expected.append([(f.src, f.dst) for f in engine.flows if f.due <= step])
        examined.append([])
        handle_mob(engine, step)

    def finished(engine, job):
        finishing.append(job)
        finish(engine, job)
        finishing.pop()

    def distance(engine, a, b):
        if not finishing:
            examined[-1].append((a, b))
        return measure(engine, a, b)

    monkeypatch.setattr(simulator._Engine, "_handle_mob", mob)
    monkeypatch.setattr(simulator._Engine, "_finish", finished)
    monkeypatch.setattr(simulator._Engine, "_distance", distance)
    engine = simulator._Engine(desk(seed=seed, **{**BREAKING, **kw}), 10.0)
    m = engine.execute()
    assert examined == expected
    assert len(examined) == round(10.0 / engine.sc.mobility_step_s) + 1
    flows = len(engine.flows)
    assert examined[0] and sum(map(len, examined)) < len(examined) * flows
    assert m.delivered > 0
    if engine.closing == 0:  # once connected, a motionless link is never examined again
        assert any(f.connected for f in engine.flows)
        assert examined[-1] == [(f.src, f.dst) for f in engine.flows if not f.connected]


@pytest.mark.parametrize("scenario, most", [
    (rate_scenario(7, "sfv", 2000.0), 1500),
    (replace(rate_scenario(3, "sfv-ranging", 600.0), channel_capacity_kbps=150.0), None),
], ids=["desk-2000-sfv", "desk-slow-channel-ranging"])
def test_an_idle_flow_waits_for_the_next_epoch_unless_its_packet_is_in_service(
        monkeypatch, scenario, most):
    # A flow that ends its examination neither connected nor handshaking is
    # filed under the next discovery epoch, unless its own packet is still
    # in service past the step, whose end reads its reach.  So off the
    # epochs an idle flow is examined only after a step that left it
    # handshaking or with its packet in service.
    examined, waited, held = [], [], []
    previous = {}  # flow index -> (handshaking, packet in service) after the last step
    handle_mob = simulator._Engine._handle_mob

    def mob(engine, step):
        every = engine.epoch_every
        due = list(engine.calendar.get(step, ()))
        examined.extend(due)
        if step % every:
            for i in due:
                flow = engine.flows[i]
                if not (flow.connected or flow.handshaking):
                    assert previous.get(i, (False, False)) != (False, False)
                    held.append(previous[i][1])
        handle_mob(engine, step)
        previous.clear()
        for i in due:
            flow = engine.flows[i]
            channel = engine.channels[flow.cluster]
            in_service = channel.job is flow and channel.done > engine.now
            previous[i] = (flow.handshaking, in_service)
            if not (flow.connected or flow.handshaking):
                filed = step + 1 if in_service else step - step % every + every
                assert i in engine.calendar[filed]
                waited.append(filed - step)

    monkeypatch.setattr(simulator._Engine, "_handle_mob", mob)
    engine = simulator._Engine(scenario, 60.0)
    m = engine.execute()
    assert m.delivered > 0 and max(waited) == engine.epoch_every > 1
    if most is not None:  # examining idle flows on every step took 3,384 here
        assert len(examined) < most
    else:  # a 27 ms service outlasts the 25 ms step, so the exception fires
        assert any(held)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_execute_drains_between_handlers_only_channels_that_hold_a_handshake(monkeypatch, seed):
    # Outside _wake and the run's end, execute runs a channel only when it
    # holds a handshake, queued or in service, and open_handshakes counts
    # exactly those.
    calls, woken = [], []
    drain = simulator._Engine._drain
    wake = simulator._Engine._wake

    def draining(engine, channel, until):
        if not woken and until <= engine.duration:
            held = sum(len(c.control) + (c.job.__class__ is tuple) for c in engine.channels)
            calls.append((bool(channel.control) or channel.job.__class__ is tuple,
                          engine.open_handshakes, held))
        drain(engine, channel, until)

    def waking(engine, channel):
        woken.append(channel)
        wake(engine, channel)
        woken.pop()

    monkeypatch.setattr(simulator._Engine, "_drain", draining)
    monkeypatch.setattr(simulator._Engine, "_wake", waking)
    engine = simulator._Engine(desk(seed=seed, **BREAKING), 10.0)
    m = engine.execute()
    assert m.handshakes > 0 and calls
    assert all(holds and open_count == held > 0 for holds, open_count, held in calls)
    assert engine.open_handshakes == sum(
        len(c.control) + (c.job.__class__ is tuple) for c in engine.channels)


def test_honest_pool_is_checked_once_and_shared(monkeypatch):
    # One check for the honest pool plus one per claiming attacker; honest
    # holders share its ID list but not its cursor.
    calls = []
    check = model.IdPool.__post_init__

    def counting(pool):
        calls.append(type(pool).__name__)
        check(pool)

    monkeypatch.setattr(model.IdPool, "__post_init__", counting)
    engine = simulator._Engine(desk(seed=2, attacker_fraction=0.1, attacker_kind="mixed"), 1.0)
    assert sorted(calls) == ["IdPool"] * 3 + ["SybilIdentitySet"] * 2
    # An honest node's pool is copied when an attack check first needs it.
    honest = [engine._pool(i) for c in engine.honest_by_cluster for i in c]
    pools = [*engine.honest_pair, *honest]
    honest_ids = engine.honest_pool.ids
    assert all(pool.ids is honest_ids for pool in pools)
    assert len({id(pool) for pool in [engine.honest_pool, *pools]}) == len(pools) + 1
    # Every pool, the honest one and each attacker's, holds plain ints.
    claimed = [engine.pools[i].ids for i in engine.attacker_kinds]
    assert {type(i) for ids in [honest_ids, *claimed] for i in ids} == {int}
    calls.clear()
    simulator._Engine(desk(seed=2, attacker_fraction=0.1, attacker_kind="replay",
                           replay_profile=ReplayProfile(0.1, 0.1, 0.1)), 1.0)
    assert calls == ["IdPool"]


def test_honest_pools_are_copied_on_the_first_attack_check():
    # A run without attackers copies no honest pool.  With attackers, each
    # honest node an attack check met holds one, its own copy of the honest
    # pool; the others hold none.
    engine = simulator._Engine(desk(seed=2), 10.0)
    engine.execute()
    assert engine.pools == [None] * len(engine.pools)
    engine = simulator._Engine(desk(seed=2, attacker_fraction=0.1, attacker_kind="mixed"), 10.0)
    checked = set()
    verify = engine._verify

    def verifying(verifier, target, distance):
        checked.add(verifier)
        return verify(verifier, target, distance)

    engine._verify = verifying
    m = engine.execute()
    honest = [i for c in engine.honest_by_cluster for i in c]
    built = [i for i in honest if engine.pools[i] is not None]
    assert m.attack_attempts > 0 and built == sorted(checked)
    assert {type(engine.pools[i]) for i in built} == {model.IdPool}
    assert all(engine.pools[i].ids is engine.honest_pool.ids for i in built)
    assert engine.honest_pool.next_index == 0


def test_mode_alias_normalized():
    # sfv_mode has no aliases: each of the three modes is kept as spelled,
    # and the old "sfv-with-ranging" spelling is rejected, not mapped.
    assert len(SFV_MODES) == 3
    for mode in SFV_MODES:
        assert desk(sfv_mode=mode).sfv_mode == mode
    with pytest.raises(ValueError, match="sfv-with-ranging"):
        desk(sfv_mode="sfv-with-ranging")


def test_throughput_never_exceeds_offered_load():
    sc = desk(tx_rate_kbps=600.0, flows_per_cluster=2)
    m = run_scenario(sc, 20.0)
    offered = 600.0 * 2 * 2  # per-source rate x flows x clusters
    assert m.throughput_kbps <= offered


@pytest.mark.parametrize("kw", [
    dict(tx_rate_kbps=-1.0),
    dict(sfv_mode="totally-on"),
    dict(nodes_per_cluster=0),
    dict(node_speed_min=10.0, node_speed_max=5.0),
    dict(radio_ranges=(250.0, 230.0)),
    dict(sfv_mode="sfv-with-ranging"),
    dict(attacker_fraction=1.5),
    dict(attacker_kind="replay"),  # needs a replay profile
    dict(discovery_interval_s=0.0),
    dict(pause_s=math.nan),
    dict(radio_ranges=(230.0, math.inf)),
    dict(noise_distance_m=math.inf),
    dict(queue_capacity=0),
    dict(channel_capacity_kbps=0.0),
    dict(channel_capacity_kbps=math.inf),
    dict(aoa_halfwidth_deg=0.0),
    dict(aoa_halfwidth_deg=500.0),
    dict(processing_budget_s=-1.0),
    dict(pause_s=-3.0),
    dict(noise_distance_m=-1.0),
    dict(noise_angle_deg=-1.0),
    dict(noise_rtt_s=-1e-6),
    dict(cluster_width=1501.0),  # two clusters: two 1500 x 3000 m cells
    dict(cluster_height=3001.0),
    dict(clusters=4, cluster_width=1500.1, cluster_height=1000.0),
    dict(clusters=10 ** 400),  # beyond math.sqrt's float range, too
    dict(nodes_per_cluster=100_000_000),
    # 101,000 nodes, cap 100,000; 90 m clusters fit the 93.75 m cells, so
    # only the population cap can refuse it.
    dict(clusters=1000, nodes_per_cluster=101, cluster_width=90.0, cluster_height=90.0),
    dict(mobility_step_s=1e-320),  # discovery epochs of infinitely many steps
    dict(pause_s=1e7),  # a pause of 4e8 steps, cap 1e8
    dict(master_seed=-1),  # random.Random would seed from abs(-1)
    dict(master_seed=2 ** 64),
])
def test_invalid_scenarios_rejected(kw):
    if "attacker_kind" in kw:
        kw = dict(kw, attacker_fraction=0.1)
    with pytest.raises(ValueError):
        desk(**kw)


def test_flows_are_capped_like_the_population():
    # _build_flows makes up to clusters x flows_per_cluster flows, so an
    # absurd count is refused when the Scenario is made, not mid-build.
    with pytest.raises(ValueError, match="flows_per_cluster exceeds 100000 flows"):
        desk(flows_per_cluster=100_000_000)
    cells = dict(clusters=1000, cluster_width=90.0, cluster_height=90.0)  # 93.75 m cells
    with pytest.raises(ValueError, match="1000 x 101"):
        desk(flows_per_cluster=101, **cells)
    assert desk(flows_per_cluster=100, **cells).flows_per_cluster == 100


def test_queued_packets_are_capped_before_a_run():
    # A flow's queue holds at most min(queue_capacity, CBR ticks) packets,
    # so a run whose flows could hold more than MAX_QUEUED is refused.
    sc = Scenario(queue_capacity=500_000)  # 10 x 2 flows, 4.096 ms ticks
    assert 10 * 2 * 500_000 == MAX_QUEUED
    check_run(sc, 3000.0)
    with pytest.raises(ValueError, match=r"queue_capacity.*10 x 2 x min\(500001, 732421\)"):
        check_run(replace(sc, queue_capacity=500_001), 3000.0)
    # A queue deeper than the run's ticks holds only those.
    deep = replace(sc, queue_capacity=10 ** 9)
    check_run(deep, 2048.001)  # 500,000 ticks
    with pytest.raises(ValueError, match="tx_rate_kbps = 1000.0"):
        check_run(deep, 2048.01)
    check_run(replace(deep, tx_rate_kbps=0.0), 3000.0)  # no packets, no queues
    check_run(replace(deep, flows_per_cluster=0), 3000.0)


def test_ranging_mode_scans_and_shakes_more():
    kw = dict(seed=6, cluster_width=400.0, cluster_height=400.0, flows_per_cluster=4)
    plain = run_scenario(desk(sfv_mode="sfv", **kw), 30.0)
    ranging = run_scenario(desk(sfv_mode="sfv-ranging", **kw), 30.0)
    assert ranging.scan_attempts >= plain.scan_attempts
    assert ranging.handshakes >= plain.handshakes
    assert plain.handshakes > 0


# ----------------------------------------------------------- verdict counts

def test_all_honest_clusters_have_no_suspects():
    m = run_scenario(desk(seed=3, neighbor_verification=True), 10.0)
    assert len(m.suspicious_per_cluster) == 2
    assert all(suspicious == 0 for suspicious in m.suspicious_per_cluster)
    assert all(friendly > 0 for friendly in m.friendly_per_cluster)


def test_planted_attackers_are_counted_per_cluster():
    sc = desk(seed=8, attacker_fraction=0.1, attacker_kind="sybil",
              neighbor_verification=True)
    metrics = run_scenario(sc, 10.0)
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
    m = run_scenario(sc, 10.0)
    assert m.attack_attempts > 0
    assert m.empirical_detection_rate == 1.0


# Each ranging gate fires alone on honest links: one kind of noise flags the
# nodes, and widening that gate's own tolerance alone clears them again.
# 39 of the 40 nodes are verified in these runs.
@pytest.mark.parametrize("noise, widened, suspicious", [
    (dict(noise_angle_deg=90.0), dict(aoa_halfwidth_deg=180.0), 39),
    (dict(noise_rtt_s=2e-5), dict(processing_budget_s=1e-4), 39),
    (dict(noise_distance_m=100.0), None, 38),
])
def test_each_ranging_gate_fires_alone_in_the_simulator(noise, widened, suspicious):
    def flagged(**kw):
        sc = desk(seed=3, cluster_width=400.0, cluster_height=400.0, flows_per_cluster=4,
                  sfv_mode="sfv-ranging", neighbor_verification=True, **kw)
        m = run_scenario(sc, 10.0)
        assert sum(m.friendly_per_cluster) + sum(m.suspicious_per_cluster) == 39
        return sum(m.suspicious_per_cluster)

    assert flagged() == 0
    assert flagged(**noise) == suspicious
    if widened is not None:
        assert flagged(**noise, **widened) == 0


def test_replay_detection_follows_the_detect_curve():
    # Each replay attack faces one sampled verification per id, so the
    # engine's detection rate should sit on 1 - (1 - P)^n, the curve
    # `sfvsim detect` prints: 10 attackers x 600 waves = 6,000 attempts.
    profile = ReplayProfile.calibrated(0.35)
    rates = []
    for n_ids in (1, 2, 4, 8):
        sc = desk(seed=1, cluster_width=400.0, cluster_height=400.0, flows_per_cluster=0,
                  attacker_fraction=0.25, attacker_kind="replay", replay_profile=profile,
                  attack_interval_s=0.05, n_ids=n_ids)
        m = run_scenario(sc, 30.0)
        expected = detection_rate(profile, n_ids)
        sigma = math.sqrt(expected * (1.0 - expected) / m.attack_attempts)
        assert m.attack_attempts == 6_000
        assert abs(m.empirical_detection_rate - expected) <= 3 * sigma
        rates.append(m.empirical_detection_rate)
    assert rates == sorted(rates) and len(set(rates)) == len(rates)


def test_full_scale_counts_have_the_right_order():
    # full-size deployment, shortened span: most nodes verify friendly and
    # the planted minority is flagged; exact figures are seed business
    sc = Scenario(master_seed=5, sfv_mode="sfv", tx_rate_kbps=200.0,
                  attacker_fraction=0.05, attacker_kind="mixed",
                  neighbor_verification=True)
    m = run_scenario(sc, 4.0)
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
