"""Deterministic cluster-network simulator with verification-gated links.

Nodes roam their cluster under random-waypoint mobility.  Constant-rate
sources feed per-flow FIFO queues drained by a shared per-cluster channel;
in the verification modes a link carries data only after a handshake, paid
for in channel time, and every link break forces a fresh one.  Power-
stepped scanning picks the tightest radio range, which trades energy for
earlier link breaks.  Everything derives from one master seed.
"""

from __future__ import annotations

import copy
import hashlib
import math
import random
import struct
from collections import deque
from dataclasses import dataclass, fields
from typing import NamedTuple

from .adversary import (
    ReplayProfile,
    SybilIdentitySet,
    WormholeTunnel,
    sample_detection,
    sybil_attempt,
    wormhole_perturb,
)
from .model import ID_BITS, IdPool, draw_distinct_ids
from .protocol import HandshakeConfig, run_handshake
from .ranging import ScanPlan, evidence_for_link, scan_for_neighbor

SFV_MODES = ("off", "sfv", "sfv-ranging")
# The largest population a Scenario accepts, 125 times the reference one,
# and the most flows.
MAX_NODES = 100_000
# The most mobility steps, CBR ticks or attack waves one run may take; the
# reference 60 s run takes 2,400 steps and 14,648 ticks.
MAX_STEPS = 100_000_000


@dataclass(frozen=True)
class Scenario:
    """A complete simulation configuration.

    The defaults describe the reference deployment: a 3000 x 3000 m
    terrain holding ten 300 x 300 m clusters of eighty nodes, selectable
    radio ranges of 230/250/270 m, 512-byte constant-rate traffic and
    random-waypoint speeds of 5 to 50 m/s.  Each cluster's flows hold
    FIFO queues of queue_capacity packets, the one in service included,
    drained by a shared channel at channel_capacity_kbps.  The field
    names are the configuration file's keys.
    """

    terrain_width: float = 3000.0
    terrain_height: float = 3000.0
    clusters: int = 10
    cluster_width: float = 300.0
    cluster_height: float = 300.0
    nodes_per_cluster: int = 80
    radio_ranges: tuple[float, ...] = (230.0, 250.0, 270.0)
    tx_rate_kbps: float = 1000.0
    packet_size_bytes: int = 512
    node_speed_min: float = 5.0
    node_speed_max: float = 50.0
    sfv_mode: str = "sfv"
    master_seed: int = 1
    queue_capacity: int = 50
    channel_capacity_kbps: float = 1200.0
    flows_per_cluster: int = 2
    handshake: HandshakeConfig = HandshakeConfig()
    n_ids: int = 6
    processing_budget_s: float = 5e-6
    aoa_halfwidth_deg: float = 45.0
    handshake_base_s: float = 0.002
    handshake_attempt_extra_s: float = 0.001
    mobility_step_s: float = 0.025
    discovery_interval_s: float = 0.1
    pause_s: float = 0.0
    attacker_fraction: float = 0.0
    attacker_kind: str = "mixed"
    attack_interval_s: float = 1.0
    tunnel_latency_s: float = 1e-5
    replay_profile: ReplayProfile | None = None
    neighbor_verification: bool = False
    noise_distance_m: float = 0.0
    noise_angle_deg: float = 0.0
    noise_rtt_s: float = 0.0

    def __post_init__(self):
        for spec in fields(self):
            value = getattr(self, spec.name)
            parts = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in parts):
                raise ValueError(f"{spec.name} must be finite: {value}")
        for name in ("clusters", "nodes_per_cluster", "packet_size_bytes",
                     "queue_capacity", "n_ids"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1: {getattr(self, name)}")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError(f"master_seed must lie in [0, 2**64): {self.master_seed}")
        if self.clusters * self.nodes_per_cluster > MAX_NODES:
            raise ValueError(f"clusters x nodes_per_cluster exceeds {MAX_NODES} nodes: "
                             f"{self.clusters} x {self.nodes_per_cluster}")
        if self.clusters * self.flows_per_cluster > MAX_NODES:
            raise ValueError(f"clusters x flows_per_cluster exceeds {MAX_NODES} flows: "
                             f"{self.clusters} x {self.flows_per_cluster}")
        for name in ("terrain_width", "terrain_height", "cluster_width", "cluster_height",
                     "channel_capacity_kbps", "mobility_step_s", "discovery_interval_s",
                     "attack_interval_s", "handshake_base_s", "tunnel_latency_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive: {getattr(self, name)}")
        for name in ("discovery_interval_s", "pause_s"):
            if getattr(self, name) / self.mobility_step_s > MAX_STEPS:
                raise ValueError(f"{name} spans more than {MAX_STEPS} steps of mobility_step_s: "
                                 f"{getattr(self, name)} / {self.mobility_step_s}")
        _, cell_w, cell_h = self.cluster_grid
        for name, cell in (("cluster_width", cell_w), ("cluster_height", cell_h)):
            if getattr(self, name) > cell:
                raise ValueError(f"{name} exceeds its grid cell: {getattr(self, name)} > {cell}")
        for name in ("tx_rate_kbps", "node_speed_min", "flows_per_cluster",
                     "processing_budget_s", "handshake_attempt_extra_s", "pause_s",
                     "noise_distance_m", "noise_angle_deg", "noise_rtt_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative: {getattr(self, name)}")
        if self.node_speed_max < self.node_speed_min:
            raise ValueError(f"node_speed_max must be at least node_speed_min: "
                             f"{self.node_speed_max} < {self.node_speed_min}")
        if not 0.0 < self.aoa_halfwidth_deg <= 180.0:
            raise ValueError(f"aoa_halfwidth_deg must lie in (0, 180]: {self.aoa_halfwidth_deg}")
        if not self.radio_ranges:
            raise ValueError("need at least one radio range")
        if any(b <= a for a, b in zip(self.radio_ranges, self.radio_ranges[1:])):
            raise ValueError(f"radio ranges must be strictly increasing: {self.radio_ranges}")
        if self.radio_ranges[0] <= 0:
            raise ValueError(f"radio ranges must be positive: {self.radio_ranges}")
        if self.sfv_mode not in SFV_MODES:
            raise ValueError(f"sfv_mode must be one of {SFV_MODES}: {self.sfv_mode!r}")
        if not 0.0 <= self.attacker_fraction <= 1.0:
            raise ValueError(f"attacker fraction must lie in [0, 1]: {self.attacker_fraction}")
        if self.attacker_kind not in ("sybil", "wormhole", "replay", "mixed"):
            raise ValueError(f"unknown attacker kind: {self.attacker_kind!r}")
        if self.attacker_kind == "replay" and self.attacker_fraction > 0 and self.replay_profile is None:
            raise ValueError("replay attackers need a replay_profile")
        # The honest pool and each claiming attacker draw n_ids distinct IDs.
        # Up to half the ID space, every draw succeeds with probability at
        # least 1/2, so the build's rejection sampling ends quickly.
        claimants = 0 if self.attacker_kind == "replay" else self.clusters * round(
            self.attacker_fraction * self.nodes_per_cluster)
        if self.n_ids * (1 + claimants) > 1 << (ID_BITS - 1):
            raise ValueError(f"n_ids = {self.n_ids} for the honest pool and {claimants} claiming "
                             f"attackers needs more than {1 << (ID_BITS - 1)} distinct ids")

    @property
    def packet_bits(self) -> int:
        return self.packet_size_bytes * 8

    @property
    def packet_interval(self) -> float | None:
        """Seconds between one flow's packets; None at a zero rate."""
        return self.packet_bits / (self.tx_rate_kbps * 1000.0) if self.tx_rate_kbps > 0 else None

    @property
    def cluster_grid(self) -> tuple[int, float, float]:
        """Columns of the grid of cluster cells, and one cell's width and height."""
        cols = math.ceil(math.sqrt(self.clusters))
        rows = math.ceil(self.clusters / cols)
        return cols, self.terrain_width / cols, self.terrain_height / rows


# Leg draws: three 53-bit uniforms per BLAKE2b digest.
_UNIT = 2.0 ** -53
_LEG_WORDS = struct.Struct("<3Q")
# A leg whose arrival lies more steps away than this never ends.
_MAX_LEG_STEPS = 2.0 ** 53


def leg_variates(seed: bytes, leg: int) -> tuple[float, float, float]:
    """Three uniforms in [0, 1) for leg `leg` of the node with this seed.

    They come from BLAKE2b keyed with the seed, so any leg is drawn
    without drawing the legs before it.  Leg 0 places the node; leg j >= 1
    is its j-th trip (waypoint x, waypoint y, speed).
    """
    digest = hashlib.blake2b(leg.to_bytes(8, "little"), digest_size=24, key=seed).digest()
    a, b, c = _LEG_WORDS.unpack(digest)
    return (a >> 11) * _UNIT, (b >> 11) * _UNIT, (c >> 11) * _UNIT


class Leg(NamedTuple):
    """One straight trip at constant speed, in closed form.

    On mobility steps start..arrive-1 the node stands at (x0, y0) +
    (ux, uy) * length * (step - start + 1), where length is the distance
    covered per step; from step `arrive` on it rests on the waypoint
    (wx, wy), until leg `index` + 1 starts on step `next_start`.  A leg
    that never arrives has both at infinity.
    """

    arrive: float
    next_start: float
    start: int
    length: float
    x0: float
    y0: float
    ux: float
    uy: float
    wx: float
    wy: float
    index: int


class RandomWaypoint:
    """Random-waypoint motion of a population, evaluated lazily.

    Node i roams rects[i], the bounds (x0, y0, x1, y1).  Its own seed,
    drawn from the mobility stream in index order, keys every draw it
    makes (leg_variates), so its path depends neither on which nodes are
    read nor on when.  advance() brings nodes up to a mobility step;
    (x[i], y[i]) is where node i stood on the step it was last brought
    to, and legs[i] the leg it was on.  Step 0 finds every node on its
    placement; its first trip starts on step 1, and each later one
    1 + ceil(pause_s / dt) steps after the last arrival.
    """

    def __init__(
        self,
        rects: list[tuple[float, float, float, float]],
        rng: random.Random,
        dt: float,
        speed_range: tuple[float, float],
        pause_s: float,
    ):
        if dt <= 0:
            raise ValueError(f"time step must be positive: {dt}")
        self.rects = rects
        self.dt = dt
        self.speed_range = speed_range
        self.pause_steps = math.ceil(pause_s / dt)
        self.seeds = [rng.getrandbits(64).to_bytes(8, "little") for _ in rects]
        self.x: list[float] = []
        self.y: list[float] = []
        self.legs: list[Leg] = []
        for seed, (x0, y0, x1, y1) in zip(self.seeds, rects):
            u, v, _ = leg_variates(seed, 0)
            x = x0 + (x1 - x0) * u
            y = y0 + (y1 - y0) * v
            self.x.append(x)
            self.y.append(y)
            self.legs.append(Leg(0, 1, 0, 0.0, x, y, 0.0, 0.0, x, y, 0))

    def leg(self, index: int, start: int, x0: float, y0: float,
            wx: float, wy: float, speed: float) -> Leg:
        """Leg `index` from (x0, y0) to (wx, wy) at `speed`, moving from step `start`.

        It arrives on its k-th step, the first k >= 1 with
        speed * dt * k >= the distance; a zero speed never arrives.
        """
        dx = wx - x0
        dy = wy - y0
        distance = math.hypot(dx, dy)
        length = speed * self.dt
        if length > 0 and distance / length < _MAX_LEG_STEPS:
            k = max(1, math.ceil(distance / length))
            while k > 1 and length * (k - 1) >= distance:
                k -= 1
            while length * k < distance:
                k += 1
            arrive = start + k - 1
            next_start = arrive + 1 + self.pause_steps
        else:
            arrive = next_start = math.inf
        ux, uy = (dx / distance, dy / distance) if distance else (0.0, 0.0)
        return Leg(arrive, next_start, start, length, x0, y0, ux, uy, wx, wy, index)

    def _leg_at(self, i: int, step: int) -> Leg:
        """Node i's leg on `step`, drawing every leg that started by then."""
        leg = self.legs[i]
        seed = self.seeds[i]
        x0, y0, x1, y1 = self.rects[i]
        speed_min, speed_max = self.speed_range
        while step >= leg.next_start:
            u, v, w = leg_variates(seed, leg.index + 1)
            leg = self.leg(leg.index + 1, leg.next_start, leg.wx, leg.wy,
                           x0 + (x1 - x0) * u, y0 + (y1 - y0) * v,
                           speed_min + (speed_max - speed_min) * w)
        self.legs[i] = leg
        return leg

    def advance(self, nodes, step: int) -> None:
        """Bring each listed node to mobility step `step` (no earlier than its last)."""
        xs, ys, legs = self.x, self.y, self.legs
        for i in nodes:
            leg = legs[i]
            if step >= leg[1]:  # next_start
                leg = self._leg_at(i, step)
            arrive, _, start, length, x0, y0, ux, uy, wx, wy, _ = leg
            if step < arrive:
                travel = length * (step - start + 1)
                xs[i] = x0 + ux * travel
                ys[i] = y0 + uy * travel
            else:
                xs[i] = wx
                ys[i] = wy


def step_mobility(walk: RandomWaypoint, nodes, step: int) -> None:
    """Bring `nodes` to `step`; the engine calls it on each mobility step
    that has a node to move.

    The engine looks this name up at call time, so a tracer can wrap it.
    """
    walk.advance(nodes, step)


def check_run(scenario: Scenario, duration_s: float) -> None:
    """Refuse a run of duration_s that is not positive and finite, or that
    would take more than MAX_STEPS mobility steps, CBR ticks or attack waves.

    The engine calls it first; a sweep calls it on every point before any runs.
    """
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration must be positive and finite: {duration_s}")
    intervals = [("mobility steps", "mobility_step_s", scenario.mobility_step_s)]
    if scenario.packet_interval is not None and scenario.flows_per_cluster > 0:
        intervals.append(("CBR ticks", "tx_rate_kbps", scenario.packet_interval))
    if round(scenario.attacker_fraction * scenario.nodes_per_cluster) > 0:
        intervals.append(("attack waves", "attack_interval_s", scenario.attack_interval_s))
    for what, key, interval in intervals:
        if interval * MAX_STEPS < duration_s:
            raise ValueError(f"duration_s = {float(duration_s)} needs more than {MAX_STEPS} "
                             f"{what} at this {key}: {getattr(scenario, key)}")


def cluster_rects(scenario: Scenario) -> list[tuple[float, float, float, float]]:
    """Deterministic cluster placement: a grid of cells, rects centered."""
    cols, cell_w, cell_h = scenario.cluster_grid
    w = scenario.cluster_width
    h = scenario.cluster_height
    rects = []
    for index in range(scenario.clusters):
        cx = (index % cols + 0.5) * cell_w
        cy = (index // cols + 0.5) * cell_h
        rects.append((cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
    return rects


class _Flow:
    """One constant-rate source-destination pair inside a cluster.

    Its packet k arrives at k * gen_interval.  queue holds the tick numbers
    of the packets it kept, and tick is its first packet not yet offered
    to the queue: the flow takes its pending packets, those before its
    channel's tick, only when it is served or the run ends.  A service is
    the only thing that removes a packet, so taking them then, as many as
    the queue has room for, keeps and drops exactly the packets that
    taking each on arrival would.  reach says whether a packet served now
    would find dst within selected_range (positions and ranges only change
    at mobility steps and handshake ends, which refresh it).

    due is the first mobility step on which _Engine._handle_mob examines
    the flow again.  An unconnected or handshaking flow stays due on every
    step, so a flow that a handshake's end (or, in off mode, discovery)
    connects is due on the next step.  A connected flow found at distance
    d inside its range r holds for floor((r - d - round_off) / closing)
    steps, since d can grow by at most closing per step (see _Engine), and
    is due on the step after those; with motionless nodes it is never due
    again.
    """

    __slots__ = (
        "src", "dst", "cluster", "queue", "tick", "dropped_range", "delivered",
        "total_delay", "connected", "handshaking", "selected_range", "reach", "due",
    )

    def __init__(self, src: int, dst: int, cluster: int):
        self.src = src
        self.dst = dst
        self.cluster = cluster
        self.queue: deque[int] = deque()
        self.tick = 1
        self.dropped_range = 0
        self.delivered = 0
        self.total_delay = 0.0
        self.connected = False
        self.handshaking = False
        self.selected_range = 0.0
        self.reach = False
        self.due = 0

    def take(self, tick: int, capacity: int) -> None:
        """Queue the pending packets before `tick` that fit; drop the rest."""
        queue = self.queue
        first = self.tick
        last = first + capacity - len(queue)
        while first < tick and first < last:
            queue.append(first)
            first += 1
        self.tick = tick


class _Channel:
    """One cluster's shared medium, a single server, and its arrivals' cursor.

    job is the job in service and ends at done: a flow, whose head packet
    is sent, or a handshake (duration, flow, evidence, range) taken from
    control, the FIFO of handshakes that wait for the channel.  An idle
    channel holds no job and done is inf, unless _Engine._wake has set
    done to the instant at which it looks for its next job.  The channel
    has run every arrival before tick `tick`, and its round-robin resumes
    at flow rr.
    """

    __slots__ = ("flows", "control", "rr", "job", "done", "tick")

    def __init__(self, flows: list[_Flow]):
        self.flows = flows
        self.control: deque = deque()
        self.rr = 0
        self.job = None
        self.done = math.inf
        self.tick = 1


@dataclass(frozen=True)
class ScenarioMetrics:
    """Headline measurements of one run.

    The fields, in declaration order, are the columns of the metrics CSV;
    a tuple field fills one column, its items joined with ';'.
    """

    mode: str
    seed: int
    duration_s: float
    tx_rate_kbps: float
    node_speed_min: float
    node_speed_max: float
    generated: int
    delivered: int
    dropped_queue: int
    dropped_range: int
    in_flight: int
    throughput_kbps: float
    mean_delay_s: float
    pdr: float
    no_traffic: bool
    handshakes: int
    scan_attempts: int
    friendly_per_cluster: tuple[int, ...]
    suspicious_per_cluster: tuple[int, ...]
    attack_attempts: int
    attacks_detected: int
    empirical_detection_rate: float


class _Engine:
    """Simulation core: mobility steps, attack waves and one channel per cluster.

    Mobility advances in fixed steps; discovery and link setup happen on
    coarser epochs; packet generation and channel service run on exact
    times.  execute walks the mobility steps and attack waves in time
    order.  Each cluster's channel serves one job at a time, a flow's
    handshake or a data packet, and _drain runs its job ends and CBR
    arrivals.  A channel runs only when something it reads changes: up to
    every step and wave while it holds a handshake, whose end reads that
    step's positions and draws from the payload stream (execute looks at
    the channels only while open_handshakes, those queued or in service,
    is positive); up to the step (_wake) before that step changes one of
    its flows' links or queues a handshake; and to the end of the run.  In
    between it lags behind the clock, and a flow's arrivals wait,
    uncounted, until it is served.  All randomness flows from
    per-subsystem child streams of the master seed, drawn in a fixed
    order, so equal seeds replay equal runs and mobility never depends on
    mode or traffic settings.

    Node positions live in the flat lists x and y of a RandomWaypoint,
    whose legs are closed-form and whose draws are per node, so a node's
    position is brought up to date only when a handler reads it: on each
    mobility step (through step_mobility, skipped when no node moves) for
    the endpoints of the flows due on that step, and for every node at a neighbor-verification epoch
    with work left and at each attack wave.  Every node a handler reads
    thus stands where the last mobility step that ran put it.

    A link is checked only when it can change.  A node moves at most
    speed * mobility_step_s per step, arrival steps included, and speed <=
    node_speed_max, so a link's length changes by at most closing = 2 *
    node_speed_max * mobility_step_s per step.  A connected flow therefore
    skips the steps its slack to its range covers (_Flow.due); round_off,
    2^-40 of the terrain's extent plus the largest range, absorbs the
    rounding of the closed-form positions, of hypot and of the quotient,
    a few ulps of the coordinates each.  calendar files each flow under
    the next step it is due on; that step examines its flows in flow order.

    Credentials are held once, and a handshake end is its ID pool.  pools
    holds each node's one pool (None for a replay attacker, which presents
    none), an honest node's a copy of honest_pool made by _pool on the
    first attack check that hands it to a handshake.  Every honest link's
    handshake runs on honest_pair, two pools that advance in lockstep.
    attacker_kinds maps each attacker, in index order, to its kind; all
    wormholes share one tunnel.

    One link check serves neighbor-verification sweeps and attack waves
    alike: _nearest picks the candidate, _verify scans the link and runs
    the check the target's kind meets, and records the target's verdict.
    """

    def __init__(self, scenario: Scenario, duration_s: float):
        check_run(scenario, duration_s)
        self.sc = scenario
        self.duration = float(duration_s)
        root = random.Random(scenario.master_seed)
        self.layout_rng = random.Random(root.getrandbits(64))
        self.mobility_rng = random.Random(root.getrandbits(64))
        self.payload_rng = random.Random(root.getrandbits(64))
        self.attack_rng = random.Random(root.getrandbits(64))
        self.noise_rng = random.Random(root.getrandbits(64))

        self.now = 0.0
        self.mob_step = 0  # the last mobility step that ran
        self.handshakes = 0
        self.open_handshakes = 0  # queued or in service
        self.scan_attempts = 0
        self.attack_attempts = 0
        self.attacks_detected = 0

        self.max_range = scenario.radio_ranges[-1]
        self.scan_plan = ScanPlan(scenario.radio_ranges, ranging=scenario.sfv_mode == "sfv-ranging")
        self.data_time = scenario.packet_bits / (scenario.channel_capacity_kbps * 1000.0)
        self.epoch_every = max(1, round(scenario.discovery_interval_s / scenario.mobility_step_s))
        # The most a link's length changes in one step, and the slack that
        # absorbs rounding at the coordinates' magnitude (see the docstring).
        self.closing = 2.0 * scenario.node_speed_max * scenario.mobility_step_s
        self.round_off = 2.0 ** -40 * (
            max(scenario.terrain_width, scenario.terrain_height) + self.max_range)
        # wormhole_perturb reads only the latency, so all attackers share one.
        self.tunnel = WormholeTunnel("wormhole-mouth", "wormhole-far", scenario.tunnel_latency_s)

        self._build_population()
        self._build_flows()

    # ------------------------------------------------------------------ setup

    def _build_population(self) -> None:
        sc = self.sc
        rects = cluster_rects(sc)
        self.node_cluster = [c for c in range(sc.clusters) for _ in range(sc.nodes_per_cluster)]
        count = len(self.node_cluster)
        self.walk = RandomWaypoint([rects[c] for c in self.node_cluster], self.mobility_rng,
                                   sc.mobility_step_s, (sc.node_speed_min, sc.node_speed_max),
                                   sc.pause_s)
        self.x, self.y = self.walk.x, self.walk.y
        self.every_node = range(count)
        # None until a node is first verified; False, once flagged, for good.
        self.verdict: list[bool | None] = [None] * count

        # Every ID drawn, the honest pool's and each claiming attacker's, is distinct.
        taken: set[int] = set()
        # The honest pool is checked once; every holder gets a shallow copy,
        # which shares its ID list and keeps its own cursor.
        honest_pool = self.honest_pool = IdPool(draw_distinct_ids(self.layout_rng, sc.n_ids, taken))
        # Both ends of an honest link start from identical pools and advance
        # them together, so they always present the same ID; with equal IDs
        # on equal evidence every block verifies whatever the ID, so one
        # lockstep pair serves every honest link.
        self.honest_pair = (copy.copy(honest_pool), copy.copy(honest_pool))
        # A replay attacker presents no credentials, so it draws no IDs and
        # holds no pool.
        self.pools: list[IdPool | None] = [None] * count
        # Attacker index -> kind, in index order; mixed alternates sybil,
        # wormhole in that order.
        self.attacker_kinds: dict[int, str] = {}
        self.honest_by_cluster: list[list[int]] = [[] for _ in range(sc.clusters)]

        per_cluster_attackers = round(sc.attacker_fraction * sc.nodes_per_cluster)
        for c in range(sc.clusters):
            attacker_slots = set(
                self.layout_rng.sample(range(sc.nodes_per_cluster), per_cluster_attackers))
            for i in range(sc.nodes_per_cluster):
                index = c * sc.nodes_per_cluster + i
                if i not in attacker_slots:
                    self.honest_by_cluster[c].append(index)
                    continue
                kind = sc.attacker_kind
                if kind == "mixed":
                    kind = ("sybil", "wormhole")[len(self.attacker_kinds) % 2]
                self.attacker_kinds[index] = kind
                if kind == "replay":
                    continue
                claimed = draw_distinct_ids(self.layout_rng, sc.n_ids, taken)
                self.pools[index] = (SybilIdentitySet if kind == "sybil" else IdPool)(claimed)

        # Each honest verifier's not yet verified in-cluster peers in scan
        # order: honest peers, then attackers, each in index order.  A pair
        # leaves both lists once verified; an empty list retires its
        # verifier for good, since the verified set only grows.
        self.unverified: dict[int, list[int]] = {}
        if sc.neighbor_verification:
            for c, honest in enumerate(self.honest_by_cluster):
                order = honest + [a for a in self.attacker_kinds if self.node_cluster[a] == c]
                for index in honest:
                    self.unverified[index] = [peer for peer in order if peer != index]

    def _build_flows(self) -> None:
        sc = self.sc
        self.flows: list[_Flow] = []
        cluster_flows: list[list[_Flow]] = [[] for _ in range(sc.clusters)]
        for c in range(sc.clusters):
            honest = self.honest_by_cluster[c]
            for _ in range(sc.flows_per_cluster):
                if len(honest) < 2:
                    break
                src, dst = self.layout_rng.sample(honest, 2)
                flow = _Flow(src, dst, c)
                self.flows.append(flow)
                cluster_flows[c].append(flow)
        self.channels = [_Channel(flows) for flows in cluster_flows]
        # The indices of the flows due on a step, by step (see _Flow.due).
        self.calendar: dict[float, list[int]] = {0: list(range(len(self.flows)))}
        # Only a channel with flows ever holds a job or an arrival.
        self.flowing = [channel for channel in self.channels if channel.flows]
        # Every flow's packet k arrives at k * gen_interval, for k = 1..last_tick;
        # check_run bounds last_tick when there are flows.
        self.gen_interval = math.inf
        self.last_tick = 0
        if self.flows and self.sc.packet_interval is not None:
            interval = self.gen_interval = self.sc.packet_interval
            last = math.floor(self.duration / interval)
            while (last + 1) * interval <= self.duration:
                last += 1
            while last and last * interval > self.duration:
                last -= 1
            self.last_tick = last

    # ------------------------------------------------------------------ plumbing

    def _distance(self, a: int, b: int) -> float:
        x, y = self.x, self.y
        return math.hypot(x[b] - x[a], y[b] - y[a])

    def _bearing(self, a: int, b: int) -> float:
        x, y = self.x, self.y
        return math.degrees(math.atan2(y[b] - y[a], x[b] - x[a])) % 360.0

    def _evidence(self, a: int, b: int, distance: float, d_max: float):
        sc = self.sc
        distance_noise = angle_noise = rtt_noise = 0.0
        if sc.noise_distance_m > 0:
            distance_noise = self.noise_rng.uniform(-sc.noise_distance_m, sc.noise_distance_m)
        if sc.noise_angle_deg > 0:
            angle_noise = self.noise_rng.uniform(-sc.noise_angle_deg, sc.noise_angle_deg)
        if sc.noise_rtt_s > 0:
            rtt_noise = self.noise_rng.uniform(-sc.noise_rtt_s, sc.noise_rtt_s)
        return evidence_for_link(
            distance, self._bearing(a, b), d_max,
            processing_budget=sc.processing_budget_s,
            aoa_halfwidth=sc.aoa_halfwidth_deg,
            distance_noise=distance_noise,
            angle_noise=angle_noise,
            rtt_noise=rtt_noise,
        )

    def _pool(self, index: int) -> IdPool:
        """The node's ID pool; an honest node's is copied on its first attack check."""
        if self.pools[index] is None:
            self.pools[index] = copy.copy(self.honest_pool)
        return self.pools[index]

    def _record_verdict(self, node_index: int, friendly: bool) -> None:
        if self.verdict[node_index] is not False:
            self.verdict[node_index] = friendly

    def _handshake(self, responder: int, evidence) -> bool:
        """An honest link's handshake; the responder's verdict is recorded."""
        friendly = run_handshake(
            *self.honest_pair, evidence, self.sc.handshake, self.payload_rng).friendly
        self.handshakes += 1
        self._record_verdict(responder, friendly)
        return friendly

    # ------------------------------------------------------------------ handlers

    def _drain(self, channel: _Channel, until: float) -> None:
        """Run the channel's job ends and arrivals due before `until`.

        When a job ends, the next starts at once: a queued handshake first,
        else round-robin the next connected flow with a packet, queued or
        pending.  An arrival matters only to an idle channel, where the
        tick's first connected flow, in flow order, starts its packet; a
        busy channel, or one with no connected flow, only moves its tick
        cursor.  Draining to T in one call or in several leaves the same
        state, which lives in the channel and its flows.

        The job in service ends first, then the queued handshakes run.  No
        call queues a handshake and only a handshake's end connects a flow,
        so then the connected flows stay fixed and one loop serves the data
        packets, with no per-packet test of control or of a job's kind.
        """
        gen_interval = self.gen_interval
        tick = channel.tick
        done = channel.done
        if tick * gen_interval >= until and done >= until:
            return
        flows = channel.flows
        count = len(flows)
        ring = flows * 2  # the scan from rr reads flows[rr:], then flows[:rr]
        capacity = self.sc.queue_capacity
        data_time = self.data_time
        control = channel.control
        job = channel.job
        rr = channel.rr
        at = tick * gen_interval  # the next arrival
        ending = done < math.inf  # the job in service, or a wake-up, ends first
        scan = 0  # flows the round-robin examines: none until the handshakes ran
        while True:
            index = rr
            stop = rr + scan
            while index < stop:
                job = ring[index]
                index += 1
                if job.connected and (job.queue or job.tick < tick):
                    rr = index % count
                    done += data_time
                    break
            else:
                if ending:
                    ending = False
                    if done >= until:
                        break
                    scan = 0 if control else count
                    if job.__class__ is not _Flow:  # else its packet is served below
                        while at < done:  # a handshake ends, or the channel wakes
                            tick += 1
                            at = tick * gen_interval
                        if job is not None:
                            self._finish(job)
                        continue
                elif control:
                    job = control.popleft()
                    done += job[0]
                    ending = True
                    continue
                else:  # idle: an arrival before until starts the first connected flow
                    for index, job in enumerate(flows, 1):
                        if job.connected and at < until:
                            break
                    else:
                        job = None
                        done = math.inf
                        break
                    rr = index % count
                    scan = count
                    done = at + data_time
                    tick += 1
                    at = tick * gen_interval
            if done >= until:
                break
            while at < done:  # the job ends after that tick's arrivals
                tick += 1
                at = tick * gen_interval
            queue = job.queue
            first = job.tick
            if first < tick:
                last = first + capacity - len(queue)
                while first < tick and first < last:
                    queue.append(first)
                    first += 1
                job.tick = tick
            sent = queue.popleft()
            if job.reach:
                job.delivered += 1
                job.total_delay += done - sent * gen_interval
            else:
                job.dropped_range += 1
        while at < until:
            tick += 1
            at = tick * gen_interval
        channel.tick = tick
        channel.job = job
        channel.done = done
        channel.rr = rr

    def _wake(self, channel: _Channel) -> None:
        """Bring the channel up to now before a mobility step changes what
        it reads; an idle one then looks for its next job at now."""
        self._drain(channel, self.now)
        if channel.job is None:
            channel.done = self.now

    def _finish(self, job) -> None:
        """A flow's handshake ends; a friendly verdict sets its link up."""
        _, flow, evidence, selected = job
        flow.handshaking = False
        self.open_handshakes -= 1
        if self._handshake(flow.dst, evidence):
            flow.selected_range = selected
            flow.connected = flow.reach = self._distance(flow.src, flow.dst) <= selected

    def _handle_mob(self, step_index: int) -> None:
        flows = self.flows
        epoch = step_index % self.epoch_every == 0
        due = sorted(self.calendar.pop(step_index, ()))  # in flow order
        if step_index > 0:  # step 0 only runs discovery on the placements
            if epoch and self.unverified:
                nodes = self.every_node
            else:
                nodes = [node for i in due for node in (flows[i].src, flows[i].dst)]
            if nodes:
                step_mobility(self.walk, nodes, step_index)
        self.mob_step = step_index
        for i in due:
            flow = flows[i]
            distance = self._distance(flow.src, flow.dst)
            if flow.connected:
                if distance > flow.selected_range:
                    self._wake(self.channels[flow.cluster])
                    flow.connected = False
                else:  # the link holds for as many steps as its slack covers
                    slack = flow.selected_range - distance - self.round_off
                    flow.due = step_index + 1 + (
                        slack // self.closing if self.closing else math.inf)
            elif epoch and not flow.handshaking:
                self._try_connect(flow, distance)
            reach = distance <= flow.selected_range
            if reach != flow.reach:
                self._wake(self.channels[flow.cluster])
                flow.reach = reach
            self.calendar.setdefault(max(flow.due, step_index + 1), []).append(i)
        if epoch and self.sc.neighbor_verification:
            self._verify_neighbors()

    def _try_connect(self, flow: _Flow, distance: float) -> None:
        sc = self.sc
        if sc.sfv_mode == "off":
            if distance <= self.max_range:
                self._wake(self.channels[flow.cluster])
                flow.selected_range = self.max_range
                flow.connected = True
            return
        scan = scan_for_neighbor(self.scan_plan, distance)
        self.scan_attempts += scan.attempts
        if scan.selected_range is None:
            return
        evidence = self._evidence(flow.src, flow.dst, distance, scan.selected_range)
        duration = sc.handshake_base_s + (scan.attempts - 1) * sc.handshake_attempt_extra_s
        channel = self.channels[flow.cluster]
        self._wake(channel)
        channel.control.append((duration, flow, evidence, scan.selected_range))
        flow.handshaking = True
        self.open_handshakes += 1

    # Neighbor verification sweeps run off-channel: they tally verdicts
    # for coverage maps without competing with data traffic.  Each verifier,
    # in index order, checks its nearest unverified peer in range.
    def _verify_neighbors(self) -> None:
        unverified = self.unverified
        retired = []
        for index, peers in unverified.items():
            if not peers:
                retired.append(index)
                continue
            best, distance = self._nearest(index, peers)
            if distance > self.max_range:
                continue
            peers.remove(best)
            if best in unverified:
                unverified[best].remove(index)
            self._verify(index, best, distance)
        for index in retired:
            del unverified[index]

    def _handle_atk(self) -> None:
        self.walk.advance(self.every_node, self.mob_step)
        for attacker in self.attacker_kinds:
            victim, distance = self._nearest(
                attacker, self.honest_by_cluster[self.node_cluster[attacker]])
            if distance > self.max_range:
                continue
            self.attack_attempts += 1
            if not self._verify(victim, attacker, distance):
                self.attacks_detected += 1

    def _nearest(self, origin: int, candidates: list[int]) -> tuple[int | None, float]:
        """The candidate nearest to origin, the first of equally near ones,
        and its distance; (None, inf) when there is none."""
        xs, ys = self.x, self.y
        hypot = math.hypot
        ax = xs[origin]
        ay = ys[origin]
        best = None
        best_distance = math.inf
        for peer in candidates:
            distance = hypot(xs[peer] - ax, ys[peer] - ay)
            if distance < best_distance:
                best, best_distance = peer, distance
        return best, best_distance

    def _verify(self, verifier: int, target: int, distance: float) -> bool:
        """Verifier checks target across a link `distance` <= max_range long.

        One scan picks the link's range, which the evidence gates against.
        An honest target takes the honest handshake, a wormhole the
        handshake on tunnelled evidence, a Sybil a forged-ID attempt, and a
        replay attacker n_ids sampled detections.  The target's verdict is
        recorded; True means it was judged friendly.
        """
        sc = self.sc
        d_max = scan_for_neighbor(self.scan_plan, distance).selected_range
        kind = self.attacker_kinds.get(target)
        if kind == "replay":
            friendly = not any(sample_detection(sc.replay_profile, self.attack_rng)
                               for _ in range(sc.n_ids))
        else:
            evidence = self._evidence(verifier, target, distance, d_max)
            if kind is None:
                return self._handshake(target, evidence)
            if kind == "wormhole":
                # The tunnel's mouth is the target, on the sector's centre bearing.
                friendly = run_handshake(
                    self._pool(verifier), self.pools[target],
                    wormhole_perturb(evidence, self.tunnel, evidence.aoa_center),
                    sc.handshake, self.payload_rng).friendly
            else:  # sybil
                friendly = sybil_attempt(self.pools[target], self._pool(verifier),
                                         evidence, sc.handshake, self.payload_rng).friendly
        self._record_verdict(target, friendly)
        return friendly

    # ------------------------------------------------------------------ loop

    def execute(self) -> ScenarioMetrics:
        """Run mobility step k at k * mobility_step_s and attack wave w >= 1
        at w * attack_interval_s, in time order, up to the run's end.

        At one instant, an attack wave runs first, then the mobility step,
        then a channel job's end, then that tick's arrivals in flow order.
        A channel that holds a handshake runs up to each instant before its
        handler; at the end every channel runs out and its flows take their
        pending packets.
        """
        duration = self.duration
        step_s = self.sc.mobility_step_s
        wave_s = self.sc.attack_interval_s if self.attacker_kinds else math.inf
        step, wave = 0, 1
        while (now := min(step * step_s, wave * wave_s)) <= duration:
            self.now = now
            # Handshake ends read this step's positions and draw from the
            # payload stream, instant by instant and then in channel order.
            if self.open_handshakes:
                for channel in self.flowing:
                    if channel.control or channel.job.__class__ is tuple:
                        self._drain(channel, now)
            if wave * wave_s == now:
                self._handle_atk()
                wave += 1
            else:
                self._handle_mob(step)
                step += 1
        end = math.nextafter(duration, math.inf)
        for channel in self.flowing:
            self._drain(channel, end)
            for flow in channel.flows:
                flow.take(channel.tick, self.sc.queue_capacity)

        sc = self.sc
        # Every flow saw every arrival; each one it queued is delivered,
        # dropped out of range or still queued.
        generated = self.last_tick * len(self.flows)
        delivered = dropped_range = in_flight = 0
        total_delay = 0.0  # += in flow order; sum() rounds differently from Python 3.12 on
        for flow in self.flows:
            delivered += flow.delivered
            dropped_range += flow.dropped_range
            in_flight += len(flow.queue)
            total_delay += flow.total_delay
        dropped_queue = generated - delivered - dropped_range - in_flight
        friendly = [0] * sc.clusters
        suspicious = [0] * sc.clusters
        for cluster, verdict in zip(self.node_cluster, self.verdict):
            if verdict is True:
                friendly[cluster] += 1
            elif verdict is False:
                suspicious[cluster] += 1
        no_traffic = generated == 0
        return ScenarioMetrics(
            mode=sc.sfv_mode,
            seed=sc.master_seed,
            duration_s=self.duration,
            tx_rate_kbps=sc.tx_rate_kbps,
            node_speed_min=sc.node_speed_min,
            node_speed_max=sc.node_speed_max,
            generated=generated,
            delivered=delivered,
            dropped_queue=dropped_queue,
            dropped_range=dropped_range,
            in_flight=in_flight,
            throughput_kbps=delivered * sc.packet_bits / self.duration / 1000.0,
            mean_delay_s=total_delay / delivered if delivered else 0.0,
            pdr=1.0 if no_traffic else delivered / generated,
            no_traffic=no_traffic,
            handshakes=self.handshakes,
            scan_attempts=self.scan_attempts,
            friendly_per_cluster=tuple(friendly),
            suspicious_per_cluster=tuple(suspicious),
            attack_attempts=self.attack_attempts,
            attacks_detected=self.attacks_detected,
            empirical_detection_rate=(
                self.attacks_detected / self.attack_attempts if self.attack_attempts else 0.0
            ),
        )


def run_scenario(scenario: Scenario, duration_s: float = 60.0) -> ScenarioMetrics:
    """Simulate the scenario for the given span and return its metrics."""
    return _Engine(scenario, duration_s).execute()
