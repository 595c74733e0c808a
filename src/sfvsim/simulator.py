"""Deterministic cluster-network simulator with verification-gated links.

Nodes roam their cluster under random-waypoint mobility.  Constant-rate
sources feed per-flow FIFO queues drained by a shared per-cluster channel;
in the verification modes a link carries data only after a handshake, paid
for in channel time, and every link break forces a fresh one.  Power-
stepped scanning picks the tightest radio range, which trades energy for
earlier link breaks.  Everything derives from one master seed.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field, fields, replace

from .adversary import (
    ReplayProfile,
    SybilIdentitySet,
    WormholeTunnel,
    sample_detection,
    sybil_attempt,
    wormhole_perturb,
)
from .model import IdPool, NodeProfile, SymmetricId
from .protocol import HandshakeConfig, run_handshake
from .ranging import ScanPlan, evidence_for_link, scan_for_neighbor

SFV_MODES = ("off", "sfv", "sfv-ranging")


@dataclass(frozen=True)
class QueueModel:
    """Per-flow FIFO queue drained by the shared cluster channel.

    capacity counts queued packets including the one in service;
    service_rate_kbps is the channel transmission rate packets drain at.
    """

    capacity: int = 50
    service_rate_kbps: float = 1200.0

    def __post_init__(self):
        if not math.isfinite(self.service_rate_kbps):
            raise ValueError(f"service rate must be finite: {self.service_rate_kbps}")
        if self.capacity < 1:
            raise ValueError(f"queue capacity must be at least 1: {self.capacity}")
        if self.service_rate_kbps <= 0:
            raise ValueError(f"service rate must be positive: {self.service_rate_kbps}")


@dataclass(frozen=True)
class Scenario:
    """A complete simulation configuration.

    The defaults describe the reference deployment: a 3000 x 3000 m
    terrain holding ten 300 x 300 m clusters of eighty nodes, selectable
    radio ranges of 230/250/270 m, 512-byte constant-rate traffic and
    random-waypoint speeds of 5 to 50 m/s.
    """

    terrain: tuple[float, float] = (3000.0, 3000.0)
    clusters: int = 10
    cluster_size: tuple[float, float] = (300.0, 300.0)
    nodes_per_cluster: int = 80
    radio_ranges: tuple[float, ...] = (230.0, 250.0, 270.0)
    tx_rate_kbps: float = 1000.0
    packet_size_bytes: int = 512
    node_speed: tuple[float, float] = (5.0, 50.0)
    mobility: str = "random-waypoint"
    traffic: str = "cbr"
    sfv_mode: str = "sfv"
    master_seed: int = 1
    queue: QueueModel = QueueModel()
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
        if self.sfv_mode == "sfv-with-ranging":
            object.__setattr__(self, "sfv_mode", "sfv-ranging")
        for spec in fields(self):
            value = getattr(self, spec.name)
            parts = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in parts):
                raise ValueError(f"{spec.name} must be finite: {value}")
        if self.terrain[0] <= 0 or self.terrain[1] <= 0:
            raise ValueError(f"terrain must be positive: {self.terrain}")
        if self.cluster_size[0] <= 0 or self.cluster_size[1] <= 0:
            raise ValueError(f"cluster size must be positive: {self.cluster_size}")
        if self.clusters < 1:
            raise ValueError(f"need at least one cluster: {self.clusters}")
        if self.nodes_per_cluster < 1:
            raise ValueError(f"need at least one node per cluster: {self.nodes_per_cluster}")
        if not self.radio_ranges:
            raise ValueError("need at least one radio range")
        if any(b <= a for a, b in zip(self.radio_ranges, self.radio_ranges[1:])):
            raise ValueError(f"radio ranges must be strictly increasing: {self.radio_ranges}")
        if self.radio_ranges[0] <= 0:
            raise ValueError(f"radio ranges must be positive: {self.radio_ranges}")
        if self.tx_rate_kbps < 0:
            raise ValueError(f"traffic rate cannot be negative: {self.tx_rate_kbps}")
        if self.packet_size_bytes < 1:
            raise ValueError(f"packet size must be positive: {self.packet_size_bytes}")
        lo, hi = self.node_speed
        if lo < 0 or hi < lo:
            raise ValueError(f"speed range must satisfy 0 <= lo <= hi: {self.node_speed}")
        if self.mobility != "random-waypoint":
            raise ValueError(f"unsupported mobility model: {self.mobility!r}")
        if self.traffic != "cbr":
            raise ValueError(f"unsupported traffic model: {self.traffic!r}")
        if self.sfv_mode not in SFV_MODES:
            raise ValueError(f"sfv_mode must be one of {SFV_MODES}: {self.sfv_mode!r}")
        if self.flows_per_cluster < 0:
            raise ValueError(f"flow count cannot be negative: {self.flows_per_cluster}")
        if self.n_ids < 1:
            raise ValueError(f"pools need at least one id: {self.n_ids}")
        if not 0.0 <= self.attacker_fraction <= 1.0:
            raise ValueError(f"attacker fraction must lie in [0, 1]: {self.attacker_fraction}")
        if self.attacker_kind not in ("sybil", "wormhole", "replay", "mixed"):
            raise ValueError(f"unknown attacker kind: {self.attacker_kind!r}")
        if self.attacker_kind == "replay" and self.attacker_fraction > 0 and self.replay_profile is None:
            raise ValueError("replay attackers need a replay_profile")
        for name, value in (
            ("mobility_step_s", self.mobility_step_s),
            ("discovery_interval_s", self.discovery_interval_s),
            ("attack_interval_s", self.attack_interval_s),
            ("handshake_base_s", self.handshake_base_s),
            ("tunnel_latency_s", self.tunnel_latency_s),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive: {value}")
        if self.handshake_attempt_extra_s < 0:
            raise ValueError("handshake_attempt_extra_s cannot be negative")

    @property
    def packet_bits(self) -> int:
        return self.packet_size_bytes * 8


def _rect(bounds) -> tuple[float, float, float, float]:
    if len(bounds) == 2:
        return 0.0, 0.0, float(bounds[0]), float(bounds[1])
    x0, y0, x1, y1 = bounds
    return float(x0), float(y0), float(x1), float(y1)


def step_mobility(
    profile: NodeProfile,
    dt: float,
    terrain,
    speed_range: tuple[float, float],
    rng_stream: random.Random,
    pause_s: float = 0.0,
) -> NodeProfile:
    """Advance one node by dt seconds of random-waypoint motion.

    Needing a leg draws exactly three variates (waypoint x, waypoint y,
    speed) so parallel runs consume the stream identically.  Arrival lands
    exactly on the waypoint; the next leg starts on the following step,
    after any pause.  The position never leaves the given bounds.
    """
    if dt <= 0:
        raise ValueError(f"time step must be positive: {dt}")
    x0, y0, x1, y1 = _rect(terrain)
    if profile.pause_remaining > 0:
        return replace(profile, velocity=(0.0, 0.0),
                       pause_remaining=max(0.0, profile.pause_remaining - dt))
    x, y = profile.position
    waypoint = profile.waypoint
    if waypoint is None:
        wx = rng_stream.uniform(x0, x1)
        wy = rng_stream.uniform(y0, y1)
        speed = rng_stream.uniform(speed_range[0], speed_range[1])
        waypoint = (wx, wy)
    else:
        vx, vy = profile.velocity
        speed = math.hypot(vx, vy)
    dx = waypoint[0] - x
    dy = waypoint[1] - y
    distance = math.hypot(dx, dy)
    step = speed * dt
    if step >= distance:
        return replace(profile, position=waypoint, velocity=(0.0, 0.0),
                       waypoint=None, pause_remaining=pause_s)
    ux, uy = dx / distance, dy / distance
    return replace(profile, position=(x + ux * step, y + uy * step),
                   velocity=(ux * speed, uy * speed), waypoint=waypoint,
                   pause_remaining=0.0)


def cluster_rects(scenario: Scenario) -> list[tuple[float, float, float, float]]:
    """Deterministic cluster placement: a grid of cells, rects centered."""
    cols = math.ceil(math.sqrt(scenario.clusters))
    rows = math.ceil(scenario.clusters / cols)
    cell_w = scenario.terrain[0] / cols
    cell_h = scenario.terrain[1] / rows
    w = min(scenario.cluster_size[0], cell_w)
    h = min(scenario.cluster_size[1], cell_h)
    rects = []
    for index in range(scenario.clusters):
        cx = (index % cols + 0.5) * cell_w
        cy = (index // cols + 0.5) * cell_h
        rects.append((cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
    return rects


class _Flow:
    """One constant-rate source-destination pair inside a cluster."""

    __slots__ = (
        "src", "dst", "cluster", "queue", "generated", "dropped_queue",
        "dropped_range", "delivered", "total_delay", "connected",
        "handshaking", "selected_range", "seq",
    )

    def __init__(self, src: int, dst: int, cluster: int):
        self.src = src
        self.dst = dst
        self.cluster = cluster
        self.queue: deque[float] = deque()
        self.generated = 0
        self.dropped_queue = 0
        self.dropped_range = 0
        self.delivered = 0
        self.total_delay = 0.0
        self.connected = False
        self.handshaking = False
        self.selected_range = 0.0
        self.seq = 0  # heap sequence number reserved for the next arrival


class _Channel:
    """Single-server shared medium for one cluster."""

    __slots__ = ("job", "control", "rr")

    def __init__(self):
        self.job = None
        self.control: deque = deque()
        self.rr = 0


@dataclass
class ScenarioRun:
    """Raw tallies of one finished simulation."""

    scenario: Scenario
    duration_s: float
    generated: int = 0
    delivered: int = 0
    dropped_queue: int = 0
    dropped_range: int = 0
    in_flight: int = 0
    total_delay_s: float = 0.0
    handshakes: int = 0
    scan_attempts: int = 0
    friendly_nodes: list = field(default_factory=list)    # one set per cluster
    suspicious_nodes: list = field(default_factory=list)  # one set per cluster
    attack_attempts: int = 0
    attacks_detected: int = 0


@dataclass(frozen=True)
class ScenarioMetrics:
    """Headline measurements of one run."""

    mode: str
    master_seed: int
    duration_s: float
    tx_rate_kbps: float
    node_speed: tuple[float, float]
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
    """Event-driven core: a heap of (time, seq, kind, payload) records.

    Mobility advances in fixed batches; discovery and link setup happen on
    coarser epochs; packet generation and channel service run on exact
    event times.  All randomness flows from per-subsystem child streams of
    the master seed, drawn in a fixed order, so equal seeds replay equal
    runs and mobility never depends on mode or traffic settings.

    Kinematics live only in flat per-node lists (x, y, vx, vy, waypoint,
    pause); a NodeProfile is built from them on demand, for a handshake or
    for a node that starts a new leg or is pausing.
    """

    def __init__(self, scenario: Scenario, duration_s: float):
        if not (math.isfinite(duration_s) and duration_s > 0):
            raise ValueError(f"duration must be positive and finite: {duration_s}")
        self.sc = scenario
        self.duration = float(duration_s)
        root = random.Random(scenario.master_seed)
        self.layout_rng = random.Random(root.getrandbits(64))
        self.mobility_rng = random.Random(root.getrandbits(64))
        self.payload_rng = random.Random(root.getrandbits(64))
        self.attack_rng = random.Random(root.getrandbits(64))
        self.noise_rng = random.Random(root.getrandbits(64))

        self.heap: list = []
        self.seq = 0
        self.now = 0.0
        self.run = ScenarioRun(scenario, self.duration)
        self.run.friendly_nodes = [set() for _ in range(scenario.clusters)]
        self.run.suspicious_nodes = [set() for _ in range(scenario.clusters)]

        self.max_range = scenario.radio_ranges[-1]
        self.scan_plan = ScanPlan(scenario.radio_ranges, ranging=scenario.sfv_mode == "sfv-ranging")
        self.data_time = scenario.packet_bits / (scenario.queue.service_rate_kbps * 1000.0)
        self.gen_interval = (
            scenario.packet_bits / (scenario.tx_rate_kbps * 1000.0)
            if scenario.tx_rate_kbps > 0 else None
        )
        self.epoch_every = max(1, round(scenario.discovery_interval_s / scenario.mobility_step_s))

        self._build_population()
        self._build_flows()
        self._prime_events()

    # ------------------------------------------------------------------ setup

    def _build_population(self) -> None:
        sc = self.sc
        self.rects = cluster_rects(sc)
        self.honest_ids = self._draw_distinct_ids(sc.n_ids, taken=set())
        honest_values = {i.value for i in self.honest_ids}

        self.node_id: list[str] = []
        self.node_role: list[str] = []
        self.node_pool: list[IdPool] = []
        self.x: list[float] = []
        self.y: list[float] = []
        self.node_cluster: list[int] = []
        self.node_rect: list[tuple] = []
        self.attacker_kinds: dict[int, str] = {}
        self.sybil_sets: dict[int, SybilIdentitySet] = {}
        self.tunnels: dict[int, float] = {}  # node index -> tunnel latency
        self.honest_by_cluster: list[list[int]] = [[] for _ in range(sc.clusters)]

        per_cluster_attackers = round(sc.attacker_fraction * sc.nodes_per_cluster)
        wormhole_pending: list[int] = []
        taken = set(honest_values)

        for c in range(sc.clusters):
            rect = self.rects[c]
            attacker_slots = set(
                self.layout_rng.sample(range(sc.nodes_per_cluster), per_cluster_attackers)
                if per_cluster_attackers else []
            )
            for i in range(sc.nodes_per_cluster):
                index = len(self.node_id)
                node_id = f"c{c}-n{i}"
                self.x.append(self.layout_rng.uniform(rect[0], rect[2]))
                self.y.append(self.layout_rng.uniform(rect[1], rect[3]))
                if i in attacker_slots:
                    kind = self._attacker_kind(index)
                    role = "wormhole-endpoint" if kind == "wormhole" else "sybil"
                    claimed = self._draw_distinct_ids(sc.n_ids, taken)
                    pool = IdPool(list(claimed))
                    self.attacker_kinds[index] = kind
                    if kind == "sybil" or kind == "replay":
                        self.sybil_sets[index] = SybilIdentitySet(list(claimed), victim=node_id)
                    if kind == "wormhole":
                        wormhole_pending.append(index)
                else:
                    role = "honest"
                    pool = IdPool(list(self.honest_ids))
                    self.honest_by_cluster[c].append(index)
                self.node_id.append(node_id)
                self.node_role.append(role)
                self.node_pool.append(pool)
                self.node_cluster.append(c)
                self.node_rect.append(rect)

        count = len(self.node_id)
        self.vx: list[float] = [0.0] * count
        self.vy: list[float] = [0.0] * count
        self.waypoint: list[tuple[float, float] | None] = [None] * count
        self.pause: list[float] = [0.0] * count

        # Wormhole endpoints pair up in discovery order; an unpaired
        # leftover falls back to sybil behavior.
        for a, b in zip(wormhole_pending[0::2], wormhole_pending[1::2]):
            self.tunnels[a] = sc.tunnel_latency_s
            self.tunnels[b] = sc.tunnel_latency_s
        if len(wormhole_pending) % 2:
            leftover = wormhole_pending[-1]
            self.attacker_kinds[leftover] = "sybil"
            claimed = self._draw_distinct_ids(sc.n_ids, taken)
            self.sybil_sets[leftover] = SybilIdentitySet(
                list(claimed), victim=self.node_id[leftover])

        self.pair_pools: dict[tuple[int, int], tuple[IdPool, IdPool]] = {}

        # Each honest verifier's not yet verified in-cluster peers in scan
        # order: honest peers, then attackers, each in index order.  A pair
        # leaves both lists once verified; an empty list retires its
        # verifier for good, since the verified set only grows.
        self.unverified: dict[int, list[int]] = {}
        if sc.neighbor_verification:
            for c, honest in enumerate(self.honest_by_cluster):
                order = honest + [a for a in sorted(self.attacker_kinds)
                                  if self.node_cluster[a] == c]
                for index in honest:
                    self.unverified[index] = [peer for peer in order if peer != index]

    def _attacker_kind(self, index: int) -> str:
        sc = self.sc
        if sc.attacker_kind == "mixed":
            return "sybil" if index % 2 == 0 else "wormhole"
        return sc.attacker_kind

    def _draw_distinct_ids(self, count: int, taken: set) -> list[SymmetricId]:
        ids = []
        while len(ids) < count:
            value = self.layout_rng.getrandbits(26)
            if value in taken:
                continue
            taken.add(value)
            ids.append(SymmetricId(value))
        return ids

    def _build_flows(self) -> None:
        sc = self.sc
        self.flows: list[_Flow] = []
        self.cluster_flows: list[list[_Flow]] = [[] for _ in range(sc.clusters)]
        for c in range(sc.clusters):
            honest = self.honest_by_cluster[c]
            for _ in range(sc.flows_per_cluster):
                if len(honest) < 2:
                    break
                src, dst = self.layout_rng.sample(honest, 2)
                flow = _Flow(src, dst, c)
                self.flows.append(flow)
                self.cluster_flows[c].append(flow)
        self.channels = [_Channel() for _ in range(sc.clusters)]

    def _prime_events(self) -> None:
        self._push(0.0, "mob", 0)
        if self.gen_interval is not None and self.flows and self.gen_interval <= self.duration:
            for flow in self.flows:
                self.seq += 1
                flow.seq = self.seq
            heapq.heappush(self.heap, (self.gen_interval, self.flows[0].seq, "tick", 1))
        if self.attacker_kinds and self.sc.attack_interval_s <= self.duration:
            self._push(self.sc.attack_interval_s, "atk", 1)

    # ------------------------------------------------------------------ plumbing

    def _push(self, time: float, kind: str, payload) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (time, self.seq, kind, payload))

    def _distance(self, a: int, b: int) -> float:
        x, y = self.x, self.y
        return math.hypot(x[b] - x[a], y[b] - y[a])

    def _bearing(self, a: int, b: int) -> float:
        x, y = self.x, self.y
        return math.degrees(math.atan2(y[b] - y[a], x[b] - x[a])) % 360.0

    def _profile(self, i: int, pool: IdPool | None = None) -> NodeProfile:
        """Node i as a NodeProfile, carrying its own pool unless one is given."""
        return NodeProfile(
            node_id=self.node_id[i], position=(self.x[i], self.y[i]),
            velocity=(self.vx[i], self.vy[i]), role=self.node_role[i],
            pool=self.node_pool[i] if pool is None else pool,
            waypoint=self.waypoint[i], pause_remaining=self.pause[i],
        )

    def _pair_pools(self, a: int, b: int) -> tuple[IdPool, IdPool]:
        key = (a, b) if a < b else (b, a)
        pools = self.pair_pools.get(key)
        if pools is None:
            pools = (IdPool(list(self.honest_ids)), IdPool(list(self.honest_ids)))
            self.pair_pools[key] = pools
        return pools if a < b else (pools[1], pools[0])

    def _evidence(self, a: int, b: int, d_max: float):
        sc = self.sc
        distance_noise = angle_noise = rtt_noise = 0.0
        if sc.noise_distance_m > 0:
            distance_noise = self.noise_rng.uniform(-sc.noise_distance_m, sc.noise_distance_m)
        if sc.noise_angle_deg > 0:
            angle_noise = self.noise_rng.uniform(-sc.noise_angle_deg, sc.noise_angle_deg)
        if sc.noise_rtt_s > 0:
            rtt_noise = self.noise_rng.uniform(-sc.noise_rtt_s, sc.noise_rtt_s)
        return evidence_for_link(
            self._distance(a, b), self._bearing(a, b), d_max,
            processing_budget=sc.processing_budget_s,
            aoa_halfwidth=sc.aoa_halfwidth_deg,
            distance_noise=distance_noise,
            angle_noise=angle_noise,
            rtt_noise=rtt_noise,
        )

    def _record_verdict(self, node_index: int, friendly: bool) -> None:
        cluster = self.node_cluster[node_index]
        node_id = self.node_id[node_index]
        if friendly:
            self.run.friendly_nodes[cluster].add(node_id)
        else:
            self.run.suspicious_nodes[cluster].add(node_id)

    # ------------------------------------------------------------------ handlers

    def _handle_tick(self, tick: int) -> None:
        """Every flow's packet number `tick`, all due now.

        Each flow holds the heap sequence number its own arrival event
        would have taken, so the arrivals keep their place among other
        events due now: before flow h's arrival, every such event with a
        smaller sequence number runs first.  The tick itself is keyed on
        flow 0's number.
        """
        now = self.now
        heap = self.heap
        handlers = self._HANDLERS
        channels = self.channels
        capacity = self.sc.queue.capacity
        next_time = (tick + 1) * self.gen_interval
        more = next_time <= self.duration
        for flow in self.flows:
            while heap and heap[0][0] == now and heap[0][1] < flow.seq:
                _, _, kind, payload = heapq.heappop(heap)
                handlers[kind](self, payload)
            flow.generated += 1
            if len(flow.queue) < capacity:
                flow.queue.append(now)
                if channels[flow.cluster].job is None:  # a busy channel picks it up when done
                    self._dispatch(flow.cluster)
            else:
                flow.dropped_queue += 1
            if more:
                self.seq += 1
                flow.seq = self.seq
        if more:
            heapq.heappush(heap, (next_time, self.flows[0].seq, "tick", tick + 1))

    def _dispatch(self, cluster: int) -> None:
        channel = self.channels[cluster]
        if channel.job is not None:
            return
        if channel.control:
            job = channel.control.popleft()
            channel.job = job
            self._push(self.now + job[1], "svc", cluster)
            return
        flows = self.cluster_flows[cluster]
        for offset in range(len(flows)):
            index = (channel.rr + offset) % len(flows)
            flow = flows[index]
            if flow.connected and flow.queue:
                channel.rr = (index + 1) % len(flows)
                channel.job = ("data", flow)
                self._push(self.now + self.data_time, "svc", cluster)
                return

    def _handle_svc(self, cluster: int) -> None:
        channel = self.channels[cluster]
        job = channel.job
        channel.job = None
        if job is None:
            return
        if job[0] == "data":
            flow = job[1]
            sent_at = flow.queue.popleft()
            if self._distance(flow.src, flow.dst) <= flow.selected_range:
                flow.delivered += 1
                flow.total_delay += self.now - sent_at
            else:
                flow.dropped_range += 1
        elif job[0] == "hs":
            _, _, flow, evidence, selected = job
            self._finish_handshake(flow, evidence, selected)
        self._dispatch(cluster)

    def _finish_handshake(self, flow: _Flow, evidence, selected: float) -> None:
        pool_a, pool_b = self._pair_pools(flow.src, flow.dst)
        verdict = run_handshake(
            self._profile(flow.src, pool_a),
            self._profile(flow.dst, pool_b),
            evidence,
            self.sc.handshake,
            self.payload_rng,
        )
        flow.handshaking = False
        self.run.handshakes += 1
        self._record_verdict(flow.dst, verdict.friendly)
        if verdict.friendly:
            flow.selected_range = selected
            flow.connected = self._distance(flow.src, flow.dst) <= selected

    def _handle_mob(self, step_index: int) -> None:
        sc = self.sc
        if step_index > 0:  # step 0 only runs discovery on the laid-out positions
            self._step_nodes()
        epoch = step_index % self.epoch_every == 0
        for flow in self.flows:
            distance = self._distance(flow.src, flow.dst)
            if flow.connected:
                if distance > flow.selected_range:
                    flow.connected = False
            elif epoch and not flow.handshaking:
                self._try_connect(flow, distance)
        if epoch and sc.neighbor_verification:
            self._verify_neighbors()
        for cluster in range(sc.clusters):
            self._dispatch(cluster)
        next_time = (step_index + 1) * sc.mobility_step_s
        if next_time <= self.duration:
            self._push(next_time, "mob", step_index + 1)

    def _step_nodes(self) -> None:
        """Advance every node by one mobility step.

        A node in mid-leg moves inline with exactly step_mobility's
        arithmetic, speed re-derived from the velocity included, so runs
        stay byte-identical.  A node between legs or pausing goes through
        step_mobility itself, which alone draws a leg's three variates.
        """
        sc = self.sc
        dt = sc.mobility_step_s
        xs, ys, vxs, vys = self.x, self.y, self.vx, self.vy
        waypoints, pauses = self.waypoint, self.pause
        hypot = math.hypot
        for i in range(len(xs)):
            waypoint = waypoints[i]
            if waypoint is None:  # a node keeps no waypoint while it pauses
                moved = step_mobility(self._profile(i), dt, self.node_rect[i],
                                      sc.node_speed, self.mobility_rng, sc.pause_s)
                xs[i], ys[i] = moved.position
                vxs[i], vys[i] = moved.velocity
                waypoints[i] = moved.waypoint
                pauses[i] = moved.pause_remaining
                continue
            x = xs[i]
            y = ys[i]
            speed = hypot(vxs[i], vys[i])
            dx = waypoint[0] - x
            dy = waypoint[1] - y
            distance = hypot(dx, dy)
            step = speed * dt
            if step >= distance:
                xs[i], ys[i] = waypoint
                vxs[i] = vys[i] = 0.0
                waypoints[i] = None
                pauses[i] = sc.pause_s
            else:
                ux, uy = dx / distance, dy / distance
                xs[i] = x + ux * step
                ys[i] = y + uy * step
                vxs[i] = ux * speed
                vys[i] = uy * speed

    def _try_connect(self, flow: _Flow, distance: float) -> None:
        sc = self.sc
        if sc.sfv_mode == "off":
            if distance <= self.max_range:
                flow.selected_range = self.max_range
                flow.connected = True
            return
        scan = scan_for_neighbor(self.scan_plan, distance)
        self.run.scan_attempts += scan.attempts
        if scan.selected_range is None:
            return
        evidence = self._evidence(flow.src, flow.dst, scan.selected_range)
        duration = sc.handshake_base_s + (scan.attempts - 1) * sc.handshake_attempt_extra_s
        self.channels[flow.cluster].control.append(
            ("hs", duration, flow, evidence, scan.selected_range))
        flow.handshaking = True

    # Neighbor verification sweeps run off-channel: they tally verdicts
    # for coverage maps without competing with data traffic.  Each verifier,
    # in index order, checks its nearest unverified peer in range; the
    # first of equally near peers in scan order wins.
    def _verify_neighbors(self) -> None:
        xs, ys = self.x, self.y
        hypot = math.hypot
        unverified = self.unverified
        retired = []
        for index, peers in unverified.items():
            if not peers:
                retired.append(index)
                continue
            ax = xs[index]
            ay = ys[index]
            best = None
            best_distance = math.inf
            for peer in peers:
                distance = hypot(xs[peer] - ax, ys[peer] - ay)
                if distance < best_distance:
                    best, best_distance = peer, distance
            if best_distance > self.max_range:
                continue
            peers.remove(best)
            if best in unverified:
                unverified[best].remove(index)
            self._verify_pair(index, best, best_distance)
        for index in retired:
            del unverified[index]

    def _verify_pair(self, verifier: int, target: int, distance: float) -> None:
        scan = scan_for_neighbor(self.scan_plan, distance)
        if scan.selected_range is None:
            return
        kind = self.attacker_kinds.get(target)
        if kind is None:
            pool_a, pool_b = self._pair_pools(verifier, target)
            verdict = run_handshake(
                self._profile(verifier, pool_a),
                self._profile(target, pool_b),
                self._evidence(verifier, target, scan.selected_range),
                self.sc.handshake,
                self.payload_rng,
            )
            self.run.handshakes += 1
            self._record_verdict(target, verdict.friendly)
        else:
            self._attack_verdict(verifier, target, kind, record_attempt=False)

    def _handle_atk(self, wave: int) -> None:
        for attacker in sorted(self.attacker_kinds):
            victim = self._nearest_honest(attacker)
            if victim is None:
                continue
            self._attack_verdict(victim, attacker, self.attacker_kinds[attacker],
                                 record_attempt=True)
        next_time = (wave + 1) * self.sc.attack_interval_s
        if next_time <= self.duration:
            self._push(next_time, "atk", wave + 1)

    def _nearest_honest(self, attacker: int) -> int | None:
        cluster = self.node_cluster[attacker]
        best = None
        best_distance = None
        for index in self.honest_by_cluster[cluster]:
            distance = self._distance(attacker, index)
            if distance <= self.max_range and (best_distance is None or distance < best_distance):
                best, best_distance = index, distance
        return best

    def _attack_verdict(self, victim: int, attacker: int, kind: str,
                        record_attempt: bool) -> None:
        sc = self.sc
        if record_attempt:
            self.run.attack_attempts += 1
        if kind == "replay":
            detected = any(
                sample_detection(sc.replay_profile, self.attack_rng)
                for _ in range(sc.n_ids)
            )
        elif kind == "wormhole":
            latency = self.tunnels.get(attacker, sc.tunnel_latency_s)
            tunnel = WormholeTunnel(
                endpoint_a=self.node_id[attacker],
                endpoint_b=f"{self.node_id[attacker]}-far",
                tunnel_latency=latency,
            )
            distance = self._distance(victim, attacker)
            scan = scan_for_neighbor(self.scan_plan, distance)
            d_max = scan.selected_range if scan.selected_range is not None else self.max_range
            evidence = wormhole_perturb(
                self._evidence(victim, attacker, d_max), tunnel,
                self._bearing(victim, attacker),
            )
            verdict = run_handshake(
                self._profile(victim),
                self._profile(attacker),
                evidence,
                sc.handshake,
                self.payload_rng,
            )
            detected = not verdict.friendly
        else:  # sybil
            distance = self._distance(victim, attacker)
            scan = scan_for_neighbor(self.scan_plan, distance)
            d_max = scan.selected_range if scan.selected_range is not None else self.max_range
            evidence = self._evidence(victim, attacker, d_max)
            verdict = sybil_attempt(
                self.sybil_sets[attacker], self._profile(victim), evidence,
                sc.handshake, self.payload_rng,
            )
            detected = not verdict.friendly
        if record_attempt and detected:
            self.run.attacks_detected += 1
        self._record_verdict(attacker, friendly=not detected)

    # ------------------------------------------------------------------ loop

    # Plain functions, not bound methods: a table of bound methods kept on
    # the engine would form a reference cycle and outlive the run.
    _HANDLERS = {"tick": _handle_tick, "svc": _handle_svc,
                 "mob": _handle_mob, "atk": _handle_atk}

    def execute(self) -> ScenarioRun:
        handlers = self._HANDLERS
        heap = self.heap
        while heap:
            time, _, kind, payload = heapq.heappop(heap)
            if time > self.duration:
                break
            self.now = time
            handlers[kind](self, payload)
        self._collect()
        return self.run

    def _collect(self) -> None:
        run = self.run
        for flow in self.flows:
            run.generated += flow.generated
            run.delivered += flow.delivered
            run.dropped_queue += flow.dropped_queue
            run.dropped_range += flow.dropped_range
            run.in_flight += len(flow.queue)
            run.total_delay_s += flow.total_delay
        # A node flagged even once stays suspicious; drop it from friendly.
        for cluster in range(self.sc.clusters):
            run.friendly_nodes[cluster] -= run.suspicious_nodes[cluster]


def run_scenario(scenario: Scenario, duration_s: float = 60.0) -> ScenarioRun:
    """Simulate the scenario for the given span and return its tallies."""
    return _Engine(scenario, duration_s).execute()


def measure_metrics(run: ScenarioRun) -> ScenarioMetrics:
    """Reduce raw tallies to headline metrics."""
    sc = run.scenario
    delivered_bits = run.delivered * sc.packet_bits
    no_traffic = run.generated == 0
    return ScenarioMetrics(
        mode=sc.sfv_mode,
        master_seed=sc.master_seed,
        duration_s=run.duration_s,
        tx_rate_kbps=sc.tx_rate_kbps,
        node_speed=sc.node_speed,
        generated=run.generated,
        delivered=run.delivered,
        dropped_queue=run.dropped_queue,
        dropped_range=run.dropped_range,
        in_flight=run.in_flight,
        throughput_kbps=delivered_bits / run.duration_s / 1000.0,
        mean_delay_s=run.total_delay_s / run.delivered if run.delivered else 0.0,
        pdr=1.0 if no_traffic else run.delivered / run.generated,
        no_traffic=no_traffic,
        handshakes=run.handshakes,
        scan_attempts=run.scan_attempts,
        friendly_per_cluster=tuple(len(s) for s in run.friendly_nodes),
        suspicious_per_cluster=tuple(len(s) for s in run.suspicious_nodes),
        attack_attempts=run.attack_attempts,
        attacks_detected=run.attacks_detected,
        empirical_detection_rate=(
            run.attacks_detected / run.attack_attempts if run.attack_attempts else 0.0
        ),
    )

