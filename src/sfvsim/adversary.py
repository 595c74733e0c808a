"""Adversary models: wormhole tunnels, Sybil identities, replay detection.

A wormhole stretches the apparent link, inflating round-trip time and the
derived distance while bending the arrival angle toward the tunnel mouth,
so threshold validation catches any tunnel whose latency exceeds the
verifier's processing budget.  A Sybil responder lacks the provisioned
symmetric ID and fails block checksums instead.  Replay attackers are
modeled probabilistically per verification check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .model import IdPool, NodeProfile, RangingEvidence, SymmetricId
from .protocol import HandshakeConfig, Verdict, run_handshake
from .ranging import LIGHTSPEED


@dataclass(frozen=True)
class WormholeTunnel:
    """An out-of-band relay between two colluding endpoints.

    tunnel_latency is the extra one-way delay the relay adds, seconds.
    capture_buffer records evidence the tunnel has replayed, newest last.
    """

    endpoint_a: str
    endpoint_b: str
    tunnel_latency: float
    capture_buffer: tuple[RangingEvidence, ...] = ()

    def __post_init__(self):
        if self.endpoint_a == self.endpoint_b:
            raise ValueError("tunnel endpoints must differ")
        if self.tunnel_latency <= 0:
            raise ValueError(f"tunnel latency must be positive: {self.tunnel_latency}")


def wormhole_perturb(
    evidence: RangingEvidence,
    tunnel: WormholeTunnel,
    tunnel_bearing: float | None = None,
) -> RangingEvidence:
    """Evidence as observed through a tunnel.

    The round trip gains the tunnel latency, the derived distance grows by
    the equivalent half flight, and the arrival angle snaps to the tunnel
    mouth's bearing when the caller supplies one (the tunnel itself only
    knows its endpoint labels, not the victim's geometry).
    """
    return RangingEvidence(
        d_radial=evidence.d_radial + LIGHTSPEED * tunnel.tunnel_latency / 2.0,
        aoa=evidence.aoa if tunnel_bearing is None else tunnel_bearing % 360.0,
        rtt=evidence.rtt + tunnel.tunnel_latency,
        d_max=evidence.d_max,
        aoa_center=evidence.aoa_center,
        aoa_halfwidth=evidence.aoa_halfwidth,
        rtt_max=evidence.rtt_max,
    )


def capture(tunnel: WormholeTunnel, evidence: RangingEvidence) -> WormholeTunnel:
    """Record replayed evidence in the tunnel's capture buffer."""
    return replace(tunnel, capture_buffer=tunnel.capture_buffer + (evidence,))


@dataclass
class SybilIdentitySet:
    """False identities one attacker presents as distinct neighbors.

    Claimed IDs must be disjoint from the honest pool; the scenario
    builder enforces that, since only it sees both sets.  The cursor
    cycles so consecutive attempts impersonate successive identities.
    """

    claimed_ids: list[SymmetricId]
    victim: str
    next_index: int = 0

    def __post_init__(self):
        if not self.claimed_ids:
            raise ValueError("a sybil attacker needs at least one claimed id")
        values = [i.value for i in self.claimed_ids]
        if len(set(values)) != len(values):
            raise ValueError("claimed ids contain duplicates")

    @property
    def claimed_values(self) -> frozenset[int]:
        return frozenset(i.value for i in self.claimed_ids)


def assert_disjoint_identities(attacker: SybilIdentitySet, honest_pool: IdPool) -> None:
    """Reject scenario configurations where claimed IDs leak into the pool."""
    overlap = attacker.claimed_values & {i.value for i in honest_pool.ids}
    if overlap:
        raise ValueError(f"sybil ids collide with the honest pool: {sorted(overlap)}")


def sybil_attempt(
    attacker: SybilIdentitySet,
    victim: NodeProfile,
    evidence: RangingEvidence,
    cfg: HandshakeConfig = HandshakeConfig(),
    rng: random.Random | None = None,
) -> Verdict:
    """One masquerade attempt: the victim verifies the next claimed identity.

    The attacker is physically co-located (evidence passes thresholds) but
    its claimed ID seeds the wrong keystream word, so checksums fail.
    """
    claimed = attacker.claimed_ids[attacker.next_index % len(attacker.claimed_ids)]
    attacker.next_index = (attacker.next_index + 1) % len(attacker.claimed_ids)
    impostor = NodeProfile(
        node_id=f"sybil-against-{attacker.victim}",
        position=victim.position,
        velocity=(0.0, 0.0),
        role="sybil",
        pool=IdPool([claimed]),
    )
    return run_handshake(victim, impostor, evidence, cfg, rng)


@dataclass(frozen=True)
class ReplayProfile:
    """Per-check replay success probabilities for a modeled attacker.

    p_wormhole    chance the location evidence replay goes unnoticed
    p_id_replay   chance the identity replay goes unnoticed
    p_rtt_replay  chance the timing replay goes unnoticed
    """

    p_wormhole: float
    p_id_replay: float
    p_rtt_replay: float

    def __post_init__(self):
        for name, p in (
            ("p_wormhole", self.p_wormhole),
            ("p_id_replay", self.p_id_replay),
            ("p_rtt_replay", self.p_rtt_replay),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")

    @classmethod
    def calibrated(cls, detection_probability: float = 0.35) -> "ReplayProfile":
        """Equal per-check profile whose joint detection hits the target."""
        if not 0.0 <= detection_probability <= 1.0:
            raise ValueError(f"target must be a probability, got {detection_probability}")
        p = 1.0 - detection_probability ** (1.0 / 3.0)
        return cls(p, p, p)


def sample_detection(profile: ReplayProfile, rng: random.Random) -> bool:
    """One simulated verification against a replay attacker.

    Each check independently catches its replay unless the replay
    succeeds; the attacker is detected only when all three checks catch.
    Three variates are always drawn so callers' streams stay aligned.
    """
    u_location = rng.random()
    u_identity = rng.random()
    u_timing = rng.random()
    return (
        u_location >= profile.p_wormhole
        and u_identity >= profile.p_id_replay
        and u_timing >= profile.p_rtt_replay
    )
