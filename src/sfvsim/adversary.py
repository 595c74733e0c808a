"""Adversary models: wormhole tunnels, Sybil identities, replay detection.

A wormhole stretches the apparent link, inflating round-trip time and the
derived distance while bending the arrival angle toward the tunnel mouth,
so threshold validation catches any tunnel whose latency exceeds the
verifier's processing budget.  A Sybil responder lacks the provisioned
symmetric ID and fails block checksums instead.  Replay attackers are
modeled probabilistically per verification check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .model import IdPool, RangingEvidence
from .protocol import HandshakeConfig, Verdict, run_handshake
from .ranging import LIGHTSPEED, wrap_degrees


@dataclass(frozen=True)
class WormholeTunnel:
    """An out-of-band relay between two colluding endpoints.

    tunnel_latency is the extra one-way delay the relay adds, seconds.
    """

    endpoint_a: str
    endpoint_b: str
    tunnel_latency: float

    def __post_init__(self):
        if self.endpoint_a == self.endpoint_b:
            raise ValueError("tunnel endpoints must differ")
        if not 0 < self.tunnel_latency < math.inf:  # NaN fails too
            raise ValueError(f"tunnel latency must be positive and finite: "
                             f"{self.tunnel_latency}")


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
        evidence.d_radial + LIGHTSPEED * tunnel.tunnel_latency / 2.0,
        evidence.aoa if tunnel_bearing is None else wrap_degrees(tunnel_bearing),
        evidence.rtt + tunnel.tunnel_latency,
        evidence.d_max, evidence.aoa_center, evidence.aoa_halfwidth, evidence.rtt_max)


@dataclass
class SybilIdentitySet(IdPool):
    """False identities one attacker presents as distinct neighbors.

    The pool's ids are the claimed ones.  They must be disjoint from the
    honest pool; the simulator draws them so, since only it sees both
    sets.  The cursor cycles so consecutive block exchanges impersonate
    successive identities.  Nothing reads victim, a label that perfbench
    still passes.
    """

    victim: str = field(default="", kw_only=True)

    def __post_init__(self):
        if not self.ids:
            raise ValueError("a sybil attacker needs at least one claimed id")
        super().__post_init__()


def sybil_attempt(
    attacker: SybilIdentitySet,
    victim: IdPool,
    evidence: RangingEvidence,
    cfg: HandshakeConfig = HandshakeConfig(),
    rng: random.Random | None = None,
) -> Verdict:
    """One masquerade attempt: the victim verifies the next claimed identity.

    The attacker is physically co-located (evidence passes thresholds) and
    presents its identity set as its pool, but the claimed ID seeds the
    wrong keystream word, so checksums fail.  run_handshake refuses a
    missing rng before the cursor moves.
    """
    return run_handshake(victim, attacker, evidence, cfg, rng)


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
