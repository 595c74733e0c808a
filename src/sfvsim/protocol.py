"""The two-phase strict friendliness handshake.

Phase one gates on ranging evidence: distance, round-trip time and
arrival angle must all pass, with a bounded number of fresh-evidence
retries.  Phase two sends m random blocks through the rolling-key cipher;
the responder is friendly only if every block's checksum survives
decryption.  A forged symmetric ID or desynchronized seeds corrupt the
keystream and fail the checksums with overwhelming probability.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Union

# The handshake runs the int-level exchange.  The per-block API stays bound
# here too: perfbench's tracer wraps these three names on this module.
from .keyschedule import (  # noqa: F401
    _exchange,
    decrypt_block,
    encrypt_block,
    init_session,
    seed_from_location,
    seed_from_rtt,
)
from .model import NodeProfile, RangingEvidence, select_symmetric_id
from .ranging import validate_evidence

REASON_ID_MISMATCH = "id-mismatch"

EvidenceSource = Union[RangingEvidence, Callable[[], RangingEvidence]]


@dataclass(frozen=True)
class HandshakeConfig:
    """Handshake knobs: block count, ranging probes, threshold retries."""

    m_blocks: int = 4
    n_ranging: int = 3
    retry_limit: int = 1

    def __post_init__(self):
        if self.m_blocks < 1:
            raise ValueError("handshake needs at least one verification block")
        if self.n_ranging < 1:
            raise ValueError("ranging needs at least one probe packet")
        if self.retry_limit < 0:
            raise ValueError("retry limit cannot be negative")


@dataclass(frozen=True)
class Verdict:
    """Handshake outcome.  Friendly means no failure reasons and all
    m blocks verified; anything else is suspicious."""

    outcome: str  # "friendly" | "suspicious"
    reasons: tuple[str, ...]
    blocks_verified: int
    m_blocks: int

    def __post_init__(self):
        friendly = not self.reasons and self.blocks_verified == self.m_blocks
        expected = "friendly" if friendly else "suspicious"
        if self.outcome != expected:
            raise ValueError(
                f"inconsistent verdict: outcome={self.outcome!r} with "
                f"reasons={self.reasons} blocks={self.blocks_verified}/{self.m_blocks}"
            )

    @property
    def friendly(self) -> bool:
        return self.outcome == "friendly"


@dataclass(frozen=True)
class TranscriptEvent:
    """One replayable handshake log record."""

    phase: str
    event: str
    block_index: int | None
    outcome: str


def transcript_lines(events: list[TranscriptEvent]) -> list[str]:
    """Render a transcript as 'phase,event,block_index,outcome' lines."""
    return [
        f"{e.phase},{e.event},{'' if e.block_index is None else e.block_index},{e.outcome}"
        for e in events
    ]


def _seed_digest(seed_i: int, seed_n: int) -> str:
    # Seeds are key material; the log keeps only a short digest.
    material = f"{seed_i}:{seed_n}".encode()
    return hashlib.sha256(material).hexdigest()[:12]


def _draw_evidence(source: EvidenceSource) -> RangingEvidence:
    return source() if callable(source) else source


def run_handshake(
    initiator: NodeProfile,
    responder: NodeProfile,
    evidence: EvidenceSource,
    cfg: HandshakeConfig = HandshakeConfig(),
    rng: random.Random | None = None,
    *,
    responder_evidence: EvidenceSource | None = None,
    transcript: list[TranscriptEvent] | None = None,
) -> Verdict:
    """Run the full handshake and return the initiator's verdict.

    evidence may be a single measurement or a callable producing a fresh
    measurement per threshold attempt (one initial try plus retry_limit
    retries).  responder_evidence defaults to the initiator's, matching a
    reciprocal channel; pass a separate source to model asymmetric error.
    Block payloads draw from rng, and the exchange stops at the first
    rejected block.
    """
    if rng is None:
        rng = random.Random()
    log = transcript

    accepted = None
    for attempt in range(1, cfg.retry_limit + 2):
        candidate = _draw_evidence(evidence)
        result = validate_evidence(candidate)
        if log is not None:
            log.append(TranscriptEvent("threshold", f"attempt-{attempt}", None,
                                       "pass" if result.passed else "fail"))
            for reason in result.reasons:
                log.append(TranscriptEvent("threshold", reason, None, "violated"))
        if result.passed:
            accepted = candidate
            break
    if accepted is None:
        verdict = Verdict("suspicious", result.reasons, 0, cfg.m_blocks)
        if log is not None:
            log.append(TranscriptEvent("verdict", "final", None, verdict.outcome))
        return verdict

    responder_view = accepted
    if responder_evidence is not None:
        responder_view = _draw_evidence(responder_evidence)

    initiator_id = select_symmetric_id(initiator.pool)
    responder_id = select_symmetric_id(responder.pool)
    sender = (seed_from_location(accepted), seed_from_rtt(accepted))
    receiver = (seed_from_location(responder_view), seed_from_rtt(responder_view))
    blocks_verified = _exchange((*sender, initiator_id.value), (*receiver, responder_id.value),
                                cfg.m_blocks, rng)

    reasons: tuple[str, ...] = ()
    if blocks_verified < cfg.m_blocks:
        reasons = (f"checksum-block-{blocks_verified + 1}",)
        # Omniscient diagnosis for the harness: name the forged ID as the
        # cause when the endpoint credentials actually differ.
        if initiator_id != responder_id:
            reasons += (REASON_ID_MISMATCH,)
    verdict = Verdict("suspicious" if reasons else "friendly", reasons,
                      blocks_verified, cfg.m_blocks)
    if log is not None:
        log.append(TranscriptEvent("setup", "initiator-seeds", None, _seed_digest(*sender)))
        log.append(TranscriptEvent("setup", "responder-seeds", None, _seed_digest(*receiver)))
        for index in range(1, blocks_verified + 1):
            log.append(TranscriptEvent("exchange", "block", index, "accepted"))
        if reasons:
            log.append(TranscriptEvent("exchange", "block", blocks_verified + 1, "rejected"))
        log.append(TranscriptEvent("verdict", "final", None, verdict.outcome))
    return verdict


def handshake_transcript(
    initiator: NodeProfile,
    responder: NodeProfile,
    evidence: EvidenceSource,
    cfg: HandshakeConfig = HandshakeConfig(),
    rng: random.Random | None = None,
    *,
    responder_evidence: EvidenceSource | None = None,
) -> list[TranscriptEvent]:
    """Run a handshake and return its ordered, replayable event log."""
    events: list[TranscriptEvent] = []
    run_handshake(
        initiator,
        responder,
        evidence,
        cfg,
        rng,
        responder_evidence=responder_evidence,
        transcript=events,
    )
    return events
