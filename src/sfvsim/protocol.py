"""The two-phase strict friendliness handshake.

Phase one gates on ranging evidence: distance, round-trip time and
arrival angle must all pass, with a bounded number of fresh-evidence
retries.  Phase two sends m random blocks through the rolling-key cipher;
the responder is friendly only if every block's checksum survives
decryption.  A forged symmetric ID or desynchronized seeds corrupt the
keystream and fail the checksums with overwhelming probability.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True, init=False)
class Verdict:
    """Handshake outcome: friendly when there are no failure reasons,
    which needs all m blocks verified; anything else is suspicious."""

    reasons: tuple[str, ...]
    blocks_verified: int
    m_blocks: int

    def __init__(self, reasons, blocks_verified, m_blocks):  # see model.RangingEvidence
        self.__dict__.update(reasons=reasons, blocks_verified=blocks_verified,
                             m_blocks=m_blocks)
        if not self.reasons and self.blocks_verified != self.m_blocks:
            raise ValueError(f"a verdict without reasons verified "
                             f"{self.blocks_verified} of {self.m_blocks} blocks")

    @property
    def friendly(self) -> bool:
        return not self.reasons

    @property
    def outcome(self) -> str:
        return "suspicious" if self.reasons else "friendly"


@dataclass(frozen=True)
class TranscriptEvent:
    """One replayable handshake log record."""

    phase: str
    event: str
    block_index: int | None
    outcome: str


@functools.cache
def _friendly(m_blocks: int) -> Verdict:
    """The verdict every friendly handshake of m_blocks shares; it is frozen."""
    return Verdict((), m_blocks, m_blocks)


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
    retries).  A single measurement that fails is judged once, since a
    retry would judge the same value, unless a transcript logs every
    attempt.  responder_evidence defaults to the initiator's, matching a
    reciprocal channel; pass a separate source to model asymmetric error.
    Block payloads draw from rng, which is required: an unseeded fallback
    would make transcripts differ from call to call.  The exchange stops at
    the first rejected block.
    """
    if rng is None:
        raise ValueError("run_handshake needs an rng for the block payloads")
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
        if log is None and candidate is evidence:
            break  # a retry would judge the same immutable measurement again
    if accepted is None:
        verdict = Verdict(result.reasons, 0, cfg.m_blocks)
        if log is not None:
            log.append(TranscriptEvent("verdict", "final", None, verdict.outcome))
        return verdict

    sender = receiver = (seed_from_location(accepted), seed_from_rtt(accepted))
    if responder_evidence is not None:
        responder_view = _draw_evidence(responder_evidence)
        receiver = (seed_from_location(responder_view), seed_from_rtt(responder_view))
    initiator_id = select_symmetric_id(initiator.pool)
    responder_id = select_symmetric_id(responder.pool)
    blocks_verified = _exchange((*sender, initiator_id), (*receiver, responder_id),
                                cfg.m_blocks, rng)

    verdict = _friendly(cfg.m_blocks)
    if blocks_verified < cfg.m_blocks:
        reasons = (f"checksum-block-{blocks_verified + 1}",)
        # Omniscient diagnosis for the harness: name the forged ID as the
        # cause when the endpoint credentials actually differ.
        if initiator_id != responder_id:
            reasons += (REASON_ID_MISMATCH,)
        verdict = Verdict(reasons, blocks_verified, cfg.m_blocks)
    if log is not None:
        log.append(TranscriptEvent("setup", "initiator-seeds", None, _seed_digest(*sender)))
        log.append(TranscriptEvent("setup", "responder-seeds", None, _seed_digest(*receiver)))
        for index in range(1, blocks_verified + 1):
            log.append(TranscriptEvent("exchange", "block", index, "accepted"))
        if verdict.reasons:
            log.append(TranscriptEvent("exchange", "block", blocks_verified + 1, "rejected"))
        log.append(TranscriptEvent("verdict", "final", None, verdict.outcome))
    return verdict

