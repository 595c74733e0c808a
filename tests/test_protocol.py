"""Two-phase link verification: threshold gate, block exchange, verdicts."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from sfvsim import protocol
from sfvsim.keyschedule import decrypt_block, encrypt_block, init_session, seed_from_location
from sfvsim.model import Block, IdPool, SymmetricId
from sfvsim.protocol import (
    HandshakeConfig,
    REASON_ID_MISMATCH,
    TranscriptEvent,
    Verdict,
    run_handshake,
    transcript_lines,
)
from sfvsim.ranging import REASON_DISTANCE, evidence_for_link, validate_evidence


def make_pool(ids):
    return IdPool([SymmetricId(v) for v in ids])


def friendly_pair(ids=(10, 20, 30)):
    return make_pool(ids), make_pool(ids)


GOOD = evidence_for_link(150.0, 30.0, 230.0)
FAR = replace(GOOD, d_radial=500.0)


# ----------------------------------------------------------------- contracts

def test_config_validation():
    HandshakeConfig()
    with pytest.raises(ValueError):
        HandshakeConfig(m_blocks=0)
    with pytest.raises(ValueError):
        HandshakeConfig(n_ranging=0)
    with pytest.raises(ValueError):
        HandshakeConfig(retry_limit=-1)


def test_verdict_consistency_enforced():
    # The outcome follows the reasons; no reasons needs every block verified.
    friendly = Verdict((), 4, 4)
    assert (friendly.friendly, friendly.outcome) == (True, "friendly")
    suspicious = Verdict(("threshold-distance",), 0, 4)
    assert (suspicious.friendly, suspicious.outcome) == (False, "suspicious")
    with pytest.raises(ValueError):
        Verdict((), 3, 4)


# ---------------------------------------------------------------- handshakes

def test_friendly_handshake():
    a, b = friendly_pair()
    verdict = run_handshake(a, b, GOOD, rng=random.Random(1))
    assert verdict.friendly
    assert verdict.outcome == "friendly"
    assert verdict.reasons == ()
    assert verdict.blocks_verified == verdict.m_blocks == 4


def test_friendly_handshakes_share_one_verdict_per_block_count():
    # A friendly verdict is frozen and equal for every handshake of m
    # blocks, so run_handshake hands out one object per m; a suspicious
    # outcome still builds its own, with its reasons.
    a, b = friendly_pair()
    rng = random.Random(3)
    first = run_handshake(a, b, GOOD, rng=rng)
    second = run_handshake(a, b, evidence_for_link(40.0, 200.0, 230.0), rng=rng)
    assert first is second and first == Verdict((), 4, 4)
    two = run_handshake(a, b, GOOD, HandshakeConfig(m_blocks=2), rng)
    assert two is not first and two == Verdict((), 2, 2)
    imp = make_pool((1 << 20,))
    suspicious = run_handshake(a, imp, GOOD, rng=rng)
    assert suspicious.reasons == ("checksum-block-1", REASON_ID_MISMATCH)
    assert suspicious is not run_handshake(a, imp, GOOD, rng=rng)


def test_handshake_without_rng_is_refused_before_the_pools_move():
    a, b = friendly_pair()
    with pytest.raises(ValueError, match="rng"):
        run_handshake(a, b, GOOD)
    assert a.next_index == b.next_index == 0


def test_pools_rotate_in_lockstep():
    a, b = friendly_pair(ids=(1, 2, 3))
    for round_number in range(5):
        verdict = run_handshake(a, b, GOOD, rng=random.Random(round_number))
        assert verdict.friendly
    # cursor wrapped: 5 handshakes over a 3-id pool
    assert a.next_index == b.next_index == 5 % 3


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(0, (1 << 26) - 1), min_size=2, max_size=2, unique=True),
    m_blocks=st.integers(1, 12),
    distance=st.floats(0.0, 400.0),
    bearing=st.floats(0.0, 360.0, exclude_max=True),
    d_max=st.sampled_from((230.0, 250.0, 270.0)),
    payload_seed=st.integers(0, 2 ** 32),
)
def test_equal_ids_outcome_independent_of_id_value(values, m_blocks, distance, bearing,
                                                   d_max, payload_seed):
    # The simulator runs every honest link on one lockstep pair: with equal
    # IDs on equal evidence, which ID the pair presents must not show.
    evidence = evidence_for_link(distance, bearing, d_max)
    cfg = HandshakeConfig(m_blocks=m_blocks)
    seen = []
    for value in values:
        a, b = friendly_pair(ids=(value,))
        rng = random.Random(payload_seed)
        events = []
        verdict = run_handshake(a, b, evidence, cfg, rng, transcript=events)
        seen.append((verdict, transcript_lines(events), rng.getstate()))
    assert seen[0] == seen[1]
    assert seen[0][0].friendly == (distance <= d_max)


def test_threshold_failure_skips_block_phase():
    a, b = friendly_pair()
    verdict = run_handshake(a, b, FAR, rng=random.Random(2))
    assert not verdict.friendly
    assert REASON_DISTANCE in verdict.reasons
    assert verdict.blocks_verified == 0
    # no ids consumed when the gate never opens
    assert a.next_index == 0


def test_retry_consumes_fresh_evidence():
    calls = []

    def flaky():
        calls.append(None)
        return FAR if len(calls) == 1 else GOOD

    a, b = friendly_pair()
    verdict = run_handshake(a, b, flaky, HandshakeConfig(retry_limit=1),
                            rng=random.Random(3))
    assert verdict.friendly
    assert len(calls) == 2


def test_retry_limit_exhaustion_reports_last_attempt():
    a, b = friendly_pair()
    calls = []

    def always_far():
        calls.append(None)
        return FAR

    verdict = run_handshake(a, b, always_far, HandshakeConfig(retry_limit=2),
                            rng=random.Random(4))
    assert not verdict.friendly
    assert verdict.reasons == (REASON_DISTANCE,)
    assert len(calls) == 3  # initial try plus two retries


def test_a_fixed_measurement_that_fails_is_judged_once(monkeypatch):
    # Retrying a fixed value would judge it again; a transcript still logs
    # every attempt and a callable source still draws one per attempt.
    judged = []

    def counting(evidence):
        judged.append(evidence)
        return validate_evidence(evidence)

    monkeypatch.setattr(protocol, "validate_evidence", counting)
    a, b = friendly_pair()
    cfg = HandshakeConfig(retry_limit=2)
    plain = run_handshake(a, b, FAR, cfg, random.Random(4))
    assert judged == [FAR]
    logged = run_handshake(a, b, FAR, cfg, random.Random(4), transcript=[])
    assert plain == logged and len(judged) == 4
    run_handshake(a, b, lambda: FAR, cfg, random.Random(4))
    assert len(judged) == 7


def test_replace_still_refuses_a_verdict_without_reasons_short_of_m_blocks():
    suspicious = Verdict(("checksum-block-2",), 1, 4)
    with pytest.raises(ValueError):
        replace(suspicious, reasons=())
    assert replace(suspicious, reasons=(), blocks_verified=4) == Verdict((), 4, 4)


def test_zero_retries_single_attempt():
    a, b = friendly_pair()
    calls = []

    def always_far():
        calls.append(None)
        return FAR

    run_handshake(a, b, always_far, HandshakeConfig(retry_limit=0),
                  rng=random.Random(5))
    assert len(calls) == 1


def test_disjoint_ids_rejected_with_reasons():
    a = make_pool((10, 20))
    imp = make_pool((1 << 20,))
    verdict = run_handshake(a, imp, GOOD, rng=random.Random(6))
    assert not verdict.friendly
    assert verdict.reasons[0] == "checksum-block-1"
    assert REASON_ID_MISMATCH in verdict.reasons
    assert verdict.blocks_verified == 0


def test_asymmetric_measurement_fails_without_id_blame():
    # same credential pool, but the responder quantizes a different RTT:
    # seeds diverge, the first block garbles, and no forged id is implied
    a, b = friendly_pair()
    responder_view = replace(GOOD, rtt=GOOD.rtt + 5e-9)
    verdict = run_handshake(a, b, GOOD, rng=random.Random(7),
                            responder_evidence=responder_view)
    assert not verdict.friendly
    assert verdict.reasons == ("checksum-block-1",)


def test_a_responder_view_that_keys_the_same_seeds_draws_only_the_payloads():
    # A distinct measurement less than 0.5 cm away quantizes to the
    # initiator's seeds, so both ends key equal triples: the exchange is
    # friendly and leaves rng where m 80-bit payload draws leave it.
    cfg = HandshakeConfig(m_blocks=6)
    near = replace(GOOD, d_radial=GOOD.d_radial + 0.004)
    assert near != GOOD and seed_from_location(near) == seed_from_location(GOOD)
    rng, expected = random.Random(12), random.Random(12)
    verdict = run_handshake(*friendly_pair(), GOOD, cfg, rng, responder_evidence=near)
    assert verdict == Verdict((), 6, 6)
    for _ in range(6):
        expected.getrandbits(80)
    assert rng.getstate() == expected.getstate()


def test_a_responder_view_a_centimetre_away_verifies_what_the_block_api_does():
    cfg = HandshakeConfig(m_blocks=6)
    far = replace(GOOD, d_radial=GOOD.d_radial + 0.01)
    assert seed_from_location(far) != seed_from_location(GOOD)
    rng, block_rng = random.Random(13), random.Random(13)
    verdict = run_handshake(*friendly_pair(), GOOD, cfg, rng, responder_evidence=far)
    sender = init_session(GOOD, SymmetricId(10), "encryptor")
    receiver = init_session(far, SymmetricId(10), "decryptor")
    verified = 0
    while verified < 6:
        plain = Block.from_payload(block_rng.randbytes(10))
        if not decrypt_block(receiver, encrypt_block(sender, plain)).checksum_ok():
            break
        verified += 1
    assert verified < 6
    assert verdict == Verdict((f"checksum-block-{verified + 1}",), verified, 6)
    assert rng.getstate() == block_rng.getstate()


def test_early_abort_stops_at_first_bad_block():
    a = make_pool((10,))
    imp = make_pool((99,))
    events = []
    run_handshake(a, imp, GOOD, rng=random.Random(8), transcript=events)
    exchanges = [e for e in events if e.phase == "exchange"]
    assert len(exchanges) == 1
    assert exchanges[0].outcome == "rejected"


# --------------------------------------------------------------- transcripts

def test_transcript_structure_for_friendly_run():
    a, b = friendly_pair()
    cfg = HandshakeConfig(m_blocks=4)
    events = []
    run_handshake(a, b, GOOD, cfg, rng=random.Random(9), transcript=events)
    phases = [e.phase for e in events]
    assert phases == ["threshold", "setup", "setup",
                      "exchange", "exchange", "exchange", "exchange", "verdict"]
    blocks = [e for e in events if e.phase == "exchange"]
    assert [e.block_index for e in blocks] == [1, 2, 3, 4]
    assert all(e.outcome == "accepted" for e in blocks)
    assert events[-1] == TranscriptEvent("verdict", "final", None, "friendly")


def test_transcript_line_format():
    a, b = friendly_pair()
    events = []
    run_handshake(a, b, GOOD, rng=random.Random(10), transcript=events)
    lines = transcript_lines(events)
    assert lines[0] == "threshold,attempt-1,,pass"
    assert any(line.startswith("exchange,block,1,") for line in lines)
    for line in lines:
        assert line.count(",") == 3


def test_transcript_deterministic_for_equal_seed():
    a1, b1 = friendly_pair()
    a2, b2 = friendly_pair()
    first, second = [], []
    run_handshake(a1, b1, GOOD, rng=random.Random(11), transcript=first)
    run_handshake(a2, b2, GOOD, rng=random.Random(11), transcript=second)
    assert first == second


def test_transcript_records_threshold_violations():
    a, b = friendly_pair()
    events = []
    run_handshake(a, b, FAR, rng=random.Random(12), transcript=events)
    assert TranscriptEvent("threshold", REASON_DISTANCE, None, "violated") in events
    assert events[-1].outcome == "suspicious"


# ------------------------------------------------------------- per-block gate

def test_single_block_config_soundness_sample():
    # m=1 leaves only the 16-bit checksum as the gate; a forged id should
    # still lose essentially always
    rng = random.Random(13)
    rejected = 0
    trials = 3_000
    for i in range(trials):
        a = make_pool((10, 20))
        imp = make_pool(((1 << 25) + i,))
        verdict = run_handshake(a, imp, GOOD, HandshakeConfig(m_blocks=1), rng=rng)
        rejected += not verdict.friendly
    assert rejected >= trials - 2
