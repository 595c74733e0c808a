"""Mix functions, seed quantization and the rolling block cipher."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sfvsim.keyschedule import (
    SfvSession,
    _exchange,
    decrypt_block,
    encrypt_block,
    init_session,
    rng1,
    rng2,
    seed_from_location,
    seed_from_rtt,
)
from sfvsim.model import (
    Block,
    IntegratedKey,
    RangingEvidence,
    SymmetricId,
    expand_keystream,
)


def evidence(d=0.0, aoa=0.0, rtt=0.0):
    return RangingEvidence(d, aoa, rtt, 270.0, aoa, 45.0, 6.8e-6)


def session_pair(ev, id_value=0):
    sid = SymmetricId(id_value)
    return init_session(ev, sid, "encryptor"), init_session(ev, sid, "decryptor")


# ------------------------------------------------------------- mix functions

def test_rng1_frozen_values():
    # computed from the stated mix with an independent script before coding
    assert rng1(0) == 0xE220A839
    assert rng1(1) == 0x910A2DEC


def test_rng2_frozen_values():
    assert rng2(0) == 0xFAED1B10
    assert rng2(1) == 0x724AC25B


def test_mixers_deterministic_and_distinct():
    assert rng1(12345) == rng1(12345)
    assert rng2(12345) == rng2(12345)
    assert rng1(0) != rng1(1)
    assert rng1(0) != rng2(0)


@given(st.integers(0, 2**64 - 1))
def test_mixers_stay_32_bit(seed):
    assert 0 <= rng1(seed) < 2**32
    assert 0 <= rng2(seed) < 2**32


# ---------------------------------------------------------------- seed rules

def test_location_seed_examples():
    assert seed_from_location(evidence()) == 0
    assert seed_from_location(evidence(d=1.0)) == 100 << 16
    assert seed_from_location(evidence(d=1.0)) == 6553600
    assert seed_from_location(evidence(aoa=3.5)) == 350


def test_location_seed_rounds_half_up():
    # 0.5 cm rounds up to 1 cm; 0.005 degrees rounds up to 1 hundredth
    assert seed_from_location(evidence(d=0.005)) == 1 << 16
    assert seed_from_location(evidence(aoa=0.005)) == 1


def test_location_seed_field_packing():
    seed = seed_from_location(evidence(d=2.5, aoa=10.0))
    assert seed == (250 << 16) | 1000
    assert seed < 2**56  # 40-bit distance + 16-bit angle


def test_location_seed_rejects_overflow():
    with pytest.raises(ValueError):
        seed_from_location(evidence(d=2.0**40 / 100.0 + 1.0))


def test_rtt_seed_examples():
    assert seed_from_rtt(evidence()) == 0
    assert seed_from_rtt(evidence(rtt=1.5e-6)) == 1500
    assert seed_from_rtt(evidence(rtt=2 * 270 / 3.0e8)) == 1800


# ------------------------------------------------------------------ sessions

def test_init_session_zero_evidence():
    s = init_session(evidence(), SymmetricId(0), "encryptor")
    assert (s.seed_i, s.seed_n) == (0, 0)
    assert s.block_index == 0
    assert s.current_key is None


def test_init_session_seeds_match_across_endpoints():
    ev = evidence(d=150.0, aoa=30.0, rtt=1e-6)
    sender, receiver = session_pair(ev, id_value=99)
    assert (sender.seed_i, sender.seed_n) == (receiver.seed_i, receiver.seed_n)


def test_init_session_rtt_quantum_changes_seed():
    base = seed_from_rtt(evidence(rtt=1.0e-6))
    assert seed_from_rtt(evidence(rtt=1.001e-6)) != base


def test_init_session_rejects_unknown_direction():
    with pytest.raises(ValueError):
        init_session(evidence(), SymmetricId(0), "both")


def test_direction_is_enforced():
    sender, receiver = session_pair(evidence())
    block = Block.from_payload(bytes(10))
    with pytest.raises(ValueError):
        encrypt_block(receiver, block)
    with pytest.raises(ValueError):
        decrypt_block(sender, block)


# -------------------------------------------------------------------- cipher

def test_first_block_mask_composition():
    # zero plaintext, zero seeds, id 0: the cipher IS the keystream of
    # (rng1(0), 0, rng2(0) ^ 0); frozen from the oracle run
    sender, _ = session_pair(evidence())
    cipher = encrypt_block(sender, Block(bytes(12)))
    expected = expand_keystream(
        IntegratedKey(rng1(0), SymmetricId(0), rng2(0))
    )
    assert cipher.data == expected
    assert cipher.data.hex() == "e220a8390000003ebb46c400"


def test_round_trip_and_seed_sync_long_session():
    ev = evidence(d=123.4, aoa=200.0, rtt=1.5e-6)
    sender, receiver = session_pair(ev, id_value=0x2ABCDE)
    rng = random.Random(2024)
    seen_key_pairs = set()
    for index in range(1, 10_001):
        payload = rng.randbytes(10)
        plain = Block.from_payload(payload)
        # observe the derived (K1, K3) pair before the state rolls
        k1 = rng1(sender.seed_i)
        k3 = rng2(sender.seed_n) ^ int.from_bytes(plain.data[:4], "big")
        seen_key_pairs.add((k1, k3))
        cipher = encrypt_block(sender, plain)
        assert cipher.data != plain.data
        recovered = decrypt_block(receiver, cipher)
        assert recovered.data == plain.data
        assert recovered.checksum_ok()
        assert sender.block_index == receiver.block_index == index
        assert (sender.seed_i, sender.seed_n) == (receiver.seed_i, receiver.seed_n)
    # rolling must not revisit a (K1, K3) pair within one session
    assert len(seen_key_pairs) == 10_000


def test_identical_plaintexts_encrypt_differently():
    sender, receiver = session_pair(evidence(d=50.0))
    plain = Block.from_payload(b"same-bytes")
    first = encrypt_block(sender, plain)
    second = encrypt_block(sender, plain)
    assert first.data != second.data
    assert decrypt_block(receiver, first).data == plain.data
    assert decrypt_block(receiver, second).data == plain.data


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(min_size=10, max_size=10), min_size=1, max_size=64),
       st.integers(0, 2**26 - 1))
def test_round_trip_property(payloads, id_value):
    ev = evidence(d=75.0, aoa=10.0, rtt=5e-7)
    sender, receiver = session_pair(ev, id_value)
    for payload in payloads:
        plain = Block.from_payload(payload)
        assert decrypt_block(receiver, encrypt_block(sender, plain)).data == plain.data


def test_mismatched_id_garbles_blocks():
    ev = evidence(d=60.0)
    sender = init_session(ev, SymmetricId(0x155555), "encryptor")
    receiver = init_session(ev, SymmetricId(0x2AAAAA), "decryptor")
    rng = random.Random(5)
    trials = 2_000
    failures = sum(
        not decrypt_block(receiver, encrypt_block(sender, Block.from_payload(rng.randbytes(10)))).checksum_ok()
        for _ in range(trials)
    )
    # a 16-bit checksum may collide; anything beyond a couple would be a bug
    assert failures >= trials - 2


def test_replayed_ciphertext_fails_checksum():
    rng = random.Random(6)
    old_sender, _ = session_pair(evidence(d=10.0), id_value=77)
    replayed = [encrypt_block(old_sender, Block.from_payload(rng.randbytes(10)))
                for _ in range(2_000)]
    # fresh link, different measurements -> different seeds
    fresh = init_session(evidence(d=11.0, rtt=2e-6), SymmetricId(77), "decryptor")
    failures = sum(not decrypt_block(fresh, c).checksum_ok() for c in replayed)
    assert failures >= len(replayed) - 2


# ------------------------------------------------------------- the exchange

SEEDS = st.integers(0, 2**45 - 1)
IDS = st.integers(0, 2**26 - 1)


def chained_block_count(sender, receiver, m_blocks, rng):
    """The exchange spelled out with the per-block API, stopping early."""
    for index in range(m_blocks):
        plain = Block.from_payload(rng.randbytes(10))
        if not decrypt_block(receiver, encrypt_block(sender, plain)).checksum_ok():
            return index
    return m_blocks


@settings(max_examples=200, deadline=None)
@given(SEEDS, SEEDS, IDS, st.one_of(st.none(), IDS), st.one_of(st.none(), st.tuples(SEEDS, SEEDS)),
       st.integers(1, 8), st.integers(0, 2**32))
def test_exchange_counts_what_the_block_api_verifies(seed_i, seed_n, id_a, id_b, other_seeds,
                                                     m_blocks, payload_seed):
    # None draws the sender's value: the same ID, the same seed pair.
    id_b = id_a if id_b is None else id_b
    seed_r, seed_t = (seed_i, seed_n) if other_seeds is None else other_seeds
    sender = SfvSession(SymmetricId(id_a), "encryptor", seed_i, seed_n)
    receiver = SfvSession(SymmetricId(id_b), "decryptor", seed_r, seed_t)
    block_rng, int_rng = random.Random(payload_seed), random.Random(payload_seed)
    expected = chained_block_count(sender, receiver, m_blocks, block_rng)
    verified = _exchange((seed_i, seed_n, id_a), (seed_r, seed_t, id_b), m_blocks, int_rng)
    assert verified == expected
    assert int_rng.getstate() == block_rng.getstate()
    if id_a == id_b and (seed_i, seed_n) == (seed_r, seed_t):
        assert verified == m_blocks


def test_session_state_fields():
    s = SfvSession(id=SymmetricId(3), direction="encryptor", seed_i=9, seed_n=8)
    assert s.block_index == 0
    assert s.current_key is None
