"""Mix functions, seed quantization and the rolling block cipher."""

import math
import random
from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from sfvsim.keyschedule import (
    SfvSession,
    _exchange,
    decrypt_block,
    encrypt_block,
    fits_distance_field,
    init_session,
    rng1,
    rng2,
    seed_from_location,
    seed_from_rtt,
)
from sfvsim.model import Block, RangingEvidence, SymmetricId
from sfvsim.simulator import Scenario


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


def test_location_seed_takes_evidence_at_the_largest_range_a_scenario_accepts():
    # Evidence that passes the gates lies within the largest radio range,
    # so no run that starts can overflow the distance field.
    largest = 10995116277.755  # 1099511627775 cm once rounded half up
    assert fits_distance_field(largest)
    Scenario(radio_ranges=(largest,))
    assert seed_from_location(evidence(d=largest)) == (2**40 - 1) << 16
    # The next float up, and one whose centimetres overflow to inf.
    for metres in (math.nextafter(largest, math.inf), 1e307):
        assert not fits_distance_field(metres)
        with pytest.raises(ValueError, match="radio_ranges"):
            Scenario(radio_ranges=(metres,))
        with pytest.raises(ValueError, match="40-bit"):
            seed_from_location(evidence(d=metres))


def test_rtt_seed_examples():
    assert seed_from_rtt(evidence()) == 0
    assert seed_from_rtt(evidence(rtt=1.5e-6)) == 1500
    assert seed_from_rtt(evidence(rtt=2 * 270 / 3.0e8)) == 1800


# ------------------------------------------------------------------ sessions

def test_init_session_zero_evidence():
    s = init_session(evidence(), SymmetricId(0), "encryptor")
    assert (s.seed_i, s.seed_n) == (0, 0)


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

def integrated_key(k1, id_value, k3):
    """The 90-bit key k1 || id || k3, the location word most significant."""
    return (k1 << 58) | (id_value << 32) | k3


def mask(key):
    """A key's 12-byte block mask: the key, then 6 zero pad bits."""
    return (key << 6).to_bytes(12, "big")


def test_first_block_mask_composition():
    # zero plaintext, zero seeds, id 0: the cipher IS the keystream of
    # (rng1(0), 0, rng2(0) ^ 0); frozen from the oracle run
    sender, _ = session_pair(evidence())
    cipher = encrypt_block(sender, Block(bytes(12)))
    assert cipher.data == mask(integrated_key(rng1(0), 0, rng2(0)))
    assert cipher.data.hex() == "e220a8390000003ebb46c400"


def test_first_block_key_layout_and_seed_roll():
    # A zero plaintext feeds no bits back, so the cipher is the key's mask:
    # the location word leads, then the 26-bit ID, then the timing word.
    seed_i, seed_n, id_value = 0x123456789AB, 0x1F2E3D4C5B, 0x2ABCDEF
    sender = SfvSession(SymmetricId(id_value), "encryptor", seed_i, seed_n)
    cipher = encrypt_block(sender, Block(bytes(12)))
    key = integrated_key(rng1(seed_i), id_value, rng2(seed_n))
    assert cipher.data == mask(key)
    assert cipher.data.hex() == "27742089aaf37bc68846c940"
    # The next block's seeds are the key's upper and lower 45 bits.
    assert (sender.seed_i, sender.seed_n) == (key >> 45, key & (2**45 - 1))


def test_round_trip_and_seed_sync_long_session():
    ev = evidence(d=123.4, aoa=200.0, rtt=1.5e-6)
    sender, receiver = session_pair(ev, id_value=0x2ABCDE)
    rng = random.Random(2024)
    seen_key_pairs = set()
    for _ in range(10_000):
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


def clmul(a, b):
    """Carry-less product: a(x) * b(x) over GF(2)."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        b >>= 1
    return product


def gf2_mod(a, m):
    """a(x) mod m(x) over GF(2)."""
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


CRC_POLY = 0x11021  # CRC-16/CCITT: x^16 + x^12 + x^5 + 1
# The nonzero 26-bit ID deltas that are multiples of it: q of degree < 10.
TRANSPARENT_DELTAS = [clmul(CRC_POLY, q) for q in range(1, 1 << 10)]


@settings(max_examples=400, deadline=None)
@given(SEEDS, SEEDS, IDS, st.sampled_from(["same", "other", "transparent"]), IDS,
       st.sampled_from(["both", "location", "timing", "neither"]), SEEDS, SEEDS,
       st.integers(1, 8), st.integers(0, 2**32))
# Equal triples take the kernel's cipher-free path; equal seeds with an
# other or a transparent ID run the cipher.  The per-block API judges both.
@example(0x1234_5678_9AB, 0x0FED_CBA9_876, 0x2A5_5A5A, "same", 0, "both", 0, 0, 1, 5)
@example(0x1234_5678_9AB, 0x0FED_CBA9_876, 0x2A5_5A5A, "same", 0, "both", 0, 0, 8, 6)
@example(0x1234_5678_9AB, 0x0FED_CBA9_876, 0x2A5_5A5A, "other", 0x155_A5A5, "both", 0, 0, 8, 7)
@example(0x1234_5678_9AB, 0x0FED_CBA9_876, 0x2A5_5A5A, "transparent", 5, "both", 0, 0, 8, 8)
def test_exchange_counts_what_the_block_api_verifies(seed_i, seed_n, id_a, id_kind, other_id,
                                                     shared, own_r, own_t, m_blocks,
                                                     payload_seed):
    # The receiver's seed pair shares the sender's location half, timing
    # half, both or neither, so each word the kernel reuses or computes is
    # checked.  A transparent ID delta passes block 1 on equal seeds and
    # reaches the later blocks with both seeds different.
    id_b = {"same": id_a, "other": other_id,
            "transparent": id_a ^ TRANSPARENT_DELTAS[other_id % 1023]}[id_kind]
    seed_r = seed_i if shared in ("both", "location") else own_r
    seed_t = seed_n if shared in ("both", "timing") else own_t
    sender = SfvSession(SymmetricId(id_a), "encryptor", seed_i, seed_n)
    receiver = SfvSession(SymmetricId(id_b), "decryptor", seed_r, seed_t)
    block_rng, int_rng = random.Random(payload_seed), random.Random(payload_seed)
    expected = chained_block_count(sender, receiver, m_blocks, block_rng)
    verified = _exchange((seed_i, seed_n, id_a), (seed_r, seed_t, id_b), m_blocks, int_rng)
    assert verified == expected
    assert int_rng.getstate() == block_rng.getstate()
    if id_a == id_b and (seed_i, seed_n) == (seed_r, seed_t):
        assert verified == m_blocks
    if id_kind == "transparent" and shared == "both":
        assert verified >= 1


def test_crc_linearity_makes_1023_id_deltas_pass_block_one():
    # On equal seeds the receiver's block differs from the plaintext only
    # by the ID delta, shifted into the payload.  CRC-16 is linear, so the
    # checksum survives exactly when the delta is a multiple of the
    # polynomial: 1,023 of the 2^26 - 1 nonzero deltas, with certainty.
    assert len(set(TRANSPARENT_DELTAS)) == 1023
    assert all(0 < delta < 1 << 26 for delta in TRANSPARENT_DELTAS)
    seed_i, seed_n, id_a = 0x1234_5678_9AB, 0x0FED_CBA9_876, 0x2A5_5A5A
    for payload_seed in range(4):
        rng = random.Random(payload_seed)
        assert all(_exchange((seed_i, seed_n, id_a), (seed_i, seed_n, id_a ^ delta), 1, rng) == 1
                   for delta in TRANSPARENT_DELTAS)
    # Block 1 rolls the two ends onto different seeds, so a later block
    # catches the forged ID.
    forged = id_a ^ CRC_POLY
    for payload_seed in range(50):
        verified = _exchange((seed_i, seed_n, id_a), (seed_i, seed_n, forged), 4,
                             random.Random(payload_seed))
        assert 1 <= verified < 4
    # Any other delta fails block 1, whatever the payload.
    rng = random.Random(7)
    for _ in range(2_000):
        delta = rng.randrange(1, 1 << 26)
        if gf2_mod(delta, CRC_POLY) == 0:
            continue
        assert _exchange((seed_i, seed_n, id_a), (seed_i, seed_n, id_a ^ delta), 1, rng) == 0


def test_session_state_fields():
    # The rolling state is the two seeds; nothing else is kept per block.
    s = SfvSession(id=SymmetricId(3), direction="encryptor", seed_i=9, seed_n=8)
    assert [f.name for f in fields(s)] == ["id", "direction", "seed_i", "seed_n"]
    assert (s.id, s.direction, s.seed_i, s.seed_n) == (SymmetricId(3), "encryptor", 9, 8)
