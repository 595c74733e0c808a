"""Identity, ID-draw, key-layout, checksum, block and evidence tests."""

import math
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, strategies as st

from sfvsim.keyschedule import SfvSession, encrypt_block, rng1, rng2
from sfvsim.model import (
    BLOCK_BYTES,
    HALF_BITS,
    ID_BITS,
    K1_BITS,
    K3_BITS,
    PAD_BITS,
    Block,
    IdPool,
    NodeProfile,
    RangingEvidence,
    SymmetricId,
    block_checksum,
    draw_distinct_ids,
    select_symmetric_id,
)
from sfvsim.protocol import Verdict
from sfvsim.ranging import ScanPlan, scan_for_neighbor, validate_evidence


# ---------------------------------------------------------------- identities

def test_symmetric_id_accepts_26_bit_range():
    assert SymmetricId(0) == 0
    assert SymmetricId(2**26 - 1) == 2**26 - 1
    # An ID is an int: it hashes as its value, so a set or dict mixes both.
    assert {SymmetricId(5), 5} == {5}


@pytest.mark.parametrize("bad", [-1, 2**26, 2**32])
def test_symmetric_id_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        SymmetricId(bad)


def test_draw_distinct_ids_skips_and_extends_taken():
    # Replay the draws: one getrandbits(26) per try, a taken value skipped.
    preview = random.Random(7)
    first = [preview.getrandbits(26) for _ in range(4)]
    taken = {first[1], 123}
    rng = random.Random(7)
    ids = draw_distinct_ids(rng, 3, taken)
    assert ids == [first[0], first[2], first[3]]
    assert taken == {first[0], first[1], first[2], first[3], 123}
    assert rng.getstate() == preview.getstate()
    many = draw_distinct_ids(random.Random(8), 500, set())
    assert len(set(many)) == 500
    # Drawn IDs are plain ints, in range by construction.
    assert {type(i) for i in ids + many} == {int}


def test_draw_distinct_ids_refuses_more_than_the_free_ids_without_drawing():
    class NoDraws(random.Random):
        def getrandbits(self, k):
            raise AssertionError("an id was drawn")

    taken = {1, 2, 3}
    with pytest.raises(ValueError):
        draw_distinct_ids(NoDraws(), 2**26 - 2, taken)
    assert taken == {1, 2, 3}


# ----------------------------------------------------------------- key layout
# The integrated key is built, used as a mask and split inside the cipher
# step: (k1 << 58) | (id << 32) | k3, masked with 6 zero pad bits behind it,
# its two 45-bit halves the next block's seeds.  The timing word k3 folds in
# the plaintext's leading 32 bits, so a plaintext that leads with
# rng2(seed_n) ^ k3 sets it; only the location word k1 = rng1(seed_i) cannot
# be chosen from outside.

LOW_58 = 2**58 - 1


def first_block(seed_i, seed_n, id_value, k3):
    """Encrypt one block whose timing word comes out as k3.

    Returns the 96-bit mask (cipher XOR plain) and the rolled session.
    """
    session = SfvSession(SymmetricId(id_value), "encryptor", seed_i, seed_n)
    plain = ((rng2(seed_n) ^ k3) << 64).to_bytes(12, "big")
    cipher = encrypt_block(session, Block(plain))
    mask = int.from_bytes(cipher.data, "big") ^ int.from_bytes(plain, "big")
    return mask, session


def test_pack_zero_and_all_ones():
    assert K1_BITS + ID_BITS + K3_BITS == 2 * HALF_BITS == 90
    assert 2 * HALF_BITS + PAD_BITS == BLOCK_BYTES * 8
    for seed_i in (0, 1, 2**45 - 1):
        k1 = rng1(seed_i)
        mask, _ = first_block(seed_i, 5, 0, 0)
        assert mask >> 6 == k1 << 58
        mask, _ = first_block(seed_i, 5, 2**26 - 1, 2**32 - 1)
        assert mask >> 6 == (k1 << 58) | LOW_58
        assert mask >> 6 < 2**90


def test_pack_field_positions():
    # k1 is most significant: its LSB lands 58 bits up, the ID's 32 bits up.
    base, _ = first_block(77, 88, 0, 0)
    assert (first_block(77, 88, 1, 0)[0] ^ base) >> 6 == 1 << 32
    assert (first_block(77, 88, 0, 1)[0] ^ base) >> 6 == 1
    assert base >> 6 == rng1(77) << 58
    # rng1(0) = 0xE220A839: its top bit is the key's bit 89
    assert first_block(0, 0, 0, 0)[0] >> 6 >> 89 == 1


def test_split_halves_examples():
    _, session = first_block(0, 0, 0, 0)
    assert (session.seed_i, session.seed_n) == (rng1(0) << 13, 0)
    _, session = first_block(0, 0, 2**26 - 1, 2**32 - 1)
    assert (session.seed_i, session.seed_n) == ((rng1(0) << 13) | (2**13 - 1), 2**45 - 1)
    # the top bit of k1 is the top bit of the first half
    assert session.seed_i >> 44 == rng1(0) >> 31 == 1


@given(
    seed_i=st.integers(0, 2**45 - 1),
    seed_n=st.integers(0, 2**45 - 1),
    id_value=st.integers(0, 2**26 - 1),
    k3=st.integers(0, 2**32 - 1),
)
def test_pack_split_keystream_consistency(seed_i, seed_n, id_value, k3):
    mask, session = first_block(seed_i, seed_n, id_value, k3)
    assert mask & 0x3F == 0  # 6-bit zero pad
    packed = mask >> 6       # top 90 bits are the key itself
    assert packed >> 58 == rng1(seed_i)
    assert (packed >> 32) & (2**26 - 1) == id_value
    assert packed & (2**32 - 1) == k3
    assert session.seed_i < 2**45 and session.seed_n < 2**45
    assert (session.seed_i << 45) | session.seed_n == packed


def test_keystream_edge_masks():
    # rng1(0) leads; zero and all-ones ID and timing words fill the rest
    assert first_block(0, 0, 0, 0)[0].to_bytes(12, "big").hex() == "e220a8390000000000000000"
    assert (first_block(0, 0, 2**26 - 1, 2**32 - 1)[0].to_bytes(12, "big").hex()
            == "e220a839ffffffffffffffc0")


# ------------------------------------------------------------------ checksum

def _crc16_bitwise(data: bytes) -> int:
    # independent bit-at-a-time reference, poly 0x1021, init 0xFFFF
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


def test_checksum_known_vectors():
    # published CCITT-FALSE check value, then the two frozen payload vectors
    assert block_checksum(b"123456789") == 0x29B1
    assert block_checksum(b"123456789\x00") == 0x044B
    assert block_checksum(bytes(10)) == 0xE139


def test_checksum_matches_bitwise_reference():
    rng = random.Random(7)
    for _ in range(500):
        payload = rng.randbytes(10)
        assert block_checksum(payload) == _crc16_bitwise(payload)


def test_checksum_is_pure():
    payload = b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a"
    assert block_checksum(payload) == block_checksum(bytes(payload))


def test_checksum_single_bit_flip_sensitivity():
    # flipping any single payload bit must change the checksum essentially
    # always; tolerate the theoretical 2^-16 collision rate
    rng = random.Random(99)
    trials = 10_000
    mismatches = 0
    for _ in range(trials):
        payload = bytearray(rng.randbytes(10))
        reference = block_checksum(bytes(payload))
        bit = rng.randrange(80)
        payload[bit // 8] ^= 1 << (bit % 8)
        mismatches += block_checksum(bytes(payload)) != reference
    assert mismatches / trials >= 1 - 2**-16


# -------------------------------------------------------------------- blocks

def test_block_from_payload_round_trip():
    payload = b"0123456789"
    block = Block.from_payload(payload)
    assert len(block.data) == 12
    assert block.payload == payload
    assert block.checksum_field == block_checksum(payload)
    assert block.checksum_ok()


def test_block_detects_tampering():
    block = Block.from_payload(b"0123456789")
    tampered = Block(bytes([block.data[0] ^ 0x01]) + block.data[1:])
    assert not tampered.checksum_ok()


@pytest.mark.parametrize("n", [0, 11, 13])
def test_block_length_enforced(n):
    with pytest.raises(ValueError):
        Block(bytes(n))
    with pytest.raises(ValueError):
        Block.from_payload(bytes(n if n != 13 else 9))


# --------------------------------------------------------------------- pools

def test_pool_singleton_repeats():
    pool = IdPool([SymmetricId(5)])
    assert [select_symmetric_id(pool) for _ in range(3)] == [5, 5, 5]


def test_pool_round_robin_wraps():
    pool = IdPool([SymmetricId(1), SymmetricId(2), SymmetricId(3)])
    assert [select_symmetric_id(pool) for _ in range(4)] == [1, 2, 3, 1]


def test_pool_consecutive_sessions_rotate():
    pool = IdPool([SymmetricId(7), SymmetricId(9)])
    assert select_symmetric_id(pool) == 7
    assert select_symmetric_id(pool) == 9


def test_pool_rejects_duplicates_and_empty_selection():
    with pytest.raises(ValueError):
        IdPool([SymmetricId(1), SymmetricId(1)])
    with pytest.raises(ValueError):
        select_symmetric_id(IdPool([]))


def test_pool_checks_raw_ints_like_symmetric_ids():
    # A SymmetricId and the plain int of its value are one ID.
    with pytest.raises(ValueError, match="duplicate"):
        IdPool([SymmetricId(5), 5])
    for bad in (1 << 26, -1):
        with pytest.raises(ValueError, match="range"):
            IdPool([3, bad])
    assert IdPool([0, (1 << 26) - 1]).ids == [0, (1 << 26) - 1]


# ------------------------------------------------------------- evidence/node

def test_evidence_field_validation():
    good = RangingEvidence(100.0, 45.0, 1e-6, 230.0, 45.0, 45.0, 7e-6)
    assert good.d_radial == 100.0
    with pytest.raises(ValueError):
        RangingEvidence(-1.0, 45.0, 1e-6, 230.0, 45.0, 45.0, 7e-6)
    with pytest.raises(ValueError):
        RangingEvidence(100.0, 360.0, 1e-6, 230.0, 45.0, 45.0, 7e-6)
    with pytest.raises(ValueError):
        RangingEvidence(100.0, 45.0, 1e-6, 230.0, 45.0, 0.0, 7e-6)
    with pytest.raises(ValueError):
        RangingEvidence(100.0, 45.0, 1e-6, 230.0, 45.0, 45.0, 0.0)
    # NaN fails every range check, so it cannot slip past the gates
    for spec in fields(RangingEvidence):
        with pytest.raises(ValueError):
            replace(good, **{spec.name: math.nan})


def test_node_profile_role_validation():
    pool = IdPool([SymmetricId(1)])
    NodeProfile("n1", (0.0, 0.0), (0.0, 0.0), "honest", pool)
    with pytest.raises(ValueError):
        NodeProfile("n1", (0.0, 0.0), (0.0, 0.0), "eavesdropper", pool)


# Link checks share these records (a plan's scan results, the passing
# threshold result, the friendly verdict), so none may take an assignment.
FROZEN_RECORDS = {
    "evidence": lambda: RangingEvidence(100.0, 45.0, 1e-6, 230.0, 45.0, 45.0, 7e-6),
    "threshold": lambda: validate_evidence(RangingEvidence(100.0, 45.0, 1e-6, 230.0,
                                                           45.0, 45.0, 7e-6)),
    "verdict": lambda: Verdict(("checksum-block-1",), 0, 4),
    "node": lambda: NodeProfile("n1", (0.0, 0.0), (0.0, 0.0), "honest", IdPool([1])),
    "scan": lambda: scan_for_neighbor(ScanPlan((230.0, 250.0), ranging=True), 240.0),
}


@pytest.mark.parametrize("name", list(FROZEN_RECORDS))
def test_shared_records_refuse_field_assignment(name):
    record = FROZEN_RECORDS[name]()
    for spec in fields(record):
        value = getattr(record, spec.name)
        with pytest.raises(FrozenInstanceError):
            setattr(record, spec.name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(record, spec.name)
        assert getattr(record, spec.name) is value
