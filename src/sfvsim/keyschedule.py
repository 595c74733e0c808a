"""Seed derivation and the rolling-key block cipher.

The first block's key material is seeded from measured link evidence:
the radial distance / arrival angle on one side, the round-trip time on
the other.  Every subsequent block reseeds from the halves of the key
just used, so both endpoints stay synchronized without exchanging keys.

The per-block API (`init_session`, `encrypt_block`, `decrypt_block`) is
the reference.  `_exchange`, which `run_handshake` runs, is the same
arithmetic inlined into one loop over a handshake's m blocks, on plain
ints; a property test pins its block count and payload draws to the
per-block API's.

Equal keys always verify: a decryptor with the encryptor's seeds and ID
recovers the feedback bits from the leading 32 ciphertext bits, rebuilds
the encryptor's key, and so reads back every plaintext block.  `_exchange`
therefore draws the m payloads of an exchange between equal (seed_i,
seed_n, ID) triples and returns m without running the cipher.
"""

from __future__ import annotations

import math
import random
from binascii import crc_hqx
from dataclasses import dataclass

from .model import (
    BLOCK_BYTES,
    CHECKSUM_BYTES,
    HALF_BITS,
    ID_BITS,
    K1_BITS,
    K3_BITS,
    PAD_BITS,
    PAYLOAD_BYTES,
    Block,
    RangingEvidence,
)

_M64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF
_MASK_HALF = (1 << HALF_BITS) - 1
_K1_SHIFT = ID_BITS + K3_BITS  # k1 leads the packed key
_FEEDBACK_SHIFT = BLOCK_BYTES * 8 - K1_BITS  # a block's leading 32 bits
_CHECKSUM_BITS = CHECKSUM_BYTES * 8
_PAYLOAD_BITS = PAYLOAD_BYTES * 8
_CHECKSUM_MASK = (1 << _CHECKSUM_BITS) - 1

# Fixed 64-bit mixing constants.  Both generators run the same
# xorshift-multiply finalizer, SplitMix64's (Steele, Lea and Flood,
# OOPSLA 2014), so each word is a pure function of its seed; they differ
# only in the additive constant and in which half of the mixed word they keep.
_ADD_1 = 0x9E3779B97F4A7C15
_ADD_2 = 0xD1B54A32D192ED03
_MUL_A = 0xBF58476D1CE4E5B9
_MUL_B = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL_A) & _M64
    z = ((z ^ (z >> 27)) * _MUL_B) & _M64
    return z ^ (z >> 31)


def rng1(seed: int) -> int:
    """Location-word generator: mix the seed, keep the high 32 bits."""
    return _mix64((seed + _ADD_1) & _M64) >> 32


def rng2(seed: int) -> int:
    """Timing-word generator: mix the seed, keep the low 32 bits."""
    return _mix64((seed + _ADD_2) & _M64) & _MASK32


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def seed_from_location(evidence: RangingEvidence) -> int:
    """Quantize (distance, angle) into one 64-bit seed.

    Distance is quantized to whole centimeters into a 40-bit field, the
    arrival angle to hundredths of a degree into a 16-bit field, packed as
    distance << 16 | angle.  Both endpoints must quantize identically or
    their keystreams diverge from block one.
    """
    distance_q = _round_half_up(evidence.d_radial * 100.0)
    if distance_q >= 1 << 40:
        raise ValueError(f"distance {evidence.d_radial} m overflows the 40-bit field")
    angle_q = _round_half_up(evidence.aoa * 100.0)
    return (distance_q << 16) | angle_q


def seed_from_rtt(evidence: RangingEvidence) -> int:
    """Quantize the round-trip time to whole nanoseconds as a 64-bit seed."""
    return _round_half_up(evidence.rtt * 1e9)


@dataclass
class SfvSession:
    """One endpoint's rolling cipher state for a verification exchange.

    Single-owner, mutated in place: each processed block replaces the two
    seeds with the halves of the key it just consumed.
    """

    id: int  # the 26-bit symmetric ID
    direction: str  # "encryptor" | "decryptor"
    seed_i: int
    seed_n: int


def init_session(evidence: RangingEvidence, id: int, direction: str) -> SfvSession:
    """Derive block-zero seeds from link evidence."""
    if direction not in ("encryptor", "decryptor"):
        raise ValueError(f"direction must be 'encryptor' or 'decryptor', got {direction!r}")
    return SfvSession(id, direction, seed_from_location(evidence), seed_from_rtt(evidence))


def encrypt_block(session: SfvSession, plain: Block) -> Block:
    """Mask one plaintext block and roll the session key.

    The timing word folds in the block's leading 32 bits, so the keystream
    depends on the block being sent; a decryptor can still recover it
    because the location word alone unmasks those bits.
    """
    if session.direction != "encryptor":
        raise ValueError("encrypt_block requires an encryptor session")
    block = int.from_bytes(plain.data, "big")
    k1 = rng1(session.seed_i)
    k3 = rng2(session.seed_n) ^ (block >> _FEEDBACK_SHIFT)
    packed = (k1 << _K1_SHIFT) | (session.id << K3_BITS) | k3
    session.seed_i, session.seed_n = packed >> HALF_BITS, packed & _MASK_HALF
    # The mask is the packed key, then the zero pad.
    return Block((block ^ (packed << PAD_BITS)).to_bytes(BLOCK_BYTES, "big"))


def decrypt_block(session: SfvSession, cipher: Block) -> Block:
    """Unmask one block and roll the session key in step with the sender.

    The leading 58 bits fall to the location word and the symmetric ID;
    that exposes the plaintext feedback bits, which reconstruct the timing
    word for the remaining 32 masked bits.  The 6 pad bits pass through.
    """
    if session.direction != "decryptor":
        raise ValueError("decrypt_block requires a decryptor session")
    block = int.from_bytes(cipher.data, "big")
    k1 = rng1(session.seed_i)
    k3 = rng2(session.seed_n) ^ (block >> _FEEDBACK_SHIFT) ^ k1
    packed = (k1 << _K1_SHIFT) | (session.id << K3_BITS) | k3
    session.seed_i, session.seed_n = packed >> HALF_BITS, packed & _MASK_HALF
    return Block((block ^ (packed << PAD_BITS)).to_bytes(BLOCK_BYTES, "big"))


def _exchange(sender: tuple[int, int, int], receiver: tuple[int, int, int],
              m_blocks: int, rng: random.Random) -> int:
    """Send up to m_blocks random checksummed blocks; return how many verified.

    sender and receiver are (seed_i, seed_n, symmetric ID).  This is
    encrypt_block and decrypt_block inlined: each block draws its payload
    from rng, the receiver decrypts with its own key, both seed pairs roll
    from the keys just used, and the exchange stops at the first block
    whose checksum fails.  The receiver reuses the sender's location word
    k1 or timing word w where its seed for that word equals the sender's.

    Equal triples skip the cipher.  The ciphertext's leading 32 bits are
    the plaintext's XOR k1, so a receiver holding the sender's seeds and ID
    rebuilds the sender's timing word and its whole 90-bit key: every block
    decrypts to its plaintext, its CRC holds, and both ends roll onto equal
    seeds again.  Such an exchange only draws its m payloads, which keeps
    rng where the full loop would leave it, and verifies all m blocks.
    """
    if sender == receiver:
        getrandbits = rng.getrandbits
        for _ in range(m_blocks):
            getrandbits(_PAYLOAD_BITS)
        return m_blocks
    seed_i, seed_n, id_a = sender
    seed_r, seed_t, id_b = receiver
    id_a, id_b = id_a << K3_BITS, id_b << K3_BITS
    # Random.randbytes(n) is getrandbits(8 n).to_bytes(n, "little"), without its frame.
    getrandbits = rng.getrandbits
    for verified in range(m_blocks):
        payload = getrandbits(_PAYLOAD_BITS).to_bytes(PAYLOAD_BYTES, "little")
        plain = (int.from_bytes(payload, "big") << _CHECKSUM_BITS) | crc_hqx(payload, 0xFFFF)
        z, y = (seed_i + _ADD_1) & _M64, (seed_n + _ADD_2) & _M64
        z, y = ((z ^ (z >> 30)) * _MUL_A) & _M64, ((y ^ (y >> 30)) * _MUL_A) & _M64
        z, y = ((z ^ (z >> 27)) * _MUL_B) & _M64, ((y ^ (y >> 27)) * _MUL_B) & _M64
        k1, w = (z ^ (z >> 31)) >> 32, (y ^ (y >> 31)) & _MASK32
        sent = (k1 << _K1_SHIFT) | id_a | (w ^ (plain >> _FEEDBACK_SHIFT))
        cipher = plain ^ (sent << PAD_BITS)
        if seed_r != seed_i:
            z = (seed_r + _ADD_1) & _M64
            z = ((z ^ (z >> 30)) * _MUL_A) & _M64
            z = ((z ^ (z >> 27)) * _MUL_B) & _M64
            k1 = (z ^ (z >> 31)) >> 32
        if seed_t != seed_n:
            z = (seed_t + _ADD_2) & _M64
            z = ((z ^ (z >> 30)) * _MUL_A) & _M64
            z = ((z ^ (z >> 27)) * _MUL_B) & _M64
            w = (z ^ (z >> 31)) & _MASK32
        used = (k1 << _K1_SHIFT) | id_b | (w ^ (cipher >> _FEEDBACK_SHIFT) ^ k1)
        received = cipher ^ (used << PAD_BITS)
        body = (received >> _CHECKSUM_BITS).to_bytes(PAYLOAD_BYTES, "big")
        if crc_hqx(body, 0xFFFF) != received & _CHECKSUM_MASK:
            return verified
        seed_i, seed_n = sent >> HALF_BITS, sent & _MASK_HALF
        seed_r, seed_t = used >> HALF_BITS, used & _MASK_HALF
    return m_blocks
