"""Seed derivation and the rolling-key block cipher.

The first block's key material is seeded from measured link evidence:
the radial distance / arrival angle on one side, the round-trip time on
the other.  Every subsequent block reseeds from the halves of the key
just used, so both endpoints stay synchronized without exchanging keys.

The cipher arithmetic lives in one int-level step per direction
(`_encrypt`, `_decrypt`).  `encrypt_block`/`decrypt_block` wrap them for
one `Block` and a mutable `SfvSession`; `_exchange` chains them over a
handshake's m blocks on plain ints, which is what `run_handshake` uses.
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
    IntegratedKey,
    RangingEvidence,
    SymmetricId,
    unpack_key,
)

_M64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF
_MASK_HALF = (1 << HALF_BITS) - 1
_K1_SHIFT = ID_BITS + K3_BITS  # k1 leads the packed key
_FEEDBACK_SHIFT = BLOCK_BYTES * 8 - K1_BITS  # a block's leading 32 bits
_CHECKSUM_BITS = CHECKSUM_BYTES * 8
_CHECKSUM_MASK = (1 << _CHECKSUM_BITS) - 1

# Fixed 64-bit mixing constants.  Both generators run the same
# xorshift-multiply finalizer; they differ only in the additive constant
# and in which half of the mixed word they keep.
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

    id: SymmetricId
    direction: str  # "encryptor" | "decryptor"
    seed_i: int
    seed_n: int
    block_index: int = 0
    current_key: IntegratedKey | None = None


def init_session(evidence: RangingEvidence, id: SymmetricId, direction: str) -> SfvSession:
    """Derive block-zero seeds from link evidence."""
    if direction not in ("encryptor", "decryptor"):
        raise ValueError(f"direction must be 'encryptor' or 'decryptor', got {direction!r}")
    return SfvSession(
        id=id,
        direction=direction,
        seed_i=seed_from_location(evidence),
        seed_n=seed_from_rtt(evidence),
    )


def _encrypt(seed_i: int, seed_n: int, id_value: int, plain: int) -> tuple[int, int]:
    """One encryptor step on ints: (cipher block, packed key).

    The timing word folds in the block's leading 32 bits, so the keystream
    depends on the block being sent; a decryptor can still recover it
    because the location word alone unmasks those bits.
    """
    k1 = rng1(seed_i)
    k3 = rng2(seed_n) ^ (plain >> _FEEDBACK_SHIFT)
    packed = (k1 << _K1_SHIFT) | (id_value << K3_BITS) | k3
    return plain ^ (packed << PAD_BITS), packed  # the mask: the packed key, then the zero pad


def _decrypt(seed_i: int, seed_n: int, id_value: int, cipher: int) -> tuple[int, int]:
    """One decryptor step on ints: (plain block, packed key).

    The leading 58 bits fall to the location word and the symmetric ID;
    that exposes the plaintext feedback bits, which reconstruct the timing
    word for the remaining 32 masked bits.  The 6 pad bits pass through.
    """
    k1 = rng1(seed_i)
    k3 = rng2(seed_n) ^ (cipher >> _FEEDBACK_SHIFT) ^ k1
    packed = (k1 << _K1_SHIFT) | (id_value << K3_BITS) | k3
    return cipher ^ (packed << PAD_BITS), packed


def _exchange(
    sender: tuple[int, int, int],
    receiver: tuple[int, int, int],
    m_blocks: int,
    rng: random.Random,
) -> int:
    """Send up to m_blocks random checksummed blocks; return how many verified.

    sender and receiver are (seed_i, seed_n, id value).  Each block draws
    its payload from rng, is encrypted by the sender and decrypted by the
    receiver, and both seed pairs roll from the keys just used.  The
    exchange stops at the first block whose checksum fails.
    """
    seed_i, seed_n, id_a = sender
    seed_r, seed_t, id_b = receiver
    for verified in range(m_blocks):
        payload = rng.randbytes(PAYLOAD_BYTES)
        plain = (int.from_bytes(payload, "big") << _CHECKSUM_BITS) | crc_hqx(payload, 0xFFFF)
        cipher, sent = _encrypt(seed_i, seed_n, id_a, plain)
        received, used = _decrypt(seed_r, seed_t, id_b, cipher)
        body = (received >> _CHECKSUM_BITS).to_bytes(PAYLOAD_BYTES, "big")
        if crc_hqx(body, 0xFFFF) != received & _CHECKSUM_MASK:
            return verified
        seed_i, seed_n = sent >> HALF_BITS, sent & _MASK_HALF
        seed_r, seed_t = used >> HALF_BITS, used & _MASK_HALF
    return m_blocks


def _roll(session: SfvSession, packed: int) -> None:
    session.seed_i = packed >> HALF_BITS
    session.seed_n = packed & _MASK_HALF
    session.block_index += 1
    session.current_key = unpack_key(packed)


def encrypt_block(session: SfvSession, plain: Block) -> Block:
    """Mask one plaintext block and roll the session key."""
    if session.direction != "encryptor":
        raise ValueError("encrypt_block requires an encryptor session")
    cipher, packed = _encrypt(session.seed_i, session.seed_n, session.id.value,
                              int.from_bytes(plain.data, "big"))
    _roll(session, packed)
    return Block(cipher.to_bytes(BLOCK_BYTES, "big"))


def decrypt_block(session: SfvSession, cipher: Block) -> Block:
    """Unmask one block and roll the session key in step with the sender."""
    if session.direction != "decryptor":
        raise ValueError("decrypt_block requires a decryptor session")
    plain, packed = _decrypt(session.seed_i, session.seed_n, session.id.value,
                             int.from_bytes(cipher.data, "big"))
    _roll(session, packed)
    return Block(plain.to_bytes(BLOCK_BYTES, "big"))
