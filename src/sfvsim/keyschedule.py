"""Seed derivation and the rolling-key block cipher.

The first block's key material is seeded from measured link evidence:
the radial distance / arrival angle on one side, the round-trip time on
the other.  Every subsequent block reseeds from the halves of the key
just used, so both endpoints stay synchronized without exchanging keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    BLOCK_BYTES,
    HALF_BITS,
    PAD_BITS,
    Block,
    IntegratedKey,
    RangingEvidence,
    SymmetricId,
    pack_key,
)

_M64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF

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


def _roll(session: SfvSession, key: IntegratedKey, packed: int) -> None:
    session.seed_i = packed >> HALF_BITS
    session.seed_n = packed & ((1 << HALF_BITS) - 1)
    session.block_index += 1
    session.current_key = key


def encrypt_block(session: SfvSession, plain: Block) -> Block:
    """Mask one plaintext block and roll the session key.

    The timing word folds in the first 32 plaintext bits, so the keystream
    depends on the block being sent; a decryptor can still recover it
    because the location word alone unmasks those bits.
    """
    if session.direction != "encryptor":
        raise ValueError("encrypt_block requires an encryptor session")
    k1 = rng1(session.seed_i)
    feedback = int.from_bytes(plain.data[:4], "big")
    k3 = rng2(session.seed_n) ^ feedback
    key = IntegratedKey(k1=k1, k2=session.id, k3=k3)
    packed = pack_key(key)
    mask = packed << PAD_BITS  # the keystream: the packed key, then the zero pad
    cipher = (int.from_bytes(plain.data, "big") ^ mask).to_bytes(BLOCK_BYTES, "big")
    _roll(session, key, packed)
    return Block(cipher)


def decrypt_block(session: SfvSession, cipher: Block) -> Block:
    """Unmask one block and roll the session key in step with the sender.

    The leading 58 bits fall to the location word and the symmetric ID;
    that exposes the plaintext feedback bits, which reconstruct the timing
    word for the remaining 32 masked bits.  The 6 pad bits pass through.
    """
    if session.direction != "decryptor":
        raise ValueError("decrypt_block requires a decryptor session")
    k1 = rng1(session.seed_i)
    feedback = int.from_bytes(cipher.data[:4], "big") ^ k1
    k3 = rng2(session.seed_n) ^ feedback
    key = IntegratedKey(k1=k1, k2=session.id, k3=k3)
    packed = pack_key(key)
    mask = packed << PAD_BITS  # the keystream: the packed key, then the zero pad
    plain = (int.from_bytes(cipher.data, "big") ^ mask).to_bytes(BLOCK_BYTES, "big")
    _roll(session, key, packed)
    return Block(plain)
