"""Core value types for link verification: symmetric IDs, blocks, evidence.

The verification cipher works on 12-byte blocks (10 payload bytes plus a
16-bit checksum) masked by a 90-bit integrated key.  The key concatenates a
32-bit location-derived word, a 26-bit symmetric ID and a 32-bit timing
word, and is consumed most-significant-first; `sfvsim.keyschedule` builds
it.
"""

from __future__ import annotations

import random
from binascii import crc_hqx
from dataclasses import dataclass

ID_BITS = 26
K1_BITS = 32
K3_BITS = 32
KEY_BITS = K1_BITS + ID_BITS + K3_BITS  # 90
HALF_BITS = KEY_BITS // 2  # 45, key halves reseed the next block
PAD_BITS = 6  # zero pad appended so the keystream covers 12 bytes exactly

PAYLOAD_BYTES = 10
CHECKSUM_BYTES = 2
BLOCK_BYTES = PAYLOAD_BYTES + CHECKSUM_BYTES

_MASK_ID = (1 << ID_BITS) - 1


class SymmetricId(int):
    """A 26-bit shared identifier, checked on construction; equal to its int."""

    __slots__ = ()

    def __new__(cls, value: int):
        if not 0 <= value <= _MASK_ID:
            raise ValueError(f"symmetric id out of 26-bit range: {value}")
        return super().__new__(cls, value)


@dataclass(slots=True)
class IdPool:
    """Ordered pool of distinct symmetric IDs with a cyclic selection cursor.

    Both endpoints of a provisioned link hold pools with identical contents
    and advance their cursors in lockstep, one selection per handshake.  A
    copy.copy shares the ID list and keeps its own cursor; slots keep such
    per-node copies small.
    """

    ids: list[int]
    next_index: int = 0

    def __post_init__(self):
        ids = self.ids
        if len(set(ids)) != len(ids):
            raise ValueError("id pool contains duplicate ids")
        if ids and not 0 <= min(ids) <= max(ids) <= _MASK_ID:
            raise ValueError("id pool holds an id out of 26-bit range")


def draw_distinct_ids(rng: random.Random, count: int, taken: set[int]) -> list[int]:
    """Draw count 26-bit IDs from rng that are not in taken, and add them to it.

    Each try is one getrandbits(26) draw, in range; a taken value is skipped.
    A count beyond the IDs left free is refused before the first draw.
    """
    free = (1 << ID_BITS) - len(taken)
    if count > free:
        raise ValueError(f"cannot draw {count} ids: only {free} are free")
    ids = []
    while len(ids) < count:
        value = rng.getrandbits(ID_BITS)
        if value not in taken:
            taken.add(value)
            ids.append(value)
    return ids


def select_symmetric_id(pool: IdPool) -> int:
    """Return the pool's next ID and advance the cursor cyclically."""
    if not pool.ids:
        raise ValueError("cannot select from an empty id pool")
    chosen = pool.ids[pool.next_index % len(pool.ids)]
    pool.next_index = (pool.next_index + 1) % len(pool.ids)
    return chosen


def block_checksum(payload: bytes) -> int:
    """16-bit integrity checksum over a block payload.

    CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection, no final
    xor, which is binascii's CRC-CCITT started from 0xFFFF.
    """
    return crc_hqx(payload, 0xFFFF)


@dataclass(frozen=True)
class Block:
    """A fixed 12-byte cipher block: 10 payload bytes plus 2 checksum bytes.

    The checksum field is only meaningful on plaintext blocks; ciphertext
    reuses the same container with the field masked like everything else.
    """

    data: bytes

    def __post_init__(self):
        if len(self.data) != BLOCK_BYTES:
            raise ValueError(f"block must be exactly {BLOCK_BYTES} bytes, got {len(self.data)}")

    @classmethod
    def from_payload(cls, payload: bytes) -> "Block":
        """Build a plaintext block, appending the payload checksum."""
        if len(payload) != PAYLOAD_BYTES:
            raise ValueError(f"payload must be exactly {PAYLOAD_BYTES} bytes, got {len(payload)}")
        return cls(payload + block_checksum(payload).to_bytes(CHECKSUM_BYTES, "big"))

    @property
    def payload(self) -> bytes:
        return self.data[:PAYLOAD_BYTES]

    @property
    def checksum_field(self) -> int:
        return int.from_bytes(self.data[PAYLOAD_BYTES:], "big")

    def checksum_ok(self) -> bool:
        """True when the trailing field matches the payload checksum."""
        return self.checksum_field == block_checksum(self.payload)


# A frozen dataclass's generated __init__ stores each field through
# object.__setattr__, a cost the dataclasses docs name.  The records built
# on every link check (this one, NodeProfile, ranging.ThresholdResult and
# protocol.Verdict) stay frozen dataclasses but store their fields with one
# dict update in a hand-written __init__, then run their checks.
@dataclass(frozen=True, init=False)
class RangingEvidence:
    """One link's measured evidence plus the thresholds it must satisfy.

    Channel reciprocity is assumed: both endpoints observe the same values,
    so the same evidence object seeds both sides of a session.

    d_radial    measured radial distance, meters
    aoa         measured angle of arrival, degrees in [0, 360)
    rtt         measured round-trip time, seconds
    d_max       admissible distance ceiling (the selected radio range), m
    aoa_center  center of the admissible arrival sector, degrees
    aoa_halfwidth  half-width of that sector, degrees in (0, 180]
    rtt_max     admissible round-trip ceiling, seconds
    """

    d_radial: float
    aoa: float
    rtt: float
    d_max: float
    aoa_center: float
    aoa_halfwidth: float
    rtt_max: float

    def __init__(self, d_radial, aoa, rtt, d_max, aoa_center, aoa_halfwidth, rtt_max):
        self.__dict__.update(d_radial=d_radial, aoa=aoa, rtt=rtt, d_max=d_max,
                             aoa_center=aoa_center, aoa_halfwidth=aoa_halfwidth,
                             rtt_max=rtt_max)
        # Written so that NaN fails each check.
        if not self.d_radial >= 0:
            raise ValueError(f"radial distance must be >= 0: {self.d_radial}")
        if not 0.0 <= self.aoa < 360.0:
            raise ValueError(f"arrival angle outside [0, 360): {self.aoa}")
        if not 0.0 <= self.aoa_center < 360.0:
            raise ValueError(f"sector center outside [0, 360): {self.aoa_center}")
        if not self.rtt >= 0:
            raise ValueError(f"round-trip time must be >= 0: {self.rtt}")
        if not self.d_max > 0:
            raise ValueError(f"distance ceiling must be positive: {self.d_max}")
        if not self.rtt_max > 0:
            raise ValueError(f"round-trip ceiling must be positive: {self.rtt_max}")
        if not 0.0 < self.aoa_halfwidth <= 180.0:
            raise ValueError(f"sector half-width outside (0, 180]: {self.aoa_halfwidth}")


@dataclass(frozen=True, init=False)
class NodeProfile:
    """A node's identity, position, velocity and credential pool.

    The simulator builds an attacker's at placement and an honest node's
    on its first attack check, and hands it to every attack check the node
    takes part in, so its pool's cursor keeps advancing across handshakes.
    Honest links share one lockstep pair of profiles instead.  A handshake
    reads only the pools.
    """

    node_id: str
    position: tuple[float, float]
    velocity: tuple[float, float]
    role: str  # "honest" | "sybil" | "wormhole-endpoint"
    pool: IdPool

    def __init__(self, node_id, position, velocity, role, pool):
        self.__dict__.update(node_id=node_id, position=position, velocity=velocity,
                             role=role, pool=pool)
        if self.role not in ("honest", "sybil", "wormhole-endpoint"):
            raise ValueError(f"unknown node role: {self.role!r}")
