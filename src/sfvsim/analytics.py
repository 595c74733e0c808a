"""Closed-form detection model, key-space arithmetic, and CSV reporting.

A replay attacker slips past one verification when all three replays
succeed, so a single verification detects with probability
(1-p_wh)(1-p_id)(1-p_rtt).  Re-verifying under n distinct symmetric IDs
gives n independent chances, 1 - (1-P)^n overall.
"""

from __future__ import annotations

import decimal
import random

from .adversary import ReplayProfile, sample_detection
from .model import KEY_BITS
from .simulator import MAX_STEPS


def detection_probability(profile: ReplayProfile) -> float:
    """Chance a single verification catches the modeled replay attacker."""
    return (
        (1.0 - profile.p_wormhole)
        * (1.0 - profile.p_id_replay)
        * (1.0 - profile.p_rtt_replay)
    )


def detection_rate(profile: ReplayProfile, n_ids: int) -> float:
    """Chance at least one of n_ids independent verifications catches."""
    if n_ids < 1:
        raise ValueError(f"verifier needs at least one id, got {n_ids}")
    return 1.0 - (1.0 - detection_probability(profile)) ** n_ids


def keyspace_size(bits: int = KEY_BITS) -> int:
    """Exact count of distinct keys at the given width."""
    if bits < 1:
        raise ValueError(f"key width must be positive, got {bits}")
    return 1 << bits


def brute_force_average(bits: int = KEY_BITS) -> int:
    """Expected trials to hit one key by exhaustive search: half the space."""
    return keyspace_size(bits) // 2


def scientific_string(n: int, digits: int = 10) -> str:
    """Exact scientific rendering of an integer to the given significance."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    if digits < 1:
        raise ValueError(f"need at least one significant digit, got {digits}")
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        quantized = +decimal.Decimal(n)
    exponent = quantized.adjusted()
    # Re-render from the decimal tuple so the format is stable.
    _, raw_digits, _ = quantized.as_tuple()
    digit_str = "".join(str(d) for d in raw_digits).rstrip("0") or "0"
    head, tail = digit_str[0], digit_str[1:]
    body = f"{head}.{tail}" if tail else head
    return f"{body}e+{exponent}" if exponent >= 0 else f"{body}e{exponent}"


def empirical_detection_rate(
    profile: ReplayProfile,
    n_ids: int,
    attempts: int,
    rng: random.Random,
) -> float:
    """Monte-Carlo detection fraction over simulated replay attempts.

    Each attempt faces one verification per provisioned ID and is counted
    as detected when any verification catches it.
    """
    if attempts < 1:
        raise ValueError(f"need at least one attempt, got {attempts}")
    detected = 0
    for _ in range(attempts):
        if any(sample_detection(profile, rng) for _ in range(n_ids)):
            detected += 1
    return detected / attempts


def detection_table(
    n_ids_values: list[int],
    profile: ReplayProfile,
    attempts: int,
    seed: int,
) -> list[dict]:
    """The rows `sfvsim detect` prints: per ID count, the replay profile,
    the closed-form rate and the rate over `attempts` sampled attempts.

    The replay checks are independent of traffic, so the simulation is the
    attempt process itself: one generator seeded with seed serves the ID
    counts in order.  Every count, and the worst case of attempts x sum of
    the counts sampled verifications (at most MAX_STEPS), is checked before
    the first draw.
    """
    rates = [detection_rate(profile, n) for n in n_ids_values]
    if attempts * sum(n_ids_values) > MAX_STEPS:
        raise ValueError(f"attempts x sum of n_ids = {attempts} x {sum(n_ids_values)} "
                         f"exceeds {MAX_STEPS} sampled verifications")
    single = detection_probability(profile)
    rng = random.Random(seed)
    rows = []
    for n, rate in zip(n_ids_values, rates):
        empirical = empirical_detection_rate(profile, n, attempts, rng)
        rows.append({
            "n_ids": n,
            "p_wormhole": profile.p_wormhole,
            "p_id_replay": profile.p_id_replay,
            "p_rtt_replay": profile.p_rtt_replay,
            "detection_probability": single,
            "detection_rate": rate,
            "empirical_rate": empirical,
            "abs_gap": abs(rate - empirical),
            "attempts": attempts,
        })
    return rows


def emit_csv(records: list[dict], destination) -> None:
    """Write records as a deterministic RFC-4180-style CSV.

    destination is a path or a writable text file.  Columns follow the
    first record's key order; every record must share its keys.
    Identical records yield identical bytes.
    """
    import csv

    if not records:
        raise ValueError("refusing to emit an empty csv")
    fieldnames = list(records[0])
    for record in records:
        if record.keys() != records[0].keys():
            raise ValueError("records do not share one schema")

    def write(out) -> None:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(records)

    if isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__"):
        with open(destination, "w", newline="") as handle:
            write(handle)
    else:
        write(destination)

