"""Radio ranging: distance and round-trip estimation, thresholds, scanning.

Distance comes from averaged one-way flight times over a short packet
exchange; the round-trip time is taken from the exchange's outer
timestamps.  A neighbor is admissible only when distance, round-trip time
and arrival angle all sit inside the verifier's configured envelope.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .model import RangingEvidence

LIGHTSPEED = 3.0e8  # propagation speed, m/s

# Extra round-trip allowance for responder processing, on top of the pure
# two-way flight time at the distance ceiling.
DEFAULT_PROCESSING_BUDGET = 5e-6

DEFAULT_AOA_HALFWIDTH = 45.0

# Threshold failure labels, reused verbatim in handshake verdicts.
REASON_DISTANCE = "threshold-distance"
REASON_RTT = "threshold-rtt"
REASON_AOA = "threshold-aoa"


@dataclass(frozen=True)
class TimestampSet:
    """Timestamps of one ranging exchange, all on a common clock.

    pairs  (time_of_arrival, time_of_departure) per probe packet, where
           departure is the sender-side send time and arrival the
           receiver-side receive time of the same packet
    t1     when the exchange started (first transmission)
    t2     when the exchange ended (last reception)
    """

    pairs: tuple[tuple[float, float], ...]
    t1: float
    t2: float

    def __post_init__(self):
        if self.t2 < self.t1:
            raise ValueError(f"exchange ends before it starts: t2={self.t2} < t1={self.t1}")


def radial_distance(ts: TimestampSet) -> float:
    """Mean one-way flight time times propagation speed, in meters.

    Clock noise can drive the mean negative; that is clamped to zero and
    reported through a RuntimeWarning rather than an error, because the
    exchange itself was still well-formed.
    """
    if not ts.pairs:
        raise ValueError("ranging exchange carried no probe packets")
    mean_flight = sum(toa - tod for toa, tod in ts.pairs) / len(ts.pairs)
    if mean_flight < 0:
        warnings.warn("negative mean flight time clamped to zero", RuntimeWarning)
        return 0.0
    return LIGHTSPEED * mean_flight


def round_trip_time(ts: TimestampSet) -> float:
    """Round-trip time of the exchange: last reception minus first send."""
    if ts.t2 < ts.t1:
        raise ValueError(f"exchange ends before it starts: t2={ts.t2} < t1={ts.t1}")
    return ts.t2 - ts.t1


def rtt_ceiling(d_max: float, processing_budget: float = DEFAULT_PROCESSING_BUDGET) -> float:
    """Round-trip ceiling for a distance ceiling: flight time plus budget."""
    return 2.0 * d_max / LIGHTSPEED + processing_budget


def wrap_degrees(angle: float) -> float:
    """An angle reduced into [0, 360) degrees.

    A float modulo can round a tiny negative angle up to exactly 360.0, as
    (-8.9e-16) % 360.0 does; that result is the same direction as 0.0.
    """
    wrapped = angle % 360.0
    return 0.0 if wrapped == 360.0 else wrapped


def angular_distance(a: float, b: float) -> float:
    """Smallest absolute angle between two bearings, wrap-aware, degrees."""
    diff = abs(a - b) % 360.0
    return min(diff, 360.0 - diff)


@dataclass(frozen=True, init=False)
class ThresholdResult:
    """Outcome of evidence validation: the failed checks, none on a pass."""

    reasons: tuple[str, ...]

    def __init__(self, reasons):  # one dict update, as in model.RangingEvidence
        self.__dict__.update(reasons=reasons)

    @property
    def passed(self) -> bool:
        return not self.reasons


_PASSED = ThresholdResult(())  # frozen, so every pass shares it


def validate_evidence(evidence: RangingEvidence) -> ThresholdResult:
    """Check measured evidence against its thresholds.

    All three checks always run so the result names every violated
    threshold, in the fixed order distance, round-trip, angle.
    """
    reasons = []
    if evidence.d_radial > evidence.d_max:
        reasons.append(REASON_DISTANCE)
    if evidence.rtt > evidence.rtt_max:
        reasons.append(REASON_RTT)
    if angular_distance(evidence.aoa, evidence.aoa_center) > evidence.aoa_halfwidth:
        reasons.append(REASON_AOA)
    return ThresholdResult(tuple(reasons)) if reasons else _PASSED


@dataclass(frozen=True)
class ScanResult:
    """Selected range (None when the target is out of reach) and tries used."""

    selected_range: float | None
    attempts: int


@dataclass(frozen=True)
class ScanPlan:
    """Power-stepped neighbor scan schedule.

    ranges   selectable radio ranges in meters, strictly increasing
    ranging  True steps the power up from the shortest range; False scans
             once at full power

    The plan builds each ScanResult a scan can return once; they are
    frozen, so every scan shares them.
    """

    ranges: tuple[float, ...]
    ranging: bool

    def __post_init__(self):
        if not self.ranges:
            raise ValueError("scan plan needs at least one radio range")
        if any(b <= a for a, b in zip(self.ranges, self.ranges[1:])):
            raise ValueError(f"radio ranges must be strictly increasing: {self.ranges}")
        steps = enumerate(self.ranges, start=1) if self.ranging else [(1, self.ranges[-1])]
        hits = tuple((r, ScanResult(r, attempt)) for attempt, r in steps)
        object.__setattr__(self, "_hits", hits)  # (range, result), tried in order
        object.__setattr__(self, "_miss", ScanResult(None, len(hits)))


def scan_for_neighbor(plan: ScanPlan, true_distance: float) -> ScanResult:
    """Find the transmit range that reaches a target at the given distance.

    With ranging, each step tries the next larger range until one covers
    the target, so the selected range is the tightest admissible one.
    Without ranging the single full-power attempt either reaches or not.
    """
    if true_distance < 0:
        raise ValueError(f"negative target distance: {true_distance}")
    for radio_range, result in plan._hits:
        if radio_range >= true_distance:
            return result
    return plan._miss


def evidence_for_link(
    distance: float,
    bearing: float,
    d_max: float,
    *,
    processing_budget: float = DEFAULT_PROCESSING_BUDGET,
    aoa_halfwidth: float = DEFAULT_AOA_HALFWIDTH,
    distance_noise: float = 0.0,
    angle_noise: float = 0.0,
    rtt_noise: float = 0.0,
) -> RangingEvidence:
    """Evidence a clean channel would yield for a link of known geometry.

    The verifier centres its admissible sector on the bearing it expects
    from the link's geometry; the measured arrival angle carries the angle
    noise, so noise beyond aoa_halfwidth fails the AoA gate.  Noise offsets
    model shared measurement error; by reciprocity the same offset evidence
    is observed at both endpoints.
    """
    if not distance >= 0.0:  # NaN fails too; max() below would hide it
        raise ValueError(f"link distance must be >= 0: {distance}")
    return RangingEvidence(max(0.0, distance + distance_noise), wrap_degrees(bearing + angle_noise),
                           max(0.0, 2.0 * distance / LIGHTSPEED + rtt_noise), d_max,
                           wrap_degrees(bearing), aoa_halfwidth,
                           rtt_ceiling(d_max, processing_budget))

