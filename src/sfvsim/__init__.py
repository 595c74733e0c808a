"""Strict friendliness verification for MANET links.

Neighbors authenticate each other per link: ranging evidence (distance,
round-trip time, arrival angle) gates a rolling-key block exchange whose
checksums only survive when both ends derived the same key material.  The
package bundles the protocol, adversary models, a closed-form detection
model and a deterministic network simulator.
"""

from .adversary import (
    ReplayProfile,
    SybilIdentitySet,
    WormholeTunnel,
    sample_detection,
    sybil_attempt,
    wormhole_perturb,
)
from .analytics import (
    brute_force_average,
    detection_probability,
    detection_rate,
    detection_table,
    emit_csv,
    empirical_detection_rate,
    keyspace_size,
    scientific_string,
)
from .config import build_scenario, load_config, parse_config_text
from .keyschedule import (
    SfvSession,
    decrypt_block,
    encrypt_block,
    init_session,
    rng1,
    rng2,
    seed_from_location,
    seed_from_rtt,
)
from .model import (
    Block,
    IdPool,
    NodeProfile,
    RangingEvidence,
    SymmetricId,
    block_checksum,
    draw_distinct_ids,
    select_symmetric_id,
)
from .protocol import (
    HandshakeConfig,
    TranscriptEvent,
    Verdict,
    run_handshake,
    transcript_lines,
)
from .ranging import (
    ScanPlan,
    ScanResult,
    ThresholdResult,
    TimestampSet,
    angular_distance,
    evidence_for_link,
    radial_distance,
    round_trip_time,
    rtt_ceiling,
    scan_for_neighbor,
    validate_evidence,
)
from .simulator import RandomWaypoint, Scenario, ScenarioMetrics, run_scenario, step_mobility

__version__ = "0.1.0"
