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
    assert_disjoint_identities,
    sample_detection,
    sybil_attempt,
    wormhole_perturb,
)
from .analytics import (
    DetectionComparison,
    DetectionModel,
    SweepSpec,
    brute_force_average,
    compare_analytic_empirical,
    detection_probability,
    detection_rate,
    emit_csv,
    empirical_detection_rate,
    keyspace_size,
    parse_csv,
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
    IntegratedKey,
    NodeProfile,
    RangingEvidence,
    SymmetricId,
    block_checksum,
    expand_keystream,
    pack_key,
    select_symmetric_id,
    split_key_halves,
    unpack_key,
)
from .protocol import (
    HandshakeConfig,
    TranscriptEvent,
    Verdict,
    handshake_transcript,
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
from .simulator import (
    QueueModel,
    Scenario,
    ScenarioMetrics,
    ScenarioRun,
    measure_metrics,
    run_scenario,
    step_mobility,
)

__version__ = "0.1.0"
