"""Strict friendliness verification for MANET links.

Neighbors authenticate each other per link: ranging evidence (distance,
round-trip time, arrival angle) gates a rolling-key block exchange whose
checksums only survive when both ends derived the same key material.  The
package bundles the protocol, adversary models, a closed-form detection
model and a deterministic network simulator.

`import sfvsim` loads none of them: each name in `__all__` is imported
from its module on first access (PEP 562).  So a caller that uses only the
handshake chain (`adversary`, `model`, `protocol`, `ranging`, and the
`keyschedule` under them) never loads `simulator`, `analytics` or
`config`; `sfvsim.cli` imports them all.
"""

import sys

_EXPORTS = {
    "adversary": "ReplayProfile SybilIdentitySet WormholeTunnel sample_detection "
                 "sybil_attempt wormhole_perturb",
    "analytics": "brute_force_average detection_probability detection_rate detection_table "
                 "emit_csv empirical_detection_rate keyspace_size scientific_string",
    "config": "build_scenario load_config parse_config_text",
    "keyschedule": "SfvSession decrypt_block encrypt_block init_session rng1 rng2 "
                   "seed_from_location seed_from_rtt",
    "model": "Block IdPool RangingEvidence SymmetricId block_checksum draw_distinct_ids "
             "select_symmetric_id",
    "protocol": "HandshakeConfig TranscriptEvent Verdict run_handshake transcript_lines",
    "ranging": "ScanPlan ScanResult ThresholdResult TimestampSet angular_distance "
               "evidence_for_link radial_distance round_trip_time rtt_ceiling "
               "scan_for_neighbor validate_evidence",
    "simulator": "RandomWaypoint Scenario ScenarioMetrics run_scenario step_mobility",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

# Submodules are exported too, so `from sfvsim import *` binds `simulator` and the rest.
__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Through __import__, unlike importlib.import_module, the module shows
    # in `python -X importtime` under the import that asked for it.
    __import__(f"{__name__}.{module}")
    source = sys.modules[f"{__name__}.{module}"]
    if name == module:
        return source
    value = globals()[name] = getattr(source, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
