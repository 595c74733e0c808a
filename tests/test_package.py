"""The `sfvsim` namespace: every export, loaded from its module on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import sfvsim

# The names `sfvsim` exports, by the module that defines them.
EXPORTS = {
    "adversary": ["ReplayProfile", "SybilIdentitySet", "WormholeTunnel", "sample_detection",
                  "sybil_attempt", "wormhole_perturb"],
    "analytics": ["brute_force_average", "detection_probability", "detection_rate",
                  "detection_table", "emit_csv", "empirical_detection_rate", "keyspace_size",
                  "scientific_string"],
    "config": ["build_scenario", "load_config", "parse_config_text"],
    "keyschedule": ["SfvSession", "decrypt_block", "encrypt_block", "init_session", "rng1",
                    "rng2", "seed_from_location", "seed_from_rtt"],
    "model": ["Block", "IdPool", "RangingEvidence", "SymmetricId", "block_checksum",
              "draw_distinct_ids", "select_symmetric_id"],
    "protocol": ["HandshakeConfig", "TranscriptEvent", "Verdict", "run_handshake",
                 "transcript_lines"],
    "ranging": ["ScanPlan", "ScanResult", "ThresholdResult", "TimestampSet", "angular_distance",
                "evidence_for_link", "radial_distance", "round_trip_time", "rtt_ceiling",
                "scan_for_neighbor", "validate_evidence"],
    "simulator": ["RandomWaypoint", "Scenario", "ScenarioMetrics", "run_scenario",
                  "step_mobility"],
}
NAMES = [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]

# What the handshake chain must not load.
UNUSED = ["sfvsim.simulator", "sfvsim.analytics", "sfvsim.config", "sfvsim.cli", "decimal"]


def test_all_lists_every_export_once():
    assert sorted(sfvsim.__all__) == sorted(NAMES)
    assert len(set(sfvsim.__all__)) == len(sfvsim.__all__)


def test_each_export_is_its_modules_object():
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"sfvsim.{module}")
        assert getattr(sfvsim, module) is source
        for name in names:
            assert getattr(sfvsim, name) is getattr(source, name), name


def test_dir_lists_every_export():
    assert set(NAMES) <= set(dir(sfvsim))
    assert "__version__" in dir(sfvsim)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from sfvsim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(NAMES)
    assert all(namespace[name] is getattr(sfvsim, name) for name in NAMES)


def test_the_handshake_chain_loads_no_simulator_and_a_bare_import_finds_it():
    # A fresh interpreter, since this one has loaded everything.  Only the
    # modules the import adds count, not those interpreter start-up loaded.
    script = f"""
import json, sys
before = set(sys.modules)
import sfvsim
from sfvsim import adversary, model, protocol, ranging
loaded = sorted(set({UNUSED!r}) & (set(sys.modules) - before))
simulator = sfvsim.simulator
print(json.dumps([loaded, simulator is sys.modules["sfvsim.simulator"],
                  sfvsim.Scenario is simulator.Scenario,
                  sfvsim.run_handshake is protocol.run_handshake]))
"""
    src = str(Path(sfvsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], True, True, True]
