"""Tiny-size runs of every benchmark workload, untraced and traced.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sfvsim.config import build_scenario, parse_config_text  # noqa: E402
from sfvsim.simulator import Scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7  # not the command line's default seed


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _acceptance_fixture():
    spec = importlib.util.spec_from_file_location("acceptance_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_declared_workloads_and_metrics_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_tiny_run_prints_every_end_to_end_metric(name):
    result, report = run.measure(name, SEED, seconds=0, trace=False, tiny=True)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_tiny_run_restores_names_and_keeps_the_digest(name):
    bindings = [(module, attr, getattr(module, attr))
                for module, attr, _, _ in spans.targets(spans._Outcomes())]
    result, report = run.measure(name, SEED, seconds=0, trace=True, tiny=True)
    assert result["correct"], report["problems"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert all(getattr(module, attr) is original for module, attr, original in bindings)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["protocol.run_handshake.calls"] > 0
    assert metrics["trace.overhead_ratio"] > 0
    if name == "handshake-mix":
        assert metrics["adversary.detected_ratio"] == 1.0
        assert metrics["simulator.step_mobility.calls"] == 0
    else:
        assert metrics["simulator.step_mobility.calls"] > 0
        assert metrics["cli.self_s"] > 0


def test_seed_reaches_the_generated_inputs():
    digests = {seed: run.measure("handshake-mix", seed, 0, False, tiny=True)[1]["output_digest"]
               for seed in (1, SEED)}
    assert digests[1] != digests[SEED]


def test_desk_sweep_config_is_the_acceptance_rate_sweep():
    fixture = _acceptance_fixture()
    options = parse_config_text(workloads.DESK_CONFIG)
    assert workloads.DESK_RATES == fixture.RATES
    assert workloads.DESK_MODES == fixture.MODES
    assert workloads.DESK_DURATION_S == fixture.DESK_DURATION
    for seed in (1, SEED):
        for mode in fixture.MODES:
            for rate in fixture.RATES:
                built = build_scenario(options, master_seed=seed, sfv_mode=mode,
                                       tx_rate_kbps=rate, duration_s=fixture.DESK_DURATION)
                assert built == (fixture.rate_scenario(seed, mode, rate), fixture.DESK_DURATION)
                assert built[0] == Scenario(master_seed=seed, sfv_mode=mode, tx_rate_kbps=rate,
                                            **fixture.RATE_SWEEP_KW)


def test_command_prints_result_json_last():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "handshake-mix", "--seed", str(SEED),
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
