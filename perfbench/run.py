#!/usr/bin/env python3
"""Layered host-time benchmark for sfvsim.

    python3 perfbench/run.py --workload full-scale --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from a checkout of the repository; sfvsim is imported from its `src`
directory.  `--trace 0` measures the end-to-end metrics untraced, `--trace 1`
measures the workload untraced and once more under span tracing and prints
the per-layer metrics.  Every run checks its outputs: packet conservation,
exit status, handshake verdicts, and that every repeated unit (and the
traced unit) reproduces the same output digest.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

Config files and span traces go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

from workloads import WORKLOADS  # noqa: E402  (perfbench/ is sys.path[0])

# Each set-up sample is a fresh interpreter; the median of this many is reported.
SETUP_PROBES = 15
# At least two units run, so a same-seed rerun always checks determinism.
MIN_UNITS = 2
# Share of --seconds that a traced run spends on its untraced baseline.
TRACE_BASELINE_SHARE = 0.4

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "simulator.step_mobility.calls": "count",
    "simulator.step_mobility.us_per_call": "us",
    "simulator.self_s": "s",
    "simulator.events": "count",
    "simulator.self_us_per_event": "us",
    "simulator.pdr": "ratio",
    "simulator.handshakes": "count",
    "simulator.scan_attempts": "count",
    "protocol.run_handshake.calls": "count",
    "protocol.run_handshake.us_per_call": "us",
    "protocol.run_handshake.us_p50": "us",
    "protocol.run_handshake.us_p99": "us",
    "protocol.self_s": "s",
    "protocol.friendly_ratio": "ratio",
    "keyschedule.encrypt_block.calls": "count",
    "keyschedule.encrypt_block.us_per_call": "us",
    "keyschedule.decrypt_block.calls": "count",
    "keyschedule.decrypt_block.us_per_call": "us",
    "keyschedule.init_session.calls": "count",
    "keyschedule.self_s": "s",
    "model.block_checksum.calls": "count",
    "model.block_checksum.us_per_call": "us",
    "ranging.scan_for_neighbor.calls": "count",
    "ranging.scan_for_neighbor.us_per_call": "us",
    "ranging.scan_attempts_per_scan": "ratio",
    "ranging.evidence_for_link.us_per_call": "us",
    "ranging.validate_evidence.pass_ratio": "ratio",
    "adversary.sybil_attempt.calls": "count",
    "adversary.sybil_attempt.us_per_call": "us",
    "adversary.wormhole_perturb.calls": "count",
    "adversary.detected_ratio": "ratio",
    "config.build_scenario.s": "s",
    "analytics.emit_csv.s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _check_sources() -> None:
    if not (SRC / "sfvsim" / "__init__.py").is_file():
        print(f"error: sfvsim sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def make_workload(name: str, seed: int, tiny: bool = False):
    return WORKLOADS[name](seed, OUT / "work", tiny)


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit}


def setup_seconds(name: str, seed: int, tiny: bool) -> float:
    """Time one set-up in a fresh interpreter (see `--setup-probe`)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    if tiny:
        argv.append("--tiny")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def run_units(workload, until: float, at_least: int, probe=None, probes: int = 0):
    """Repeat units at least `at_least` times, then while the next one should
    end by the deadline (judged by the last unit's time).

    `probes` calls of `probe` are spread evenly over the same window, so the
    set-up samples see the same machine as the units; any left over run at
    the end.  Returns (unit seconds, unit result) pairs and the probe results.
    """
    units, samples = [], []
    clock = time.perf_counter
    begin = clock()
    while len(units) < at_least or clock() + units[-1][0] <= until:
        while len(samples) < probes and clock() >= begin + len(samples) * (until - begin) / probes:
            samples.append(probe())
        start = clock()
        result = workload.unit()
        units.append((clock() - start, result))
    while len(samples) < probes:
        samples.append(probe())
    return units, samples


def check_units(units) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over units; a digest change fails a unit."""
    attempted = failed = 0
    messages = []
    first = units[0][1].digest
    for _, result in units:
        problems = list(result.failures)
        if result.digest != first:
            problems.append(f"output digest {result.digest[:16]} != first unit's {first[:16]}")
        attempted += result.operations
        failed += min(result.operations, len(problems))
        messages += problems
    return attempted, failed, messages


def end_to_end(workload, units, setups) -> tuple[dict, dict]:
    """The gated metrics, plus workload-specific figures for the report."""
    rates = [workload.work_per_unit / seconds for seconds, _ in units]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"units": len(units), "unit_s_median": statistics.median(s for s, _ in units)}
    if "latency_s_p50" in units[0][1].stats:
        extra["handshakes_per_s"] = metrics["ops_per_s"]
        extra["handshake_us_p50"] = statistics.median(
            r.stats["latency_s_p50"] * 1e6 for _, r in units)
        extra["handshake_us_p99"] = statistics.median(
            r.stats["latency_s_p99"] * 1e6 for _, r in units)
    else:
        extra["node_s_per_s"] = metrics["ops_per_s"]
    return metrics, extra


def per_layer(stats: dict, unit_stats: dict, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced unit, from its span summary."""

    def entry(name):
        return stats.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "outcomes": {}})

    def calls(name):
        return entry(name)["calls"]

    def us_per_call(name):
        e = entry(name)
        return e["total_ns"] / e["calls"] / 1e3 if e["calls"] else 0.0

    def layer_self_s(layer):
        return sum(e["self_ns"] for n, e in stats.items() if n.split(".")[0] == layer) / 1e9

    def share(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    handshake = entry("protocol.run_handshake")
    hs_outcomes = handshake["outcomes"]
    friendly = hs_outcomes.get(1, 0) + hs_outcomes.get(3, 0)
    relayed = hs_outcomes.get(2, 0) + hs_outcomes.get(3, 0)
    sybil = entry("adversary.sybil_attempt")
    sampled = entry("adversary.sample_detection")
    attacks = sybil["calls"] + relayed + sampled["calls"]
    detected = sybil["outcomes"].get(0, 0) + hs_outcomes.get(2, 0) + sampled["outcomes"].get(1, 0)
    scans = entry("ranging.scan_for_neighbor")
    scan_tries = sum(k * v for k, v in scans["outcomes"].items())
    validated = entry("ranging.validate_evidence")

    events = sum(unit_stats.get(k, 0) for k in (
        "node_steps", "generated", "delivered", "dropped_range", "handshakes", "attack_attempts"))
    simulator_self = layer_self_s("simulator")
    return {
        "simulator.step_mobility.calls": calls("simulator.step_mobility"),
        "simulator.step_mobility.us_per_call": us_per_call("simulator.step_mobility"),
        "simulator.self_s": simulator_self,
        "simulator.events": events,
        "simulator.self_us_per_event": share(simulator_self * 1e6, events),
        "simulator.pdr": share(unit_stats.get("delivered", 0), unit_stats.get("generated", 0)),
        "simulator.handshakes": unit_stats.get("handshakes", 0),
        "simulator.scan_attempts": unit_stats.get("scan_attempts", 0),
        "protocol.run_handshake.calls": handshake["calls"],
        "protocol.run_handshake.us_per_call": us_per_call("protocol.run_handshake"),
        "protocol.run_handshake.us_p50": handshake.get("p50_ns", 0) / 1e3,
        "protocol.run_handshake.us_p99": handshake.get("p99_ns", 0) / 1e3,
        "protocol.self_s": layer_self_s("protocol"),
        "protocol.friendly_ratio": share(friendly, handshake["calls"]),
        "keyschedule.encrypt_block.calls": calls("keyschedule.encrypt_block"),
        "keyschedule.encrypt_block.us_per_call": us_per_call("keyschedule.encrypt_block"),
        "keyschedule.decrypt_block.calls": calls("keyschedule.decrypt_block"),
        "keyschedule.decrypt_block.us_per_call": us_per_call("keyschedule.decrypt_block"),
        "keyschedule.init_session.calls": calls("keyschedule.init_session"),
        "keyschedule.self_s": layer_self_s("keyschedule"),
        "model.block_checksum.calls": calls("model.block_checksum"),
        "model.block_checksum.us_per_call": us_per_call("model.block_checksum"),
        "ranging.scan_for_neighbor.calls": scans["calls"],
        "ranging.scan_for_neighbor.us_per_call": us_per_call("ranging.scan_for_neighbor"),
        "ranging.scan_attempts_per_scan": share(scan_tries, scans["calls"]),
        "ranging.evidence_for_link.us_per_call": us_per_call("ranging.evidence_for_link"),
        "ranging.validate_evidence.pass_ratio": share(validated["outcomes"].get(1, 0),
                                                      validated["calls"]),
        "adversary.sybil_attempt.calls": sybil["calls"],
        "adversary.sybil_attempt.us_per_call": us_per_call("adversary.sybil_attempt"),
        "adversary.wormhole_perturb.calls": calls("adversary.wormhole_perturb"),
        "adversary.detected_ratio": share(detected, attacks),
        "config.build_scenario.s": entry("config.build_scenario")["total_ns"] / 1e9,
        "analytics.emit_csv.s": entry("analytics.emit_csv")["total_ns"] / 1e9,
        "cli.self_s": layer_self_s("cli"),
        "trace.overhead_ratio": traced_s / untraced_s,
    }


def traced_run(workload, untraced_s: float, env: dict) -> tuple[object, dict, dict]:
    """One unit under span tracing: its result, per-layer metrics and a report."""
    from spans import Tracer

    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        with tracer.root("bench.unit"):
            result = workload.unit()
        traced_s = time.perf_counter() - start
    problems = []
    if not tracer.restored():
        problems.append("traced names were not restored")
    stats = tracer.summary("protocol.run_handshake")
    layers: dict[str, float] = {}
    for span_name, e in stats.items():
        layer = span_name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + e["self_ns"] / 1e9
    # When noise makes the traced unit no slower than the untraced median,
    # 1% or 50 us (entering and leaving the root span, ~15 us) is allowed.
    allowed = max(traced_s - untraced_s, 0.01 * traced_s, 50e-6)
    if abs(sum(layers.values()) - traced_s) > allowed:
        problems.append(f"layer self times sum to {sum(layers.values()):.6f} s, "
                        f"traced wall {traced_s:.6f} s")
    metrics = per_layer(stats, result.stats, traced_s, untraced_s)
    report = {"traced_unit_s": traced_s, "self_s_by_layer": layers, "problems": problems}
    tracer.write(OUT / f"{workload.name}.spans", {
        "workload": workload.name, "seed": workload.seed, "untraced_unit_s": untraced_s,
        "metrics": metrics, "environment": env, **report,
    })
    return result, metrics, report


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload and return the result object plus a report."""
    workload = make_workload(name, seed, tiny)
    report: dict = {"workload": name, "seed": seed, "environment": environment()}
    if not trace:
        units, setups = run_units(workload, time.perf_counter() + seconds, MIN_UNITS,
                                  lambda: setup_seconds(name, seed, tiny),
                                  1 if tiny else SETUP_PROBES)
        attempted, failed, problems = check_units(units)
        metrics, extra = end_to_end(workload, units, setups)
        report.update(extra)
        declared = END_TO_END
    else:
        units, _ = run_units(workload, time.perf_counter() + seconds * TRACE_BASELINE_SHARE, 1)
        attempted, failed, problems = check_units(units)
        untraced_s = statistics.median(s for s, _ in units)
        result, metrics, traced = traced_run(workload, untraced_s, report["environment"])
        trace_problems = traced.pop("problems") + result.failures
        if result.digest != units[0][1].digest:
            trace_problems.append("traced output digest differs from the untraced one")
        attempted += result.operations
        failed += min(result.operations, len(trace_problems))
        problems += trace_problems
        report.update(traced, units=len(units), unit_s_median=untraced_s)
        declared = PER_LAYER
    report["output_digest"] = units[0][1].digest
    report["error_rate"] = failed / attempted
    report["problems"] = problems
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in declared.items()},
    }, report


def print_report(result: dict, report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']}")
    for key, entry in result["metrics"].items():
        print(f"  {key:<40} {entry['value']!r:>24} {entry['unit']}")
    for key in ("node_s_per_s", "handshakes_per_s", "handshake_us_p50", "handshake_us_p99",
                "units", "unit_s_median", "traced_unit_s"):
        if key in report:
            print(f"  {key:<40} {report[key]!r:>24}")
    if "self_s_by_layer" in report:
        layers = report["self_s_by_layer"]
        print("  self_s_by_layer " + " ".join(f"{k}={v:.6f}" for k, v in sorted(layers.items()))
              + f" sum={sum(layers.values()):.6f}")
    print(f"  output_digest {report['output_digest']}")
    print(f"  error_rate {report['error_rate']!r} ({result['failed']}/{result['attempted']})")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    print(f"  environment {json.dumps(report['environment'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload for a smoke run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _check_sources()

    if args.setup_probe:
        workload = make_workload(args.workload, args.seed, args.tiny)  # sfvsim not imported yet
        start = time.perf_counter()
        workload.setup()
        print(time.perf_counter() - start)
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result, report = measure(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        print_report(result, report)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
