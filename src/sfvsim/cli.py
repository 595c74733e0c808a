"""Command-line front end.

Subcommands: run one scenario, sweep one scenario variable, tabulate the
detection model against sampled replay attempts, tabulate key-space
figures, or trace a single handshake.  All outputs are deterministic for
equal seeds; tables are CSV, written to --out or stdout.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from dataclasses import fields

from .adversary import WormholeTunnel, wormhole_perturb
from .analytics import (
    brute_force_average,
    detection_table,
    emit_csv,
    keyspace_size,
    scientific_string,
)
from .config import build_replay_profile, build_scenario, load_config
from .model import IdPool, KEY_BITS, NodeProfile, draw_distinct_ids
from .protocol import HandshakeConfig, run_handshake, transcript_lines
from .ranging import evidence_for_link
from .simulator import SFV_MODES, ScenarioMetrics, check_run, run_scenario


def _metrics_record(metrics: ScenarioMetrics) -> dict:
    record = {}
    for spec in fields(ScenarioMetrics):
        value = getattr(metrics, spec.name)
        record[spec.name] = ";".join(map(str, value)) if isinstance(value, tuple) else value
    return record


def _load_options(args) -> dict:
    return load_config(args.config) if args.config else {}


def _cmd_run(args) -> int:
    options = _load_options(args)
    scenario, duration = build_scenario(
        options,
        master_seed=args.seed,
        sfv_mode=args.mode,
        duration_s=args.duration,
    )
    metrics = run_scenario(scenario, duration)
    emit_csv([_metrics_record(metrics)], args.out or sys.stdout)
    return 0


# Each sweep variable and the Scenario keys one of its values sets.
SWEEP_KEYS = {
    "tx_rate": ("tx_rate_kbps",),
    "node_speed": ("node_speed_min", "node_speed_max"),
}


def _cmd_sweep(args) -> int:
    if args.repetitions < 1:
        raise ValueError(f"--repetitions must be at least 1: {args.repetitions}")
    options = _load_options(args)
    values = [float(part) for part in args.values.split(",") if part.strip()]
    if not values:
        raise ValueError("sweep needs at least one value")
    base_seed = args.seed if args.seed is not None else options.get("master_seed", 1)

    # Every point is built and checked before the first one runs.
    points = []
    for value in values:
        for repetition in range(args.repetitions):
            scenario, duration = build_scenario(
                options,
                master_seed=base_seed + repetition,
                sfv_mode=args.mode,
                duration_s=args.duration,
                **dict.fromkeys(SWEEP_KEYS[args.variable], value),
            )
            check_run(scenario, duration)
            points.append((value, scenario, duration))

    records = []
    for value, scenario, duration in points:
        record = {"variable": args.variable, "value": value}
        record.update(_metrics_record(run_scenario(scenario, duration)))
        records.append(record)
    emit_csv(records, args.out or sys.stdout)
    return 0


def _cmd_detect(args) -> int:
    n_values = [int(part) for part in args.n_ids.split(",") if part.strip()]
    rows = detection_table(n_values, build_replay_profile(vars(args)), args.attempts, args.seed)
    emit_csv(rows, args.out or sys.stdout)
    return 0


def _cmd_keyspace(args) -> int:
    # Python prints no int of more than get_int_max_str_digits() digits (0:
    # no limit; Pythons before 3.10.7 have none), and 2**bits has more than
    # `limit` digits once bits * log10(2) >= limit.  Refuse such a width
    # before any output.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.bits * math.log10(2) >= limit:
        raise ValueError(f"--bits {args.bits}: the key count has more than {limit} digits, "
                         f"Python's limit for printing an int")
    size = keyspace_size(args.bits)
    record = {
        "bits": args.bits,
        "keys": size,
        "brute_force_average": brute_force_average(args.bits),
        "scientific": scientific_string(size),
    }
    emit_csv([record], args.out or sys.stdout)
    return 0


def _cmd_handshake(args) -> int:
    # The tunnel checks its latency first, whatever --adversary is.
    tunnel = WormholeTunnel("relay-near", "relay-far", args.tunnel_latency)
    rng = random.Random(args.seed if args.seed is not None else 1)
    taken: set[int] = set()
    shared = draw_distinct_ids(rng, 6, taken)
    initiator = NodeProfile("initiator", (0.0, 0.0), (0.0, 0.0), "honest", IdPool(list(shared)))
    responder = NodeProfile("responder", (150.0, 0.0), (0.0, 0.0), "honest", IdPool(list(shared)))
    evidence = evidence_for_link(150.0, 0.0, d_max=270.0)

    if args.adversary == "wormhole":
        evidence = wormhole_perturb(evidence, tunnel, tunnel_bearing=0.0)
    elif args.adversary == "sybil":
        responder = NodeProfile("impostor", (150.0, 0.0), (0.0, 0.0), "sybil",
                                IdPool(draw_distinct_ids(rng, 3, taken)))
    events = []
    run_handshake(initiator, responder, evidence, HandshakeConfig(), rng, transcript=events)

    lines = transcript_lines(events)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def _seed(text: str) -> int:
    """A --seed value: an unsigned 64-bit integer.  random.Random seeds
    from abs(n), so a negative seed would replay its positive twin."""
    seed = int(text)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64): {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfvsim",
        description="Verification-gated MANET link simulator and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, duration_default=None):
        p.add_argument("--config", help="flat key = value scenario file")
        p.add_argument("--seed", type=_seed, help="master seed (unsigned 64-bit)")
        p.add_argument("--out", help="write CSV here instead of stdout")
        p.add_argument("--mode", choices=SFV_MODES, help="verification mode")
        p.add_argument("--duration", type=float, default=duration_default,
                       help="simulated seconds")

    p_run = sub.add_parser("run", help="run one scenario and report metrics")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one variable over comma-separated values")
    common(p_sweep)
    p_sweep.add_argument("--variable", required=True, choices=tuple(SWEEP_KEYS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated sweep values")
    p_sweep.add_argument("--repetitions", type=int, default=1,
                         help="seeded repetitions per value (seed, seed+1, ...)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_detect = sub.add_parser(
        "detect", help="tabulate the detection model against sampled replay attempts")
    p_detect.add_argument("--detection-probability", type=float, default=0.35)
    p_detect.add_argument("--p-wormhole", type=float, dest="p_wormhole")
    p_detect.add_argument("--p-id", type=float, dest="p_id_replay")
    p_detect.add_argument("--p-rtt", type=float, dest="p_rtt_replay")
    p_detect.add_argument("--n-ids", default="1,2,4,6,8",
                          help="comma-separated verifier id counts")
    p_detect.add_argument("--attempts", type=int, default=10_000,
                          help="sampled replay attempts per id count")
    p_detect.add_argument("--seed", type=_seed, default=1,
                          help="seed of the sampled attempts (unsigned 64-bit)")
    p_detect.add_argument("--out")
    p_detect.set_defaults(func=_cmd_detect)

    p_keys = sub.add_parser("keyspace", help="tabulate exhaustive-search figures")
    p_keys.add_argument("--bits", type=int, default=KEY_BITS)
    p_keys.add_argument("--out")
    p_keys.set_defaults(func=_cmd_keyspace)

    p_hs = sub.add_parser("handshake", help="trace one handshake transcript")
    p_hs.add_argument("--seed", type=_seed, help="seed (unsigned 64-bit)")
    p_hs.add_argument("--out")
    p_hs.add_argument("--adversary", choices=("none", "sybil", "wormhole"),
                      default="none")
    p_hs.add_argument("--tunnel-latency", type=float, default=1e-5,
                      dest="tunnel_latency", help="wormhole latency, seconds")
    p_hs.set_defaults(func=_cmd_handshake)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
