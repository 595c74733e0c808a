"""The benchmark's four workloads, built from a seed.

Each workload repeats one *unit* of work: a fixed set of `cli.main`
invocations for the three simulator workloads, a fixed batch of link
verifications for `handshake-mix`.  Every unit of one workload object gets
the same inputs, so every unit must reproduce the same `digest`; the
caller treats a different digest as a failed operation.

sfvsim is imported inside methods, never at module import, so the set-up
probe can time the package import itself.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

# A mobility step of the default Scenario, in simulated seconds.
MOBILITY_STEP_S = 0.025

# The acceptance fixture's rate sweep (tests/conftest.py, RATE_SWEEP_KW),
# written as a config file so the sweep runs through `cli.main`.
DESK_CONFIG = """\
clusters = 2
nodes_per_cluster = 20
cluster_width = 400
cluster_height = 400
flows_per_cluster = 4
handshake_base_s = 0.02
handshake_attempt_extra_s = 0.01
"""
DESK_RATES = (200.0, 600.0, 1200.0, 2000.0)
DESK_MODES = ("off", "sfv", "sfv-ranging")
DESK_DURATION_S = 60.0

VERIFY_CONFIG = """\
neighbor_verification = on
attacker_fraction = 0.05
attacker_kind = mixed
"""

HANDSHAKE_CASES = ("friendly", "sybil", "wormhole")


@dataclass
class UnitResult:
    """One unit's output digest, failed operations and statistics.

    `stats` holds simulated totals for the simulator workloads and the
    per-operation latency quantiles for handshake-mix.
    """

    digest: str
    operations: int
    failures: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


class CliWorkload:
    """A simulator workload: a list of `cli.main` argument vectors.

    Each invocation prints its metrics CSV to standard output, which is
    captured in memory so that file-system latency stays out of the timing.
    The unit digest covers every CSV byte in invocation order.
    """

    name = ""
    config_text: str | None = None
    nodes = 10 * 80
    scenarios = 1  # scenario runs per unit

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.config_path = None
        if self.config_text is not None:
            Path(workdir).mkdir(parents=True, exist_ok=True)
            self.config_path = Path(workdir) / f"{self.name}.cfg"
            self.config_path.write_text(self.config_text)
        self.duration_s = self.tiny_duration_s if tiny else self.duration_s
        # Simulated node-seconds: the work one unit does.
        self.work_per_unit = self.nodes * self.duration_s * self.scenarios

    def invocations(self, duration_s: float) -> list[list[str]]:
        raise NotImplementedError

    @staticmethod
    def _invoke(argv: list[str]) -> tuple[int, str]:
        from sfvsim import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        return status, out.getvalue()

    def setup(self) -> None:
        """Build every scenario of the unit and simulate one mobility step."""
        for argv in self.invocations(MOBILITY_STEP_S):
            status, _ = self._invoke(argv)
            if status != 0:
                raise RuntimeError(f"set-up invocation exited {status}: {argv}")

    def unit(self) -> UnitResult:
        digest = hashlib.sha256()
        result = UnitResult("", 0)
        totals = dict.fromkeys(
            ("generated", "delivered", "dropped_range", "handshakes",
             "scan_attempts", "attack_attempts"), 0)
        for argv in self.invocations(self.duration_s):
            result.operations += 1
            status, text = self._invoke(argv)
            if status != 0:
                result.failures.append(f"exit status {status}: {' '.join(argv)}")
                continue
            digest.update(text.encode())
            for row in csv.DictReader(io.StringIO(text)):
                counts = {key: int(row[key]) for key in (
                    "generated", "delivered", "dropped_queue", "dropped_range",
                    "in_flight", "handshakes", "scan_attempts", "attack_attempts")}
                if counts["generated"] != (counts["delivered"] + counts["dropped_queue"]
                                           + counts["dropped_range"] + counts["in_flight"]):
                    result.failures.append(f"packet conservation broken: {row}")
                for key in totals:
                    totals[key] += counts[key]
        totals["node_steps"] = round(self.work_per_unit / MOBILITY_STEP_S)
        result.digest = digest.hexdigest()
        result.stats = totals
        return result

    def _run_args(self, duration_s: float, mode: str) -> list[str]:
        argv = ["--seed", str(self.seed), "--mode", mode, "--duration", repr(duration_s)]
        if self.config_path is not None:
            argv += ["--config", str(self.config_path)]
        return argv


class FullScale(CliWorkload):
    """The default Scenario (10 x 80 nodes, 20 CBR flows) in `sfv` mode."""

    name = "full-scale"
    duration_s = 60.0
    tiny_duration_s = 0.5

    def invocations(self, duration_s):
        return [["run"] + self._run_args(duration_s, "sfv")]


class VerifyAttack(CliWorkload):
    """`sfv-ranging` with neighbor verification and 5% mixed attackers."""

    name = "verify-attack"
    config_text = VERIFY_CONFIG
    duration_s = 20.0
    tiny_duration_s = 1.5

    def invocations(self, duration_s):
        return [["run"] + self._run_args(duration_s, "sfv-ranging")]


class DeskSweep(CliWorkload):
    """The acceptance fixture's rate sweep: 4 rates x 3 modes."""

    name = "desk-sweep"
    config_text = DESK_CONFIG
    duration_s = DESK_DURATION_S
    tiny_duration_s = 2.0
    nodes = 2 * 20
    scenarios = len(DESK_RATES) * len(DESK_MODES)

    def invocations(self, duration_s):
        values = ",".join(f"{rate:g}" for rate in DESK_RATES)
        return [
            ["sweep", "--variable", "tx_rate", "--values", values]
            + self._run_args(duration_s, mode)
            for mode in DESK_MODES
        ]


class HandshakeMix:
    """A single-caller closed loop of m=4 link verifications.

    Operations cycle friendly, Sybil, wormhole.  Each one scans for the
    tightest radio range, derives clean evidence for the link and runs the
    handshake: directly for a friendly pair, through `sybil_attempt` for a
    Sybil impostor, and on `wormhole_perturb`ed evidence for a wormhole.
    Link geometry and tunnel bearings are drawn once from the seed.
    """

    name = "handshake-mix"

    def __init__(self, seed: int, workdir: Path | None = None, tiny: bool = False):
        self.seed = seed
        self.work_per_unit = 30 if tiny else 3000  # handshakes
        rng = random.Random(seed)
        self.links = [
            (rng.uniform(20.0, 265.0), rng.uniform(0.0, 360.0), rng.uniform(0.0, 360.0))
            for _ in range(self.work_per_unit)
        ]
        values = rng.sample(range(1 << 26), 12)
        self.honest_values, self.claimed_values = values[:6], values[6:]
        self.payload_seed = rng.getrandbits(64)

    def _pools(self):
        from sfvsim import adversary, model, protocol, ranging

        def honest(node_id):
            ids = [model.SymmetricId(v) for v in self.honest_values]
            return model.NodeProfile(node_id, (0.0, 0.0), (0.0, 0.0), "honest", model.IdPool(ids))

        claimed = [model.SymmetricId(v) for v in self.claimed_values]
        return {
            "friendly": (honest("initiator"), honest("responder")),
            "sybil": (honest("sybil-victim"),
                      adversary.SybilIdentitySet(claimed, victim="sybil-victim")),
            "wormhole": (honest("wormhole-victim"),
                         model.NodeProfile("wormhole-mouth", (0.0, 0.0), (0.0, 0.0),
                                           "wormhole-endpoint", model.IdPool(list(claimed)))),
            "tunnel": adversary.WormholeTunnel("wormhole-mouth", "wormhole-far", 1e-5),
            "plan": ranging.ScanPlan((230.0, 250.0, 270.0), ranging=True),
            "cfg": protocol.HandshakeConfig(m_blocks=4),
        }

    def setup(self) -> None:
        """Build the pools; there is no mobility in this workload."""
        self._pools()

    def unit(self) -> UnitResult:
        from sfvsim import adversary, protocol, ranging

        pools = self._pools()
        plan, cfg, tunnel = pools["plan"], pools["cfg"], pools["tunnel"]
        rng = random.Random(self.payload_seed)
        clock = time.perf_counter
        result = UnitResult("", self.work_per_unit)
        lines = []
        latencies = []
        for index, (distance, bearing, mouth) in enumerate(self.links):
            case = HANDSHAKE_CASES[index % 3]
            start = clock()
            scan = ranging.scan_for_neighbor(plan, distance)
            evidence = ranging.evidence_for_link(distance, bearing, scan.selected_range)
            if case == "friendly":
                initiator, responder = pools["friendly"]
                verdict = protocol.run_handshake(initiator, responder, evidence, cfg, rng)
            elif case == "sybil":
                victim, identities = pools["sybil"]
                verdict = adversary.sybil_attempt(identities, victim, evidence, cfg, rng)
            else:
                victim, mouth_node = pools["wormhole"]
                relayed = adversary.wormhole_perturb(evidence, tunnel, mouth)
                verdict = protocol.run_handshake(victim, mouth_node, relayed, cfg, rng)
            latencies.append(clock() - start)
            if verdict.friendly != (case == "friendly"):
                result.failures.append(f"{case} link {index} judged {verdict.outcome}")
            lines.append(f"{case},{verdict.outcome},{';'.join(verdict.reasons)},"
                         f"{verdict.blocks_verified}\n")
        result.digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        latencies.sort()
        result.stats = {"latency_s_p50": latencies[len(latencies) // 2],
                        "latency_s_p99": latencies[len(latencies) * 99 // 100]}
        return result


WORKLOADS = {
    cls.name: cls for cls in (FullScale, VerifyAttack, DeskSweep, HandshakeMix)
}
