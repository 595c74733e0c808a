"""Golden bytes: the metrics CSV of fifteen short runs and of two two-point
sweeps, three detection tables, and the transcripts of seven seeded
handshake sets and of one CLI handshake, pinned by sha256.

Any engine change that moves a simulated number (draw order, float
arithmetic, scan order) fails here; change a digest only together with a
change meant to alter results.  Each run takes well under a second of host
time.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from sfvsim.adversary import WormholeTunnel, wormhole_perturb
from sfvsim.cli import main
from sfvsim.model import IdPool, SymmetricId
from sfvsim.protocol import HandshakeConfig, run_handshake, transcript_lines
from sfvsim.ranging import evidence_for_link

VERIFY_ATTACK_CFG = """\
clusters = 2
nodes_per_cluster = 20
cluster_width = 400
cluster_height = 400
flows_per_cluster = 4
neighbor_verification = on
attacker_fraction = 0.1
attacker_kind = mixed
pause_s = 0.4
noise_distance_m = 5
"""

DESK_POINT_CFG = """\
clusters = 2
nodes_per_cluster = 20
cluster_width = 400
cluster_height = 400
flows_per_cluster = 4
handshake_base_s = 0.02
handshake_attempt_extra_s = 0.01
tx_rate_kbps = 600
"""

# Every flow's packet k falls due at the same instant.  Fed at the channel
# rate, service completions can fall due at exactly such an instant; with
# two-packet queues that decides whether an arrival finds room, so the
# service's end must run before that tick's arrivals.
SAME_TIME_CFG = """\
clusters = 2
nodes_per_cluster = 20
cluster_width = 400
cluster_height = 400
flows_per_cluster = 4
queue_capacity = 2
tx_rate_kbps = 1200
"""

# At 200 kbps the queues fill and drain in turn, so a flow that lost its
# place among the arrivals of one tick would shift which packets drop.
DESK_200_CFG = DESK_POINT_CFG.replace("tx_rate_kbps = 600", "tx_rate_kbps = 200")

# Replay attackers draw their detections from the attack stream and no
# claimed IDs, and the verifiers' sweeps flag them through the same
# verdicts as the waves do.
REPLAY_VERIFY_CFG = """\
clusters = 2
nodes_per_cluster = 20
cluster_width = 400
cluster_height = 400
flows_per_cluster = 4
neighbor_verification = on
attacker_fraction = 0.1
attacker_kind = replay
detection_probability = 0.35
"""

# Fixed-speed legs, standing still included, each followed by a pause.
PAUSED_SPEED_CFG = """\
clusters = 2
nodes_per_cluster = 20
cluster_width = 400
cluster_height = 400
flows_per_cluster = 4
pause_s = 0.5
"""

# At 163.84 kbps a 512-byte packet takes exactly 0.025 s, the mobility
# step, so every arrival falls due at the same instant as a mobility step.
STEP_RATE_CFG = DESK_POINT_CFG.replace("tx_rate_kbps = 600", "tx_rate_kbps = 163.84")

# A 150 kbps channel takes longer over one packet than a mobility step
# lasts, so data jobs run across mobility steps and the handshakes queued
# at an epoch wait behind the job in service.
SLOW_CHANNEL_CFG = DESK_POINT_CFG + "channel_capacity_kbps = 150\n"

# At 1000 kbps packet 2000 falls due at 8.192 s, the last instant of the run.
LAST_INSTANT_CFG = DESK_POINT_CFG.replace("tx_rate_kbps = 600", "tx_rate_kbps = 1000")

# Fast nodes on short ranges break links and set them up again all run
# long, so channels run when a mobility step changes a link or queues a
# handshake, not only at handshake ends.
LINK_BREAK_CFG = """\
clusters = 2
nodes_per_cluster = 20
cluster_width = 300
cluster_height = 300
flows_per_cluster = 4
radio_ranges = 100, 150
node_speed_min = 40
queue_capacity = 5
"""

# Two clusters some 1e9 m from the origin, where a coordinate's ulp is
# 1e-7 m: fast nodes break short links over a slow channel, so links held
# between checks must absorb the rounding of positions at that magnitude.
FAR_CFG = LINK_BREAK_CFG + """\
terrain_width = 2000000000
terrain_height = 2000000000
node_speed_max = 100
channel_capacity_kbps = 150
"""

# One busy cluster: four flows of 2^-8 s packets on a 2^-9 s service
# overload one-packet queues, so service ends tie arrivals exactly, and
# fast nodes on short ranges break links and queue handshakes while a data
# packet is in service.
BUSY_CFG = """\
clusters = 1
nodes_per_cluster = 10
cluster_width = 200
cluster_height = 200
flows_per_cluster = 4
queue_capacity = 1
radio_ranges = 60, 90
node_speed_min = 40
tx_rate_kbps = 1048.576
channel_capacity_kbps = 2097.152
"""

# Four 400 kbps flows per cluster on a 1200 kbps channel keep 200-packet
# queues backlogged, so the data phase serves whole rounds; fast nodes on
# short ranges break links while their queues hold packets, and a link
# that breaks in service drops that packet out of range.
DEEP_QUEUE_CFG = """\
clusters = 2
nodes_per_cluster = 12
cluster_width = 200
cluster_height = 200
flows_per_cluster = 4
queue_capacity = 200
radio_ranges = 70, 100
node_speed_min = 30
tx_rate_kbps = 400
"""

# Thirty such flows per cluster keep 1000-packet queues backlogged, so a
# batch's rounds run into the drain's limit long before its queues run
# dry, and links break while queues hold hundreds of packets.
WIDE_DEEP_QUEUE_CFG = DEEP_QUEUE_CFG.replace("flows_per_cluster = 4", "flows_per_cluster = 30") \
    .replace("queue_capacity = 200", "queue_capacity = 1000")

# A 5 kbps channel takes 0.8192 s over one packet, some 33 mobility
# steps, so a link that breaks in service leaves its flow unconnected
# while its packet is still on the air; that packet's fate is the flow's
# reach when the service ends, which mobility steps between discovery
# epochs keep moving.
IN_SERVICE_CFG = """\
clusters = 1
nodes_per_cluster = 6
cluster_width = 150
cluster_height = 150
flows_per_cluster = 2
radio_ranges = 60, 90
node_speed_min = 20
channel_capacity_kbps = 5
tx_rate_kbps = 10
discovery_interval_s = 1
"""

GOLDEN = {
    "default-sfv": (
        None,
        ["--mode", "sfv", "--seed", "1", "--duration", "2"],
        "cdfd5c1112f39faf1dd951269a81021c618a865a8f21c954bbff9e1af5d5ccc8",
    ),
    "ranging-verify-attack": (
        VERIFY_ATTACK_CFG,
        ["--mode", "sfv-ranging", "--seed", "3", "--duration", "10"],
        "f225b25d8062d01257a3c4c83f7094b2bc2f203604355071a80aec451a5fb020",
    ),
    "desk-point-off": (
        DESK_POINT_CFG,
        ["--mode", "off", "--seed", "2", "--duration", "60"],
        "e16cbb906c35a2daacd08e783c8bf5846185aefcdc4a90c73990b2d4bbb542ac",
    ),
    "same-time-service-off": (
        SAME_TIME_CFG,
        ["--mode", "off", "--seed", "1", "--duration", "30"],
        "3bbf4b678928d0b23bb4e5a79f6bf9909f06af157d13cdff8e04bfc1c9d04c2b",
    ),
    "desk-200-off": (
        DESK_200_CFG,
        ["--mode", "off", "--seed", "1", "--duration", "60"],
        "d5cf50c9fd425b7d8a6eb740afcd7a2ad3d05ecfee0beb275e336a948b9414c5",
    ),
    "replay-verify-ranging": (
        REPLAY_VERIFY_CFG,
        ["--mode", "sfv-ranging", "--seed", "4", "--duration", "10"],
        "3a669ca6e445e7f7dc445a9092bad0de494c3ddcb3e38e11ff458d2792c123e3",
    ),
    "step-rate-sfv": (
        STEP_RATE_CFG,
        ["--mode", "sfv", "--seed", "2", "--duration", "20"],
        "b86f17d57f3aed80592790c17a27760105f70ece2a06f7b502f8cf963190ec8b",
    ),
    "slow-channel-ranging": (
        SLOW_CHANNEL_CFG,
        ["--mode", "sfv-ranging", "--seed", "3", "--duration", "20"],
        "628fefa8d87b7f04f6e9444f1f55764180792186c70ea14fcb70f90cfab2bbe0",
    ),
    "last-instant-off": (
        LAST_INSTANT_CFG,
        ["--mode", "off", "--seed", "5", "--duration", "8.192"],
        "3c5df1f9191c3fa2d6fb97f081cde1e6dcdbd34899dd3d64b9e9075ec80e3e64",
    ),
    "link-break-ranging": (
        LINK_BREAK_CFG,
        ["--mode", "sfv-ranging", "--seed", "2", "--duration", "20"],
        "6a6edaa67fdd94d6f823b12cb51a2ba61f8d0659b2d17575afd9fa377e88559d",
    ),
    "far-from-origin-ranging": (
        FAR_CFG,
        ["--mode", "sfv-ranging", "--seed", "3", "--duration", "20"],
        "be72b2d27ed689a4ce229b288d1f28417adccaac8557b2f995a8dbb846b02a49",
    ),
    "busy-channel-ranging": (
        BUSY_CFG,
        ["--mode", "sfv-ranging", "--seed", "2", "--duration", "20"],
        "1515fb3bf843b51be5f9e7a8519e76f5677d6cb98e80b4ae678fc92fc4005ad3",
    ),
    "deep-queue-ranging": (
        DEEP_QUEUE_CFG,
        ["--mode", "sfv-ranging", "--seed", "2", "--duration", "20"],
        "a28adf4360db10371248f1ebd3f32ceb13b93f14c8f9d756c037b42633a377d0",
    ),
    "wide-deep-queue-ranging": (
        WIDE_DEEP_QUEUE_CFG,
        ["--mode", "sfv-ranging", "--seed", "2", "--duration", "20"],
        "0e869fc7d59a916672c57100eaf2049be146eb384ff0dfac9959592fbe5cd917",
    ),
    "in-service-reach-ranging": (
        IN_SERVICE_CFG,
        ["--mode", "sfv-ranging", "--seed", "3", "--duration", "30"],
        "7f5c1acf58c61bf048d3655210f07ce6777b9cfa5073514e9f7b400e979a4e8b",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_run_csv_bytes_match_the_recorded_digest(name, tmp_path, capsys):
    config, flags, digest = GOLDEN[name]
    argv = ["run", *flags]
    if config is not None:
        path = tmp_path / "scenario.cfg"
        path.write_text(config)
        argv += ["--config", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def _sweep_digest(config, flags, tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_text(config)
    assert main(["sweep", *flags, "--seed", "1", "--duration", "10",
                 "--config", str(path)]) == 0
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode()).hexdigest(), out


# A sweep row carries the `variable,value` prefix columns before the
# metrics columns.
def test_sweep_csv_bytes_match_the_recorded_digest(tmp_path, capsys):
    digest, out = _sweep_digest(
        DESK_POINT_CFG, ["--variable", "tx_rate", "--values", "200,600", "--mode", "sfv"],
        tmp_path, capsys)
    assert digest == "63ab93980c48090a02d325b041b90caeec1cb3ec09be475ca1309e8bf57ca8bf", out


def test_speed_sweep_csv_bytes_match_the_recorded_digest(tmp_path, capsys):
    digest, out = _sweep_digest(
        PAUSED_SPEED_CFG,
        ["--variable", "node_speed", "--values", "0,20", "--mode", "sfv-ranging"],
        tmp_path, capsys)
    assert digest == "4d6c2a3affa3eee96791cf5f450028f218cc5badd6548c97f7624750636a6ed5", out


# The detection table: the closed form next to sampled replay attempts, for
# the default table, for explicit sampling knobs, and for an explicit profile.
DETECT_GOLDEN = {
    "default": (
        [],
        "f8dc9914b5a16b57b94ec525358bc7a676dcdd1c67c778222b5fe2a040104a2a",
    ),
    "sampling-knobs": (
        ["--n-ids", "1,2,4,8", "--attempts", "2000", "--seed", "9"],
        "a4f469bcd03dc7a400b2fbc83ac8cfaf751ee493a486ddd7c82dec7513aa2a31",
    ),
    "explicit-profile": (
        ["--p-wormhole", "0.1", "--p-id", "0.2", "--p-rtt", "0.3",
         "--n-ids", "1,3", "--attempts", "500", "--seed", "4"],
        "809fabf2b6be2859026c9b3d586c5e39ec1f078cd587ea5ef4e34f7854da8b23",
    ),
}


@pytest.mark.parametrize("name", list(DETECT_GOLDEN))
def test_detect_csv_bytes_match_the_recorded_digest(name, capsys):
    flags, digest = DETECT_GOLDEN[name]
    assert main(["detect", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# ---------------------------------------------------------------- handshakes

def test_cli_sybil_handshake_transcript_matches_the_recorded_digest(capsys):
    assert main(["handshake", "--seed", "3", "--adversary", "sybil"]) == 0
    out = capsys.readouterr().out
    digest = "18a907bde5825ec2281f6acc1b45424a3f95cc205ec95088eabb0136258c3c06"
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


HONEST_IDS = (0x3FFFFFF, 0x1234567, 77, 0, 0x2ABCDEF)
SYBIL_IDS = (5, 0x3000001, 91)


def _pool(values):
    return IdPool([SymmetricId(v) for v in values])


def _link(rng, far=225.0):
    return evidence_for_link(rng.uniform(20.0, far), rng.uniform(0.0, 360.0), 230.0)


def _friendly(m_blocks):
    def handshakes(rng):
        a, b = _pool(HONEST_IDS), _pool(HONEST_IDS)
        cfg = HandshakeConfig(m_blocks=m_blocks)
        return [((a, b, _link(rng), cfg), {}) for _ in range(6)]
    return handshakes


def _sybil(rng):
    a, b = _pool(HONEST_IDS), _pool(SYBIL_IDS)
    return [((a, b, _link(rng), HandshakeConfig()), {}) for _ in range(6)]


def _asymmetric(rng):
    # The responder measures the link a little differently: alternately a
    # centimeter-scale distance offset (location seed) and a nanosecond-scale
    # RTT offset (timing seed).  Same pools, so no id-mismatch.
    a, b = _pool(HONEST_IDS), _pool(HONEST_IDS)
    calls = []
    for k in range(6):
        ev = _link(rng)
        if k % 2:
            theirs = replace(ev, rtt=ev.rtt + rng.uniform(2e-9, 9e-9))
        else:
            theirs = replace(ev, d_radial=ev.d_radial + rng.uniform(0.02, 0.2))
        calls.append(((a, b, ev, HandshakeConfig(m_blocks=3)), {"responder_evidence": theirs}))
    return calls


def _threshold_retries(rng):
    # A fresh measurement per attempt, some beyond the 230 m range, so
    # handshakes pass on the first, second or third try or fail all three.
    a, b = _pool(HONEST_IDS), _pool(HONEST_IDS)
    cfg = HandshakeConfig(m_blocks=2, retry_limit=2)
    return [((a, b, lambda: _link(rng, far=500.0), cfg), {}) for _ in range(10)]


def _wormhole_gates(rng):
    # One fixed measurement relayed through a tunnel fails the gates on
    # every attempt; a transcript logs each of the three.
    a, b = _pool(HONEST_IDS), _pool(SYBIL_IDS)
    tunnel = WormholeTunnel("mouth", "far", 1e-5)
    cfg = HandshakeConfig(retry_limit=2)
    return [((a, b, wormhole_perturb(_link(rng), tunnel, rng.uniform(0.0, 360.0)), cfg), {})
            for _ in range(6)]


HANDSHAKE_GOLDEN = {
    "friendly-m1": (
        _friendly(1),
        "25c20d7a8417a10c9a0013a34295b51da298d2c1162bea13e9bb4810b3feb05f",
    ),
    "friendly-m4": (
        _friendly(4),
        "9cfdb1d5c9a85acbda7f9e6df509b9c88e4bfd94b575310faa5b5eb5e5d0c8a0",
    ),
    "friendly-m8": (
        _friendly(8),
        "85b9f8a04f9e1122d6bf5450ccbc8d14efb3809e6a329543cc2a1a8a6808d563",
    ),
    "sybil-disjoint-pools": (
        _sybil,
        "3990f0d9190c1499f524aa0fd105cc3774b4530bea5f35c257dd4ee3a79ec605",
    ),
    "asymmetric-evidence": (
        _asymmetric,
        "0c936ba4fdc85c74ffa7239271e17de9ee7baddaba159e67bd0a47c0cf94faa0",
    ),
    "threshold-retries": (
        _threshold_retries,
        "4a558e295acd4986ea9b853aca80f760777a1badc160ecf636b266152a9391e9",
    ),
    "wormhole-fixed-evidence": (
        _wormhole_gates,
        "f22e50745a306e20e4513d1669d66ee318ccd30dfe8a9b31d2a550f9dfd745cf",
    ),
}


def _replay(name, keep_transcript):
    """Run one golden handshake set.  Returns its transcript and verdict
    lines interleaved, and the verdict lines alone; both end with the
    payload rng's next draw."""
    build, _ = HANDSHAKE_GOLDEN[name]
    case_rng = random.Random(f"golden-{name}")
    payload_rng = random.Random(11)
    lines, verdicts = [], []
    for args, kwargs in build(case_rng):
        transcript = [] if keep_transcript else None
        verdict = run_handshake(*args, payload_rng, transcript=transcript, **kwargs)
        lines += transcript_lines(transcript or [])
        verdicts.append(f"{verdict.outcome}:{';'.join(verdict.reasons)}:"
                        f"{verdict.blocks_verified}/{verdict.m_blocks}")
        lines.append(verdicts[-1])
    # Pins how many payload bytes the exchanges drew, too.
    verdicts.append(str(payload_rng.getrandbits(64)))
    lines.append(verdicts[-1])
    return lines, verdicts


@pytest.mark.parametrize("name", list(HANDSHAKE_GOLDEN))
def test_handshake_transcripts_match_the_recorded_digest(name):
    text = "\n".join(_replay(name, keep_transcript=True)[0])
    assert hashlib.sha256(text.encode()).hexdigest() == HANDSHAKE_GOLDEN[name][1], text


@pytest.mark.parametrize("name", list(HANDSHAKE_GOLDEN))
def test_handshakes_without_a_transcript_reach_the_same_verdicts(name):
    assert _replay(name, keep_transcript=False)[1] == _replay(name, keep_transcript=True)[1]
