"""Golden bytes: the metrics CSV of five short runs and the transcripts of
six seeded handshake sets, pinned by sha256.

Any engine change that moves a simulated number (draw order, float
arithmetic, scan order) fails here; change a digest only together with a
change meant to alter results.  Each run takes well under a second of host
time.
"""

import hashlib
import random

import pytest

from sfvsim.cli import main
from sfvsim.model import IdPool, NodeProfile, SymmetricId
from sfvsim.protocol import HandshakeConfig, run_handshake, transcript_lines
from sfvsim.ranging import evidence_for_link, perturbed

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
# two-packet queues that decides whether an arrival finds room, so such a
# service event must run between the right two flows' arrivals.
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

GOLDEN = {
    "default-sfv": (
        None,
        ["--mode", "sfv", "--seed", "1", "--duration", "2"],
        "ff4bc1e0d695a52498c0b05ec38e929ff9dbdbbf3775d3e31b649e2d8433fe24",
    ),
    "ranging-verify-attack": (
        VERIFY_ATTACK_CFG,
        ["--mode", "sfv-ranging", "--seed", "3", "--duration", "10"],
        "837651755311fea3316c8f051142b4618d73a28cfbb9224b54a58ea34e836871",
    ),
    "desk-point-off": (
        DESK_POINT_CFG,
        ["--mode", "off", "--seed", "2", "--duration", "60"],
        "0d7aa091bbc4800e5d0af076e8e30006acc38c2031451fb082b01a51284b23d8",
    ),
    "same-time-service-off": (
        SAME_TIME_CFG,
        ["--mode", "off", "--seed", "1", "--duration", "30"],
        "718e765a4b0179433f6833debf2851f3e08a80056534fc3ad39445f796eb4a8b",
    ),
    "desk-200-off": (
        DESK_200_CFG,
        ["--mode", "off", "--seed", "1", "--duration", "60"],
        "b84dffc97640a6b4cb5ea1b74fab7e875f5cbd6894752f9ef9e8b7d9273537f8",
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


# ---------------------------------------------------------------- handshakes

HONEST_IDS = (0x3FFFFFF, 0x1234567, 77, 0, 0x2ABCDEF)
SYBIL_IDS = (5, 0x3000001, 91)


def _node(name, values):
    return NodeProfile(name, (0.0, 0.0), (0.0, 0.0), "honest",
                       IdPool([SymmetricId(v) for v in values]))


def _link(rng, far=225.0):
    return evidence_for_link(rng.uniform(20.0, far), rng.uniform(0.0, 360.0), 230.0)


def _friendly(m_blocks):
    def handshakes(rng):
        a, b = _node("a", HONEST_IDS), _node("b", HONEST_IDS)
        cfg = HandshakeConfig(m_blocks=m_blocks)
        return [((a, b, _link(rng), cfg), {}) for _ in range(6)]
    return handshakes


def _sybil(rng):
    a, b = _node("victim", HONEST_IDS), _node("impostor", SYBIL_IDS)
    return [((a, b, _link(rng), HandshakeConfig()), {}) for _ in range(6)]


def _asymmetric(rng):
    # The responder measures the link a little differently: alternately a
    # centimeter-scale distance offset (location seed) and a nanosecond-scale
    # RTT offset (timing seed).  Same pools, so no id-mismatch.
    a, b = _node("a", HONEST_IDS), _node("b", HONEST_IDS)
    calls = []
    for k in range(6):
        ev = _link(rng)
        if k % 2:
            theirs = perturbed(ev, rtt=ev.rtt + rng.uniform(2e-9, 9e-9))
        else:
            theirs = perturbed(ev, d_radial=ev.d_radial + rng.uniform(0.02, 0.2))
        calls.append(((a, b, ev, HandshakeConfig(m_blocks=3)), {"responder_evidence": theirs}))
    return calls


def _threshold_retries(rng):
    # A fresh measurement per attempt, some beyond the 230 m range, so
    # handshakes pass on the first, second or third try or fail all three.
    a, b = _node("a", HONEST_IDS), _node("b", HONEST_IDS)
    cfg = HandshakeConfig(m_blocks=2, retry_limit=2)
    return [((a, b, lambda: _link(rng, far=500.0), cfg), {}) for _ in range(10)]


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
}


@pytest.mark.parametrize("name", list(HANDSHAKE_GOLDEN))
def test_handshake_transcripts_match_the_recorded_digest(name):
    build, digest = HANDSHAKE_GOLDEN[name]
    case_rng = random.Random(f"golden-{name}")
    payload_rng = random.Random(11)
    lines = []
    for args, kwargs in build(case_rng):
        transcript = []
        verdict = run_handshake(*args, payload_rng, transcript=transcript, **kwargs)
        lines += transcript_lines(transcript)
        lines.append(f"{verdict.outcome}:{';'.join(verdict.reasons)}:"
                     f"{verdict.blocks_verified}/{verdict.m_blocks}")
    # Pins how many payload bytes the exchanges drew, too.
    lines.append(str(payload_rng.getrandbits(64)))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text
