"""Golden bytes: the metrics CSV of five short runs, pinned by sha256.

Any engine change that moves a simulated number (draw order, float
arithmetic, scan order) fails here; change a digest only together with a
change meant to alter results.  Each run takes well under a second of host
time.
"""

import hashlib

import pytest

from sfvsim.cli import main

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
