"""Wormhole, Sybil and replay attacker models."""

import math
import random

import pytest

from sfvsim import simulator
from sfvsim.adversary import (
    ReplayProfile,
    SybilIdentitySet,
    WormholeTunnel,
    sample_detection,
    sybil_attempt,
    wormhole_perturb,
)
from sfvsim.model import IdPool, SymmetricId
from sfvsim.protocol import HandshakeConfig
from sfvsim.ranging import (
    LIGHTSPEED,
    REASON_DISTANCE,
    REASON_RTT,
    evidence_for_link,
    validate_evidence,
)


def tunnel(latency=1e-5):
    return WormholeTunnel(endpoint_a="w1", endpoint_b="w2", tunnel_latency=latency)


def honest_pool(ids=(10, 20, 30)):
    return IdPool([SymmetricId(v) for v in ids])


# ------------------------------------------------------------------ wormhole

def test_wormhole_inflates_rtt_and_distance():
    ev = evidence_for_link(100.0, 45.0, 270.0)
    warped = wormhole_perturb(ev, tunnel(latency=1e-5))
    assert warped.rtt == pytest.approx(ev.rtt + 1e-5)
    # half the tunnel delay converts to one-way path length
    assert warped.d_radial == pytest.approx(100.0 + LIGHTSPEED * 1e-5 / 2)
    assert warped.aoa == ev.aoa


def test_wormhole_ten_microseconds_trips_both_thresholds():
    ev = evidence_for_link(150.0, 45.0, 270.0)
    result = validate_evidence(wormhole_perturb(ev, tunnel(latency=1e-5)))
    assert not result.passed
    assert REASON_DISTANCE in result.reasons
    assert REASON_RTT in result.reasons


def test_wormhole_below_budget_is_invisible():
    # documented blind spot: a sub-budget tunnel on a short true path
    # clears every threshold
    ev = evidence_for_link(50.0, 45.0, 270.0)
    assert validate_evidence(wormhole_perturb(ev, tunnel(latency=1e-6))).passed


def test_wormhole_bearing_override():
    ev = evidence_for_link(100.0, 10.0, 270.0)
    warped = wormhole_perturb(ev, tunnel(), tunnel_bearing=370.0)
    assert warped.aoa == pytest.approx(10.0)  # normalized mod 360
    warped = wormhole_perturb(ev, tunnel(), tunnel_bearing=200.0)
    assert warped.aoa == pytest.approx(200.0)


def test_wormhole_wraps_a_tiny_negative_tunnel_bearing():
    # -1e-17 % 360.0 is 360.0, which RangingEvidence refuses; it used to raise
    ev = evidence_for_link(100.0, 5.0, 250.0)
    warped = wormhole_perturb(ev, tunnel(latency=1e-6), tunnel_bearing=-1e-17)
    assert warped.aoa == 0.0
    assert warped.aoa_center == ev.aoa_center


def test_degenerate_latency_limit_leaves_floats_untouched():
    # latency must be positive, but 1e-30 is far below float granularity
    # here, so the perturbed evidence is bit-identical
    ev = evidence_for_link(100.0, 45.0, 270.0)
    warped = wormhole_perturb(ev, tunnel(latency=1e-30))
    assert warped == ev


def test_tunnel_validation():
    with pytest.raises(ValueError):
        WormholeTunnel("a", "a", 1e-5)
    with pytest.raises(ValueError):
        WormholeTunnel("a", "b", 0.0)
    with pytest.raises(ValueError):
        WormholeTunnel("a", "b", -1e-6)
    with pytest.raises(ValueError):
        WormholeTunnel("a", "b", math.nan)
    with pytest.raises(ValueError, match="finite"):
        WormholeTunnel("a", "b", math.inf)


# --------------------------------------------------------------------- sybil

def test_sybil_identities_must_be_unique():
    with pytest.raises(ValueError):
        SybilIdentitySet([SymmetricId(1), SymmetricId(1)])
    with pytest.raises(ValueError):
        SybilIdentitySet([])


def test_disjointness_check():
    # Every attacker pool the engine draws is disjoint from the honest IDs
    # and from every other attacker's.  Mixed attackers, every node one:
    # kinds alternate in attacker order, sybils at 0, 2, 4 and 6 and
    # wormholes at 1, 3 and 5, whatever the seed draws.
    sc = simulator.Scenario(clusters=1, nodes_per_cluster=7, master_seed=1,
                  attacker_fraction=1.0, attacker_kind="mixed")
    engine = simulator._Engine(sc, 1.0)
    groups = [set(engine.honest_pool.ids)]
    for index in sorted(engine.attacker_kinds):
        groups.append(set(engine.pools[index].ids))
    assert all(len(group) == sc.n_ids for group in groups)
    assert len(set().union(*groups)) == sc.n_ids * len(groups)
    sybils = [index for index, kind in sorted(engine.attacker_kinds.items()) if kind == "sybil"]
    assert sybils == [0, 2, 4, 6]
    assert all(isinstance(engine.pools[i], SybilIdentitySet) for i in sybils)
    wormholes = [index for index, kind in engine.attacker_kinds.items() if kind == "wormhole"]
    assert wormholes == [1, 3, 5]


@pytest.mark.parametrize("kind, clusters, fraction, seed, expected", [
    # Mixed kinds alternate in attacker order, whatever the index parity.
    ("mixed", 2, 0.1, 7, {4: "sybil", 18: "wormhole", 26: "sybil", 39: "wormhole"}),
    # All wormholes share one tunnel, so an odd count needs no pairing.
    ("wormhole", 3, 0.05, 1, {15: "wormhole", 25: "wormhole", 51: "wormhole"}),
    ("replay", 2, 0.1, 7, dict.fromkeys((4, 18, 32, 39), "replay")),
])
def test_attacker_kinds_follow_attacker_order(kind, clusters, fraction, seed, expected):
    profile = ReplayProfile.calibrated() if kind == "replay" else None
    sc = simulator.Scenario(clusters=clusters, nodes_per_cluster=20, attacker_fraction=fraction,
                            attacker_kind=kind, replay_profile=profile, master_seed=seed)
    engine = simulator._Engine(sc, 1.0)
    assert engine.attacker_kinds == expected
    # A wormhole presents a plain pool; a replay attacker presents no
    # credentials, so it holds no pool.
    pool_types = {"sybil": SybilIdentitySet, "wormhole": IdPool, "replay": type(None)}
    assert ([type(engine.pools[i]) for i in expected]
            == [pool_types[k] for k in expected.values()])


def test_sybil_attempts_all_rejected_and_cursor_cycles():
    victim = honest_pool()
    attacker = SybilIdentitySet([SymmetricId(100), SymmetricId(200), SymmetricId(300)])
    ev = evidence_for_link(120.0, 0.0, 270.0)
    rng = random.Random(1)
    cfg = HandshakeConfig()
    verdicts = [sybil_attempt(attacker, victim, ev, cfg, rng) for _ in range(4)]
    assert all(v.outcome == "suspicious" for v in verdicts)
    # fourth attempt wrapped around to the first forged identity
    assert attacker.next_index == 4 % 3


def test_sybil_attempt_presents_its_own_set_and_builds_no_pool(monkeypatch):
    attacker = SybilIdentitySet([SymmetricId(100), SymmetricId(200)])
    victim = honest_pool()
    monkeypatch.setattr(IdPool, "__post_init__", lambda pool: pytest.fail("a pool was built"))
    rng = random.Random(1)
    # Only a block exchange presents an ID: a link the gates reject moves no cursor.
    far = sybil_attempt(attacker, victim, evidence_for_link(300.0, 0.0, 270.0), rng=rng)
    assert far.reasons == (REASON_DISTANCE,) and attacker.next_index == 0
    near = sybil_attempt(attacker, victim, evidence_for_link(120.0, 0.0, 270.0), rng=rng)
    assert not near.friendly and attacker.next_index == 1


def test_sybil_attempt_without_rng_is_refused_before_the_cursor_moves():
    attacker = SybilIdentitySet([SymmetricId(100), SymmetricId(200)])
    with pytest.raises(ValueError, match="rng"):
        sybil_attempt(attacker, honest_pool(), evidence_for_link(120.0, 0.0, 270.0))
    assert attacker.next_index == 0


# -------------------------------------------------------------------- replay

def test_replay_profile_probability_bounds():
    ReplayProfile(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        ReplayProfile(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        ReplayProfile(0.5, 1.1, 0.5)


def test_calibrated_profile_hits_target_product():
    profile = ReplayProfile.calibrated(0.35)
    p = 1 - 0.35 ** (1 / 3)
    assert profile.p_wormhole == pytest.approx(p)
    assert profile.p_id_replay == pytest.approx(p)
    assert profile.p_rtt_replay == pytest.approx(p)
    product = ((1 - profile.p_wormhole)
               * (1 - profile.p_id_replay)
               * (1 - profile.p_rtt_replay))
    assert product == pytest.approx(0.35, rel=1e-12)


def test_sample_detection_certain_and_impossible():
    rng = random.Random(2)
    everything_passes = ReplayProfile(0.0, 0.0, 0.0)
    assert all(sample_detection(everything_passes, rng) for _ in range(100))
    # an evasion probability of 1 on any single check defeats detection
    one_blind_spot = ReplayProfile(1.0, 0.0, 0.0)
    assert not any(sample_detection(one_blind_spot, rng) for _ in range(100))


def test_sample_detection_consumes_exactly_three_draws():
    # no short-circuit: parallel streams must stay aligned whatever the
    # outcome of the first check
    profile = ReplayProfile(0.9, 0.1, 0.1)
    rng = random.Random(3)
    shadow = random.Random(3)
    for _ in range(50):
        sample_detection(profile, rng)
        for _ in range(3):
            shadow.random()
        assert rng.getstate() == shadow.getstate()


def test_sample_detection_matches_product_rate():
    profile = ReplayProfile(0.3, 0.2, 0.1)
    expected = (1 - 0.3) * (1 - 0.2) * (1 - 0.1)
    rng = random.Random(4)
    trials = 20_000
    hits = sum(sample_detection(profile, rng) for _ in range(trials))
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(hits / trials - expected) <= 3 * sigma
