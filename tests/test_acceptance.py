"""Acceptance gate: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Each docstring states the tolerance in force; prints give
the measured numbers when a criterion fails (or under -s).
"""

import math
import random
import time

import mpmath

from conftest import MODES, RATES, SEEDS, SPEEDS

from sfvsim.adversary import ReplayProfile, WormholeTunnel, wormhole_perturb
from sfvsim.analytics import (
    brute_force_average,
    detection_probability,
    detection_rate,
    detection_table,
    keyspace_size,
    scientific_string,
)
from sfvsim.cli import main
from sfvsim.keyschedule import decrypt_block, encrypt_block, init_session
from sfvsim.model import Block, IdPool, NodeProfile, PAYLOAD_BYTES, SymmetricId
from sfvsim.protocol import HandshakeConfig, run_handshake
from sfvsim.ranging import (
    REASON_DISTANCE,
    REASON_RTT,
    ScanPlan,
    ScanResult,
    evidence_for_link,
    scan_for_neighbor,
)


def test_criterion_1_cipher_round_trip_property():
    """10^3 random (evidence, id, block-sequence <= 64) tuples decrypt to
    the exact plaintext sequence, zero failures, in under 10 s."""
    rng = random.Random(0xACCE551)
    started = time.perf_counter()
    for _ in range(1000):
        evidence = evidence_for_link(
            rng.uniform(1.0, 269.0), rng.uniform(0.0, 360.0), 270.0)
        sid = SymmetricId(rng.getrandbits(26))
        sender = init_session(evidence, sid, "encryptor")
        receiver = init_session(evidence, sid, "decryptor")
        blocks = [Block.from_payload(rng.randbytes(PAYLOAD_BYTES))
                  for _ in range(rng.randint(1, 64))]
        round_tripped = [decrypt_block(receiver, encrypt_block(sender, b))
                         for b in blocks]
        assert round_tripped == blocks
    elapsed = time.perf_counter() - started
    print(f"criterion 1: 1000 sequences round-tripped in {elapsed:.2f} s")
    assert elapsed < 10.0


def test_criterion_2_detection_math_matches_bigfloat():
    """detection_probability and detection_rate agree with a 50-digit
    big-float evaluation to 12 significant digits (rel err <= 1e-12) on a
    5x5x5 probability grid times n in 1..10; the n=6 figure at P=0.4 is
    0.953344, within 0.5 pp of 95%."""
    grid = (0.05, 0.2, 0.35, 0.5, 0.8)
    checked = 0
    with mpmath.workdps(50):
        for pw in grid:
            for pi in grid:
                for pr in grid:
                    profile = ReplayProfile(pw, pi, pr)
                    single = detection_probability(profile)
                    mp_single = ((1 - mpmath.mpf(repr(pw)))
                                 * (1 - mpmath.mpf(repr(pi)))
                                 * (1 - mpmath.mpf(repr(pr))))
                    assert abs(single - mp_single) <= abs(mp_single) * 1e-12
                    for n in range(1, 11):
                        rate = detection_rate(profile, n)
                        mp_rate = 1 - (1 - mp_single) ** n
                        assert abs(rate - mp_rate) <= abs(mp_rate) * 1e-12
                        checked += 1
    six_ids = detection_rate(ReplayProfile.calibrated(0.4), 6)
    print(f"criterion 2: {checked} grid points checked; P=0.4, n=6 -> {six_ids!r}")
    assert math.isclose(six_ids, 0.953344, abs_tol=1e-9)
    assert abs(six_ids - 0.95) <= 0.005


def test_criterion_3_detection_rate_bands():
    """Empirical detection with P calibrated to 0.35 and 10^4 attempts per
    point lands in the published bands, each widened by 3 binomial sigma;
    runtime under 1 minute."""
    attempts = 10_000
    bands = {1: (0.30, 0.40), 2: (0.50, 0.60), 4: (0.70, 0.85),
             6: (0.90, 1.0), 8: (0.97, 1.0)}
    started = time.perf_counter()
    rows = detection_table(
        sorted(bands), ReplayProfile.calibrated(0.35),
        attempts=attempts, seed=42)
    elapsed = time.perf_counter() - started
    for row in rows:
        low, high = bands[row["n_ids"]]
        rate, empirical = row["detection_rate"], row["empirical_rate"]
        sigma = math.sqrt(rate * (1.0 - rate) / attempts)
        print(f"criterion 3: n={row['n_ids']} empirical={empirical:.4f} "
              f"band=[{low},{high}] 3sigma={3 * sigma:.4f}")
        assert low - 3 * sigma <= empirical <= high + 3 * sigma
    print(f"criterion 3: {elapsed:.2f} s")
    assert elapsed < 60.0


def test_criterion_4_keyspace_exactness():
    """keyspace_size(90) is the exact 28-digit power of two, its 10-digit
    scientific rendering is 1.237940039e+27, and the average exhaustive
    search cost is exactly 2^89."""
    size = keyspace_size(90)
    assert size == 2 ** 90
    assert len(str(size)) == 28
    assert str(size) == "1237940039285380274899124224"
    assert scientific_string(size) == "1.237940039e+27"
    assert brute_force_average(90) == 2 ** 89
    print(f"criterion 4: {size} = {scientific_string(size)}")


def _provisioned_pair(rng):
    ids = [SymmetricId(rng.getrandbits(26)) for _ in range(4)]
    a = NodeProfile("a", (0.0, 0.0), (0.0, 0.0), "honest", IdPool(list(ids)))
    b = NodeProfile("b", (0.0, 0.0), (0.0, 0.0), "honest", IdPool(list(ids)))
    return a, b


def test_criterion_5_wormhole_rejection_and_stealth_limit():
    """A 10 us tunnel is flagged suspicious with both threshold-rtt and
    threshold-distance in 100/100 seeded handshakes; a 1 us tunnel at a
    true 50 m link stays inside both thresholds in 100/100 (documented
    detection floor)."""
    flagged = 0
    for seed in range(100):
        rng = random.Random(seed)
        a, b = _provisioned_pair(rng)
        evidence = evidence_for_link(
            rng.uniform(30.0, 250.0), rng.uniform(0.0, 360.0), 270.0)
        warped = wormhole_perturb(
            evidence, WormholeTunnel("near", "far", 1e-5),
            tunnel_bearing=rng.uniform(0.0, 360.0))
        verdict = run_handshake(a, b, warped, rng=rng)
        flagged += (not verdict.friendly
                    and REASON_RTT in verdict.reasons
                    and REASON_DISTANCE in verdict.reasons)
    print(f"criterion 5: 10us tunnel flagged {flagged}/100")
    assert flagged == 100

    passed = 0
    for seed in range(100):
        rng = random.Random(seed)
        a, b = _provisioned_pair(rng)
        evidence = evidence_for_link(50.0, rng.uniform(0.0, 360.0), 270.0)
        warped = wormhole_perturb(
            evidence, WormholeTunnel("near", "far", 1e-6), tunnel_bearing=None)
        passed += run_handshake(a, b, warped, rng=rng).friendly
    print(f"criterion 5: 1us/50m tunnel passed {passed}/100")
    assert passed == 100


def test_criterion_6_sybil_acceptance_rate():
    """Pool-disjoint identities survive the one-block handshake at a rate
    of at most 2*2^-16 over 10^5 attempts, in under 1 minute."""
    trials = 100_000
    rng = random.Random(1)
    honest = NodeProfile("a", (0.0, 0.0), (0.0, 0.0), "honest",
                         IdPool([SymmetricId(1), SymmetricId(2), SymmetricId(3)]))
    impostor = NodeProfile("x", (0.0, 0.0), (0.0, 0.0), "sybil",
                           IdPool([SymmetricId(100), SymmetricId(200), SymmetricId(300)]))
    evidence = evidence_for_link(150.0, 30.0, 230.0)
    cfg = HandshakeConfig(m_blocks=1)
    started = time.perf_counter()
    accepted = sum(
        run_handshake(honest, impostor, evidence, cfg, rng=rng).friendly
        for _ in range(trials))
    elapsed = time.perf_counter() - started
    bound = 2 * 2 ** -16 * trials
    print(f"criterion 6: accepted {accepted}/{trials} (bound {bound:.2f}) "
          f"in {elapsed:.1f} s")
    assert accepted <= bound
    assert elapsed < 60.0


def _per_mode_average(metric_by_seed, key):
    values = [getattr(m, key) for m in metric_by_seed]
    return sum(values) / len(values)


def test_criterion_7_network_metric_shapes(rate_sweep, speed_sweep, sweep_timings):
    """Desk-scale shape reproduction over 10 seeds: (a) seed-averaged
    throughput is non-decreasing in offered rate and flat (within 1%)
    across the saturated tail, with off >= sfv >= sfv-ranging at the top
    rate in >= 9/10 seeds; (b) the delay ordering is reversed in >= 9/10
    seeds; (c) seed-averaged PDR is non-increasing in speed per mode
    (slack: one packet), and ranging shows the strictly largest 20->50
    PDR drop in >= 8/10 seeds.  Combined sweep runtime under 5 minutes."""
    top = RATES[-1]

    # (a) throughput: averaged curve shape per mode, then per-seed ordering.
    # Monotonicity slack is one packet's worth of throughput: on the
    # saturated plateau delivered counts jitter by a packet either way.
    for mode in MODES:
        curve = [_per_mode_average(rate_sweep[mode][rate], "throughput_kbps")
                 for rate in RATES]
        print(f"criterion 7a: {mode} throughput curve "
              + " ".join(f"{v:.1f}" for v in curve))
        for rate, slower, faster in zip(RATES, curve, curve[1:]):
            delivered = _per_mode_average(rate_sweep[mode][rate], "delivered")
            packet_kbps = slower / max(delivered, 1.0)
            assert faster >= slower - packet_kbps
        assert abs(curve[-1] - curve[-2]) <= 0.01 * curve[-2]

    ordered = sum(
        rate_sweep["off"][top][i].throughput_kbps
        >= rate_sweep["sfv"][top][i].throughput_kbps
        >= rate_sweep["sfv-ranging"][top][i].throughput_kbps
        for i in range(len(SEEDS)))
    print(f"criterion 7a: top-rate throughput ordering {ordered}/10 seeds")
    assert ordered >= 9

    # (b) mean delay ordering reversed at the top rate.
    reversed_ok = sum(
        rate_sweep["sfv-ranging"][top][i].mean_delay_s
        >= rate_sweep["sfv"][top][i].mean_delay_s
        >= rate_sweep["off"][top][i].mean_delay_s
        for i in range(len(SEEDS)))
    print(f"criterion 7b: top-rate delay ordering {reversed_ok}/10 seeds")
    assert reversed_ok >= 9

    # (c) PDR monotone in speed on the seed-averaged curve, per mode.
    for mode in MODES:
        curve = [_per_mode_average(speed_sweep[mode][speed], "pdr")
                 for speed in SPEEDS]
        print(f"criterion 7c: {mode} pdr curve "
              + " ".join(f"{v:.5f}" for v in curve))
        for speed, slow_pdr, fast_pdr in zip(SPEEDS[1:], curve, curve[1:]):
            generated = _per_mode_average(speed_sweep[mode][speed], "generated")
            slack = 1.0 / generated
            assert fast_pdr <= slow_pdr + slack

    largest = 0
    for i in range(len(SEEDS)):
        drops = {
            mode: speed_sweep[mode][20.0][i].pdr - speed_sweep[mode][50.0][i].pdr
            for mode in MODES
        }
        largest += (drops["sfv-ranging"] > drops["off"]
                    and drops["sfv-ranging"] > drops["sfv"])
    print(f"criterion 7c: ranging largest 20->50 drop in {largest}/10 seeds")
    assert largest >= 8

    total = sweep_timings["rate"] + sweep_timings["speed"]
    print(f"criterion 7: sweeps took {total:.1f} s")
    assert total < 300.0


def test_criterion_8_scan_schedule_exact():
    """Targets at 200/240/260 m select ranges 230/250/270 m with exactly
    1/2/3 attempts."""
    plan = ScanPlan(ranges=(230.0, 250.0, 270.0), ranging=True)
    assert scan_for_neighbor(plan, 200.0) == ScanResult(230.0, 1)
    assert scan_for_neighbor(plan, 240.0) == ScanResult(250.0, 2)
    assert scan_for_neighbor(plan, 260.0) == ScanResult(270.0, 3)
    print("criterion 8: 200/240/260 m -> 230/250/270 m with 1/2/3 attempts")


def test_criterion_9_sweep_determinism(tmp_path):
    """Two invocations with equal seeds write byte-identical CSVs, for
    both scenario sweeps and the analytic-vs-empirical detection table."""
    scenario_args = ["sweep", "--variable", "tx_rate", "--values", "200,600",
                     "--repetitions", "2", "--seed", "17", "--duration", "1.5",
                     "--mode", "sfv-ranging"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(scenario_args + ["--out", str(first)]) == 0
    assert main(scenario_args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    ids_args = ["detect", "--n-ids", "1,2,4", "--attempts", "2000", "--seed", "9"]
    third, fourth = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(ids_args + ["--out", str(third)]) == 0
    assert main(ids_args + ["--out", str(fourth)]) == 0
    assert third.read_bytes() == fourth.read_bytes()
    print(f"criterion 9: {first.stat().st_size}-byte and "
          f"{third.stat().st_size}-byte tables byte-identical across reruns")
