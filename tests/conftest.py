"""Shared fixtures: the expensive desk-scale sweeps are computed once.

Both the simulator property tests and the acceptance gate consume the
same sweep data; wall-clock build times are recorded so runtime budgets
can be asserted on the actual computation.
"""

import time

import pytest

from sfvsim import Scenario, run_scenario

MODES = ("off", "sfv", "sfv-ranging")
RATES = (200.0, 600.0, 1200.0, 2000.0)
SPEEDS = (5.0, 10.0, 20.0, 35.0, 50.0)
SEEDS = tuple(range(1, 11))
DESK_DURATION = 60.0

# amplified handshake costs keep the verification overhead measurable at
# desk scale; both sweeps run the channel at saturation so delivered
# traffic is governed by channel time, not by where nodes happen to roam
RATE_SWEEP_KW = dict(
    clusters=2, nodes_per_cluster=20, cluster_width=400.0, cluster_height=400.0,
    flows_per_cluster=4, handshake_base_s=0.02, handshake_attempt_extra_s=0.01,
)
SPEED_SWEEP_KW = dict(
    clusters=2, nodes_per_cluster=20, cluster_width=300.0, cluster_height=300.0,
    flows_per_cluster=6, tx_rate_kbps=400.0,
    handshake_base_s=0.02, handshake_attempt_extra_s=0.01,
)


def rate_scenario(seed: int, mode: str, rate: float) -> Scenario:
    return Scenario(master_seed=seed, sfv_mode=mode, tx_rate_kbps=rate,
                    **RATE_SWEEP_KW)


def speed_scenario(seed: int, mode: str, speed: float) -> Scenario:
    return Scenario(master_seed=seed, sfv_mode=mode, node_speed_min=speed,
                    node_speed_max=speed,
                    **SPEED_SWEEP_KW)


@pytest.fixture(scope="session")
def sweep_timings():
    return {}


@pytest.fixture(scope="session")
def rate_sweep(sweep_timings):
    """metrics[mode][rate][seed-1] for the 2x20-node desk scenario."""
    start = time.monotonic()
    data = {
        mode: {
            rate: [
                run_scenario(rate_scenario(seed, mode, rate), DESK_DURATION)
                for seed in SEEDS
            ]
            for rate in RATES
        }
        for mode in MODES
    }
    sweep_timings["rate"] = time.monotonic() - start
    return data


@pytest.fixture(scope="session")
def speed_sweep(sweep_timings):
    """metrics[mode][speed][seed-1] at fixed per-node speeds, saturated."""
    start = time.monotonic()
    data = {
        mode: {
            speed: [
                run_scenario(speed_scenario(seed, mode, speed), DESK_DURATION)
                for seed in SEEDS
            ]
            for speed in SPEEDS
        }
        for mode in MODES
    }
    sweep_timings["speed"] = time.monotonic() - start
    return data


@pytest.fixture(scope="session")
def saturation_runs_20(rate_sweep):
    """Twenty top-rate seeded runs per mode: seeds 1-10 reuse the sweep."""
    top = RATES[-1]
    data = {mode: list(rate_sweep[mode][top]) for mode in MODES}
    for seed in range(11, 21):
        for mode in MODES:
            data[mode].append(run_scenario(rate_scenario(seed, mode, top), DESK_DURATION))
    return data
