"""Configuration parsing and command-line surface."""

import math
from pathlib import Path

import pytest

from sfvsim import analytics, cli, simulator
from sfvsim.adversary import ReplayProfile
from sfvsim.cli import main
from sfvsim.config import _SCHEMA, build_scenario, load_config, parse_config_text


# ---------------------------------------------------------------------------
# parse_config_text


def test_parse_basic_types():
    text = """
    # scenario knobs
    tx_rate_kbps = 250.5
    clusters = 4            # trailing comment
    sfv_mode = sfv-ranging
    neighbor_verification = yes
    radio_ranges = 200, 240, 260
    """
    options = parse_config_text(text)
    assert options == {
        "tx_rate_kbps": 250.5,
        "clusters": 4,
        "sfv_mode": "sfv-ranging",
        "neighbor_verification": True,
        "radio_ranges": (200.0, 240.0, 260.0),
    }


def test_parse_empty_and_comment_only():
    assert parse_config_text("") == {}
    assert parse_config_text("# nothing\n\n   \n# more\n") == {}


@pytest.mark.parametrize("text,expected", [
    ("neighbor_verification = 1", True),
    ("neighbor_verification = TRUE", True),
    ("neighbor_verification = on", True),
    ("neighbor_verification = 0", False),
    ("neighbor_verification = False", False),
    ("neighbor_verification = off", False),
    ("neighbor_verification = no", False),
])
def test_parse_bool_spellings(text, expected):
    assert parse_config_text(text)["neighbor_verification"] is expected


def test_parse_bool_junk_rejected():
    with pytest.raises(ValueError, match="line 1.*neighbor_verification"):
        parse_config_text("neighbor_verification = maybe")


def test_parse_missing_equals_reports_line():
    with pytest.raises(ValueError, match="line 3"):
        parse_config_text("clusters = 2\n# fine\njust words\n")


def test_parse_unknown_key_reports_line():
    with pytest.raises(ValueError, match="line 2: unknown configuration key 'tx_rate'"):
        parse_config_text("clusters = 2\ntx_rate = 100\n")


def test_parse_duplicate_key_rejected():
    with pytest.raises(ValueError, match="line 3: duplicate configuration key"):
        parse_config_text("clusters = 2\n\nclusters = 3\n")


def test_parse_bad_value_reports_key_and_line():
    with pytest.raises(ValueError, match="line 1: bad value for clusters"):
        parse_config_text("clusters = many")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("duration_s = 12.5\nmaster_seed = 42\n")
    assert load_config(path) == {"duration_s": 12.5, "master_seed": 42}


# ---------------------------------------------------------------------------
# build_scenario


def test_build_scenario_defaults():
    scenario, duration = build_scenario({})
    assert duration == 60.0
    assert (scenario.terrain_width, scenario.terrain_height) == (3000.0, 3000.0)
    assert scenario.clusters == 10
    assert scenario.nodes_per_cluster == 80
    assert scenario.queue_capacity == 50
    assert scenario.handshake.m_blocks == 4
    assert scenario.replay_profile is None


def test_build_scenario_file_options_apply():
    options = parse_config_text(
        "terrain_width = 900\nterrain_height = 600\n"
        "cluster_width = 220\ncluster_height = 180\n"
        "queue_capacity = 7\nchannel_capacity_kbps = 800\n"
        "m_blocks = 2\nn_ranging = 5\nretry_limit = 4\n"
        "duration_s = 3.5\n"
    )
    scenario, duration = build_scenario(options)
    assert duration == 3.5
    assert (scenario.terrain_width, scenario.terrain_height) == (900.0, 600.0)
    assert (scenario.cluster_width, scenario.cluster_height) == (220.0, 180.0)
    assert scenario.queue_capacity == 7
    assert scenario.channel_capacity_kbps == 800.0
    assert scenario.handshake.m_blocks == 2
    assert scenario.handshake.n_ranging == 5
    assert scenario.handshake.retry_limit == 4


def test_build_scenario_overrides_win_and_none_skipped():
    options = {"tx_rate_kbps": 100.0, "master_seed": 1, "duration_s": 30.0}
    scenario, duration = build_scenario(
        options, tx_rate_kbps=400.0, master_seed=None, duration_s=None)
    assert scenario.tx_rate_kbps == 400.0
    assert scenario.master_seed == 1
    assert duration == 30.0


def test_build_scenario_unknown_override_rejected():
    with pytest.raises(ValueError, match="unknown configuration key"):
        build_scenario({}, warp_factor=9)


def test_build_scenario_explicit_replay_profile():
    scenario, _ = build_scenario(
        {"p_wormhole": 0.5, "p_id_replay": 0.6, "p_rtt_replay": 0.7})
    assert scenario.replay_profile == ReplayProfile(0.5, 0.6, 0.7)


def test_build_scenario_partial_replay_profile_rejected():
    with pytest.raises(ValueError, match="p_wormhole, p_id_replay, p_rtt_replay"):
        build_scenario({"p_wormhole": 0.5})


def test_build_scenario_calibrated_replay_profile():
    scenario, _ = build_scenario({"detection_probability": 0.35})
    profile = scenario.replay_profile
    assert profile is not None
    product = (1 - profile.p_wormhole) * (1 - profile.p_id_replay) * (1 - profile.p_rtt_replay)
    assert math.isclose(product, 0.35, rel_tol=1e-12)


def test_build_scenario_explicit_beats_calibrated():
    scenario, _ = build_scenario({
        "p_wormhole": 0.1, "p_id_replay": 0.2, "p_rtt_replay": 0.3,
        "detection_probability": 0.9,
    })
    assert scenario.replay_profile == ReplayProfile(0.1, 0.2, 0.3)


# Every accepted key with a valid value that differs from its default.  The
# key set is derived from the Scenario, HandshakeConfig and ReplayProfile
# fields; this literal makes adding or dropping one a visible change.
KEY_VALUES = {
    "terrain_width": 2000.0, "terrain_height": 1500.0, "clusters": 4,
    "cluster_width": 200.0, "cluster_height": 250.0, "nodes_per_cluster": 10,
    "radio_ranges": (200.0, 260.0), "tx_rate_kbps": 500.0, "packet_size_bytes": 256,
    "node_speed_min": 1.0, "node_speed_max": 20.0, "sfv_mode": "off", "master_seed": 9,
    "queue_capacity": 10, "channel_capacity_kbps": 900.0, "flows_per_cluster": 3,
    "m_blocks": 2, "n_ranging": 5, "retry_limit": 2, "n_ids": 3,
    "processing_budget_s": 1e-6, "aoa_halfwidth_deg": 30.0, "handshake_base_s": 0.01,
    "handshake_attempt_extra_s": 0.005, "mobility_step_s": 0.05,
    "discovery_interval_s": 0.2, "pause_s": 0.5, "attacker_fraction": 0.1,
    "attacker_kind": "sybil", "attack_interval_s": 2.0, "tunnel_latency_s": 2e-5,
    "p_wormhole": 0.5, "p_id_replay": 0.5, "p_rtt_replay": 0.5,
    "detection_probability": 0.5, "neighbor_verification": True,
    "noise_distance_m": 5.0, "noise_angle_deg": 3.0, "noise_rtt_s": 1e-7,
    "duration_s": 5.0,
}


def test_config_accepts_exactly_the_pinned_keys():
    assert len(KEY_VALUES) == 40
    assert sorted(_SCHEMA) == sorted(KEY_VALUES)


@pytest.mark.parametrize("key", sorted(set(KEY_VALUES) - {"duration_s"}))
def test_every_config_key_changes_the_scenario(key):
    # a replay probability is only accepted with the other two
    base = {"p_wormhole": 0.2, "p_id_replay": 0.3, "p_rtt_replay": 0.4}
    if key not in base:
        base = {}
    changed, _ = build_scenario({**base, key: KEY_VALUES[key]})
    assert changed != build_scenario(base)[0]


def test_readme_example_config_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Keys mirror")[1].split("```")[1]
    options = parse_config_text(block)
    assert len(options) == sum(1 for line in block.splitlines() if "=" in line)
    scenario, duration = build_scenario(options)
    assert duration == options["duration_s"]
    assert scenario.sfv_mode == options["sfv_mode"]
    assert scenario.neighbor_verification is True


# ---------------------------------------------------------------------------
# CLI

RUN_HEADER = (
    "mode,seed,duration_s,tx_rate_kbps,node_speed_min,node_speed_max,"
    "generated,delivered,dropped_queue,dropped_range,in_flight,"
    "throughput_kbps,mean_delay_s,pdr,no_traffic,handshakes,scan_attempts,"
    "friendly_per_cluster,suspicious_per_cluster,attack_attempts,"
    "attacks_detected,empirical_detection_rate"
)


def _lines(text):
    return [line for line in text.replace("\r\n", "\n").split("\n") if line]


def test_cli_run_writes_metrics_csv(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["run", "--seed", "7", "--duration", "1",
                 "--mode", "sfv", "--out", str(out)])
    assert code == 0
    lines = _lines(out.read_text())
    assert lines[0] == RUN_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "sfv"
    assert fields[1] == "7"
    assert fields[2] == "1.0"


def test_cli_run_stdout_and_determinism(capsys):
    assert main(["run", "--seed", "3", "--duration", "0.5"]) == 0
    first = capsys.readouterr().out
    assert main(["run", "--seed", "3", "--duration", "0.5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert _lines(first)[0] == RUN_HEADER


def test_cli_run_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("tx_rate_kbps = 300\nmaster_seed = 9\nduration_s = 2\n")
    out = tmp_path / "run.csv"
    code = main(["run", "--config", str(cfg), "--duration", "1",
                 "--out", str(out)])
    assert code == 0
    fields = _lines(out.read_text())[1].split(",")
    assert fields[1] == "9"          # seed from file
    assert fields[2] == "1.0"        # duration flag wins
    assert fields[3] == "300.0"      # rate from file


def test_cli_run_missing_config_exits_2(capsys):
    assert main(["run", "--config", "/no/such/file.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture
def no_simulation(monkeypatch):
    def refuse(engine):
        raise AssertionError("the simulation started")

    def refuse_population(engine):
        raise AssertionError("the population was built")

    monkeypatch.setattr(simulator._Engine, "execute", refuse)
    monkeypatch.setattr(simulator._Engine, "_build_population", refuse_population)


@pytest.mark.parametrize("config,flags", [
    ("tx_rate_kbps = nan\n", []),
    ("terrain_width = nan\n", []),
    ("node_speed_max = inf\n", []),
    ("", ["--duration", "nan"]),
    ("", ["--duration", "inf"]),
], ids=["tx-rate-nan", "terrain-nan", "speed-inf", "duration-nan", "duration-inf"])
def test_cli_run_non_finite_input_exits_2_before_simulating(config, flags, tmp_path,
                                                            no_simulation, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(config)
    assert main(["run", "--config", str(cfg), *flags]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


# `off` mode builds no ranging evidence, so only the Scenario checks stop
# these values before a CSV is written.
@pytest.mark.parametrize("config", [
    "aoa_halfwidth_deg = 0\n",
    "aoa_halfwidth_deg = 500\n",
    "processing_budget_s = -1\n",
    "pause_s = -3\n",
    "cluster_width = 5000\n",
    "clusters = 1" + "0" * 400 + "\n",  # too large for math.sqrt's float
    "nodes_per_cluster = 100000000\n",
    "flows_per_cluster = 100000000\n",
    "mobility_step_s = 1e-320\n",
    "mobility_step_s = 1e-12\n",
    "pause_s = 1e7\n",
    "tx_rate_kbps = 1e9\n",
    "attack_interval_s = 1e-9\nattacker_fraction = 0.05\n",
    "duration_s = 1e9\n",
    "n_ids = 100000000\n",
    "n_ids = 1048576\nattacker_fraction = 0.05\n",
    "master_seed = -7\n",
    "master_seed = 18446744073709551616\n",
    "radio_ranges = 1.1e10\n",
    "radio_ranges = 1e307\n",  # its centimetres overflow to inf
], ids=["aoa-zero", "aoa-500", "budget-negative", "pause-negative", "cluster-wider-than-cell",
        "clusters-overflow", "nodes-beyond-cap", "flows-beyond-cap", "step-subnormal",
        "step-beyond-cap", "pause-beyond-cap", "ticks-beyond-cap", "attack-waves-beyond-cap",
        "duration-beyond-cap", "ids-beyond-cap", "attacker-ids-beyond-cap",
        "seed-negative", "seed-beyond-64-bits", "range-beyond-location-seed",
        "range-cm-overflow"])
def test_cli_run_out_of_range_knob_exits_2_before_simulating(config, tmp_path,
                                                            no_simulation, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(config)
    assert main(["run", "--config", str(cfg), "--mode", "off"]) == 2
    captured = capsys.readouterr()
    assert config.split(" =")[0] in captured.err
    assert captured.out == ""


def test_cli_sweep_tx_rate_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--variable", "tx_rate", "--values", "200,400",
                 "--repetitions", "2", "--seed", "5", "--duration", "0.5",
                 "--mode", "off", "--out", str(out)])
    assert code == 0
    lines = _lines(out.read_text())
    assert lines[0] == "variable,value," + RUN_HEADER
    assert len(lines) == 1 + 2 * 2
    values = [line.split(",")[1] for line in lines[1:]]
    assert values == ["200.0", "200.0", "400.0", "400.0"]
    seeds = [line.split(",")[3] for line in lines[1:]]
    assert seeds == ["5", "6", "5", "6"]


@pytest.mark.parametrize("flags,seeds", [([], ["9", "10"]), (["--seed", "3"], ["3", "4"])],
                         ids=["config-seed", "flag-wins"])
def test_cli_sweep_seeds_start_at_config_master_seed(flags, seeds, tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("master_seed = 9\n")
    assert main(["sweep", "--config", str(cfg), "--variable", "tx_rate", "--values", "200",
                 "--repetitions", "2", "--duration", "0.5", "--mode", "off", *flags]) == 0
    lines = _lines(capsys.readouterr().out)
    assert [line.split(",")[3] for line in lines[1:]] == seeds


def test_cli_sweep_refuses_a_bad_point_before_any_runs(no_simulation, capsys):
    assert main(["sweep", "--variable", "tx_rate", "--values", "200,1e9",
                 "--duration", "60"]) == 2
    captured = capsys.readouterr()
    assert "tx_rate_kbps" in captured.err
    assert captured.out == ""


# random.Random seeds from abs(n), so a negative seed would replay its
# positive twin; every --seed is an unsigned 64-bit integer.
@pytest.mark.parametrize("argv", [
    ["run", "--seed", "-7"],
    ["run", "--seed", str(2 ** 64)],
    ["sweep", "--variable", "tx_rate", "--values", "200", "--seed", "-1"],
    ["handshake", "--seed", "-1"],
    ["detect", "--seed", "-1"],
], ids=["run-negative", "run-beyond-64-bits", "sweep-negative", "handshake-negative",
        "detect-negative"])
def test_cli_seed_outside_unsigned_64_bits_exits_2_before_any_work(argv, no_simulation,
                                                                  monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(analytics, "sample_detection", refuse)
    monkeypatch.setattr("sfvsim.cli.run_handshake", refuse)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--seed" in captured.err
    assert captured.out == ""


def test_cli_sweep_refuses_repetitions_that_pass_the_last_seed(no_simulation, capsys):
    assert main(["sweep", "--variable", "tx_rate", "--values", "200",
                 "--seed", str(2 ** 64 - 1), "--repetitions", "2"]) == 2
    captured = capsys.readouterr()
    assert "master_seed" in captured.err
    assert captured.out == ""


def test_cli_run_takes_the_largest_seed(capsys):
    assert main(["run", "--seed", str(2 ** 64 - 1), "--duration", "0.1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[1] == str(2 ** 64 - 1)


def test_cli_sweep_repeat_invocations_byte_identical(tmp_path):
    args = ["sweep", "--variable", "node_speed", "--values", "5,20",
            "--seed", "2", "--duration", "0.5", "--mode", "sfv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_sweep_no_values_exits_2(capsys):
    assert main(["sweep", "--variable", "tx_rate", "--values", " , "]) == 2
    assert "at least one value" in capsys.readouterr().err


@pytest.mark.parametrize("values, repetitions", [("200", 100_000_000), ("200,600", 50_001)])
def test_cli_sweep_beyond_the_point_cap_exits_2_before_building_a_point(
        values, repetitions, no_simulation, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep point was built")

    monkeypatch.setattr("sfvsim.cli.build_scenario", refuse)
    assert main(["sweep", "--variable", "tx_rate", "--values", values,
                 "--repetitions", str(repetitions)]) == 2
    captured = capsys.readouterr()
    assert f"exceeds {cli.MAX_SWEEP_POINTS} sweep points" in captured.err
    assert captured.out == ""


def test_cli_sweep_runs_exactly_the_point_cap(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 4)
    argv = ["sweep", "--variable", "tx_rate", "--values", "200,600", "--duration", "0.1",
            "--mode", "off", "--repetitions"]
    assert main(argv + ["2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4
    assert main(argv + ["3"]) == 2
    assert "2 x 3" in capsys.readouterr().err


def test_cli_sweep_repetitions_below_one_exits_2(no_simulation, capsys):
    assert main(["sweep", "--variable", "tx_rate", "--values", "200",
                 "--repetitions", "0"]) == 2
    captured = capsys.readouterr()
    assert "--repetitions" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["sweep", "--variable", "n_ids", "--values", "1,2"],
    ["sweep", "--variable", "tx_rate", "--values", "200", "--attempts", "5"],
    ["sweep", "--variable", "tx_rate", "--values", "200", "--detection-probability", "0.5"],
], ids=["n-ids-variable", "attempts", "detection-probability"])
def test_cli_sweep_refuses_detection_options(argv, no_simulation, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


DETECT_HEADER = ("n_ids,p_wormhole,p_id_replay,p_rtt_replay,detection_probability,"
                 "detection_rate,empirical_rate,abs_gap,attempts")


def test_cli_detect_default_table(capsys):
    assert main(["detect"]) == 0
    lines = _lines(capsys.readouterr().out)
    assert lines[0] == DETECT_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "4", "6", "8"]
    n2 = lines[2].split(",")
    assert float(n2[5]) == pytest.approx(1 - 0.65 ** 2, rel=1e-12)
    assert n2[8] == "10000"


def test_cli_detect_sampled_table(tmp_path):
    out = tmp_path / "ids.csv"
    code = main(["detect", "--n-ids", "1,2", "--attempts", "500", "--seed", "11",
                 "--out", str(out)])
    assert code == 0
    lines = _lines(out.read_text())
    assert lines[0] == DETECT_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[5]) == pytest.approx(0.35, abs=1e-12)
    assert float(first[7]) == abs(float(first[5]) - float(first[6]))
    assert first[8] == "500"


@pytest.mark.parametrize("flags", [["--seed", "12"], ["--attempts", "501"]])
def test_cli_detect_sampling_knobs_change_the_table(flags, capsys):
    base = ["detect", "--n-ids", "1,2,4", "--attempts", "500", "--seed", "11"]
    assert main(base) == 0
    first = capsys.readouterr().out
    assert main(base + flags) == 0
    assert capsys.readouterr().out != first


def test_cli_detect_explicit_probabilities(capsys):
    assert main(["detect", "--p-wormhole", "0.1", "--p-id", "0.2",
                 "--p-rtt", "0.3", "--n-ids", "1"]) == 0
    row = _lines(capsys.readouterr().out)[1].split(",")
    expect = 0.9 * 0.8 * 0.7   # every check must catch its replay
    assert float(row[4]) == pytest.approx(expect, rel=1e-12)


# Both tables are refused before the first sampled verification.
@pytest.mark.parametrize("flags", [
    ["--attempts", "1000000000000", "--n-ids", "1"],
    ["--n-ids", "1,0"],
], ids=["draws-beyond-cap", "zero-ids"])
def test_cli_detect_out_of_range_exits_2_before_sampling(flags, monkeypatch, capsys):
    def refuse(profile, rng):
        raise AssertionError("a replay attempt was sampled")

    monkeypatch.setattr(analytics, "sample_detection", refuse)
    assert main(["detect", *flags]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_cli_detect_partial_probabilities_exit_2(capsys):
    assert main(["detect", "--p-wormhole", "0.5"]) == 2
    assert "all of" in capsys.readouterr().err


def test_cli_keyspace_stdout(capsys):
    assert main(["keyspace"]) == 0
    lines = _lines(capsys.readouterr().out)
    assert lines == [
        "bits,keys,brute_force_average,scientific",
        "90,1237940039285380274899124224,618970019642690137449562112,1.237940039e+27",
    ]


def test_cli_keyspace_csv(tmp_path, capsys):
    out = tmp_path / "keys.csv"
    assert main(["keyspace", "--bits", "32", "--out", str(out)]) == 0
    lines = _lines(out.read_text())
    assert lines[0] == "bits,keys,brute_force_average,scientific"
    assert lines[1] == f"32,{2**32},{2**31},4.294967296e+9"
    # stdout carries the same bytes as --out
    assert main(["keyspace", "--bits", "32"]) == 0
    with open(out, newline="") as handle:
        assert capsys.readouterr().out == handle.read()


@pytest.mark.parametrize("to_file", [False, True])
def test_cli_keyspace_too_wide_to_print_exits_2_before_any_output(tmp_path, capsys, to_file):
    # 2**20000 has 6021 digits, more than Python's default 4300-digit limit
    # for printing an int.
    out = tmp_path / "keys.csv"
    argv = ["keyspace", "--bits", "20000"] + (["--out", str(out)] if to_file else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--bits 20000" in captured.err
    assert not out.exists()


def test_cli_handshake_friendly(capsys):
    assert main(["handshake", "--seed", "3"]) == 0
    lines = _lines(capsys.readouterr().out)
    assert lines[0].startswith("threshold,")
    assert lines[-1] == "verdict,final,,friendly"
    assert all(line.count(",") >= 3 for line in lines)


def test_cli_handshake_sybil_suspicious(tmp_path):
    out = tmp_path / "hs.txt"
    assert main(["handshake", "--seed", "3", "--adversary", "sybil",
                 "--out", str(out)]) == 0
    lines = _lines(out.read_text())
    assert lines[-1] == "verdict,final,,suspicious"


def test_cli_handshake_wormhole_suspicious(capsys):
    assert main(["handshake", "--seed", "1", "--adversary", "wormhole",
                 "--tunnel-latency", "1e-5"]) == 0
    lines = _lines(capsys.readouterr().out)
    assert lines[-1] == "verdict,final,,suspicious"


def test_cli_handshake_nan_tunnel_latency_exits_2(capsys):
    assert main(["handshake", "--adversary", "wormhole", "--tunnel-latency", "nan"]) == 2
    captured = capsys.readouterr()
    assert "tunnel latency" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("latency", ["inf", "-inf", "nan", "0"])
@pytest.mark.parametrize("adversary", ["none", "sybil", "wormhole"])
def test_cli_handshake_refuses_a_bad_tunnel_latency_before_any_work(adversary, latency,
                                                                    monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr("sfvsim.cli.draw_distinct_ids", refuse)
    argv = ["handshake", "--adversary", adversary, f"--tunnel-latency={latency}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "tunnel latency" in captured.err
    assert captured.out == ""


def test_cli_handshake_deterministic(capsys):
    assert main(["handshake", "--seed", "8"]) == 0
    first = capsys.readouterr().out
    assert main(["handshake", "--seed", "8"]) == 0
    assert capsys.readouterr().out == first
