"""Closed-form detection math, key-space figures and CSV plumbing."""

import csv
import io
import math
import random

import mpmath
import pytest

from sfvsim.adversary import ReplayProfile
from sfvsim.analytics import (
    brute_force_average,
    detection_probability,
    detection_rate,
    detection_table,
    emit_csv,
    empirical_detection_rate,
    keyspace_size,
    scientific_string,
)


def mp_rate(p_wh, p_id, p_rtt, n):
    with mpmath.workdps(50):
        p = (1 - mpmath.mpf(repr(p_wh))) * (1 - mpmath.mpf(repr(p_id))) \
            * (1 - mpmath.mpf(repr(p_rtt)))
        return p, 1 - (1 - p) ** n


# ----------------------------------------------------------- detection model

def test_detection_probability_is_survival_product():
    profile = ReplayProfile(0.2, 0.3, 0.4)
    assert detection_probability(profile) == pytest.approx(0.8 * 0.7 * 0.6, rel=1e-15)


def test_detection_rate_matches_bigfloat_reference():
    grid = (0.05, 0.2, 0.5, 0.8, 0.95)
    for p_wh in grid:
        for p_id in grid:
            profile = ReplayProfile(p_wh, p_id, 0.35)
            for n in (1, 3, 7):
                ref_p, ref_rate = mp_rate(p_wh, p_id, 0.35, n)
                assert abs(detection_probability(profile) - float(ref_p)) <= 1e-12 * float(ref_p)
                assert abs(detection_rate(profile, n) - float(ref_rate)) <= 1e-12 * max(float(ref_rate), 1e-30)


def test_detection_rate_single_id_equals_probability():
    profile = ReplayProfile.calibrated(0.35)
    assert detection_rate(profile, 1) == pytest.approx(detection_probability(profile), rel=1e-15)


def test_detection_rate_monotone_in_ids():
    profile = ReplayProfile.calibrated(0.35)
    rates = [detection_rate(profile, n) for n in range(1, 12)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 1.0


def test_six_ids_give_roughly_95_percent():
    profile = ReplayProfile.calibrated(0.4)
    rate = detection_rate(profile, 6)
    assert rate == pytest.approx(0.953344, abs=1e-6)


def test_detection_rate_validation():
    with pytest.raises(ValueError):
        detection_rate(ReplayProfile.calibrated(0.35), 0)


# ------------------------------------------------------------------ keyspace

def test_keyspace_exact_values():
    size = keyspace_size(90)
    assert size == 2**90
    assert size == 1237940039285380274899124224
    assert len(str(size)) == 28
    assert brute_force_average(90) == 2**89
    assert keyspace_size(1) == 2
    with pytest.raises(ValueError):
        keyspace_size(0)


def test_scientific_rendering():
    assert scientific_string(2**90) == "1.237940039e+27"
    assert scientific_string(1) == "1e+0"
    assert scientific_string(999) == "9.99e+2"
    assert scientific_string(1000) == "1e+3"
    assert scientific_string(2**89) == "6.189700196e+26"
    with pytest.raises(ValueError):
        scientific_string(0)


# ------------------------------------------------------------- Monte Carlo

def test_empirical_rate_within_three_sigma():
    profile = ReplayProfile.calibrated(0.35)
    for n in (1, 4, 8):
        expected = detection_rate(profile, n)
        observed = empirical_detection_rate(profile, n, 10_000, random.Random(42))
        sigma = math.sqrt(expected * (1 - expected) / 10_000)
        assert abs(observed - expected) <= 3 * sigma


def test_detection_table_structure():
    profile = ReplayProfile.calibrated(0.35)
    rows = detection_table([1, 2, 4], profile, attempts=2_000, seed=7)
    assert [r["n_ids"] for r in rows] == [1, 2, 4]
    assert all(r["attempts"] == 2_000 for r in rows)
    assert all(0.0 <= r["empirical_rate"] <= 1.0 for r in rows)
    assert all(r["abs_gap"] == abs(r["detection_rate"] - r["empirical_rate"]) for r in rows)
    again = detection_table([1, 2, 4], profile, attempts=2_000, seed=7)
    assert rows == again


# ----------------------------------------------------------------------- csv

def test_emit_csv_deterministic_bytes(tmp_path):
    records = [
        {"mode": "sfv", "seed": 1, "pdr": 0.75},
        {"mode": "off", "seed": 2, "pdr": 1.0},
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, first)
    emit_csv(records, second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b"mode,seed,pdr\r\n")


def test_emit_parse_round_trip(tmp_path):
    records = [{"x": 1, "label": "a,b"}, {"x": 2, "label": 'say "hi"'}]
    path = tmp_path / "round.csv"
    emit_csv(records, path)
    with open(path, newline="") as handle:
        back = list(csv.DictReader(handle))
    assert back == [{"x": "1", "label": "a,b"}, {"x": "2", "label": 'say "hi"'}]


def test_emit_csv_to_stream_and_field_order():
    out = io.StringIO()
    emit_csv([{"b": 1, "a": 2}, {"a": 3, "b": 4}], out)
    assert out.getvalue().splitlines() == ["b,a", "1,2", "4,3"]


def test_emit_csv_schema_enforced():
    with pytest.raises(ValueError):
        emit_csv([{"a": 1}, {"b": 2}], io.StringIO())
    with pytest.raises(ValueError):
        emit_csv([], io.StringIO())

