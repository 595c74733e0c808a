"""Flat `key = value` scenario configuration files.

Blank lines and `#` comments are ignored.  Every key is optional.  The
keys are the field names of Scenario and of its nested HandshakeConfig and
ReplayProfile, plus duration_s and detection_probability; unknown keys are
rejected so typos fail loudly.  List-valued keys take comma-separated
entries.  The replay-profile keys (detection_probability, p_wormhole,
p_id_replay, p_rtt_replay) act only on replay attackers: a Scenario with
attackers of another kind refuses them, and one with no attackers accepts
them, inert.
"""

from __future__ import annotations

from dataclasses import fields

from .adversary import ReplayProfile
from .protocol import HandshakeConfig
from .simulator import Scenario


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


# Field annotations (strings under postponed evaluation) to value parsers.
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "tuple[float, ...]": _parse_float_list}
_HANDSHAKE_KEYS = tuple(spec.name for spec in fields(HandshakeConfig))
_REPLAY_KEYS = tuple(spec.name for spec in fields(ReplayProfile))

# The nested handshake and replay_profile fields take their own fields' keys.
_SCHEMA = {
    spec.name: _PARSERS[spec.type]
    for cls in (Scenario, HandshakeConfig, ReplayProfile)
    for spec in fields(cls)
    if spec.name not in ("handshake", "replay_profile")
}
_SCHEMA.update(duration_s=float, detection_probability=float)


def parse_config_text(text: str) -> dict:
    """Parse flat configuration text into typed options."""
    options: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ValueError(f"line {line_no}: unknown configuration key {key!r}")
        if key in options:
            raise ValueError(f"line {line_no}: duplicate configuration key {key!r}")
        try:
            options[key] = _SCHEMA[key](value)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: bad value for {key}: {exc}") from exc
    return options


def load_config(path) -> dict:
    """Read and parse one configuration file."""
    with open(path, "r") as handle:
        return parse_config_text(handle.read())


def build_scenario(options: dict, **overrides) -> tuple[Scenario, float]:
    """Assemble a Scenario from typed options plus keyword overrides.

    Overrides use the same key names and win over the file.  Returns the
    scenario and the run duration (default 60 s).
    """
    merged = dict(options)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _SCHEMA:
            raise ValueError(f"unknown configuration key {key!r}")
        merged[key] = value

    duration = merged.pop("duration_s", 60.0)
    handshake = HandshakeConfig(**{k: merged.pop(k) for k in _HANDSHAKE_KEYS if k in merged})
    replay_profile = build_replay_profile(
        {k: merged.pop(k) for k in (*_REPLAY_KEYS, "detection_probability") if k in merged})
    return Scenario(handshake=handshake, replay_profile=replay_profile, **merged), duration


def build_replay_profile(options: dict) -> ReplayProfile | None:
    """The replay profile that options' p_wormhole, p_id_replay, p_rtt_replay
    and detection_probability describe; a value of None counts as absent.

    All three probabilities or none: without them the profile is calibrated
    to detection_probability, or is None when that is absent too.
    """
    given = {k: options[k] for k in _REPLAY_KEYS if options.get(k) is not None}
    if given:
        if len(given) < len(_REPLAY_KEYS):
            raise ValueError("replay profile needs all of p_wormhole, p_id_replay, p_rtt_replay")
        return ReplayProfile(**given)
    target = options.get("detection_probability")
    return None if target is None else ReplayProfile.calibrated(target)
