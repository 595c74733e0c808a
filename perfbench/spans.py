"""In-memory span tracing around sfvsim's public functions.

`Tracer` replaces each target name in the module where its callers look it
up with a wrapper that records one span per call: name, parent span, start
and end (`perf_counter_ns`), and an optional small integer outcome.  Spans
live in flat arrays, so a two-million-call run costs about 50 MB.  Leaving
the `with` block restores every original name.

A layer is the part of a span name before the first dot.  A span's self
time is its duration minus the durations of its direct children; children
of one span never overlap because the program is single-threaded.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import sfvsim.adversary
import sfvsim.cli
import sfvsim.model
import sfvsim.protocol
import sfvsim.ranging
import sfvsim.simulator


class _Outcomes:
    """Outcome hooks: map a call's arguments and result to a small integer."""

    def __init__(self):
        self.last_relayed = None

    def handshake(self, args, result):
        # 2 marks a handshake on wormhole-relayed evidence: an attack attempt.
        attack = len(args) > 2 and args[2] is self.last_relayed
        return (2 if attack else 0) + (1 if result.friendly else 0)

    def relayed(self, args, result):
        self.last_relayed = result
        return -1

    @staticmethod
    def passed(args, result):
        return 1 if result.passed else 0

    @staticmethod
    def scan_attempts(args, result):
        return result.attempts

    @staticmethod
    def friendly(args, result):
        return 1 if result.friendly else 0

    @staticmethod
    def truth(args, result):
        return 1 if result else 0


def targets(outcomes: _Outcomes):
    """(module, attribute, span name, outcome hook) for every wrapped name.

    The list names each binding that a caller looks up at call time: the
    simulator's, protocol's, adversary's and cli's imported names, plus the
    module attributes this benchmark itself calls.
    """
    sim, proto, adv, cli = sfvsim.simulator, sfvsim.protocol, sfvsim.adversary, sfvsim.cli
    rng_mod, model = sfvsim.ranging, sfvsim.model
    return [
        (sim, "step_mobility", "simulator.step_mobility", None),
        (sim, "run_handshake", "protocol.run_handshake", outcomes.handshake),
        (sim, "scan_for_neighbor", "ranging.scan_for_neighbor", outcomes.scan_attempts),
        (sim, "evidence_for_link", "ranging.evidence_for_link", None),
        (sim, "sybil_attempt", "adversary.sybil_attempt", outcomes.friendly),
        (sim, "wormhole_perturb", "adversary.wormhole_perturb", outcomes.relayed),
        (sim, "sample_detection", "adversary.sample_detection", outcomes.truth),
        (proto, "encrypt_block", "keyschedule.encrypt_block", None),
        (proto, "decrypt_block", "keyschedule.decrypt_block", None),
        (proto, "init_session", "keyschedule.init_session", None),
        (proto, "validate_evidence", "ranging.validate_evidence", outcomes.passed),
        (proto, "run_handshake", "protocol.run_handshake", outcomes.handshake),
        (adv, "run_handshake", "protocol.run_handshake", outcomes.handshake),
        (adv, "sybil_attempt", "adversary.sybil_attempt", outcomes.friendly),
        (adv, "wormhole_perturb", "adversary.wormhole_perturb", outcomes.relayed),
        (model, "block_checksum", "model.block_checksum", None),
        (rng_mod, "scan_for_neighbor", "ranging.scan_for_neighbor", outcomes.scan_attempts),
        (rng_mod, "evidence_for_link", "ranging.evidence_for_link", None),
        (cli, "build_scenario", "config.build_scenario", None),
        (cli, "run_scenario", "simulator.run_scenario", None),
        (cli, "emit_csv", "analytics.emit_csv", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Record spans while installed; `with Tracer() as t:` wraps and restores."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("h")
        self._stack = [-1]
        self._originals: list[tuple] = []
        self._installed = False
        self._targets = targets(_Outcomes())

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        index = len(self.name_of)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self.value.append(-1)
        self._stack.append(index)
        return index

    def _wrap(self, fn, name: str, outcome):
        name_id = self._name_id(name)
        open_span, stack, start, end, value = self._open, self._stack, self.start, self.end, self.value
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = open_span(name_id)
            began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                start[index] = began
                end[index] = ended
            if outcome is not None:
                value[index] = outcome(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._installed = True
        self._originals = []
        for module, attr, name, outcome in self._targets:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, outcome))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._installed = False

    def restored(self) -> bool:
        """True when every wrapped name is bound to its original again."""
        return all(getattr(module, attr) is original
                   for module, attr, original in self._originals)

    @contextmanager
    def root(self, name: str):
        """Record one span around the benchmark's own code."""
        index = self._open(self._name_id(name))
        self.start[index] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[index] = time.perf_counter_ns()
            self._stack.pop()

    def summary(self, percentiles_of: str) -> dict:
        """Per span name: calls, total and self nanoseconds, outcome tallies.

        The entry of `percentiles_of` also gets p50_ns and p99_ns durations.
        """
        n = len(self.name_of)
        child = array("q", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "outcomes": {}}
                 for name in self.names}
        durations = array("q")
        names, name_of, value = self.names, self.name_of, self.value
        for i in range(n):
            entry = stats[names[name_of[i]]]
            duration = end[i] - start[i]
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - child[i]
            outcome = value[i]
            if outcome >= 0:
                entry["outcomes"][outcome] = entry["outcomes"].get(outcome, 0) + 1
            if names[name_of[i]] == percentiles_of:
                durations.append(duration)
        if percentiles_of in stats:
            ordered = sorted(durations)
            stats[percentiles_of]["p50_ns"] = ordered[len(ordered) // 2]
            stats[percentiles_of]["p99_ns"] = ordered[min(len(ordered) - 1, len(ordered) * 99 // 100)]
        return stats

    def write(self, path: Path, header: dict) -> None:
        """Write the spans: a JSON header line, then the raw arrays in order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        layout = [["name_of", "H"], ["parent", "i"], ["start", "q"], ["end", "q"], ["value", "h"]]
        head = dict(header, spans=len(self.name_of), names=self.names,
                    layout=layout, byteorder=sys.byteorder)
        with open(path, "wb") as handle:
            handle.write((json.dumps(head) + "\n").encode())
            for attr, _ in layout:
                getattr(self, attr).tofile(handle)
