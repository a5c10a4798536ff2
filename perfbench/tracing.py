"""Spans and counters for the benchmark's traced runs.

The program is not instrumented.  A traced run instead replaces the
public entry points of each layer with wrappers (class attributes, so
objects built inside the program are covered too) that record one span
per call: a name, a start, an end and the index of the enclosing span.
Spans stay in memory in flat arrays and are written out when the run
ends.  Counts are recorded at the same boundaries.

A layer's self time is the duration of its spans minus the part
covered by their child spans.  The benchmark's own per-call span
(``bench.call``) is the root of every call; its self time is the part
of the call no layer span covers.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT_SPAN = "bench.call"

#: Cycle-engine module classes by the role they play in the P5
#: loopback.  ``StreamSource`` feeds raw wire words into a standalone
#: receiver (the differential harness and the quarantined lane RX), so
#: it plays the wire.
MODULE_ROLES = {
    "TxFrameSource": "tx.source",
    "CrcGenerate": "tx.crc",
    "PipelinedEscapeGenerate": "tx.escape",
    "FlagInserter": "tx.flags",
    "PhyWire": "wire",
    "StreamSource": "wire",
    "WordDelineator": "rx.delineator",
    "PipelinedEscapeDetect": "rx.escape",
    "CrcCheck": "rx.crc",
    "RxFrameSink": "rx.sink",
}
CORE_MODULES = (
    "tx.source", "tx.crc", "tx.escape", "tx.flags", "wire",
    "rx.delineator", "rx.escape", "rx.crc", "rx.sink",
)
CORE_CHANNELS = (
    "tx.content", "tx.crc", "tx.escaped", "tx.phy",
    "rx.phy", "rx.body", "rx.clear", "rx.checked",
)


def channel_role(name: str) -> str:
    """``p5.tx.content`` / ``diffrx.body`` -> ``tx.content`` / ``rx.body``."""
    parts = name.split(".")
    if len(parts) < 2:
        return "other"
    side = parts[-2]
    if side.endswith("tx"):
        return f"tx.{parts[-1]}"
    if side.endswith("rx"):
        return f"rx.{parts[-1]}"
    return "other"


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Dict[str, int] = {}
        self.peaks: Dict[str, int] = {}
        self.channels: List[Any] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @property
    def span_count(self) -> int:
        return len(self.start)

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        return names, parents, dur

    def _under(self, root: str) -> np.ndarray:
        """Mask of spans whose outermost ancestor is a ``root`` span."""
        names, parents, _ = self._arrays()
        top = np.where(parents >= 0, parents, np.arange(parents.size))
        while True:
            hop = top[top]
            if np.array_equal(hop, top):
                break
            top = hop
        return names[top] == self._ids.get(root, -1)

    def self_times(self, under: str) -> Dict[str, float]:
        """Self seconds per span name, over the spans under ``under``
        spans (work outside the timed calls is left out)."""
        names, parents, dur = self._arrays()
        keep = self._under(under)
        inside = keep & (parents >= 0)
        child = np.bincount(parents[inside], weights=dur[inside], minlength=dur.size)
        per_name = np.bincount(
            names[keep], weights=(dur - child)[keep], minlength=len(self.names)
        )
        return {n: float(per_name[i]) for i, n in enumerate(self.names)}

    def total_seconds(self, name: str) -> float:
        """Summed duration of every ``name`` span."""
        names, _, dur = self._arrays()
        return float(dur[names == self._ids.get(name, -1)].sum())

    def harvest_channels(self) -> None:
        """Fold the peak occupancy of channels built so far into
        :attr:`peaks` and forget them."""
        for channel in self.channels:
            role = channel_role(channel.name)
            key = f"core.{role}.peak_occupancy"
            self.peaks[key] = max(self.peaks.get(key, 0), channel.max_occupancy)
        self.channels.clear()

    def save(self, path: Path) -> None:
        """Write every span (flat arrays) and the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                names=np.array(json.dumps(self.names)),
            )


Probe = Callable[[Tuple[Any, ...]], Any]
After = Callable[[Tuple[Any, ...], Any, Any], None]


def spanned(
    tracer: Tracer,
    fn: Callable[..., Any],
    name: str,
    *,
    probe: Optional[Probe] = None,
    after: Optional[After] = None,
) -> Callable[..., Any]:
    """``fn`` wrapped in a span; ``probe(args)`` runs before the call
    and its value reaches ``after(args, result, probed)``."""
    nid = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        probed = probe(args) if probe is not None else None
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if after is not None:
            after(args, result, probed)
        return result

    return traced


class Patches:
    """Class-attribute replacements, undone on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Any]] = []

    def set(self, owner: type, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner: type, attr: str, tracer: Tracer, name: str, **hooks: Any) -> None:
        self.set(owner, attr, spanned(tracer, owner.__dict__[attr], name, **hooks))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


#: Program counter fields renamed to the benchmark's counter vocabulary.
FIELD_NAMES = {"octets_discarded_hunting": "hunt_octets"}


def _stats_delta(fields: Tuple[str, ...], prefix: str, tracer: Tracer, get: Callable[[Any], Any]) -> Tuple[Probe, After]:
    """Probe/after pair adding the change of ``get(self).<field>``
    across one call to counter ``<prefix>.<field-name>``."""

    def probe(args: Tuple[Any, ...]) -> Tuple[int, ...]:
        stats = get(args[0])
        return tuple(getattr(stats, f) for f in fields)

    def after(args: Tuple[Any, ...], _result: Any, before: Tuple[int, ...]) -> None:
        stats = get(args[0])
        for f, b in zip(fields, before):
            tracer.count(f"{prefix}.{FIELD_NAMES.get(f, f)}", getattr(stats, f) - b)

    return probe, after


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's public entry points; returns the undo list."""
    from repro.crc.table import TableCrc
    from repro.fastpath.differential import DifferentialHarness
    from repro.fastpath.engine import FastpathEngine
    from repro.hdlc.delineation import Delineator
    from repro.hdlc.framer import HdlcFramer
    from repro.phy.line import BitErrorLine
    from repro.resilience.supervisor import LinkSupervisor
    from repro.rtl.module import Channel, Module
    from repro.rtl.pipeline import WordBeat
    from repro.rtl.simulator import Simulator
    from repro.sonet.framer import SonetFramer
    from repro.sonet.path import PppOverSonet
    from repro.sonet.rx_framer import SonetRxFramer
    from repro.sonet.scrambler import SelfSyncScrambler

    patches = Patches()
    count = tracer.count

    # fastpath
    def encoded(_args: Any, result: Any, _probed: Any) -> None:
        count("fastpath.encode.calls")
        count("fastpath.encode.escapes", result.octets_escaped)

    def decoded(_args: Any, result: Any, _probed: Any) -> None:
        count("fastpath.decode.calls")
        count("fastpath.decode.frames_ok", result.frames_ok)
        count("fastpath.decode.fcs_errors", result.fcs_errors)
        count("fastpath.decode.aborts", result.aborts)
        count("fastpath.decode.hunt_octets", result.octets_discarded_hunting)

    patches.wrap(FastpathEngine, "encode_frames", tracer, "fastpath.encode", after=encoded)
    patches.wrap(FastpathEngine, "decode_stream", tracer, "fastpath.decode", after=decoded)
    patches.wrap(
        FastpathEngine, "fcs_of", tracer, "fastpath.fcs",
        after=lambda *_: count("fastpath.fcs.calls"),
    )

    # crc: every TableCrc construction builds a 256-entry table.
    patches.wrap(
        TableCrc, "__init__", tracer, "crc.table",
        after=lambda *_: count("crc.table_builds"),
    )
    patches.wrap(TableCrc, "update", tracer, "crc.table")
    patches.wrap(TableCrc, "compute", tracer, "crc.table")

    # hdlc
    patches.wrap(HdlcFramer, "encode", tracer, "hdlc.encode")
    probe, after = _stats_delta(
        ("frames_ok", "fcs_errors", "aborts", "octets_discarded_hunting"),
        "hdlc.delineate", tracer, lambda d: d.stats,
    )
    patches.wrap(Delineator, "push_bytes", tracer, "hdlc.delineate", probe=probe, after=after)

    # sonet
    for attr in ("queue_frame", "next_line_frame", "receive_line"):
        patches.wrap(PppOverSonet, attr, tracer, "sonet.path")
    patches.wrap(SonetFramer, "build", tracer, "sonet.build")
    probe, after = _stats_delta(
        ("b1_errors", "b3_errors", "oof_events"), "sonet", tracer,
        lambda f: f.counters,
    )
    patches.wrap(SonetRxFramer, "feed", tracer, "sonet.rx", probe=probe, after=after)
    patches.wrap(SelfSyncScrambler, "scramble", tracer, "sonet.scramble")
    patches.wrap(SelfSyncScrambler, "descramble", tracer, "sonet.scramble")

    # phy
    probe, after = _stats_delta(("bits_flipped",), "phy", tracer, lambda line: line.stats)
    patches.wrap(BitErrorLine, "transmit", tracer, "phy.line", probe=probe, after=after)
    patches.wrap(BitErrorLine, "burst", tracer, "phy.line", probe=probe, after=after)

    # rtl kernel
    def stepped(args: Tuple[Any, ...], _result: Any, _probed: Any) -> None:
        sim = args[0]
        cycles = args[1] if len(args) > 1 else 1
        count("rtl.module_cycles", cycles * len(sim.modules))

    patches.wrap(Simulator, "step", tracer, "rtl.step", after=stepped)
    beat_init = WordBeat.__dict__["__init__"]

    def counted_beat(self: Any, *args: Any, **kwargs: Any) -> None:
        tracer.counts["rtl.beats_built"] = tracer.counts.get("rtl.beats_built", 0) + 1
        beat_init(self, *args, **kwargs)

    patches.set(WordBeat, "__init__", counted_beat)
    channel_init = Channel.__dict__["__init__"]

    def registered_channel(self: Any, *args: Any, **kwargs: Any) -> None:
        channel_init(self, *args, **kwargs)
        tracer.channels.append(self)

    patches.set(Channel, "__init__", registered_channel)

    # core: one span per clocked module, named by the module's role.
    on_cycle = Module.__dict__["on_cycle"]
    role_ids: Dict[type, Tuple[int, str]] = {}
    counts = tracer.counts
    open_, close = tracer.open, tracer.close

    def traced_on_cycle(self: Any) -> None:
        cls = type(self)
        entry = role_ids.get(cls)
        if entry is None:
            role = MODULE_ROLES.get(cls.__name__, "other")
            entry = role_ids[cls] = (tracer.name_id(f"core.{role}"), f"core.{role}")
        nid, prefix = entry
        moved = 0
        for ch in self.reads_from:
            moved += ch.pops
        for ch in self.writes_to:
            moved += ch.pushes
        stalls = self.stalled_cycles
        idx = open_(nid)
        try:
            on_cycle(self)
        finally:
            close(idx)
        for ch in self.reads_from:
            moved -= ch.pops
        for ch in self.writes_to:
            moved -= ch.pushes
        counts["rtl.on_cycle.calls"] = counts.get("rtl.on_cycle.calls", 0) + 1
        if moved:
            key = prefix + ".busy_cycles"
            counts[key] = counts.get(key, 0) + 1
        if self.stalled_cycles != stalls:
            key = prefix + ".stalled_cycles"
            counts[key] = counts.get(key, 0) + self.stalled_cycles - stalls

    patches.set(Module, "on_cycle", traced_on_cycle)

    # resilience
    patches.wrap(LinkSupervisor, "run_interval", tracer, "resilience.interval")
    patches.wrap(
        DifferentialHarness, "run", tracer, "resilience.spot_check",
        after=lambda *_: count("resilience.spot_check.calls"),
    )
    return patches
