"""The four benchmark workloads.

Each workload builds its inputs from the seed when it is constructed,
before anything is timed.  ``build`` makes the system under test (its
cost is the set-up time).  A *pass* is one run over the inputs on
freshly built objects: ``run_pass`` makes the timed calls through a
:class:`Recorder`; the checks between calls are not timed.  Every pass does the same work, so
every pass returns the same exact counts in ``signature``.

Any broken correctness gate raises :class:`GateError`; the run then
fails instead of reporting a number.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from gauge import kernel_seconds
from tracing import ROOT_SPAN, Tracer

FLAG = 0x7E
#: OC-48 line rate over one 125 us SONET frame period, in octets.
OC48_PERIOD_OCTETS = 39_062


class GateError(Exception):
    """A correctness gate failed: the run is invalid, not slow."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def derive(seed: int, tag: int) -> int:
    """A 32-bit sub-seed, independent per (seed, tag)."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def wire_frame(content: bytes) -> bytes:
    """Reference octet-synchronous HDLC encoding (RFC 1662, FCS-32,
    escapes 7D/7E only), written independently of the program."""
    body = content + zlib.crc32(content).to_bytes(4, "little")
    body = body.replace(b"\x7d", b"\x7d\x5d").replace(b"\x7e", b"\x7d\x5e")
    return b"\x7e" + body + b"\x7e"


def imix_frames(count: int, seed: int, *, dense_every: int = 0) -> List[bytes]:
    """IPv4-in-PPP imix frame contents; with ``dense_every`` = k every
    k-th frame is replaced by an all-flag frame of the same length."""
    from repro.workloads.packets import ppp_frame_contents

    frames = ppp_frame_contents(count, seed=seed)
    if dense_every:
        frames = [
            bytes([FLAG]) * len(c) if i % dense_every == dense_every - 1 else c
            for i, c in enumerate(frames)
        ]
    return frames


class Recorder:
    """Times calls, pass by pass.

    With ``gauged`` it samples the host-speed gauge (:mod:`gauge`)
    after every ``GAUGE_EVERY_S`` of timed calls and notes for each
    call the index of the first sample taken after it.  Under a tracer
    each call is also a root span.
    """

    GAUGE_EVERY_S = 0.004

    def __init__(self, tracer: Optional[Tracer] = None, *, gauged: bool = False) -> None:
        self.passes: List[List[float]] = []
        self.after: List[List[int]] = []
        self.gauge: List[float] = []
        self.gauged = gauged
        self.tracer = tracer
        self._root = tracer.name_id(ROOT_SPAN) if tracer else 0
        self._span = 0
        self._since = 0.0

    def _sample(self) -> None:
        self.gauge.append(kernel_seconds())
        self._since = 0.0

    def new_pass(self) -> None:
        self.passes.append([])
        self.after.append([])

    def end_pass(self) -> None:
        if self.gauged and self._since:
            self._sample()

    def start(self) -> float:
        if self.tracer is not None:
            self._span = self.tracer.open(self._root)
        return time.perf_counter()

    def stop(self, t0: float) -> None:
        elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.close(self._span)
        self.passes[-1].append(elapsed)
        self.after[-1].append(len(self.gauge))
        if self.gauged:
            self._since += elapsed
            if self._since >= self.GAUGE_EVERY_S:
                self._sample()


@dataclass
class PassResult:
    frames_sent: int
    frames_delivered: int
    #: Content octets delivered good and intact during the timed calls.
    octets: int
    #: Exact counts; every pass of a run must return the same.
    signature: Dict[str, Any] = field(default_factory=dict)
    #: Figures of this workload only, printed with the end-to-end
    #: metrics.
    extra: Dict[str, Any] = field(default_factory=dict)


class Workload:
    name = ""
    #: The highest percentile with at least ten call positions beyond
    #: it (see ``run.py``: percentiles are taken over the positions of
    #: a pass).
    tail_pct = 99.0

    def build(self) -> Any:
        """Build the system under test; its cost is the set-up time."""
        raise NotImplementedError

    def run_pass(self, rec: Recorder) -> PassResult:
        """One pass over the inputs on freshly built objects."""
        raise NotImplementedError


# --------------------------------------------------------------------- W1
class FastpathImix(Workload):
    """``FastpathEngine.encode_frames`` -> ``decode_stream`` on a clean
    wire, closed loop, one 125 us OC-48 period of imix per call."""

    name = "fastpath-imix"
    tail_pct = 95.0
    BATCHES = 256

    def __init__(self, seed: int) -> None:
        frames = imix_frames(self.BATCHES * 140, derive(seed, 1))
        batches: List[List[bytes]] = [[]]
        size = 0
        for content in frames:
            if size + len(content) > OC48_PERIOD_OCTETS and batches[-1]:
                if len(batches) == self.BATCHES:
                    break
                batches.append([])
                size = 0
            batches[-1].append(content)
            size += len(content)
        gate(len(batches) == self.BATCHES, "imix pool too small for the batches")
        self.batches = batches
        self.wire = [b"".join(wire_frame(c) for c in b) for b in batches]
        self.expected = [[(c, True) for c in b] for b in batches]
        self.octets = [sum(map(len, b)) for b in batches]

    def build(self) -> Any:
        from repro.core.config import P5Config
        from repro.fastpath.engine import FastpathEngine

        return FastpathEngine(P5Config())

    def run_pass(self, rec: Recorder) -> PassResult:
        engine = self.build()
        frames = escapes = 0
        for k, batch in enumerate(self.batches):
            t0 = rec.start()
            tx = engine.encode_frames(batch)
            rx = engine.decode_stream(tx.line)
            rec.stop(t0)
            gate(tx.line == self.wire[k], f"batch {k}: TX wire differs from the reference encoding")
            gate(
                rx.frames == self.expected[k] and rx.octets_discarded_hunting == 0,
                f"batch {k}: RX did not return exactly the frames sent, all FCS-good",
            )
            frames += len(batch)
            escapes += tx.octets_escaped
        return PassResult(
            frames_sent=frames,
            frames_delivered=frames,
            octets=sum(self.octets),
            signature={"frames": frames, "escapes": escapes},
        )


# --------------------------------------------------------------------- W2
class PosErrored(Workload):
    """``PppOverSonet(48)`` with x^43+1 scrambling over a seeded
    bit-error line, one STS-48c line frame per call."""

    name = "pos-oc48-errored"
    tail_pct = 90.0
    PERIODS = 100
    LOAD = 0.9
    BER = 1e-5
    BACKLOG_BOUND = 64

    def __init__(self, seed: int) -> None:
        from repro.sonet.rates import payload_capacity_bytes

        per_period = self.LOAD * payload_capacity_bytes(48)
        frames = imix_frames(self.PERIODS * 110, derive(seed, 2), dense_every=8)
        self.due: List[List[bytes]] = [[] for _ in range(self.PERIODS)]
        offered = 0
        for content in frames:
            period = int(offered // per_period)
            if period >= self.PERIODS:
                break
            self.due[period].append(content)
            offered += len(wire_frame(content))
        gate(offered >= self.PERIODS * per_period, "frame pool too small for the periods")
        self.line_seed = derive(seed, 3)

    def build(self) -> Any:
        from repro.sonet.path import PppOverSonet

        return PppOverSonet(48)

    def run_pass(self, rec: Recorder) -> PassResult:
        from repro.phy.line import BitErrorLine

        path = self.build()
        line = BitErrorLine(self.BER, seed=self.line_seed)
        sent: List[bytes] = []
        cursor = delivered = octets = 0
        ledger: List[Tuple[int, int, int, int, int]] = []
        state = {"flips": 0, "errors": 0, "sonet_ok": 0, "backlog": 0, "parity": 0}

        def hdlc_errors() -> int:
            s = path.hdlc_stats
            return s.fcs_errors + s.aborts + s.runts + s.oversize + s.framing_errors

        def account(got: Sequence[bytes]) -> int:
            nonlocal cursor, delivered
            octets = 0
            for content in got:
                while cursor < len(sent) and sent[cursor] != content:
                    cursor += 1
                gate(cursor < len(sent), "a frame delivered good differs from every frame sent")
                cursor += 1
                delivered += 1
                octets += len(content)
            return octets

        def book(queued: int) -> None:
            """Per-line-frame ground truth and counter deltas."""
            counters = path.sonet_counters
            flips = line.stats.bits_flipped
            errors = hdlc_errors()
            parity = counters.b1_errors + counters.b3_errors
            backlog = path.tx_backlog_frames
            gate(backlog <= self.BACKLOG_BOUND, f"TX backlog grew to {backlog} frames")
            ledger.append((
                flips - state["flips"],
                errors - state["errors"],
                counters.frames_ok - state["sonet_ok"],
                state["backlog"] + queued - backlog,
                parity - state["parity"],
            ))
            state.update(flips=flips, errors=errors, sonet_ok=counters.frames_ok,
                         backlog=backlog, parity=parity)

        for due in self.due:
            sent.extend(due)
            t0 = rec.start()
            for content in due:
                path.queue_frame(content)
            got = path.receive_line(line.transmit(path.next_line_frame()))
            rec.stop(t0)
            octets += account(got)
            book(len(due))
        # Drain what is still queued or in flight (not timed).
        tail = 2
        while tail:
            if not path.tx_backlog_frames:
                tail -= 1
            account(path.receive_line(line.transmit(path.next_line_frame())))
            book(0)

        stats = path.hdlc_stats
        counters = path.sonet_counters
        lost = len(sent) - delivered
        gate(stats.frames_ok == delivered, "HDLC frames_ok disagrees with the frames delivered")
        self._reconcile(ledger, lost)
        return PassResult(
            frames_sent=len(sent),
            frames_delivered=delivered,
            octets=octets,
            signature={
                "sent": len(sent),
                "delivered": delivered,
                "bits_flipped": line.stats.bits_flipped,
                "hdlc": [stats.frames_ok, stats.fcs_errors, stats.aborts, stats.runts,
                         stats.oversize, stats.framing_errors, stats.octets_discarded_hunting],
                "sonet": [counters.frames_ok, counters.b1_errors, counters.b2_errors,
                          counters.b3_errors, counters.oof_events, counters.lof_events],
            },
        )

    @staticmethod
    def _reconcile(ledger: List[Tuple[int, int, int, int, int]], lost: int) -> None:
        """Loss and error counters against the line's flipped bits.

        A frame closes at most one line frame after the one that
        carried its first octet, so every HDLC error or parity error
        must follow flipped bits in the same or the previous line
        frame; a line frame SONET discarded must itself carry flips.
        Every lost frame must be explained: one error event covers at
        most three frames (flags destroyed on both sides), and a
        discarded line frame loses at most the frames it carried plus
        the two it cut.
        """
        explained = 0
        events = flips_total = discards = 0
        previous = 0
        for k, (flips, errors, sonet_ok, popped, parity) in enumerate(ledger):
            near = flips + previous
            gate(errors == 0 or near > 0, f"line frame {k}: {errors} HDLC errors without flipped bits")
            gate(parity == 0 or near > 0, f"line frame {k}: B1/B3 errors without flipped bits")
            if sonet_ok == 0:
                gate(flips > 0, f"line frame {k}: discarded by SONET without flipped bits")
                discards += 1
                explained += popped + 2
            events += errors
            flips_total += flips
            previous = flips
        explained += 3 * events
        gate(lost <= explained, f"{lost} frames lost but only {explained} explained by counters")
        gate(events <= 4 * flips_total + 2 * discards,
             f"{events} HDLC error events from {flips_total} flipped bits")


# --------------------------------------------------------------------- W3
class CycleImixLoaded(Workload):
    """One ``P5System`` loopback on the cycle engine, 32-bit at
    78.125 MHz, frames submitted open loop in simulated time."""

    name = "cycle-imix-loaded"
    tail_pct = 96.0
    FRAMES = 600
    LOAD = 0.8
    SLICE = 256
    BACKLOG_BOUND = 32
    DRAIN_LIMIT = 100_000
    LATENCY_TAIL_PCT = 98.0

    def __init__(self, seed: int) -> None:
        self.frames = imix_frames(self.FRAMES, derive(seed, 4), dense_every=8)
        # The 32-bit wire carries 4 octets a cycle; frame i is due when
        # the wire octets offered before it fill LOAD of that.
        self.due: List[int] = []
        offered = 0
        for content in self.frames:
            self.due.append(int(offered / (4 * self.LOAD)))
            offered += len(wire_frame(content))
        self.octets = [len(c) for c in self.frames]

    def build(self) -> Any:
        from repro.core.config import P5Config
        from repro.core.p5 import P5System, PhyWire
        from repro.rtl.simulator import Simulator

        system = P5System(P5Config(width_bits=32), name="p5")
        wire = PhyWire("p5.wire", system.tx.phy_out, system.rx.phy_in)
        sim = Simulator(system.tx.modules + [wire] + system.rx.modules, system.channels)
        return system, wire, sim

    def run_pass(self, rec: Recorder) -> PassResult:
        system, wire, sim = self.build()
        sink = system.rx.sink
        arrived: List[int] = []

        class Landing(list):
            """Receive memory that notes the cycle each frame lands."""

            def append(self, item: Any) -> None:
                arrived.append(sink.cycles)
                super().append(item)

        sink.frames = Landing()
        frames, due, n = self.frames, self.due, len(self.frames)
        submitted = checked = 0
        while True:
            t0 = rec.start()
            end = sim.cycle + self.SLICE
            while sim.cycle < end:
                while submitted < n and due[submitted] <= sim.cycle:
                    system.submit(frames[submitted])
                    submitted += 1
                nxt = due[submitted] if submitted < n else end
                sim.step(min(end, max(nxt, sim.cycle + 1)) - sim.cycle)
            rec.stop(t0)
            backlog = len(system.tx.source.queue)
            gate(backlog <= self.BACKLOG_BOUND, f"TX backlog grew to {backlog} frames")
            received = system.received()
            for content, good in received[checked:]:
                gate(checked < n and good and content == frames[checked],
                     f"frame {checked} not delivered intact and FCS-good")
                checked += 1
            if checked == n and system.idle():
                break
            gate(sim.cycle <= due[-1] + self.DRAIN_LIMIT,
                 f"frames still in flight {self.DRAIN_LIMIT} cycles after the last was due")
        latency = [a - d for a, d in zip(arrived, due)]
        clock_hz = system.config.clock_hz
        return PassResult(
            frames_sent=n,
            frames_delivered=n,
            octets=sum(self.octets),
            signature={
                "cycles": sim.cycle,
                "latency": latency,
                "stalls": [m.stalled_cycles for m in sim.modules],
                "peaks": [ch.max_occupancy for ch in system.channels],
                "wire_words": wire.words_moved,
            },
            extra={
                "sim_cycles": sim.cycle,
                "sim_Gbps": sum(self.octets) * 8 / (arrived[-1] / clock_hz) / 1e9,
                "sim_latency_cycles_p50": float(np.percentile(latency, 50, method="higher")),
                "sim_latency_cycles_tail": float(
                    np.percentile(latency, self.LATENCY_TAIL_PCT, method="higher")
                ),
            },
        )


# --------------------------------------------------------------------- W4
class ResilienceSoak(Workload):
    """``LinkSupervisor.run_soak()`` at its default size; a pass is
    ``SOAKS`` soaks, each with its own seed drawn from the workload
    seed, so one pass averages several chaos schedules."""

    name = "resilience-soak"
    SOAKS = 2

    def __init__(self, seed: int) -> None:
        from repro.resilience.chaos import chaos_schedule
        from repro.resilience.supervisor import SupervisorConfig

        self.soaks = []
        for k in range(self.SOAKS):
            cfg = SupervisorConfig(seed=derive(seed, 100 + k))
            chaos = chaos_schedule(
                intervals=cfg.intervals, events=cfg.chaos_events, seed=cfg.seed,
                hold_off=cfg.hold_off, wait_to_restore=cfg.wait_to_restore,
            )
            self.soaks.append((cfg, chaos))

    def build(self, soak: int = 0) -> Any:
        from repro.resilience.supervisor import LinkSupervisor

        cfg, chaos = self.soaks[soak]
        return LinkSupervisor(cfg, chaos=list(chaos))

    def run_pass(self, rec: Recorder) -> PassResult:
        total = PassResult(frames_sent=0, frames_delivered=0, octets=0,
                           extra={"soak_violations": []})
        for k in range(self.SOAKS):
            sent, delivered, octets, signature, violations = self._soak(rec, k)
            total.frames_sent += sent
            total.frames_delivered += delivered
            total.octets += octets
            for key, value in signature.items():
                total.signature[key] = total.signature.get(key, 0) + value
            total.extra["soak_violations"] += violations
        return total

    def _soak(self, rec: Recorder, k: int) -> Tuple[int, int, int, Dict[str, int], List[str]]:
        sup = self.build(k)
        # An independent ledger of the frames the selected lane
        # delivers, checked against the supervisor's own accounting.
        pending: Dict[int, bytes] = {}
        done: set = set()
        deliveries: Dict[str, Any] = {}
        octets = 0

        for name, lane in sup.lanes.items():
            def transmit(interval: int, payloads: Any, _name: str = name,
                         _inner: Any = lane.transmit_interval) -> Any:
                pending.update(payloads)
                delivery = _inner(interval, payloads)
                deliveries[_name] = delivery
                return delivery

            lane.transmit_interval = transmit

        inner_interval = sup.run_interval

        def run_interval(interval: int) -> None:
            nonlocal octets
            deliveries.clear()
            active = sup.aps.active
            t0 = rec.start()
            inner_interval(interval)
            rec.stop(t0)
            delivery = deliveries[active]
            gate(not delivery.unparsable, f"interval {interval}: good frame with a corrupt header")
            for seq, payload in delivery.data:
                if seq in done:
                    continue
                gate(pending.get(seq) == payload,
                     f"interval {interval}: frame {seq} delivered good but differs from what was sent")
                del pending[seq]
                done.add(seq)
                # Frame content: type octet + 32-bit sequence + payload.
                octets += 5 + len(payload)

        sup.run_interval = run_interval
        result = sup.run_soak()
        # The correctness gate is corruption, checked above and here.
        # The soak's other invariants judge its chaos schedule (did it
        # force a reversion, a quarantine that carried traffic, ...);
        # they are reported, not gated: some seeds miss one.
        gate(result.undetected_corruptions == 0, "undetected corruption in the soak")
        gate(len(done) == result.frames_delivered and len(pending) == result.frames_lost,
             "benchmark ledger disagrees with the supervisor's delivery accounting")
        signature = {
            "submitted": result.frames_submitted,
            "delivered": result.frames_delivered,
            "switchovers": len(result.switchovers),
            "quarantines": sum(len(lane.guard.quarantines) for lane in sup.lanes.values()),
            "switch_loss_frames": sum(s["loss"] for s in result.switch_losses),
            "renegotiations": sum(lane.renegotiations for lane in sup.lanes.values()),
        }
        violations = [v.kind for v in result.violations]
        return result.frames_submitted, result.frames_delivered, octets, signature, violations


WORKLOADS = {w.name: w for w in (FastpathImix, PosErrored, CycleImixLoaded, ResilienceSoak)}
