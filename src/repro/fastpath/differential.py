"""Differential equivalence harness: fastpath vs. cycle-accurate P5.

The fast engine is only trustworthy while it is *provably the same
machine* as the golden cycle model.  This module is the one place the
cycle engine runs against the fastpath, and it compares every
observable the two share:

* **line stream** — the TX wire bytes must be identical octet for
  octet (captured from the cycle model's PHY hop);
* **frames** — contents and FCS verdicts landed in receive memory;
* **counters** — the OAM-visible statistics both sides keep: frames
  wrapped and escapes inserted on TX, and on RX the :data:`RX_COUNTERS`
  table (frames ok, FCS errors, runts, aborts, oversize cuts, hunt
  discards, escapes deleted and empty inter-frame bodies), which maps
  each OAM register name to its :class:`FastpathRxResult` field and
  its :class:`~repro.core.rx.P5Receiver` counter.

The cycle side reports in the fastpath's own
:class:`~repro.fastpath.engine.FastpathRxResult`, so one record type
carries both engines' answers.  :meth:`DifferentialHarness.cycle_loopback`
clocks a batch through one P5 loopback
(:func:`~repro.core.p5.build_loopback`); :class:`CycleReceiver` is a
persistent cycle receiver fed raw wire bytes piece by piece.

:meth:`DifferentialHarness.run` covers the clean loopback (host
contents in, frames out).  :meth:`DifferentialHarness.run_rx` feeds an
*arbitrary* wire stream — crafted aborts, runts, oversize bodies —
into both receivers.  Oversize cuts are mirrored exactly (the cycle
delineator's force-closed cut prefix is deterministic in the octet
domain, so the engine reproduces it).  One modelled divergence remains
and is excluded: whether an *aborted* frame's already-shipped prefix
is force-closed as a bad-FCS frame or silently dropped depends on the
cycle receiver's word alignment, which a frame-level engine cannot
see.  Good frames and the error counters still agree, and that is
what ``run_rx`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import P5Config
from repro.core.p5 import P5System, build_loopback
from repro.core.rx import P5Receiver
from repro.fastpath.engine import FastpathEngine, FastpathRxResult
from repro.rtl.pipeline import StreamSource, beats_from_bytes
from repro.rtl.simulator import Simulator

__all__ = [
    "DifferentialHarness",
    "DifferentialReport",
    "CycleReceiver",
    "RX_COUNTERS",
]

#: The RX counter set both engines keep, keyed by OAM register name
#: (:mod:`repro.core.oam`; ``EMPTY_BODIES`` has no register): the
#: :class:`FastpathRxResult` field and the :class:`P5Receiver` counter
#: behind it.
RX_COUNTERS: Dict[str, Tuple[str, Callable[[P5Receiver], int]]] = {
    "RX_FRAMES_OK": ("frames_ok", attrgetter("crc.frames_ok")),
    "RX_FCS_ERRORS": ("fcs_errors", attrgetter("crc.fcs_errors")),
    "RX_RUNTS": ("runt_frames", attrgetter("crc.runt_frames")),
    "RX_ABORTS": ("aborts", attrgetter("delineator.aborts")),
    "RX_OVERSIZE": ("oversize_drops", attrgetter("delineator.oversize_drops")),
    "RX_HUNT_DISCARDS": (
        "octets_discarded_hunting",
        attrgetter("delineator.octets_discarded_hunting"),
    ),
    "ESC_DELETED": ("octets_deleted", attrgetter("escape.octets_deleted")),
    "EMPTY_BODIES": ("empty_bodies", attrgetter("delineator.empty_bodies")),
}

#: The counters an aborted frame moves the same way on both engines
#: (see the module docstring) — the ones ``run_rx`` compares.
_ABORT_INVARIANT = (
    "RX_FRAMES_OK", "RX_ABORTS", "RX_OVERSIZE", "RX_HUNT_DISCARDS", "EMPTY_BODIES",
)


def _rx_counts(rx: P5Receiver) -> Dict[str, int]:
    """A cycle receiver's counters, by :class:`FastpathRxResult` field."""
    return {name: read(rx) for name, read in RX_COUNTERS.values()}


class CycleReceiver:
    """A persistent cycle-accurate receiver fed raw wire bytes.

    Each :meth:`feed` appends its bytes to the wire source through
    :meth:`~repro.rtl.pipeline.StreamSource.extend`, clocks until they
    are consumed and the pipeline drains, and reports the frames and
    counters that piece produced.  Fed once it is ``run_rx``'s
    receiver; fed interval by interval it is a quarantined lane's.
    """

    def __init__(self, config: P5Config, name: str, *, timeout: int) -> None:
        self.rx = P5Receiver(config, name=name)
        self.source = StreamSource(f"{name}.wire", self.rx.phy_in, [])
        self.sim = Simulator([self.source] + self.rx.modules, self.rx.channels)
        self.timeout = timeout
        self._width_bytes = config.width_bytes
        self._frame_cursor = 0
        self._counts = _rx_counts(self.rx)

    def feed(self, data: bytes) -> FastpathRxResult:
        if data:
            self.source.extend(
                beats_from_bytes(data, self._width_bytes, frame_marks=False)
            )
            self.sim.run_until(lambda: self.source.done, timeout=self.timeout)
            self.sim.drain(idle_cycles=16, timeout=self.timeout)
        before, after = self._counts, _rx_counts(self.rx)
        self._counts = after
        frames = self.rx.frames[self._frame_cursor:]
        self._frame_cursor = len(self.rx.frames)
        return FastpathRxResult(
            frames=frames,
            **{name: after[name] - before[name] for name in after},
        )


@dataclass
class DifferentialReport:
    """Outcome of one differential run."""

    frames: int
    line_octets: int
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def assert_ok(self) -> None:
        if self.mismatches:
            raise AssertionError(
                "fastpath/cycle divergence: " + "; ".join(self.mismatches)
            )

    def compare(self, name: str, cycle_value: int, fast_value: int) -> None:
        if cycle_value != fast_value:
            self.mismatches.append(
                f"counter {name}: cycle {cycle_value} vs fastpath {fast_value}"
            )

    def compare_rx(
        self,
        cycle: FastpathRxResult,
        fast: FastpathRxResult,
        registers: Sequence[str] = tuple(RX_COUNTERS),
    ) -> None:
        for register in registers:
            name = RX_COUNTERS[register][0]
            self.compare(register, getattr(cycle, name), getattr(fast, name))


class DifferentialHarness:
    """Runs identical workloads through both engines and compares."""

    def __init__(
        self,
        config: Optional[P5Config] = None,
        *,
        timeout: int = 5_000_000,
    ) -> None:
        self.config = config or P5Config()
        self.timeout = timeout
        self.engine = FastpathEngine(self.config)

    def cycle_loopback(self, contents: Sequence[bytes]) -> Tuple[P5System, bytes]:
        """Clock a batch through one P5 loopback until delivered;
        returns the system and the line its transmitter put on the
        wire."""
        captured = bytearray()

        def tap(beat):
            captured.extend(beat.payload())
            return beat

        system, sim = build_loopback(self.config, name="diff", corrupt=tap)
        for content in contents:
            system.submit(content)
        sim.run_until(
            lambda: len(system.received()) >= len(contents) and system.idle(),
            timeout=self.timeout,
        )
        sim.drain(timeout=self.timeout)
        return system, bytes(captured)

    def run(self, contents: Sequence[bytes]) -> DifferentialReport:
        """Full clean-loopback differential: TX + RX, all observables."""
        tx_fast, rx_fast = self.engine.loopback(contents)
        system, line_cycle = self.cycle_loopback(contents)

        report = DifferentialReport(
            frames=len(contents), line_octets=len(tx_fast.line)
        )
        note = report.mismatches.append
        if line_cycle != tx_fast.line:
            note(
                f"line streams differ: cycle {len(line_cycle)} octets vs "
                f"fastpath {len(tx_fast.line)}"
                + (
                    ""
                    if len(line_cycle) != len(tx_fast.line)
                    else " (same length, different bytes)"
                )
            )
        if system.rx.frames != rx_fast.frames:
            note(
                f"received frames differ: cycle {len(system.rx.frames)} vs "
                f"fastpath {len(rx_fast.frames)}"
            )
        report.compare("TX_FRAMES", system.tx.flags.frames_wrapped, tx_fast.frames)
        report.compare(
            "ESC_INSERTED", system.tx.escape.octets_escaped, tx_fast.octets_escaped
        )
        report.compare_rx(FastpathRxResult(**_rx_counts(system.rx)), rx_fast)
        return report

    def run_rx(self, line: bytes) -> DifferentialReport:
        """RX-only differential over an arbitrary (possibly damaged) line.

        Compares good-frame contents and the delineation error
        counters; bad-FCS frame *lists* are excluded because the cycle
        receiver may force-close an aborted frame's already-shipped
        prefix that the frame-level engine drops whole (see the module
        docstring).
        """
        rx_cycle = CycleReceiver(self.config, "diffrx", timeout=self.timeout).feed(line)
        rx_fast = self.engine.decode_stream(line)

        report = DifferentialReport(frames=len(rx_fast.frames), line_octets=len(line))
        if rx_cycle.good_frames() != rx_fast.good_frames():
            report.mismatches.append(
                f"good frames differ: cycle {len(rx_cycle.good_frames())} vs "
                f"fastpath {len(rx_fast.good_frames())}"
            )
        report.compare_rx(rx_cycle, rx_fast, _ABORT_INVARIANT)
        return report
