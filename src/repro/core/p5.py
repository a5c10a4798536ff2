"""The top-level P5 system and duplex link harness (paper Figure 2).

A :class:`P5System` bundles one transmitter, one receiver and the
Protocol OAM.  :class:`PhyWire` models the physical link between two
systems (:func:`build_duplex`) or a loopback on one
(:func:`build_loopback`); :func:`run_duplex_exchange` is the
standard harness the tests and throughput benchmarks use: two P5s,
cross-connected, exchanging real PPP frames cycle-accurately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import P5Config
from repro.core.oam import ProtocolOam
from repro.core.rx import P5Receiver
from repro.core.tx import P5Transmitter
from repro.rtl.module import Channel, ChannelTiming, Module, TimingContract
from repro.rtl.simulator import Simulator

__all__ = ["PhyWire", "P5System", "DuplexResult", "build_loopback", "run_duplex_exchange"]


class PhyWire(Module):
    """A registered physical hop moving one word per cycle.

    Models the PHY/fibre between transmitter and receiver: fixed
    one-cycle latency, no reordering, optional per-octet corruption
    hook (used by the error-injection tests via
    :mod:`repro.phy.line`).
    """

    def __init__(self, name: str, inp: Channel, out: Channel, *, corrupt=None) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.out = self.writes(out)
        self.corrupt = corrupt
        self.words_moved = 0

    @property
    def quiescent(self) -> bool:
        # Nothing on the wire this cycle; a full far end is *not*
        # quiescent only because clock() would do nothing either way,
        # but an empty input is the only state-free guarantee.
        return not self.inp.can_pop

    def clock(self) -> None:
        if self.inp.can_pop and self.out.can_push:
            beat = self.inp.pop()
            if self.corrupt is not None:
                beat = self.corrupt(beat)
            self.out.push(beat)
            self.words_moved += 1

    def timing_contract(self) -> TimingContract:
        return TimingContract(
            latency_cycles=1,
            outputs=(ChannelTiming(self.out),),
        )


class P5System:
    """One complete P5: TX + RX + OAM, sharing a configuration."""

    def __init__(self, config: Optional[P5Config] = None, *, name: str = "p5") -> None:
        self.config = config or P5Config()
        self.name = name
        self.tx = P5Transmitter(self.config, name=f"{name}.tx")
        self.rx = P5Receiver(self.config, name=f"{name}.rx")
        self.oam = ProtocolOam(self)

    @property
    def modules(self) -> List[Module]:
        return self.tx.modules + self.rx.modules

    @property
    def channels(self) -> List[Channel]:
        return self.tx.channels + self.rx.channels

    def submit(self, content: bytes) -> None:
        """Queue one frame's content for transmission."""
        self.tx.submit(content)

    def received(self) -> List[Tuple[bytes, bool]]:
        """Frames landed in receive memory, with FCS verdicts."""
        return self.rx.frames

    def idle(self) -> bool:
        """Nothing in flight anywhere in this system."""
        return (
            not self.tx.busy
            and not any(ch.can_pop for ch in self.channels)
            and self.rx.escape.idle
        )


@dataclass
class DuplexResult:
    """Outcome of :func:`run_duplex_exchange`."""

    cycles: int
    a_received: List[Tuple[bytes, bool]]
    b_received: List[Tuple[bytes, bool]]
    sim: Simulator
    a: P5System
    b: P5System

    def all_good(self) -> bool:
        return all(ok for _, ok in self.a_received) and all(
            ok for _, ok in self.b_received
        )


def build_duplex(
    config: Optional[P5Config] = None,
    *,
    corrupt_ab=None,
    corrupt_ba=None,
) -> Tuple[P5System, P5System, Simulator]:
    """Two P5 systems cross-connected by PhyWires, plus a simulator."""
    cfg = config or P5Config()
    a = P5System(cfg, name="A")
    b = P5System(cfg, name="B")
    wire_ab = PhyWire("phyAB", a.tx.phy_out, b.rx.phy_in, corrupt=corrupt_ab)
    wire_ba = PhyWire("phyBA", b.tx.phy_out, a.rx.phy_in, corrupt=corrupt_ba)
    modules = (
        a.tx.modules + [wire_ab] + b.rx.modules
        + b.tx.modules + [wire_ba] + a.rx.modules
    )
    channels = a.channels + b.channels
    sim = Simulator(modules, channels)
    sim.add_observer(lambda _cycle: (a.oam.service(), b.oam.service()))
    return a, b, sim


def build_loopback(
    config: Optional[P5Config] = None, *, name: str = "p5", corrupt=None
) -> Tuple[P5System, Simulator]:
    """One P5 looped to itself through a PhyWire, plus a simulator.

    Unlike :func:`build_duplex` no OAM observer is installed, so the
    simulator does no per-cycle work beyond the datapath; ``corrupt``
    passes to the :class:`PhyWire` (a tap that returns its beat
    unchanged captures the line).
    """
    system = P5System(config, name=name)
    wire = PhyWire(
        f"{name}.wire", system.tx.phy_out, system.rx.phy_in, corrupt=corrupt
    )
    sim = Simulator(
        system.tx.modules + [wire] + system.rx.modules, system.channels
    )
    return system, sim


def run_duplex_exchange(
    a_frames: Sequence[bytes],
    b_frames: Sequence[bytes],
    config: Optional[P5Config] = None,
    *,
    timeout: int = 1_000_000,
    corrupt_ab=None,
    corrupt_ba=None,
) -> DuplexResult:
    """Exchange frame lists between two P5s and run until delivered.

    ``corrupt_ab``/``corrupt_ba`` pass straight to the two
    :class:`PhyWire` hops (see :func:`build_duplex`), e.g. a
    :func:`repro.phy.line.make_beat_corruptor` hook — note a corrupted
    exchange may then never satisfy the delivery condition, so pick a
    finite ``timeout`` and catch :class:`~repro.errors.SimulationError`.
    """
    a, b, sim = build_duplex(config, corrupt_ab=corrupt_ab, corrupt_ba=corrupt_ba)
    for content in a_frames:
        a.submit(content)
    for content in b_frames:
        b.submit(content)

    def delivered() -> bool:
        return (
            len(b.received()) >= len(a_frames)
            and len(a.received()) >= len(b_frames)
            and a.idle()
            and b.idle()
        )

    cycles = sim.run_until(delivered, timeout=timeout)
    return DuplexResult(
        cycles=cycles,
        a_received=a.received(),
        b_received=b.received(),
        sim=sim,
        a=a,
        b=b,
    )
