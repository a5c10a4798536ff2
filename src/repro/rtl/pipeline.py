"""Stream beats, sources and sinks for word-oriented datapaths.

A :class:`WordBeat` is what travels down the P5 datapath each clock:
up to ``width//8`` byte lanes, each with a valid bit, plus
start-of-frame / end-of-frame marks.  Partially-valid beats occur at
frame tails and — centrally to the paper — *inside* the Escape Detect
unit, where deleting escape octets opens "bubbles" in the word
(paper Figure 6).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.rtl.module import Channel, ChannelTiming, Module, TimingContract
from repro.utils.rng import SeedLike, make_rng

__all__ = [
    "WordBeat",
    "beats_from_bytes",
    "bytes_from_beats",
    "StallPattern",
    "StreamSource",
    "StreamSink",
]


class WordBeat:
    """One datapath word in flight.

    Attributes
    ----------
    lanes:
        Byte values, lane 0 first on the wire.  Invalid lanes carry 0.
    valid:
        Per-lane valid bits; ``valid[i]`` qualifies ``lanes[i]``.
    sof / eof:
        Frame delimiting marks (the in-band equivalent of the flag
        octets once the framing layer has been processed).

    A beat is a value: it carries its valid octets with it (the
    payload and its length are computed once, when the beat is built,
    because every pipeline stage reads them), and no stage assigns to
    a beat after construction — a stage that changes a mark builds a
    new beat.
    """

    #: Every stage of the cycle engine builds or reads beats each
    #: clock; slots keep construction and attribute loads cheap.
    __slots__ = ("lanes", "valid", "sof", "eof", "_payload", "n_valid")

    def __init__(
        self,
        lanes: Tuple[int, ...],
        valid: Tuple[bool, ...],
        sof: bool = False,
        eof: bool = False,
    ) -> None:
        if len(lanes) != len(valid):
            raise ValueError("lanes and valid must have equal length")
        try:
            payload = bytes(compress(lanes, valid))
        except ValueError:
            bad = next(b for b, ok in zip(lanes, valid) if ok and not 0 <= b <= 0xFF)
            raise ValueError(f"lane value out of range: {bad}") from None
        self.lanes = lanes
        self.valid = valid
        self.sof = sof
        self.eof = eof
        self._payload = payload
        #: Number of valid lanes (the octets this beat carries).
        self.n_valid = len(payload)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.lanes == other.lanes
            and self.valid == other.valid
            and self.sof == other.sof
            and self.eof == other.eof
        )

    def __hash__(self) -> int:
        return hash((self.lanes, self.valid, self.sof, self.eof))

    def __repr__(self) -> str:
        return (
            f"WordBeat(lanes={self.lanes!r}, valid={self.valid!r}, "
            f"sof={self.sof!r}, eof={self.eof!r})"
        )

    @property
    def width_bytes(self) -> int:
        return len(self.lanes)

    def payload(self) -> bytes:
        """The valid octets of this beat, in lane order."""
        return self._payload

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        width_bytes: int,
        *,
        sof: bool = False,
        eof: bool = False,
    ) -> "WordBeat":
        """Left-aligned beat from 1..width_bytes octets."""
        n = len(data)
        if not 0 < n <= width_bytes:
            raise ValueError(f"beat must carry 1..{width_bytes} octets, got {n}")
        valid, padding = _left_aligned(width_bytes, n)
        return cls(tuple(data) + padding, valid, sof, eof)

    def render(self) -> str:
        """Human-readable lane dump for timing diagrams, e.g. ``7E 12 -- 45``."""
        cells = [
            f"{b:02X}" if ok else "--" for b, ok in zip(self.lanes, self.valid)
        ]
        marks = ("S" if self.sof else "") + ("E" if self.eof else "")
        return " ".join(cells) + (f" [{marks}]" if marks else "")


@lru_cache(maxsize=None)
def _left_aligned(width_bytes: int, n: int) -> Tuple[Tuple[bool, ...], Tuple[int, ...]]:
    """The shared ``valid`` mask and zero padding of an ``n``-octet,
    left-aligned beat of ``width_bytes`` lanes."""
    return (True,) * n + (False,) * (width_bytes - n), (0,) * (width_bytes - n)


def beats_from_bytes(data: bytes, width_bytes: int, *, frame_marks: bool = True) -> List[WordBeat]:
    """Chop a frame's octets into full-width beats (ragged tail allowed)."""
    beats: List[WordBeat] = []
    total = len(data)
    if total == 0:
        return beats
    for off in range(0, total, width_bytes):
        chunk = data[off : off + width_bytes]
        beats.append(
            WordBeat.from_bytes(
                chunk,
                width_bytes,
                sof=frame_marks and off == 0,
                eof=frame_marks and off + width_bytes >= total,
            )
        )
    return beats


def bytes_from_beats(beats: Iterable[WordBeat]) -> bytes:
    """Concatenate the valid octets of a beat sequence."""
    out = bytearray()
    for beat in beats:
        out += beat.payload()
    return bytes(out)


class StallPattern:
    """A deterministic or random schedule of stall cycles.

    Used to model a slow producer (PHY underrun) or a slow consumer
    (memory-bus contention): ``active(cycle)`` is True on cycles the
    party refuses to move data.
    """

    def __init__(
        self,
        *,
        every: Optional[int] = None,
        probability: float = 0.0,
        seed: SeedLike = None,
        burst: int = 1,
    ) -> None:
        if every is not None and every < 1:
            raise ValueError("'every' must be >= 1")
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.every = every
        self.probability = probability
        self.burst = burst
        self._rng = make_rng(seed)
        self._burst_left = 0

    @classmethod
    def never(cls) -> "StallPattern":
        """No stalls: full line-rate."""
        return cls()

    @property
    def is_never(self) -> bool:
        """True when :meth:`active` can never stall (and draws no RNG).

        Modules consult this before promising quiescence to the
        simulator: a probabilistic pattern consumes random numbers on
        every ``active()`` call, so skipping the call would change the
        stall schedule.
        """
        return self.every is None and self.probability == 0.0 and self._burst_left == 0

    def active(self, cycle: int) -> bool:
        """Whether to stall on this cycle."""
        if self._burst_left > 0:
            self._burst_left -= 1
            return True
        stall = False
        if self.every is not None and cycle % self.every == self.every - 1:
            stall = True
        if self.probability > 0.0 and self._rng.random() < self.probability:
            stall = True
        if stall and self.burst > 1:
            self._burst_left = self.burst - 1
        return stall


class StreamSource(Module):
    """Feeds a list of beats into a channel, honouring backpressure."""

    def __init__(
        self,
        name: str,
        out: Channel,
        beats: Sequence[WordBeat],
        *,
        stall: Optional[StallPattern] = None,
    ) -> None:
        super().__init__(name)
        self.out = self.writes(out)
        self._beats: Iterator[WordBeat] = iter(list(beats))
        self._pending: Optional[WordBeat] = None
        self.stall = stall or StallPattern.never()
        self.sent = 0
        self.done = False

    def extend(self, beats: Sequence[WordBeat]) -> None:
        """Append more traffic (chains iterators; cheap)."""
        self._beats = chain(self._beats, list(beats))
        self.done = False

    @property
    def quiescent(self) -> bool:
        # Only once the iterator has been *observed* exhausted (done
        # set by clock) and the stall pattern draws no RNG.
        return self.done and self._pending is None and self.stall.is_never

    def clock(self) -> None:
        if self.stall.active(self.cycles):
            return
        if self._pending is None:
            self._pending = next(self._beats, None)
            if self._pending is None:
                self.done = True
                return
        if self.out.can_push:
            self.out.push(self._pending)
            self.sent += 1
            self._pending = None
        else:
            self.note_stall()

    def timing_contract(self) -> TimingContract:
        return TimingContract(
            latency_cycles=1,
            outputs=(ChannelTiming(self.out),),
        )


class StreamSink(Module):
    """Drains a channel into a list, optionally stalling (slow consumer)."""

    def __init__(
        self,
        name: str,
        inp: Channel,
        *,
        stall: Optional[StallPattern] = None,
    ) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.stall = stall or StallPattern.never()
        self.beats: List[WordBeat] = []
        self.first_arrival_cycle: Optional[int] = None

    @property
    def quiescent(self) -> bool:
        return self.stall.is_never and not self.inp.can_pop

    def clock(self) -> None:
        if self.stall.active(self.cycles):
            return
        if self.inp.can_pop:
            beat = self.inp.pop()
            if self.first_arrival_cycle is None:
                self.first_arrival_cycle = self.cycles
            self.beats.append(beat)

    def data(self) -> bytes:
        """All valid octets received so far."""
        return bytes_from_beats(self.beats)

    def timing_contract(self) -> TimingContract:
        return TimingContract(latency_cycles=1)
