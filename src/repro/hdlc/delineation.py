"""Streaming frame delineation for the PPP layer.

Real receivers see an unaligned octet stream (possibly mid-frame at
power-up, possibly corrupted), not whole frames.  The
:class:`Delineator` consumes that stream in buffers of any size
through the package's one receiver,
:class:`~repro.hdlc.receiver.HdlcReceiver` (hunt, abort, oversize cut,
destuff, residue check, open-frame carry), so the result does not
depend on how the stream is chunked and the held state is one bounded
open frame.  What it adds is PPP-layer policy: the MRU check on good
frames, and the running :class:`DelineatorStats` — the counters the
Protocol OAM block exposes to the host microprocessor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from repro.hdlc.framer import HdlcFramer

__all__ = ["Delineator", "DelineatorStats"]


@dataclass
class DelineatorStats:
    """Receive-side event counters (mirrored into the OAM register map)."""

    frames_ok: int = 0
    fcs_errors: int = 0
    aborts: int = 0
    runts: int = 0
    oversize: int = 0
    framing_errors: int = 0
    octets_in: int = 0
    octets_discarded_hunting: int = 0

    def total_errors(self) -> int:
        """All discarded-frame events combined."""
        return (
            self.fcs_errors
            + self.aborts
            + self.runts
            + self.oversize
            + self.framing_errors
        )


@dataclass
class Delineator:
    """Octet-streaming HDLC frame delineator.

    Feed octets with :meth:`push_bytes`; the contents of completed,
    FCS-verified frames are returned.  The machine starts in *hunt*
    state and discards octets until the first flag, as hardware must
    after power-up or loss of synchronisation.

    The open frame is bounded: once it holds more than
    ``2 * (framer.max_content + framer.fcs_octets)`` octets — longer
    than any conforming frame, even fully escaped — it is cut
    (``oversize``, and the cut prefix closes as a frame) and the
    machine re-hunts.  A good frame whose content exceeds
    ``framer.max_content`` (the MRU guard) also counts ``oversize``.

    Parameters
    ----------
    framer:
        The frame codec to use (FCS width, MRU guard).
    """

    framer: HdlcFramer = field(default_factory=HdlcFramer)
    stats: DelineatorStats = field(default_factory=DelineatorStats)

    def __post_init__(self) -> None:
        self._carry = b""

    @property
    def in_sync(self) -> bool:
        """Whether a flag has been seen since the last resync."""
        return bool(self._carry)

    def push_bytes(self, data: Iterable[int]) -> List[bytes]:
        """Consume a buffer; return the good frame contents it completed."""
        data = bytes(data)
        framer = self.framer
        max_body = 2 * (framer.max_content + framer.fcs_octets)
        line = self._carry + data
        result = framer.receiver.decode(line, max_body)
        self._carry = framer.receiver.carry(line, result, max_body)
        good = [c for c in result.good_frames() if len(c) <= framer.max_content]
        stats = self.stats
        stats.octets_in += len(data)
        stats.frames_ok += len(good)
        stats.fcs_errors += result.fcs_errors
        stats.aborts += result.aborts
        stats.runts += result.runt_frames
        stats.oversize += result.oversize_drops + result.frames_ok - len(good)
        stats.octets_discarded_hunting += result.octets_discarded_hunting
        return good

    def flush(self) -> None:
        """Drop any partial frame (e.g. on link down) and resync."""
        if len(self._carry) > 1:
            self.stats.framing_errors += 1
        self._carry = b""
