"""Streaming frame delineation — the receiver's hunt/sync machine.

The whole-frame :class:`~repro.hdlc.framer.HdlcFramer` assumes it is
handed complete frames; real receivers see an unaligned octet stream
(possibly mid-frame at power-up, possibly corrupted).  The
:class:`Delineator` consumes that stream in buffers of any size — it
scans each for flags and carries the open frame between buffers, so
the result does not depend on how the stream is chunked — and emits
decoded frames while accounting every discard reason in
:class:`DelineatorStats` — the counters the Protocol OAM block exposes
to the host microprocessor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.errors import (
    AbortError,
    FcsError,
    FramingError,
    OversizeFrameError,
    RuntFrameError,
)
from repro.hdlc.constants import FLAG_OCTET
from repro.hdlc.framer import DecodedFrame, HdlcFramer

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

    Feed octets with :meth:`push` / :meth:`push_bytes`; completed,
    FCS-verified frames are returned (and also appended to
    :attr:`frames`).  The machine starts in *hunt* state and discards
    octets until the first flag, as hardware must after power-up or
    loss of synchronisation.

    The open frame is bounded: once it holds more than
    ``2 * (framer.max_content + framer.fcs_octets)`` octets — longer
    than any conforming frame, even fully escaped — it is counted
    ``oversize``, dropped, and the machine re-hunts.

    Parameters
    ----------
    framer:
        The frame codec to use (FCS width, ACCM, MRU guard).
    """

    framer: HdlcFramer = field(default_factory=HdlcFramer)
    stats: DelineatorStats = field(default_factory=DelineatorStats)

    def __post_init__(self) -> None:
        self._synced = False
        self._body = bytearray()
        self.frames: List[DecodedFrame] = []

    @property
    def in_sync(self) -> bool:
        """Whether at least one flag has been seen (frame-aligned)."""
        return self._synced

    def push(self, octet: int) -> Optional[DecodedFrame]:
        """Consume one octet; return a frame if this octet completed one."""
        completed = self.push_bytes(bytes((octet,)))
        return completed[0] if completed else None

    def _finish(self, body: bytes) -> Optional[DecodedFrame]:
        try:
            frame = self.framer.decode_body(body)
        except AbortError:
            self.stats.aborts += 1
        except FcsError:
            self.stats.fcs_errors += 1
        except RuntFrameError:
            self.stats.runts += 1
        except OversizeFrameError:
            self.stats.oversize += 1
        except FramingError:
            self.stats.framing_errors += 1
        else:
            self.stats.frames_ok += 1
            self.frames.append(frame)
            return frame
        return None

    def push_bytes(self, data: Iterable[int]) -> List[DecodedFrame]:
        """Consume a buffer; return the frames completed within it."""
        data = bytes(data)
        stats = self.stats
        stats.octets_in += len(data)
        cap = 2 * (self.framer.max_content + self.framer.fcs_octets)
        completed: List[DecodedFrame] = []
        pos = 0
        while pos < len(data):
            flag = data.find(FLAG_OCTET, pos)
            end = flag if flag >= 0 else len(data)
            held = len(self._body) + end - pos
            if not self._synced or held > cap:
                if self._synced:
                    # Past the cap: drop the frame, hunt to the next flag.
                    stats.oversize += 1
                    stats.octets_discarded_hunting += held - cap - 1
                    self._body.clear()
                else:
                    stats.octets_discarded_hunting += end - pos
                self._synced = flag >= 0
            elif flag < 0:
                self._body += data[pos:]
            else:
                body = data[pos:flag]
                if self._body:
                    body = bytes(self._body + body)
                    self._body.clear()
                # An empty body is inter-frame idle, not a frame.
                frame = self._finish(body) if body else None
                if frame is not None:
                    completed.append(frame)
            if flag < 0:
                break
            pos = flag + 1
        return completed

    def flush(self) -> None:
        """Drop any partial frame (e.g. on link down) and resync."""
        if self._body:
            self.stats.framing_errors += 1
            self._body.clear()
        self._synced = False
