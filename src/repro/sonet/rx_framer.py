"""SONET receive framer: alignment hunting, OOF/LOF, overhead checks.

The receiver sees an unaligned byte stream.  It hunts for the A1…A2
framing pattern, requires two consecutive aligned frames before
declaring sync (GR-253's m-consecutive rule; a miss while confirming
goes straight back to the hunt), monitors framing on every frame
thereafter (4 consecutive errored framings → out-of-frame, persistent
OOF → loss-of-frame), descrambles, verifies B1/B2/B3
parity, interprets the H1/H2 pointer, checks the C2 path label and
hands the payload octets to the layer above.  Frame geometry, the
keystream and the parity coverage all come from
:func:`repro.sonet.framer.frame_layout`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.sonet.constants import LOF_FRAMES, POINTER_MAX
from repro.sonet.framer import frame_layout, framing_pattern

__all__ = ["FramerState", "RxCounters", "SonetRxFramer"]


class FramerState(enum.Enum):
    """Alignment states (GR-253 simplified)."""

    HUNT = "hunt"          # no alignment known
    PRESYNC = "presync"    # candidate alignment, confirming
    SYNC = "sync"          # in frame


@dataclass
class RxCounters:
    """Receive-side SONET monitoring counters."""

    frames_ok: int = 0
    oof_events: int = 0
    lof_events: int = 0
    b1_errors: int = 0
    b2_errors: int = 0
    b3_errors: int = 0
    pointer_invalid: int = 0
    c2_mismatches: int = 0
    bytes_discarded_hunting: int = 0


class SonetRxFramer:
    """Streaming STS-Nc receiver.

    Feed arbitrary byte chunks with :meth:`feed`; extracted SPE payload
    bytes are returned (concatenated across the frames completed by
    the chunk).  Alignment and parity events accumulate in
    :attr:`counters`.

    Parameters
    ----------
    n:
        STS level; must match the transmitter.
    expected_c2:
        Path signal label to verify (None disables the check).
    oof_threshold:
        Consecutive bad framings, once in frame, that declare OOF.
        Loss of frame follows :data:`~repro.sonet.constants.LOF_FRAMES`
        frame-times of hunting after an OOF that never reach SYNC.
    """

    def __init__(
        self, n: int, *, expected_c2: Optional[int] = None, oof_threshold: int = 4
    ) -> None:
        self.n = n
        self.expected_c2 = expected_c2
        self.oof_threshold = oof_threshold
        self._layout = frame_layout(n, 0)   # offsets and keystream, which no pointer moves
        self._pattern = framing_pattern(n)
        self._buffer = bytearray()
        self.state = FramerState.HUNT
        self.counters = RxCounters()
        self._bad_framings = 0
        self._oof_hunt_bytes = 0      # bytes spent hunting since OOF
        self._presync_ok = 0
        self._parity: Optional[Tuple[int, int, int]] = None

    @property
    def frame_bytes(self) -> int:
        return self._layout.frame_bytes

    # ----------------------------------------------------------------- feed
    def feed(self, data: bytes) -> bytes:
        """Consume a chunk of line bytes; return recovered payload."""
        buffer = self._buffer
        buffer += data
        size = self.frame_bytes
        payload: List[bytes] = []
        at = 0
        while True:
            if self.state is FramerState.HUNT:
                at = self._hunt(at)
                if self.state is FramerState.HUNT:
                    break
            elif len(buffer) - at < size:
                break
            elif buffer.startswith(self._pattern, at):
                payload.append(self._frame(buffer[at : at + size]))
                at += size
            else:
                at = self._missed_framing(at)
        del buffer[:at]
        return b"".join(payload)

    def _hunt(self, at: int) -> int:
        """Search the buffer from ``at`` for the framing pattern; return
        where the search stopped (the pattern, or the held tail)."""
        idx = self._buffer.find(self._pattern, at)
        found = idx >= 0
        if not found:
            # Keep a pattern's worth of tail in case it straddles chunks.
            idx = max(at, len(self._buffer) - len(self._pattern) + 1)
        hunted = idx - at
        counters = self.counters
        counters.bytes_discarded_hunting += hunted
        if counters.oof_events:
            # Hunting LOF_FRAMES frame-times after an OOF is loss of frame:
            # count the hunt crossing that limit.
            limit = LOF_FRAMES * self.frame_bytes
            counters.lof_events += self._oof_hunt_bytes < limit <= self._oof_hunt_bytes + hunted
            self._oof_hunt_bytes += hunted
        if found:
            # A candidate alignment leaves the LOF timer running; only
            # the next OOF, which needs SYNC first, restarts it.  False
            # locks in junk cannot hide LOF.
            self.state = FramerState.PRESYNC
            self._presync_ok = 0
        return idx

    def _missed_framing(self, at: int) -> int:
        """A frame without A1/A2 at ``at``.  In frame, drop it, or after
        ``oof_threshold`` in a row declare OOF.  While confirming a
        candidate alignment, the candidate was false: no OOF (that is a
        defect of an in-frame signal).  Either way a lost alignment
        re-hunts from the next octet; return where the buffer
        continues."""
        if self.state is FramerState.SYNC:
            self._bad_framings += 1
            if self._bad_framings < self.oof_threshold:
                return at + self.frame_bytes
            self.counters.oof_events += 1
            self._oof_hunt_bytes = 0
        self.counters.bytes_discarded_hunting += 1   # never re-hunt at ``at``
        self.state = FramerState.HUNT
        self._bad_framings = 0
        self._parity = None
        return at + 1

    def _frame(self, raw: bytes) -> bytes:
        """One aligned frame: descramble, check overhead, return payload."""
        self._bad_framings = 0
        if self.state is FramerState.PRESYNC:
            self._presync_ok += 1
            if self._presync_ok >= 2:
                self.state = FramerState.SYNC
        line = np.frombuffer(raw, dtype=np.uint8)
        plain = line ^ self._layout.keystream
        frame = plain.tobytes()
        # Pointer interpretation, then the layout it selects.
        h1 = self._layout.offset(3, 0)
        pointer = ((frame[h1] & 0x03) << 8) | frame[h1 + self.n]
        counters = self.counters
        if pointer > POINTER_MAX:
            counters.pointer_invalid += 1
            pointer = 0
        layout = frame_layout(self.n, pointer)
        # Parity checks: B1/B2/B3 in this frame cover the previous one.
        if self._parity is not None:
            b1, b2, b3 = self._parity
            counters.b1_errors += frame[layout.offset(1, 0)] != b1
            counters.b2_errors += frame[layout.offset(5, 0)] != b2
            counters.b3_errors += frame[layout.offset(1, layout.poh)] != b3
        if self.expected_c2 is not None and frame[layout.offset(2, layout.poh)] != self.expected_c2:
            counters.c2_mismatches += 1
        self._parity = layout.parity(line, plain)
        counters.frames_ok += 1
        return b"".join(frame[start:stop] for start, stop in layout.spans)
