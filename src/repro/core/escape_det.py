"""Behavioural Escape Detect — word-level golden model.

"The receiver block carries out the reverse of this Escape operation
... If an escape character is present then it must be deleted and the
next data byte XOR'd.  This means that instead of the system holding 4
bytes to process at this moment, there are suddenly only 3 bytes and
there is effectively a bubble appearing on the channel."

The awkward cross-word case is an escape octet in the *last* lane of a
word: the byte it modifies arrives in the next word, so the detector
carries one bit of state (``pending_xor``) between beats — state the
hardware holds in its stage-1 register.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.sorter import ByteSorter
from repro.errors import FramingError
from repro.hdlc.constants import ESCAPE_XOR, ESC_OCTET, FLAG_OCTET
from repro.rtl.pipeline import WordBeat, beats_from_bytes

__all__ = ["EscapeDetector", "contract_word"]


def contract_word(
    beat: WordBeat,
    pending_xor: bool,
    esc_octet: int = ESC_OCTET,
    flag_octet: int = FLAG_OCTET,
) -> Tuple[bytes, bool, int]:
    """Destuff one word's valid lanes.

    Returns ``(bytes, new_pending_xor, escapes_deleted)``.
    ``pending_xor`` is True when the previous word ended in an escape
    octet whose target byte is the first valid lane of this word.
    """
    out = bytearray()
    deleted = 0
    for byte in beat.payload():
        if pending_xor:
            out.append(byte ^ ESCAPE_XOR)
            pending_xor = False
        elif byte == esc_octet:
            pending_xor = True          # delete: the bubble appears here
            deleted += 1
        elif byte == flag_octet:
            raise FramingError("flag octet reached Escape Detect (delineation bug)")
        else:
            out.append(byte)
    return bytes(out), pending_xor, deleted


class EscapeDetector:
    """Stateful word-level escape removal over whole frames."""

    def __init__(
        self,
        width_bytes: int,
        *,
        esc_octet: int = ESC_OCTET,
        flag_octet: int = FLAG_OCTET,
    ) -> None:
        self.width_bytes = width_bytes
        self.esc_octet = esc_octet
        self.flag_octet = flag_octet
        self.sorter = ByteSorter(width_bytes)
        self._pending_xor = False
        self._frame_open = False
        self.escapes_deleted = 0

    def feed(self, beat: WordBeat) -> List[WordBeat]:
        """Destuff one input word; return output words now complete."""
        contracted, self._pending_xor, deleted = contract_word(
            beat, self._pending_xor, self.esc_octet, self.flag_octet
        )
        self.escapes_deleted += deleted
        frame_start = not self._frame_open
        self._frame_open = True
        out = [
            WordBeat.from_bytes(word, self.width_bytes)
            for word in self.sorter.push(contracted)
        ]
        if beat.eof:
            if self._pending_xor:
                self._pending_xor = False
                self._frame_open = False
                self.sorter.reset()
                raise FramingError("frame ends in a dangling escape octet")
            self._frame_open = False
            tail = self.sorter.flush()
            if tail is not None:
                out.append(WordBeat.from_bytes(tail, self.width_bytes, eof=True))
            elif out:
                last = out[-1]
                out[-1] = WordBeat(last.lanes, last.valid, sof=last.sof, eof=True)
        if frame_start and out:
            first = out[0]
            out[0] = WordBeat(first.lanes, first.valid, sof=True, eof=first.eof)
        return out

    def process_frame(self, data: bytes) -> List[WordBeat]:
        """Destuff a whole (already delineated) frame body."""
        out: List[WordBeat] = []
        for beat in beats_from_bytes(data, self.width_bytes):
            out.extend(self.feed(beat))
        return out
