"""Behavioural Escape Generate — word-level golden model.

"Before data is transmitted, the Escape Generate module checks for the
presence of a flag character in a frame location in which it is not
expected.  For each flag character detected, the module inserts an
escape character and XORs the flag character with the value 0x20."

This model consumes a frame as :class:`~repro.rtl.pipeline.WordBeat`
words and produces the stuffed word stream, using the
:class:`~repro.core.sorter.ByteSorter` for realignment.  It defines
*what* the pipelined unit must compute; the cycle-accurate *when*
lives in :mod:`repro.core.escape_pipeline`.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.core.sorter import ByteSorter
from repro.hdlc.constants import ESCAPE_XOR, ESC_OCTET, FLAG_OCTET
from repro.rtl.pipeline import WordBeat, beats_from_bytes

__all__ = ["EscapeGenerator", "expand_word"]

_DEFAULT_ESCAPES = frozenset({FLAG_OCTET, ESC_OCTET})


def expand_word(
    beat: WordBeat,
    escapes: FrozenSet[int] = _DEFAULT_ESCAPES,
    esc_octet: int = ESC_OCTET,
) -> bytes:
    """Stuff one word's valid lanes: W bytes become W..2W bytes.

    This is the pure per-word combinational function of the hardware's
    detect+expand stages — the paper's "suddenly 5 bytes to transfer
    on a 32-bit channel" situation is exactly a 4-valid beat expanding
    to 5+ bytes here.
    """
    out = bytearray()
    for byte in beat.payload():
        if byte in escapes:
            out.append(esc_octet)
            out.append(byte ^ ESCAPE_XOR)
        else:
            out.append(byte)
    return bytes(out)


class EscapeGenerator:
    """Stateful word-level escape generation over whole frames.

    Use :meth:`process_frame` for one frame, or :meth:`feed` for
    streaming operation (end-of-frame is signalled in-band by the
    beat's ``eof`` mark, flushing the sorter).
    """

    def __init__(
        self,
        width_bytes: int,
        escapes: FrozenSet[int] = _DEFAULT_ESCAPES,
        esc_octet: int = ESC_OCTET,
    ) -> None:
        self.width_bytes = width_bytes
        self.escapes = escapes
        self.esc_octet = esc_octet
        self.sorter = ByteSorter(width_bytes)
        self._frame_open = False
        self.flags_escaped = 0

    def feed(self, beat: WordBeat) -> List[WordBeat]:
        """Stuff one input word; return the output words now complete."""
        expanded = expand_word(beat, self.escapes, self.esc_octet)
        self.flags_escaped += len(expanded) - beat.n_valid
        frame_start = not self._frame_open
        self._frame_open = True
        out = [
            WordBeat.from_bytes(word, self.width_bytes)
            for word in self.sorter.push(expanded)
        ]
        if beat.eof:
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
        """Stuff a whole frame given as raw bytes."""
        out: List[WordBeat] = []
        for beat in beats_from_bytes(data, self.width_bytes):
            out.extend(self.feed(beat))
        return out
