"""The package's one streaming HDLC receiver, RFC 1662 section 4.

Both frame-level receive paths decode their flag-delimited octet
stream here — the PPP-layer :class:`~repro.hdlc.delineation.Delineator`
and the :class:`~repro.fastpath.engine.FastpathEngine` the differential
harness holds to the cycle-accurate receiver — so the verdicts are the
cycle model's: octets before the first flag are hunt discards, runs of
flags are idle fill, a body ending in the escape octet is an abort, a
body past ``max_body`` is cut (its prefix closed as a frame, the rest
hunted), escapes are removed with the non-strict
:func:`~repro.hdlc.byte_stuffing.unstuff`, a frame no longer than its
FCS is a runt, and the FCS is checked by the magic residue.

:meth:`HdlcReceiver.decode` is stateless.  A caller fed a stream in
pieces keeps the open frame :meth:`HdlcReceiver.carry` returns and
puts it in front of the next piece, so any split decodes alike and the
held state never exceeds one bounded frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.crc import CrcSpec, crc_function
from repro.hdlc.byte_stuffing import unstuff
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET

__all__ = ["HdlcReceiver", "RxResult"]


@dataclass
class RxResult:
    """One decoded stream: frames with verdicts plus RX-side counters.

    The counters carry the same meaning as the cycle model's OAM
    counter registers; :data:`repro.fastpath.differential.RX_COUNTERS`
    names the register of each field, and
    :data:`repro.core.oam.COUNTERS` the datapath counter behind it.
    """

    frames: List[Tuple[bytes, bool]] = field(default_factory=list)
    frames_ok: int = 0
    fcs_errors: int = 0
    runt_frames: int = 0
    aborts: int = 0
    oversize_drops: int = 0
    empty_bodies: int = 0
    octets_discarded_hunting: int = 0
    octets_deleted: int = 0
    #: Octets after the final flag — an open frame the cycle model
    #: would still be holding in its delineation carry.
    open_tail_octets: int = 0

    def good_frames(self) -> List[bytes]:
        """Contents of frames that passed the FCS check."""
        return [content for content, good in self.frames if good]


class HdlcReceiver:
    """Decoder of flag-delimited streams for one FCS and framing octets.

    ``max_body`` (0: unbounded) is an argument of each call rather
    than of the receiver: a PPP receiver's bound follows its MRU,
    which LCP reprograms while a frame may be open.
    """

    def __init__(
        self, fcs: CrcSpec, *, flag: int = FLAG_OCTET, esc: int = ESC_OCTET
    ) -> None:
        self.fcs_octets = fcs.width // 8
        #: The one-shot CRC of ``fcs``.
        self.crc = crc_function(fcs)
        #: CRC over content + transmitted FCS of every intact frame.
        self._good_crc = fcs.residue ^ fcs.xorout
        self._flag = bytes((flag,))
        self._octets = (flag, esc)

    def decode(self, line: bytes, max_body: int) -> RxResult:
        """Delineate, destuff and FCS-check every frame closed in ``line``."""
        result = RxResult()
        bodies = line.split(self._flag)
        if len(bodies) == 1:
            result.octets_discarded_hunting = len(line)
            return result
        result.octets_discarded_hunting = len(bodies[0])
        result.open_tail_octets = len(bodies[-1])
        closed = bodies[1:-1]
        result.empty_bodies = closed.count(b"")
        for body in closed:
            if body:
                self._close(body, max_body, result)
        return result

    def carry(self, line: bytes, result: RxResult, max_body: int) -> bytes:
        """The open frame of ``line`` after :meth:`decode`, flag first.

        An open frame already past ``max_body`` is cut into ``result``
        as :meth:`decode` cuts a long body; nothing is carried, and
        the octets up to the next flag are hunt discards.
        """
        last = line.rfind(self._flag)
        if last < 0:
            return b""
        if max_body and len(line) - last - 1 > max_body:
            self._close(line[last + 1:], max_body, result)
            result.open_tail_octets = 0
            return b""
        return line[last:]

    def _close(self, body: bytes, max_body: int, result: RxResult) -> None:
        """Account one non-empty body ended by a flag (or by the cut)."""
        flag, esc = self._octets
        end = len(body)
        if max_body and end > max_body:
            # The cycle delineator cuts on the (max+1)-th body octet,
            # force-closes the already-shipped prefix as a frame (the
            # cut always lies past the held-back window because
            # max_frame_octets >= 4 words), and re-hunts; the rest of
            # the body is noise.  No abort check: the cut is forced by
            # count, not by ESC-then-FLAG.
            result.oversize_drops += 1
            result.octets_discarded_hunting += end - (max_body + 1)
            body = body[: max_body + 1]
            # A cut right after a deleting escape (odd trailing run):
            # Escape Detect drops it with nothing left to restore.
            run = len(body) - len(body.rstrip(bytes((esc,))))
            end = len(body) - run % 2
        elif body[-1] == esc:
            result.aborts += 1
            return
        clear = unstuff(body[:end], strict=False, flag=flag, esc=esc)
        result.octets_deleted += len(body) - len(clear)
        fcs_octets = self.fcs_octets
        if len(clear) <= fcs_octets:
            result.runt_frames += 1
            return
        good = self.crc(clear) == self._good_crc
        if good:
            result.frames_ok += 1
        else:
            result.fcs_errors += 1
        result.frames.append((clear[:-fcs_octets], good))
