"""The frame-level fast datapath engine.

Everything the cycle-accurate P5 does to a frame — FCS generation,
octet stuffing, flag wrapping, delineation, destuffing, FCS checking —
expressed as whole-buffer ``bytes`` transformations on the package's
one frame codec: :func:`~repro.hdlc.byte_stuffing.stuff` /
:func:`~repro.hdlc.byte_stuffing.unstuff` for transparency and
:func:`~repro.crc.table.crc_function` (:func:`zlib.crc32` for FCS-32)
for the FCS.

* **TX** — a *batch* of frame contents becomes one wire byte stream:
  per frame the FCS, then stuffing, then one flag-wrapping join.
* **RX** — the wire stream is split on flags; each body is destuffed
  with the cycle model's
  :func:`~repro.core.escape_det.contract_word` semantics (non-strict
  :func:`~repro.hdlc.byte_stuffing.unstuff`, which also decodes
  non-conforming chained escapes like the hardware), then
  residue-checked.  :meth:`FastpathEngine.feed` decodes a stream that
  arrives in pieces, carrying the open frame between them.

The engine mirrors the cycle model's observable behaviour: identical
line bytes on TX, and on RX identical frame verdicts plus the OAM
counter set (aborts, oversize cuts, runts, hunt discards, escapes
deleted, empty bodies).  The
:class:`~repro.fastpath.differential.DifferentialHarness` asserts this
equivalence run by run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.config import P5Config
from repro.crc.table import crc_function
from repro.hdlc.accm import Accm
from repro.hdlc.byte_stuffing import stuff, unstuff

__all__ = ["FastpathEngine", "FastpathTxResult", "FastpathRxResult"]


@dataclass(frozen=True)
class FastpathTxResult:
    """One encoded batch: the wire stream plus TX-side OAM counters."""

    line: bytes
    frames: int
    content_octets: int
    octets_escaped: int

    @property
    def line_octets(self) -> int:
        return len(self.line)


@dataclass
class FastpathRxResult:
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


class FastpathEngine:
    """Frame-level TX/RX datapath sharing the cycle model's config.

    :meth:`encode_frames` and :meth:`decode_stream` are stateless, so
    one engine can serve any number of independent batches.  The only
    state is the receive carry of :meth:`feed`: the open frame from the
    last flag, at most ``max_frame_octets + 1`` octets when that bound
    is set.
    """

    def __init__(self, config: Optional[P5Config] = None) -> None:
        self.config = config or P5Config()
        spec = self.config.fcs
        self.fcs_octets = spec.width // 8
        self._crc = crc_function(spec)
        #: CRC over content + transmitted FCS of every intact frame.
        self._good_crc = spec.residue ^ spec.xorout
        self._accm = Accm(self.config.accm_mask)
        self._flag = bytes((self.config.flag_octet,))
        self._carry = b""

    # ------------------------------------------------------------------- CRC
    def fcs_of(self, content: bytes) -> int:
        """The published FCS of one frame's content."""
        return self._crc(content)

    # -------------------------------------------------------------------- TX
    def encode_frame(self, content: bytes) -> bytes:
        """One frame's wire bytes: ``7E <stuffed content+FCS> 7E``."""
        return self.encode_frames([content]).line

    def encode_frames(self, contents: Sequence[bytes]) -> FastpathTxResult:
        """Encode a whole batch of frames into one wire byte stream.

        The output is bit-identical to what the cycle-accurate
        transmitter puts on the PHY for the same submissions: each
        frame individually wrapped in flags, frames back to back.
        """
        config = self.config
        fcs_octets = self.fcs_octets
        bodies: List[bytes] = []
        content_octets = 0
        for content in contents:
            if not content:
                raise ValueError("cannot transmit an empty frame")
            content_octets += len(content)
            fcs = self.fcs_of(content).to_bytes(fcs_octets, "little")
            bodies.append(
                stuff(content + fcs, self._accm,
                      flag=config.flag_octet, esc=config.esc_octet)
            )
        if not bodies:
            return FastpathTxResult(
                line=b"", frames=0, content_octets=0, octets_escaped=0
            )
        flag = self._flag
        line = flag + (flag + flag).join(bodies) + flag
        overhead = len(bodies) * (2 + fcs_octets)
        return FastpathTxResult(
            line=line,
            frames=len(bodies),
            content_octets=content_octets,
            octets_escaped=len(line) - overhead - content_octets,
        )

    # -------------------------------------------------------------------- RX
    def decode_stream(self, line: bytes) -> FastpathRxResult:
        """Delineate, destuff and FCS-check a wire byte stream.

        Mirrors the cycle receiver's error handling: octets before the
        first flag are hunt discards, a body ending in the escape octet
        is the RFC 1662 abort sequence, a body longer than
        ``max_frame_octets`` is cut at the same octet the cycle
        delineator cuts it — and, exactly like the cycle model, the cut
        prefix is force-closed as a frame of its own (destuffed and
        FCS-checked; the remainder counts as hunt discards) — and a
        destuffed frame no larger than the FCS is a silently swallowed
        runt.
        """
        result = FastpathRxResult()
        line = bytes(line)
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
                self._close(body, result)
        return result

    def _close(self, body: bytes, result: FastpathRxResult) -> None:
        """Account one non-empty body ended by a flag (or by the
        oversize cut)."""
        config = self.config
        max_body = config.max_frame_octets
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
            run = len(body) - len(body.rstrip(bytes((config.esc_octet,))))
            end = len(body) - run % 2
        elif body[-1] == config.esc_octet:
            result.aborts += 1
            return
        clear = unstuff(body[:end], strict=False,
                        flag=config.flag_octet, esc=config.esc_octet)
        result.octets_deleted += len(body) - len(clear)
        fcs_octets = self.fcs_octets
        if len(clear) <= fcs_octets:
            result.runt_frames += 1
            return
        good = self._crc(clear) == self._good_crc
        if good:
            result.frames_ok += 1
        else:
            result.fcs_errors += 1
        result.frames.append((clear[:-fcs_octets], good))

    def feed(self, data: bytes) -> FastpathRxResult:
        """Decode the next piece of a continuous wire stream.

        The open frame from the last flag is carried into the next
        call, so any split of a stream decodes to the same frames and
        counters.  Once the open frame outgrows ``max_frame_octets`` it
        is cut exactly as :meth:`decode_stream` cuts a long body, and
        the octets up to the next flag are hunt discards.
        """
        line = self._carry + data
        result = self.decode_stream(line)
        last = line.rfind(self._flag)
        tail = line[last + 1:] if last >= 0 else b""
        max_body = self.config.max_frame_octets
        if max_body and len(tail) > max_body:
            self._close(tail, result)
            result.open_tail_octets = 0
            self._carry = b""
        else:
            self._carry = line[last:] if last >= 0 else b""
        return result

    def take_carry(self) -> bytes:
        """Hand over the open frame :meth:`feed` carries (flag first)
        and forget it: the next feed starts hunting."""
        carry, self._carry = self._carry, b""
        return carry

    # -------------------------------------------------------------- loopback
    def loopback(
        self, contents: Sequence[bytes]
    ) -> Tuple[FastpathTxResult, FastpathRxResult]:
        """Encode a batch and decode it straight back (clean wire)."""
        tx = self.encode_frames(contents)
        return tx, self.decode_stream(tx.line)
