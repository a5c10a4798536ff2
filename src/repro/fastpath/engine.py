"""The frame-level fast datapath engine.

Everything the cycle-accurate P5 does to a frame — FCS generation,
octet stuffing, flag wrapping, delineation, destuffing, FCS checking —
expressed as whole-buffer ``bytes`` transformations on the package's
one frame codec and one receiver, configured from a
:class:`~repro.core.config.P5Config`.

* **TX** — a *batch* of frame contents becomes one wire byte stream:
  per frame the FCS (:func:`~repro.crc.table.crc_function`,
  :func:`zlib.crc32` for FCS-32), then
  :func:`~repro.hdlc.byte_stuffing.stuff`, then one flag-wrapping
  join.
* **RX** — :class:`~repro.hdlc.receiver.HdlcReceiver`, the receiver the
  PPP-layer :class:`~repro.hdlc.delineation.Delineator` also runs:
  split on flags, destuff with the cycle model's
  :func:`~repro.core.escape_det.contract_word` semantics, residue
  check, bodies cut at ``max_frame_octets``.
  :meth:`FastpathEngine.feed` decodes a stream that arrives in pieces,
  carrying the open frame between them.

The engine mirrors the cycle model's observable behaviour: identical
line bytes on TX, and on RX identical frame verdicts plus the OAM
counter set (aborts, oversize cuts, runts, hunt discards, escapes
deleted, empty bodies).  The
:class:`~repro.fastpath.differential.DifferentialHarness` asserts this
equivalence run by run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import P5Config
from repro.hdlc.accm import Accm
from repro.hdlc.byte_stuffing import stuff
from repro.hdlc.receiver import HdlcReceiver, RxResult

__all__ = ["FastpathEngine", "FastpathTxResult"]


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


class FastpathEngine:
    """Frame-level TX/RX datapath sharing the cycle model's config.

    :meth:`encode_frames` and :meth:`decode_stream` are stateless, so
    one engine can serve any number of independent batches.  The only
    state is the receive carry of :meth:`feed`: the open frame from the
    last flag, at most ``max_frame_octets + 1`` octets when that bound
    is set.
    """

    def __init__(self, config: Optional[P5Config] = None) -> None:
        self.config = config = config or P5Config()
        self.fcs_octets = config.fcs.width // 8
        self._rx = HdlcReceiver(
            config.fcs, flag=config.flag_octet, esc=config.esc_octet
        )
        self._crc = self._rx.crc
        self._accm = Accm(config.accm_mask)
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
    def decode_stream(self, line: bytes) -> RxResult:
        """Delineate, destuff and FCS-check a wire byte stream.

        The verdicts are :class:`~repro.hdlc.receiver.HdlcReceiver`'s,
        which mirror the cycle receiver's, with bodies cut at
        ``max_frame_octets``.
        """
        return self._rx.decode(bytes(line), self.config.max_frame_octets)

    def feed(self, data: bytes) -> RxResult:
        """Decode the next piece of a continuous wire stream.

        The open frame from the last flag is carried into the next
        call, so any split of a stream decodes to the same frames and
        counters.  Once the open frame outgrows ``max_frame_octets`` it
        is cut exactly as :meth:`decode_stream` cuts a long body, and
        the octets up to the next flag are hunt discards.
        """
        line = self._carry + data
        result = self.decode_stream(line)
        self._carry = self._rx.carry(line, result, self.config.max_frame_octets)
        return result

    def take_carry(self) -> bytes:
        """Hand over the open frame :meth:`feed` carries (flag first)
        and forget it: the next feed starts hunting."""
        carry, self._carry = self._carry, b""
        return carry

    # -------------------------------------------------------------- loopback
    def loopback(
        self, contents: Sequence[bytes]
    ) -> Tuple[FastpathTxResult, RxResult]:
        """Encode a batch and decode it straight back (clean wire)."""
        tx = self.encode_frames(contents)
        return tx, self.decode_stream(tx.line)
