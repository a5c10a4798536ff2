"""Whole-frame HDLC encode/decode with FCS, RFC 1662 sections 3–4.

:class:`HdlcFramer` is the behavioural model of the complete TX/RX
datapath the P5 implements: on transmit it appends the FCS, applies
octet transparency and wraps the result in flags; on receive it
reverses the process for one whole frame and verifies the FCS by
value.  Streams go through :class:`~repro.hdlc.receiver.HdlcReceiver`
instead, which checks the RFC's magic residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.crc import CRC32, CrcSpec
from repro.errors import FcsError, FramingError, OversizeFrameError, RuntFrameError
from repro.hdlc.accm import Accm
from repro.hdlc.byte_stuffing import stuff, unstuff
from repro.hdlc.constants import FLAG_OCTET
from repro.hdlc.receiver import HdlcReceiver

__all__ = ["HdlcFramer", "DecodedFrame"]


@dataclass(frozen=True)
class DecodedFrame:
    """A successfully delineated and checked frame.

    Attributes
    ----------
    content:
        The frame body with transparency removed and FCS stripped —
        for PPP this is address/control/protocol/information.
    fcs:
        The FCS value carried by the frame (already verified).
    wire_length:
        Octets consumed on the line including both flags; used by the
        efficiency analyses.
    """

    content: bytes
    fcs: int
    wire_length: int


class HdlcFramer:
    """Encode/decode HDLC-like frames with a selectable FCS.

    Parameters
    ----------
    fcs_spec:
        ``repro.crc.CRC16_X25`` (FCS-16) or ``repro.crc.CRC32``
        (FCS-32; the P5 default "for accuracy purposes").
    accm:
        Optional async control character map; ``None`` means
        octet-synchronous rules (only 0x7D/0x7E escaped).
    max_content:
        Receive guard: decoded content longer than this raises
        :class:`~repro.errors.OversizeFrameError`.  PPP's default MRU
        is 1500 information octets; the extra headroom covers
        address/control/protocol.
    """

    def __init__(
        self,
        fcs_spec: CrcSpec = CRC32,
        accm: Optional[Accm] = None,
        max_content: int = 1500 + 8,
    ) -> None:
        if fcs_spec.width not in (16, 32):
            raise ValueError(f"FCS must be 16 or 32 bits, got {fcs_spec.width}")
        self.fcs_spec = fcs_spec
        self.accm = accm
        self.max_content = max_content
        #: The stream decoder a :class:`~repro.hdlc.delineation.Delineator`
        #: runs with this framer's FCS.
        self.receiver = HdlcReceiver(fcs_spec)

    @property
    def fcs_octets(self) -> int:
        """Size of the FCS trailer in octets (2 or 4)."""
        return self.fcs_spec.width // 8

    # ---------------------------------------------------------------- encode
    def compute_fcs(self, content: bytes) -> int:
        """FCS over the unstuffed frame content (addr..information)."""
        return self.receiver.crc(content)

    def encode(self, content: bytes, *, leading_flag: bool = True) -> bytes:
        """Build the on-wire frame: ``[7E] stuffed(content + FCS) 7E``.

        ``leading_flag=False`` supports back-to-back frames sharing a
        single flag, as RFC 1662 permits and the P5 transmitter does
        when frames are queued without idle time.
        """
        # RFC 1662: the FCS goes out least-significant octet first.
        fcs = self.compute_fcs(content).to_bytes(self.fcs_octets, "little")
        body = stuff(content + fcs, self.accm)
        head = bytes([FLAG_OCTET]) if leading_flag else b""
        return head + body + bytes([FLAG_OCTET])

    def encode_stream(self, contents: List[bytes]) -> bytes:
        """Encode several frames back-to-back with shared flags."""
        out = bytearray([FLAG_OCTET])
        for content in contents:
            out += self.encode(content, leading_flag=False)
        return bytes(out)

    # ---------------------------------------------------------------- decode
    def decode(self, wire: bytes) -> DecodedFrame:
        """Decode one complete frame including its delimiting flags:
        unstuff, split off the FCS, verify.

        Raises :class:`FramingError` (missing flags, or a bare flag or
        ``7D 7D`` inside), :class:`RuntFrameError`,
        :class:`OversizeFrameError`, :class:`FcsError` or the
        :class:`AbortError` of :func:`repro.hdlc.byte_stuffing.unstuff`.
        """
        if len(wire) < 2 or wire[0] != FLAG_OCTET or wire[-1] != FLAG_OCTET:
            raise FramingError("frame must start and end with the flag octet 0x7E")
        # Tolerate flag padding/sharing at the boundaries.
        body = wire[1:-1].strip(bytes([FLAG_OCTET]))
        if not body:
            raise RuntFrameError("no frame body between flags")
        clear = unstuff(body)
        if len(clear) < self.fcs_octets + 1:
            raise RuntFrameError(
                f"frame body of {len(clear)} octets cannot hold content + FCS-{self.fcs_spec.width}"
            )
        content, trailer = clear[: -self.fcs_octets], clear[-self.fcs_octets :]
        if len(content) > self.max_content:
            raise OversizeFrameError(
                f"decoded content {len(content)} exceeds maximum {self.max_content}"
            )
        carried = int.from_bytes(trailer, "little")
        computed = self.compute_fcs(content)
        if carried != computed:
            raise FcsError(carried, computed)
        return DecodedFrame(content=content, fcs=carried, wire_length=len(wire))
