"""PPP over SONET/SDH — the RFC 1619 / RFC 2615 payload mapping.

"The PPP frames are located by row within the STS-SPE payload ... the
octet stream is mapped into the SPE with the octet boundaries aligned"
— i.e. the stuffed HDLC byte stream simply fills the payload bytes,
with inter-frame time filled by flag octets.  RFC 2615 additionally
passes the stream through the x^43+1 self-synchronous scrambler.

:class:`PppOverSonet` is the full TX/RX path used by the examples:
PPP frames in, SONET line bytes out — and back.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.crc import CRC32, CrcSpec
from repro.hdlc.constants import FLAG_OCTET
from repro.hdlc.delineation import Delineator, DelineatorStats
from repro.hdlc.framer import HdlcFramer
from repro.sonet.constants import SONET_C2_GFP, SONET_C2_PPP, SONET_C2_PPP_SCRAMBLED
from repro.sonet.framer import SonetFramer
from repro.sonet.rx_framer import RxCounters, SonetRxFramer
from repro.sonet.scrambler import SelfSyncScrambler

__all__ = ["PppOverSonet", "GfpOverSonet"]


class PppOverSonet:
    """A complete unidirectional PPP-over-SONET path (TX + RX ends).

    Parameters
    ----------
    n:
        STS level (3 → 155 Mbps, 12 → 622 Mbps, 48 → 2.5 Gbps).
    payload_scrambling:
        RFC 2615 x^43+1 scrambling (True, default) or the plain
        RFC 1619 mapping the paper's era used (False).  The C2 path
        label follows the choice automatically.
    fcs_spec:
        HDLC FCS; the P5 default is CRC-32.
    """

    def __init__(
        self,
        n: int = 48,
        *,
        payload_scrambling: bool = True,
        fcs_spec: CrcSpec = CRC32,
    ) -> None:
        c2 = SONET_C2_PPP_SCRAMBLED if payload_scrambling else SONET_C2_PPP
        self.n = n
        self.payload_scrambling = payload_scrambling
        self.framer = SonetFramer(n, c2=c2)
        self.rx_framer = SonetRxFramer(n, expected_c2=c2)
        self.hdlc = HdlcFramer(fcs_spec)
        self.delineator = Delineator(framer=HdlcFramer(fcs_spec))
        self._tx_scrambler = SelfSyncScrambler()
        self._rx_scrambler = SelfSyncScrambler()
        self._tx_queue: Deque[bytes] = deque()
        self._tx_residue = b""

    # --------------------------------------------------------------- TX side
    def queue_frame(self, content: bytes) -> None:
        """Queue one PPP frame's content (addr..info) for transmission."""
        self._tx_queue.append(self.hdlc.encode(content))

    def next_line_frame(self) -> bytes:
        """Produce the next 125 us SONET frame's worth of line bytes.

        Pulls queued HDLC frames into the payload; any gap is filled
        with flag octets (the POS idle pattern), so the line never
        underruns — exactly what the P5 transmitter's flag inserter
        does when the host queue is empty.
        """
        need = self.framer.payload_bytes_per_frame
        chunk = bytearray(self._tx_residue)
        while len(chunk) < need and self._tx_queue:
            chunk += self._tx_queue.popleft()
        if len(chunk) < need:
            chunk += bytes([FLAG_OCTET]) * (need - len(chunk))
        self._tx_residue = bytes(chunk[need:])
        payload = bytes(chunk[:need])
        if self.payload_scrambling:
            payload = self._tx_scrambler.scramble(payload)
        return self.framer.build(payload)

    @property
    def tx_backlog_frames(self) -> int:
        return len(self._tx_queue)

    # --------------------------------------------------------------- RX side
    def receive_line(self, data: bytes) -> List[bytes]:
        """Consume line bytes; return the PPP frame contents recovered."""
        payload = self.rx_framer.feed(data)
        if self.payload_scrambling and payload:
            payload = self._rx_scrambler.descramble(payload)
        return self.delineator.push_bytes(payload)

    # ------------------------------------------------------------- reporting
    @property
    def sonet_counters(self) -> RxCounters:
        return self.rx_framer.counters

    @property
    def hdlc_stats(self) -> DelineatorStats:
        return self.delineator.stats


class GfpOverSonet:
    """The baseline alternative: GFP-mapped PPP over SONET (G.7041).

    Same SONET transport as :class:`PppOverSonet`, but the PPP frames
    ride in GFP client frames instead of HDLC flags+stuffing: constant
    per-frame overhead, idle fill with 4-byte GFP idle frames, and no
    need for the x^43 payload scrambler (GFP's core-header scrambling
    plus pFCS already avoids the killer-pattern problem).
    """

    def __init__(self, n: int = 48) -> None:
        from repro.gfp import GfpDelineator, GfpFrame, idle_frame

        self._GfpFrame = GfpFrame
        self._idle = idle_frame
        self.n = n
        self.framer = SonetFramer(n, c2=SONET_C2_GFP)
        self.rx_framer = SonetRxFramer(n, expected_c2=SONET_C2_GFP)
        self.delineator = GfpDelineator()
        self._tx_queue: Deque[bytes] = deque()
        self._tx_residue = b""

    def queue_frame(self, content: bytes) -> None:
        """Queue one PPP frame's content (addr..info, no HDLC layer)."""
        self._tx_queue.append(self._GfpFrame(content).encode())

    def next_line_frame(self) -> bytes:
        """Produce the next 125 us SONET frame's worth of line bytes."""
        need = self.framer.payload_bytes_per_frame
        chunk = bytearray(self._tx_residue)
        while len(chunk) < need and self._tx_queue:
            chunk += self._tx_queue.popleft()
        while len(chunk) < need:
            chunk += self._idle()
        self._tx_residue = bytes(chunk[need:])
        return self.framer.build(bytes(chunk[:need]))

    @property
    def tx_backlog_frames(self) -> int:
        return len(self._tx_queue)

    def receive_line(self, data: bytes) -> List[bytes]:
        """Consume line bytes; return recovered PPP frame contents."""
        payload = self.rx_framer.feed(data)
        return [frame.payload for frame in self.delineator.feed(payload)]

    @property
    def sonet_counters(self) -> RxCounters:
        return self.rx_framer.counters

    @property
    def gfp_stats(self):
        return self.delineator.stats
