"""STS-Nc frame layout and frame construction.

A frame is a 9 x 90N byte grid transmitted row-major.
:func:`frame_layout` is the one map from STS level and pointer to byte
offsets in that flat stream: the payload spans, the path overhead
column, row/column offsets and the frame-synchronous keystream.  Both
:class:`SonetFramer` and :class:`~repro.sonet.rx_framer.SonetRxFramer`
work on flat bytes through it.

The framer implements the overhead subset that matters to a
PPP-over-SONET line card:

* section overhead: A1/A2 framing, J0 trace, B1 (section BIP-8);
* line overhead: H1/H2 payload pointer (+ concatenation indications),
  H3, B2, K1/K2;
* path overhead: J1 trace, B3 (path BIP-8), C2 signal label, G1.

B1 covers the *previous* frame after scrambling and B3 the previous
SPE, per GR-253.  B2 is one BIP-8 over rows 3-8 of every column of the
previous frame before scrambling; GR-253's B2 is a BIP-8 per STS-1
(BIP-8xN, N bytes), which this model folds into one byte.  So parity
errors localise to a frame like real equipment sees them.  The
frame-synchronous scrambler covers everything except row 0 of the
section overhead.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import PointerError, SonetError
from repro.sonet.constants import (
    A1,
    A2,
    J0_DEFAULT,
    J1_TRACE,
    NDF_NORMAL,
    POINTER_MAX,
    ROWS,
    SONET_C2_PPP_SCRAMBLED,
)
from repro.sonet.rates import StsRate, fixed_stuff_columns, payload_capacity_bytes
from repro.sonet.scrambler import frame_sync_sequence

__all__ = ["FrameLayout", "SonetFramer", "frame_layout", "framing_pattern"]


def _bip8(octets: np.ndarray) -> int:
    """BIP-8: even parity per bit position over all bytes."""
    return int(np.bitwise_xor.reduce(octets))


class FrameLayout(NamedTuple):
    """Byte offsets of one STS-Nc frame carrying one pointer value."""

    columns: int                          # 90N octets per row
    frame_bytes: int
    poh: int                              # path overhead column (J1, B3, C2, G1)
    spans: Tuple[Tuple[int, int], ...]    # payload (start, stop), transmission order
    toh: np.ndarray                       # offset of every transport overhead octet
    keystream: np.ndarray                 # frame-sync XOR mask, zero over row 0's TOH

    def offset(self, row: int, col: int) -> int:
        return row * self.columns + col

    def parity(self, line: np.ndarray, plain: np.ndarray) -> Tuple[int, int, int]:
        """(B1, B2, B3) that the *next* frame carries for this one, from
        its scrambled (``line``) and unscrambled (``plain``) octets: B1
        over the whole line frame, B2 over rows 3-8, B3 over the SPE
        (the frame less its transport overhead)."""
        spe = _bip8(plain) ^ _bip8(plain[self.toh])
        return _bip8(line), _bip8(plain[3 * self.columns :]), spe


@lru_cache(maxsize=None)
def _keystream(n: int) -> np.ndarray:
    """The frame-sync XOR mask of an STS-``n`` frame, built once per level."""
    rate = StsRate(n)
    unscrambled = rate.toh_columns
    sequence = frame_sync_sequence(ROWS * rate.columns - unscrambled)
    return np.frombuffer(bytes(unscrambled) + sequence, dtype=np.uint8)


@lru_cache(maxsize=None)
def frame_layout(n: int, pointer: int) -> FrameLayout:
    """The layout of an STS-``n``c frame whose H1/H2 carry ``pointer``.

    The POH column sits ``pointer`` columns into the SPE (modulo its
    width); the ``N/3 - 1`` fixed-stuff columns follow it, wrapping
    within the SPE.  Every other SPE octet is payload, row by row.
    """
    rate = StsRate(n)
    columns, toh = rate.columns, rate.toh_columns
    poh = toh + pointer % rate.spe_columns
    end = poh + fixed_stuff_columns(n) + 1     # first column after POH and stuff
    if end <= columns:
        runs = [(toh, poh), (end, columns)]
    else:                                      # POH and stuff wrap round the SPE
        runs = [(toh + end - columns, poh)]
    spans = tuple(
        (row * columns + start, row * columns + stop)
        for row in range(ROWS)
        for start, stop in runs
        if start < stop
    )
    toh_offsets = np.array(
        [row * columns + col for row in range(ROWS) for col in range(toh)], dtype=np.intp
    )
    toh_offsets.setflags(write=False)        # shared by every caller of the cache
    return FrameLayout(columns, ROWS * columns, poh, spans, toh_offsets, _keystream(n))


@lru_cache(maxsize=None)
def framing_pattern(n: int) -> bytes:
    """A1 x N then A2 x N: the unscrambled octets that start every
    frame, and what the receiver's alignment hunts for."""
    return bytes([A1]) * n + bytes([A2]) * n


@lru_cache(maxsize=None)
def _overhead(n: int, pointer: int, c2: int) -> bytes:
    """The octets every frame shares: framing, J0, pointer, C2.  K1/K2
    (APS idle) and G1 (no remote defects) stay zero."""
    layout = frame_layout(n, pointer)
    frame = bytearray(layout.frame_bytes)
    frame[0 : 2 * n] = framing_pattern(n)
    frame[2 * n] = J0_DEFAULT
    # H1/H2 pointer in the first STS-1; concatenation indication
    # (NDF=1001, offset all-ones) in the rest.
    h1 = layout.offset(3, 0)
    frame[h1] = (NDF_NORMAL << 4) | ((pointer >> 8) & 0x03)
    frame[h1 + n] = pointer & 0xFF
    frame[h1 + 1 : h1 + n] = b"\x93" * (n - 1)              # 1001 ss 11
    frame[h1 + n + 1 : h1 + 2 * n] = b"\xff" * (n - 1)
    frame[layout.offset(2, layout.poh)] = c2
    return bytes(frame)


class SonetFramer:
    """Build (and book-keep parity across) successive STS-Nc frames.

    Parameters
    ----------
    n:
        STS level (1, 3, 12, 48...).  OC-48 is the paper's target.
    pointer:
        H1/H2 payload offset, 0..782.  0 places J1 immediately after
        the H3 byte position; nonzero values exercise the receiver's
        pointer interpretation.
    c2:
        Path signal label; defaults to the scrambled-PPP value.
    """

    def __init__(self, n: int, *, pointer: int = 0, c2: int = SONET_C2_PPP_SCRAMBLED) -> None:
        if not 0 <= pointer <= POINTER_MAX:
            raise PointerError(f"pointer {pointer} outside 0..{POINTER_MAX}")
        self.rate = StsRate(n)
        self.n = n
        self.pointer = pointer
        self.c2 = c2
        self._layout = frame_layout(n, pointer)
        self._template = _overhead(n, pointer, c2)
        self._parity: Optional[Tuple[int, int, int]] = None
        self.frames_built = 0

    @property
    def payload_bytes_per_frame(self) -> int:
        return payload_capacity_bytes(self.n)

    def build(self, payload: bytes) -> bytes:
        """Assemble one frame around ``payload`` and return wire bytes.

        ``payload`` must be exactly :attr:`payload_bytes_per_frame`
        long — the continuous HDLC stream mapper
        (:class:`~repro.sonet.path.PppOverSonet`) guarantees that by
        inter-frame flag fill.
        """
        if len(payload) != self.payload_bytes_per_frame:
            raise SonetError(
                f"payload must be exactly {self.payload_bytes_per_frame} bytes, "
                f"got {len(payload)}"
            )
        layout = self._layout
        frame = bytearray(self._template)
        frame[layout.offset(0, layout.poh)] = J1_TRACE[self.frames_built % len(J1_TRACE)]
        source = memoryview(payload)
        at = 0
        for start, stop in layout.spans:
            frame[start:stop] = source[at : at + stop - start]
            at += stop - start
        if self._parity is not None:
            b1, b2, b3 = self._parity
            frame[layout.offset(1, 0)] = b1
            frame[layout.offset(5, 0)] = b2
            frame[layout.offset(1, layout.poh)] = b3
        plain = np.frombuffer(frame, dtype=np.uint8)
        line = plain ^ layout.keystream
        self._parity = layout.parity(line, plain)
        self.frames_built += 1
        return line.tobytes()
