"""SONET structural constants (GR-253 / G.707 subset)."""

from __future__ import annotations

#: Rows in every SONET frame.
ROWS = 9

#: Columns per STS-1 (90) and the transport-overhead share (3).
COLS_PER_STS1 = 90
TOH_COLS_PER_STS1 = 3

#: Frame rate: 8000 frames/s (125 us per frame) at every STS level.
FRAMES_PER_SECOND = 8000

#: Framing bytes.
A1 = 0xF6
A2 = 0x28

#: Section trace (J0) byte, and the 16-byte path trace that J1
#: repeats one byte per frame.
J0_DEFAULT = 0x01
J1_TRACE = b"repro-path-trace"

#: Path signal label (C2) values for PPP payloads:
#: RFC 1619 used 0xCF (PPP, no payload scrambling); RFC 2615 defines
#: 0x16 for scrambled PPP/HDLC.
SONET_C2_PPP = 0xCF
SONET_C2_PPP_SCRAMBLED = 0x16

#: Path signal label for GFP-mapped payloads (G.707).
SONET_C2_GFP = 0x1B

#: H1/H2 pointer constants.
POINTER_MAX = 782            # valid offsets 0..782
NDF_ENABLED = 0b1001         # new data flag set
NDF_NORMAL = 0b0110          # normal operation

#: Frame-times of fruitless hunting after an out-of-frame event before
#: loss of frame is declared (GR-253's 3 ms at 8000 frames/s).
LOF_FRAMES = 24
