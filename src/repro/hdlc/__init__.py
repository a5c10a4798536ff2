"""HDLC-like framing per RFC 1662 — the layer the P5 accelerates.

* :mod:`repro.hdlc.byte_stuffing` — octet-synchronous transparency
  (flag/escape substitution), the operation the paper's Escape
  Generate / Escape Detect datapath units perform word-parallel; the
  one frame-level implementation, shared by the framer, the
  delineator and :mod:`repro.fastpath`.
* :mod:`repro.hdlc.bit_stuffing` — bit-synchronous transparency
  (zero insertion after five ones) for completeness.
* :mod:`repro.hdlc.accm` — the async control character map that makes
  additional octets escapable (LCP-negotiable).
* :mod:`repro.hdlc.framer` — whole-frame encode/decode with FCS.
* :mod:`repro.hdlc.receiver` — the one streaming receiver (hunt,
  abort, oversize cut, destuff, residue check), shared by the
  delineator and :mod:`repro.fastpath`.
* :mod:`repro.hdlc.delineation` — the PPP-layer delineator over that
  receiver (MRU guard, running counters, resync).
"""

from repro.hdlc.constants import (
    ABORT_SEQUENCE,
    ESCAPE_XOR,
    ESC_OCTET,
    FLAG_OCTET,
)
from repro.hdlc.accm import Accm
from repro.hdlc.byte_stuffing import (
    escape_set,
    stuff,
    stuffed_length,
    unstuff,
)
from repro.hdlc.bit_stuffing import bit_stuff, bit_unstuff
from repro.hdlc.receiver import HdlcReceiver, RxResult
from repro.hdlc.framer import DecodedFrame, HdlcFramer
from repro.hdlc.delineation import Delineator, DelineatorStats

__all__ = [
    "FLAG_OCTET",
    "ESC_OCTET",
    "ESCAPE_XOR",
    "ABORT_SEQUENCE",
    "Accm",
    "escape_set",
    "stuff",
    "stuffed_length",
    "unstuff",
    "bit_stuff",
    "bit_unstuff",
    "HdlcFramer",
    "DecodedFrame",
    "HdlcReceiver",
    "RxResult",
    "Delineator",
    "DelineatorStats",
]
