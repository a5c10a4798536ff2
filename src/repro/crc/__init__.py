"""CRC engines for the P5 datapath.

Three interchangeable implementations of the same specification:

* :mod:`repro.crc.bitserial` — the textbook LFSR, one bit per step.
  Slow, but trivially correct; the golden model.
* :mod:`repro.crc.table` — classic 256-entry byte table, plus
  :func:`~repro.crc.table.crc_function`, the engine choice of the frame
  codecs (:func:`zlib.crc32` for FCS-32, the table otherwise).
* :mod:`repro.crc.matrix` / :mod:`repro.crc.parallel` — the
  Pei–Zukowski word-parallel formulation the paper's hardware uses:
  the CRC register update over ``W`` input bits is a GF(2)-linear map
  ``S' = F_W . S  xor  H_W . D`` realised as two XOR matrices.  The
  8-bit P5 uses the 8 x 32 form, the 32-bit P5 the 32 x 32 form.

All three are cross-checked against each other and against published
check values in the test suite.
"""

from repro.crc.polynomial import (
    CRC16_CCITT_FALSE,
    CRC16_KERMIT,
    CRC16_X25,
    CRC16_XMODEM,
    CRC32,
    CRC8,
    CrcSpec,
    get_spec,
    registered_specs,
)
from repro.crc.bitserial import BitSerialCrc
from repro.crc.table import TableCrc, crc_function
from repro.crc.matrix import CrcMatrices, build_matrices
from repro.crc.parallel import ParallelCrc

__all__ = [
    "CrcSpec",
    "CRC8",
    "CRC16_CCITT_FALSE",
    "CRC16_KERMIT",
    "CRC16_XMODEM",
    "CRC16_X25",
    "CRC32",
    "get_spec",
    "registered_specs",
    "BitSerialCrc",
    "TableCrc",
    "crc_function",
    "CrcMatrices",
    "build_matrices",
    "ParallelCrc",
]
