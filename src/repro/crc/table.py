"""Byte-table CRC — the classic software implementation.

One 256-entry table maps a byte of input to the register change; the
per-byte loop is O(1).  Each spec's table is built once per process.

:func:`crc_function` is the one place that picks the engine a frame
codec uses: :func:`zlib.crc32` where it is exactly the spec, a
:class:`TableCrc` otherwise.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Tuple

from repro.crc.bitserial import BitSerialCrc
from repro.crc.polynomial import CrcSpec
from repro.utils.bits import bit_reflect

__all__ = ["TableCrc", "crc_function"]

#: 256-entry tables by spec, built on first use.
_TABLES: Dict[CrcSpec, Tuple[int, ...]] = {}
#: (width, poly, init, refin, refout, xorout) of CRC-32/ISO-HDLC, the
#: PPP FCS-32, which :func:`zlib.crc32` computes exactly.
_ZLIB_PARAMS = (32, 0x04C11DB7, 0xFFFFFFFF, True, True, 0xFFFFFFFF)


def crc_function(spec: CrcSpec) -> Callable[[bytes], int]:
    """One-shot CRC of ``spec`` on its fastest exact engine.

    The value XOR ``spec.xorout`` is the residue register, so a
    receiver's magic-residue test over content plus FCS is
    ``crc(clear) == spec.residue ^ spec.xorout``.
    """
    params = (spec.width, spec.poly, spec.init, spec.refin, spec.refout, spec.xorout)
    if params == _ZLIB_PARAMS:
        return zlib.crc32
    engine = TableCrc(spec)

    def crc(data: bytes) -> int:
        return engine.compute(data)

    return crc


class TableCrc:
    """Table-driven CRC calculator for any registered spec.

    For fully reflected specs (``refin and refout``, e.g. both PPP FCS
    variants) the register is kept in the *reflected* domain so the
    per-byte update is the familiar
    ``reg = table[(reg ^ byte) & 0xFF] ^ (reg >> 8)``.
    Non-reflected specs use the MSB-first form.  Mixed-reflection specs
    (rare; none registered) fall back to the bit-serial engine.
    """

    def __init__(self, spec: CrcSpec) -> None:
        self.spec = spec
        self._reflected = spec.refin and spec.refout
        if spec.refin != spec.refout or spec.width < 8:
            # Keep correctness for exotic specs without table machinery.
            self._fallback = BitSerialCrc(spec)
        else:
            self._fallback = None
            table = _TABLES.get(spec)
            if table is None:
                table = _TABLES[spec] = self._build_table()
            self._table = table
        self.reset()

    def _build_table(self) -> Tuple[int, ...]:
        spec = self.spec
        table = [0] * 256
        if self._reflected:
            poly = bit_reflect(spec.poly, spec.width)
            for byte in range(256):
                reg = byte
                for _ in range(8):
                    reg = (reg >> 1) ^ (poly if reg & 1 else 0)
                table[byte] = reg
        else:
            top = 1 << (spec.width - 1)
            for byte in range(256):
                reg = byte << (spec.width - 8) if spec.width >= 8 else byte
                for _ in range(8):
                    reg = ((reg << 1) ^ spec.poly if reg & top else reg << 1) & spec.mask
                table[byte] = reg
        return tuple(table)

    # ------------------------------------------------------------- streaming
    def reset(self) -> None:
        spec = self.spec
        if self._fallback is not None:
            self._fallback.reset()
            return
        init = spec.init
        self._reg = bit_reflect(init, spec.width) if self._reflected else init

    def update(self, data: bytes) -> "TableCrc":
        """Absorb ``data``; returns self for chaining."""
        if self._fallback is not None:
            self._fallback.update(data)
            return self
        spec = self.spec
        table = self._table
        reg = self._reg
        if self._reflected:
            for byte in data:
                reg = table[(reg ^ byte) & 0xFF] ^ (reg >> 8)
        else:
            shift = spec.width - 8
            for byte in data:
                reg = (table[((reg >> shift) ^ byte) & 0xFF] ^ (reg << 8)) & spec.mask
        self._reg = reg
        return self

    # --------------------------------------------------------------- results
    def value(self) -> int:
        """Published CRC of everything absorbed so far."""
        if self._fallback is not None:
            return self._fallback.value()
        spec = self.spec
        reg = self._reg
        # The reflected-domain register is already in the refout domain.
        if not self._reflected and spec.refout:
            reg = bit_reflect(reg, spec.width)
        return reg ^ spec.xorout

    def residue_value(self) -> int:
        """Register in the refout domain without xorout."""
        if self._fallback is not None:
            return self._fallback.residue_value()
        spec = self.spec
        reg = self._reg
        if not self._reflected and spec.refout:
            reg = bit_reflect(reg, spec.width)
        return reg

    def compute(self, data: bytes) -> int:
        """One-shot CRC of ``data`` (resets first)."""
        self.reset()
        self.update(data)
        return self.value()
