"""Pei–Zukowski word-parallel CRC matrices.

The canonical LFSR step (see :class:`repro.crc.bitserial.BitSerialCrc`)
is GF(2)-linear in ``(state, bit)``::

    next = L(state) ^ bit * P

so absorbing ``W`` data bits is also linear::

    S' = F_W . S  ^  H_W . D

where ``S`` is the ``width``-bit register, ``D`` the ``W`` data bits in
processing order, ``F_W`` a ``width x width`` matrix and ``H_W`` a
``width x W`` matrix.  In hardware (ref. [3] of the paper: Pei &
Zukowski, IEEE Trans. Comm. 1992) each output bit is one XOR tree over
the set rows of ``[F_W | H_W]`` — the paper's "8 x 32" and "32 x 32"
parallel matrices are exactly ``H_W`` for CRC-32 at W = 8 and W = 32.

We *derive* the matrices by superposition: probe the bit-serial golden
model with unit vectors.  This guarantees the parallel engine can never
disagree with the reference implementation by construction, and it
works for every registered spec and any W that is a multiple of 8.

The matrices also feed the synthesis cost model: the XOR-tree fan-in
per output bit (row weight of ``[F_W | H_W]``) determines the LUT count
and logic depth of the hardware CRC core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Tuple

import numpy as np

from repro.crc.bitserial import BitSerialCrc
from repro.crc.polynomial import CrcSpec, get_spec

__all__ = ["CrcMatrices", "build_matrices"]


@dataclass(frozen=True)
class CrcMatrices:
    """The ``F`` (state-feedback) and ``H`` (data-injection) matrices.

    Attributes
    ----------
    spec:
        The CRC parameter set the matrices realise.
    bits_per_cycle:
        ``W`` — how many data bits one application absorbs.
    f_columns:
        ``width`` integers; ``f_columns[j]`` is the next-state
        contribution (as a width-bit integer) of state bit ``j``.
        Bit ``j`` means the value ``1 << j`` in the canonical register.
    h_columns:
        ``W`` integers; ``h_columns[k]`` is the next-state contribution
        of data bit ``k``, where ``k`` indexes the processing order
        (bit 0 is absorbed first).
    """

    spec: CrcSpec
    bits_per_cycle: int
    f_columns: Tuple[int, ...]
    h_columns: Tuple[int, ...]

    # ----------------------------------------------------------- matrix view
    def f_matrix(self) -> np.ndarray:
        """``F_W`` as a dense uint8 GF(2) matrix, shape (width, width)."""
        return _columns_to_matrix(self.f_columns, self.spec.width)

    def h_matrix(self) -> np.ndarray:
        """``H_W`` as a dense uint8 GF(2) matrix, shape (width, W)."""
        return _columns_to_matrix(self.h_columns, self.spec.width)

    def xor_fanin_per_output(self) -> np.ndarray:
        """Row weights of ``[F_W | H_W]`` — XOR-tree fan-in per state bit.

        This is the quantity the synthesis model maps to LUTs: a k-input
        XOR needs ``ceil((k-1)/3)`` 4-input LUTs arranged in a tree.
        """
        full = np.concatenate([self.f_matrix(), self.h_matrix()], axis=1)
        return full.sum(axis=1)

    # ------------------------------------------------------------ application
    def step(self, state: int, data_bits: int) -> int:
        """Absorb one W-bit chunk: ``S' = F.S ^ H.D``.

        ``data_bits`` packs the chunk with processing-order bit ``k`` at
        integer bit position ``k``.
        """
        nxt = 0
        for j, col in enumerate(self.f_columns):
            if (state >> j) & 1:
                nxt ^= col
        for k, col in enumerate(self.h_columns):
            if (data_bits >> k) & 1:
                nxt ^= col
        return nxt

    def step_word(self, state: int, word: bytes) -> int:
        """Absorb ``W/8`` octets in transmission order.

        Uses precomputed 256-entry per-lane tables (the software
        analogue of the hardware XOR forest) so a word costs
        ``width/8 + W/8`` table lookups plus XORs.
        """
        state_tables, data_tables = self.lane_tables
        nxt = 0
        for table in state_tables:
            nxt ^= table[state & 0xFF]
            state >>= 8
        for table, byte in zip(data_tables, word):
            nxt ^= table[byte]
        return nxt

    @cached_property
    def lane_tables(self) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
        """Columns collapsed into per-byte-lane lookup tables of ints.

        Returns ``(state_tables, data_tables)``: ``ceil(width/8)``
        tables indexed by the corresponding state byte (lane 0 is the
        least significant), then ``W/8`` tables indexed by the data
        octet of that lane, with the octet's bits mapped to
        processing order per ``refin``.  Built on first use, once per
        matrices object (and :func:`build_matrices` memoizes those).
        """
        spec = self.spec
        state_tables = []
        for lane in range((spec.width + 7) // 8):
            cols = [
                self.f_columns[8 * lane + bit] if 8 * lane + bit < spec.width else 0
                for bit in range(8)
            ]
            state_tables.append(_xor_table(cols))
        data_tables = []
        for lane in range(self.bits_per_cycle // 8):
            # Processing order within the octet follows refin: octet
            # bit ``b`` is absorbed at position ``b`` (refin) or ``7-b``.
            cols = [
                self.h_columns[8 * lane + (bit if spec.refin else 7 - bit)]
                for bit in range(8)
            ]
            data_tables.append(_xor_table(cols))
        return tuple(state_tables), tuple(data_tables)


def _xor_table(cols: List[int]) -> Tuple[int, ...]:
    """``table[v]`` = XOR of ``cols[b]`` over the set bits ``b`` of ``v``."""
    table = [0] * 256
    for value in range(1, 256):
        low = value & -value
        table[value] = table[value ^ low] ^ cols[low.bit_length() - 1]
    return tuple(table)


def _columns_to_matrix(columns: Tuple[int, ...], width: int) -> np.ndarray:
    mat = np.zeros((width, len(columns)), dtype=np.uint8)
    for j, col in enumerate(columns):
        for i in range(width):
            mat[i, j] = (col >> i) & 1
    return mat


def _serial_absorb(ref: BitSerialCrc, state: int, bits: List[int]) -> int:
    for bit in bits:
        state = ref.core_step(state, bit)
    return state


@lru_cache(maxsize=64)
def _build_matrices_cached(spec_name: str, bits_per_cycle: int) -> CrcMatrices:
    return _build_matrices(get_spec(spec_name), bits_per_cycle)


def _build_matrices(spec: CrcSpec, bits_per_cycle: int) -> CrcMatrices:
    ref = BitSerialCrc(spec)
    zeros = [0] * bits_per_cycle
    # F columns: propagate each state unit vector through W zero bits.
    f_columns = tuple(
        _serial_absorb(ref, 1 << j, zeros) for j in range(spec.width)
    )
    # H columns: propagate zero state with exactly one data bit set.
    h_columns = []
    for k in range(bits_per_cycle):
        bits = [0] * bits_per_cycle
        bits[k] = 1
        h_columns.append(_serial_absorb(ref, 0, bits))
    return CrcMatrices(spec, bits_per_cycle, f_columns, tuple(h_columns))


def build_matrices(spec: CrcSpec, bits_per_cycle: int) -> CrcMatrices:
    """Construct ``F_W``/``H_W`` for ``spec`` at ``W = bits_per_cycle``.

    ``W`` must be a positive multiple of 8 (word-oriented datapaths);
    the paper uses W = 8 for the 8-bit P5 and W = 32 for the 32-bit P5.
    """
    if bits_per_cycle <= 0 or bits_per_cycle % 8:
        raise ValueError(f"bits_per_cycle must be a positive multiple of 8, got {bits_per_cycle}")
    try:
        cacheable = get_spec(spec.name) == spec
    except KeyError:
        cacheable = False
    if cacheable:
        return _build_matrices_cached(spec.name, bits_per_cycle)
    return _build_matrices(spec, bits_per_cycle)
