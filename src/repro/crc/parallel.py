"""Word-parallel CRC engine — the software model of the P5 CRC core.

:class:`ParallelCrc` absorbs ``W/8`` octets per :meth:`step` call,
exactly like the hardware absorbs one datapath word per clock.  The
8-bit P5 instantiates it with ``bits_per_cycle=8`` (the paper's 8 x 32
matrix for CRC-32), the 32-bit P5 with ``bits_per_cycle=32`` (32 x 32).

Partial trailing words (frames are rarely multiples of 4 bytes) are
handled the way the hardware's "CRC controller" does: final bytes fall
back to byte-granularity absorption, modelling the byte-enable logic
the CRC unit needs on the last beat.
"""

from __future__ import annotations

from repro.crc.matrix import CrcMatrices, build_matrices
from repro.crc.polynomial import CrcSpec
from repro.utils.bits import bit_reflect

__all__ = ["ParallelCrc"]


class ParallelCrc:
    """W-bits-per-cycle CRC calculator built on GF(2) matrices.

    Parameters
    ----------
    spec:
        CRC parameter set (e.g. ``repro.crc.CRC32`` for PPP FCS-32).
    bits_per_cycle:
        Datapath width ``W`` in bits; a positive multiple of 8.
    """

    def __init__(self, spec: CrcSpec, bits_per_cycle: int) -> None:
        self.spec = spec
        self.bits_per_cycle = bits_per_cycle
        self.matrices: CrcMatrices = build_matrices(spec, bits_per_cycle)
        # Byte-granularity matrices for the ragged tail of a frame.
        self._byte_matrices: CrcMatrices = build_matrices(spec, 8)
        self._state = spec.init
        self.words_absorbed = 0

    @property
    def bytes_per_cycle(self) -> int:
        """Octets absorbed per full-width step (``W / 8``)."""
        return self.bits_per_cycle // 8

    # ------------------------------------------------------------- streaming
    def reset(self) -> None:
        """Restart with the spec's initial register value."""
        self._state = self.spec.init
        self.words_absorbed = 0

    @property
    def state(self) -> int:
        """Raw register in the canonical domain (matches BitSerialCrc)."""
        return self._state

    def step(self, word: bytes) -> None:
        """Absorb one full datapath word (exactly ``W/8`` octets)."""
        if len(word) != self.bytes_per_cycle:
            raise ValueError(
                f"step requires exactly {self.bytes_per_cycle} octets, got {len(word)}"
            )
        self._state = self.matrices.step_word(self._state, word)
        self.words_absorbed += 1

    def step_partial(self, tail: bytes) -> None:
        """Absorb a ragged tail of 1..W/8-1 octets (last beat of a frame)."""
        if not 0 < len(tail) < self.bytes_per_cycle:
            raise ValueError(
                f"partial step takes 1..{self.bytes_per_cycle - 1} octets, got {len(tail)}"
            )
        state_tables, (octet_table,) = self._byte_matrices.lane_tables
        state = self._state
        for byte in tail:
            nxt = octet_table[byte]
            for table in state_tables:
                nxt ^= table[state & 0xFF]
                state >>= 8
            state = nxt
        self._state = state
        self.words_absorbed += 1

    def update(self, data: bytes) -> "ParallelCrc":
        """Absorb an arbitrary-length buffer word-by-word."""
        step_bytes = self.bytes_per_cycle
        full_end = len(data) - (len(data) % step_bytes)
        for off in range(0, full_end, step_bytes):
            self.step(data[off : off + step_bytes])
        if full_end != len(data):
            self.step_partial(data[full_end:])
        return self

    # --------------------------------------------------------------- results
    def value(self) -> int:
        """Published CRC of everything absorbed so far."""
        spec = self.spec
        reg = self._state
        if spec.refout:
            reg = bit_reflect(reg, spec.width)
        return reg ^ spec.xorout

    def residue_value(self) -> int:
        """Register in the refout domain without xorout (residue check)."""
        spec = self.spec
        reg = self._state
        if spec.refout:
            reg = bit_reflect(reg, spec.width)
        return reg

    def compute(self, data: bytes) -> int:
        """One-shot CRC of ``data`` (resets first)."""
        self.reset()
        self.update(data)
        return self.value()
