"""SONET scramblers.

Two distinct scramblers appear in PPP-over-SONET:

* the **frame-synchronous scrambler** (G.707 section 6.5): generator
  ``1 + x^6 + x^7``, seeded to all-ones on the first SPE byte of each
  frame, applied to everything except the first row of section
  overhead.  Guarantees clock-recovery transition density for
  arbitrary *overhead*, but restarts predictably every frame.
* the **self-synchronous x^43 + 1 payload scrambler** (RFC 2615):
  applied to the SPE payload before mapping, precisely because a
  malicious PPP payload can reproduce the frame-sync scrambler's
  pattern and kill the line ("scrambler-killer" packets).  RFC 1619
  (the paper's citation) lacked it; its absence is why RFC 1619 was
  obsoleted — we implement both so the path can be configured either
  way.

Both are GF(2) LFSR streams: the frame-synchronous keystream is a
cached numpy array, and the x^43 scrambler works on whole buffers as
Python ints.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FrameSyncScrambler", "SelfSyncScrambler"]


class FrameSyncScrambler:
    """The 2^7 - 1 frame-synchronous scrambler (1 + x^6 + x^7).

    :meth:`sequence` produces the keystream bytes for one frame; XOR
    is its own inverse so the same call descrambles.
    """

    def __init__(self) -> None:
        self._cache: dict = {}

    def sequence(self, nbytes: int) -> np.ndarray:
        """Keystream of ``nbytes`` bytes, starting from the all-ones seed."""
        if nbytes in self._cache:
            return self._cache[nbytes]
        state = 0x7F  # seven ones
        out = np.empty(nbytes, dtype=np.uint8)
        for i in range(nbytes):
            byte = 0
            for _ in range(8):
                bit = (state >> 6) & 1            # output = x^7 tap
                feedback = ((state >> 6) ^ (state >> 5)) & 1  # x^7 + x^6
                state = ((state << 1) | feedback) & 0x7F
                byte = (byte << 1) | bit
            out[i] = byte
        self._cache[nbytes] = out
        return out

    def apply(self, data: np.ndarray) -> np.ndarray:
        """Scramble/descramble a frame-aligned byte array."""
        data = np.asarray(data, dtype=np.uint8)
        return data ^ self.sequence(data.size)


class SelfSyncScrambler:
    """The x^43 + 1 self-synchronous scrambler.

    Scramble: ``out[i] = in[i] ^ out[i-43]`` (bitwise over the bit
    stream).  Descramble: ``out[i] = in[i] ^ in[i-43]`` — errors
    propagate exactly 43 bits, and the two directions maintain
    independent 43-bit state carried across calls (the stream spans
    frame boundaries).

    A buffer is one Python int, first bit most significant, with the
    43-bit state above it, so bit ``i - 43`` sits 43 places above bit
    ``i`` and each direction is a few whole-int shifts and XORs.
    """

    TAPS = 43
    _MASK = (1 << TAPS) - 1

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._tx_state = 0
        self._rx_state = 0

    def scramble(self, data: bytes) -> bytes:
        """Scramble ``data`` continuing from previous state.

        Only the last 43 outputs (the state) feed later bits, so
        running the recurrence over ``state << n | in`` from zero
        reproduces the stream.  Its solution is the prefix XOR of that
        int in steps of 43 bits, built by doubling:
        ``y ^= y >> 43 * 2**k``.
        """
        n = 8 * len(data)
        y = self._tx_state << n | int.from_bytes(data, "big")
        step = self.TAPS
        while step < n + self.TAPS:
            y ^= y >> step
            step <<= 1
        self._tx_state = y & self._MASK
        return (y & ((1 << n) - 1)).to_bytes(len(data), "big")

    def descramble(self, data: bytes) -> bytes:
        """Descramble ``data`` continuing from previous state."""
        n = 8 * len(data)
        x = int.from_bytes(data, "big")
        z = self._rx_state << n | x
        self._rx_state = z & self._MASK
        return (x ^ z >> self.TAPS).to_bytes(len(data), "big")
