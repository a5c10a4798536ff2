"""SONET scramblers.

Two distinct scramblers appear in PPP-over-SONET:

* the **frame-synchronous scrambler** (G.707 section 6.5): generator
  ``1 + x^6 + x^7``, seeded to all-ones on the first byte after row
  0's section overhead of each frame and applied to everything from
  there on.  Guarantees clock-recovery transition density for
  arbitrary *overhead*, but restarts predictably every frame.  Its
  keystream is the same for every frame, so it is a constant:
  :func:`frame_sync_sequence` tiles one 127-octet period, and
  :func:`repro.sonet.framer.frame_layout` turns it into each STS
  level's XOR mask once per process.
* the **self-synchronous x^43 + 1 payload scrambler** (RFC 2615):
  applied to the SPE payload before mapping, precisely because a
  malicious PPP payload can reproduce the frame-sync scrambler's
  pattern and kill the line ("scrambler-killer" packets).  RFC 1619
  (the paper's citation) lacked it; its absence is why RFC 1619 was
  obsoleted — we implement both so the path can be configured either
  way.  It carries state across calls and works on whole buffers as
  Python ints.
"""

from __future__ import annotations

__all__ = ["SelfSyncScrambler", "frame_sync_sequence"]


def _frame_sync_cycle() -> bytes:
    """One period of the 1 + x^6 + x^7 keystream from the all-ones
    seed, by its output recurrence ``b[i + 7] = b[i] ^ b[i + 1]``.  The
    bits repeat every 127, so the octets repeat every 127 octets."""
    bits = [1] * 7
    while len(bits) < 8 * 127:
        bits.append(bits[-7] ^ bits[-6])
    return int("".join(map(str, bits)), 2).to_bytes(127, "big")


_FRAME_SYNC_CYCLE = _frame_sync_cycle()


def frame_sync_sequence(nbytes: int) -> bytes:
    """The first ``nbytes`` octets of the frame-synchronous keystream;
    XOR with it both scrambles and descrambles."""
    cycles = nbytes // len(_FRAME_SYNC_CYCLE) + 1
    return (_FRAME_SYNC_CYCLE * cycles)[:nbytes]


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
