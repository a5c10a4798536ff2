"""Unit tests for the SONET scramblers."""

import numpy as np

from repro.sonet.scrambler import SelfSyncScrambler, frame_sync_sequence


def _bits(octets: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(octets, dtype=np.uint8))


class TestFrameSync:
    def test_period_127(self):
        """1 + x^6 + x^7 is maximal-length: period 127 bits."""
        bits = _bits(frame_sync_sequence(127 * 2))
        assert np.array_equal(bits[:127], bits[127:254])
        # and no shorter period dividing 127 (127 is prime: check != all-same)
        assert bits[:127].sum() not in (0, 127)

    def test_starts_all_ones(self):
        """Seed 1111111 makes the first 7 output bits ones."""
        first = frame_sync_sequence(1)[0]
        assert first >> 1 == 0x7F   # top seven bits set

    def test_deterministic(self):
        assert frame_sync_sequence(100) == frame_sync_sequence(100)
        assert frame_sync_sequence(300)[:100] == frame_sync_sequence(100)

    def test_matches_the_per_bit_lfsr(self):
        """The tiled 127-octet cycle equals the LFSR run bit by bit
        over a whole STS-48c frame's scrambled region."""
        nbytes = 9 * 90 * 48 - 3 * 48
        state, bits = 0x7F, []
        for _ in range(8 * nbytes):
            bits.append((state >> 6) & 1)
            state = ((state << 1) | (((state >> 6) ^ (state >> 5)) & 1)) & 0x7F
        assert np.array_equal(_bits(frame_sync_sequence(nbytes)), bits)

    def test_balanced_output(self):
        """Roughly half the keystream bits are ones (DC balance)."""
        bits = _bits(frame_sync_sequence(1270))
        assert 0.45 < bits.mean() < 0.55


class TestSelfSync:
    def test_round_trip_single_call(self, rng):
        data = rng.integers(0, 256, 1000, dtype=np.uint8).tobytes()
        tx, rx = SelfSyncScrambler(), SelfSyncScrambler()
        assert rx.descramble(tx.scramble(data)) == data

    def test_round_trip_chunked(self, rng):
        """State carries across calls: chunking must not matter."""
        data = rng.integers(0, 256, 997, dtype=np.uint8).tobytes()
        tx, rx = SelfSyncScrambler(), SelfSyncScrambler()
        out = b""
        for i in range(0, len(data), 100):
            out += rx.descramble(tx.scramble(data[i : i + 100]))
        assert out == data

    def test_chunked_equals_whole(self, rng):
        data = rng.integers(0, 256, 500, dtype=np.uint8).tobytes()
        whole = SelfSyncScrambler().scramble(data)
        tx = SelfSyncScrambler()
        chunked = tx.scramble(data[:123]) + tx.scramble(data[123:])
        assert chunked == whole

    def test_self_synchronisation(self, rng):
        """A receiver joining mid-stream recovers after 43 bits."""
        data = rng.integers(0, 256, 400, dtype=np.uint8).tobytes()
        scrambled = SelfSyncScrambler().scramble(data)
        late_rx = SelfSyncScrambler()            # wrong (zero) state
        recovered = late_rx.descramble(scrambled[8:])   # skip 64 bits
        # After the first ceil(43/8)=6 bytes, output matches the source.
        assert recovered[6:] == data[8 + 6 :]

    def test_error_propagation_limited(self, rng):
        """One flipped bit corrupts at most 2 bits, 43 bits apart."""
        data = rng.integers(0, 256, 200, dtype=np.uint8).tobytes()
        scrambled = bytearray(SelfSyncScrambler().scramble(data))
        scrambled[50] ^= 0x10
        recovered = SelfSyncScrambler().descramble(bytes(scrambled))
        diff = np.unpackbits(
            np.frombuffer(recovered, dtype=np.uint8)
            ^ np.frombuffer(data, dtype=np.uint8)
        )
        assert diff.sum() == 2
        positions = np.flatnonzero(diff)
        assert positions[1] - positions[0] == 43

    def test_breaks_constant_payloads(self):
        """The RFC 2615 motivation: constant payloads gain transitions."""
        killer = bytes(1000)   # all zeros
        scrambled = SelfSyncScrambler().scramble(killer)
        assert scrambled == killer  # zeros stay zeros from zero state...
        tx = SelfSyncScrambler()
        tx.scramble(b"\xa5" * 10)  # ...but any prior traffic seeds state
        scrambled = tx.scramble(killer)
        bits = np.unpackbits(np.frombuffer(scrambled, dtype=np.uint8))
        assert 0 < bits.mean() < 1

    def test_reset(self, rng):
        data = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
        tx = SelfSyncScrambler()
        first = tx.scramble(data)
        tx.reset()
        assert tx.scramble(data) == first

    def test_empty(self):
        assert SelfSyncScrambler().scramble(b"") == b""
        assert SelfSyncScrambler().descramble(b"") == b""
