"""Property-based tests for the SONET layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sonet import PppOverSonet, SonetFramer, SonetRxFramer
from repro.sonet.scrambler import SelfSyncScrambler


@given(data=st.binary(min_size=0, max_size=600))
def test_selfsync_round_trip(data):
    tx, rx = SelfSyncScrambler(), SelfSyncScrambler()
    assert rx.descramble(tx.scramble(data)) == data


@given(
    data=st.binary(min_size=1, max_size=400),
    cuts=st.lists(st.integers(min_value=1, max_value=399), max_size=5),
)
def test_selfsync_chunking_invariance(data, cuts):
    """The scrambler's state carries across arbitrary chunk boundaries."""
    whole = SelfSyncScrambler().scramble(data)
    tx = SelfSyncScrambler()
    out = b""
    last = 0
    for cut in sorted(set(c for c in cuts if c < len(data))):
        out += tx.scramble(data[last:cut])
        last = cut
    out += tx.scramble(data[last:])
    assert out == whole


_DAMAGE = st.tuples(
    st.sampled_from(["framing", "flip", "slip"]),
    st.integers(min_value=0, max_value=7),          # which frame
    st.integers(min_value=0, max_value=2**16),      # where in it
)


@settings(max_examples=20, deadline=None)
@given(
    payload_seed=st.integers(min_value=0, max_value=2**16),
    junk=st.binary(max_size=50),
    damage=st.lists(_DAMAGE, max_size=6),
    cuts=st.lists(st.integers(min_value=0, max_value=20000), max_size=12),
)
def test_framer_alignment_chunking_invariance(payload_seed, junk, damage, cuts):
    """Any leading junk, broken A1/A2, bit flips and slips, under any
    chunking: the same payload, the same counters and the same state
    as feeding the whole stream at once, at every OOF threshold."""
    rng = np.random.default_rng(payload_seed)
    tx = SonetFramer(3)
    payloads = [
        rng.integers(0, 256, tx.payload_bytes_per_frame, dtype=np.uint8).tobytes()
        for _ in range(8)
    ]
    frames = [bytearray(tx.build(p)) for p in payloads]
    for kind, index, where in damage:
        frame = frames[index]
        if kind == "framing":
            frame[where % 6] ^= 0x40                 # one of A1 x3, A2 x3
        elif kind == "flip":
            frame[where % len(frame)] ^= 1 << (where % 8)
        else:
            # Slip: drop up to 12 octets, or repeat them.
            at, size = where % len(frame), 1 + where % 12
            frame[at : at + size] = frame[at : at + size] * (2 * (where & 1))
    wire = junk + b"".join(frames)
    bounds = [0] + sorted(c for c in cuts if c <= len(wire)) + [len(wire)]
    for oof_threshold in range(1, 6):
        whole = SonetRxFramer(3, oof_threshold=oof_threshold)
        chunked = SonetRxFramer(3, oof_threshold=oof_threshold)
        expected = whole.feed(wire)
        got = b"".join(chunked.feed(wire[a:b]) for a, b in zip(bounds, bounds[1:]))
        assert got == expected
        assert chunked.counters == whole.counters
        assert chunked.state is whole.state
        if not damage:
            # A clean stream loses at most the frames the junk cost.
            assert b"".join(payloads).endswith(expected)
            assert len(expected) >= 6 * tx.payload_bytes_per_frame


@settings(max_examples=20, deadline=None)
@given(
    frames=st.lists(st.binary(min_size=5, max_size=200), min_size=1, max_size=8),
    scrambling=st.booleans(),
)
def test_ppp_over_sonet_delivery(frames, scrambling):
    """Queued PPP contents always come back verbatim, in order."""
    contents = [b"\xff\x03\x00\x21" + f for f in frames]
    path = PppOverSonet(3, payload_scrambling=scrambling)
    for content in contents:
        path.queue_frame(content)
    got = []
    for _ in range(12):
        got += path.receive_line(path.next_line_frame())
        if len(got) == len(contents) and not path.tx_backlog_frames:
            break
    assert got == contents
    assert path.hdlc_stats.total_errors() == 0


def _bits(data):
    return [(octet >> (7 - k)) & 1 for octet in data for k in range(8)]


@settings(max_examples=150, deadline=None)
@given(
    prefix=st.binary(max_size=12),
    data=st.binary(max_size=80),
    cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=6),
)
def test_selfsync_matches_the_per_bit_recurrence(prefix, data, cuts):
    """Both directions, bit for bit, against the x^43+1 recurrences
    written out per bit: ``out[i] = in[i] ^ out[i-43]`` to scramble,
    ``out[i] = in[i] ^ in[i-43]`` to descramble.  ``data`` is fed in
    arbitrary pieces (empty ones and ones under 43 bits included)
    after ``prefix``, which leaves carried state (none when empty)."""
    bits = _bits(prefix + data)
    scrambled = []
    for i, bit in enumerate(bits):
        scrambled.append(bit ^ (scrambled[i - 43] if i >= 43 else 0))
    descrambled = [bit ^ (bits[i - 43] if i >= 43 else 0) for i, bit in enumerate(bits)]
    bounds = [0] + sorted(c for c in cuts if c <= len(data)) + [len(data)]
    pieces = [prefix] + [data[a:b] for a, b in zip(bounds, bounds[1:])]
    tx, rx = SelfSyncScrambler(), SelfSyncScrambler()
    assert _bits(b"".join(tx.scramble(p) for p in pieces)) == scrambled
    assert _bits(b"".join(rx.descramble(p) for p in pieces)) == descrambled
