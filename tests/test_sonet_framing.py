"""Unit tests for SONET frame construction, alignment and monitoring."""

import itertools

import numpy as np
import pytest

from repro.errors import PointerError, SonetError
from repro.sonet import (
    FramerState,
    SonetFramer,
    SonetRxFramer,
    payload_capacity_bytes,
    rate_for,
)
from repro.sonet.constants import A1, A2, ROWS, SONET_C2_PPP_SCRAMBLED
from repro.sonet.framer import _bip8, frame_layout
from repro.sonet.rates import fixed_stuff_columns


class TestRates:
    def test_oc48_is_2_5_gbps(self):
        """The paper's target rate."""
        rate = rate_for(48)
        assert rate.line_rate_bps == pytest.approx(2.48832e9)
        assert rate.sdh_name == "STM-16"

    def test_oc3_oc12(self):
        assert rate_for(3).line_rate_bps == pytest.approx(155.52e6)
        assert rate_for(12).line_rate_bps == pytest.approx(622.08e6)

    def test_payload_capacity(self):
        # STS-3c: 2340 total, 9 TOH cols * 9 rows = 81... payload =
        # (270-9-1) * 9 = 2340 bytes SPE minus POH = 2340.
        assert payload_capacity_bytes(3) == (270 - 9 - 1) * 9

    def test_fixed_stuff_scaling(self):
        from repro.sonet.rates import fixed_stuff_columns

        assert fixed_stuff_columns(1) == 0
        assert fixed_stuff_columns(3) == 0
        assert fixed_stuff_columns(12) == 3
        assert fixed_stuff_columns(48) == 15

    def test_names(self):
        assert rate_for(1).name == "STS-1"
        assert rate_for(3).name == "STS-3c"
        assert rate_for(48).oc_name == "OC-48"


def make_payload(framer: SonetFramer, fill: int = 0x7E) -> bytes:
    return bytes([fill]) * framer.payload_bytes_per_frame


class TestFramer:
    @pytest.mark.parametrize("n", [1, 3, 12, 48])
    def test_frame_size(self, n):
        framer = SonetFramer(n)
        wire = framer.build(make_payload(framer))
        assert len(wire) == ROWS * 90 * n

    def test_framing_bytes_unscrambled(self):
        framer = SonetFramer(3)
        wire = framer.build(make_payload(framer))
        assert wire[:3] == bytes([A1] * 3)
        assert wire[3:6] == bytes([A2] * 3)

    def test_payload_length_enforced(self):
        framer = SonetFramer(3)
        with pytest.raises(SonetError):
            framer.build(b"short")

    def test_pointer_validated(self):
        with pytest.raises(PointerError):
            SonetFramer(3, pointer=783)

    def test_layout_partitions_the_spe(self):
        """Payload spans, the POH column and the fixed stuff cover the
        SPE of every row once each; the TOH and row 0's scrambling
        exemption are the first 3N columns."""
        for n, pointer in itertools.product((1, 3, 12, 48), (0, 1, 86, 782)):
            layout = frame_layout(n, pointer)
            rate = rate_for(n)
            toh, columns = rate.toh_columns, rate.columns
            covered = [0] * layout.frame_bytes
            for start, stop in layout.spans:
                assert start < stop
                for offset in range(start, stop):
                    covered[offset] += 1
            starts = [start for start, _ in layout.spans]
            assert starts == sorted(starts)
            assert sum(covered) == payload_capacity_bytes(n)
            stuff = fixed_stuff_columns(n)
            for row in range(ROWS):
                cells = covered[layout.offset(row, 0) : layout.offset(row + 1, 0)]
                assert not any(cells[:toh])
                assert cells[layout.poh] == 0
                assert cells.count(0) == toh + 1 + stuff
                assert cells.count(1) == columns - toh - 1 - stuff
            assert layout.poh == toh + pointer % rate.spe_columns
            assert sorted(layout.toh) == [
                layout.offset(row, col) for row in range(ROWS) for col in range(toh)
            ]
            assert not layout.keystream[:toh].any()
            assert layout.keystream[toh:].any()

    def test_bip8_definition(self):
        data = np.array([0b1100, 0b1010], dtype=np.uint8)
        assert _bip8(data) == 0b0110


class TestRxAlignment:
    def _link(self, n=3, **kw):
        return SonetFramer(n), SonetRxFramer(n, **kw)

    def test_round_trip_payload(self, rng):
        tx, rx = self._link()
        sent = rng.integers(0, 256, tx.payload_bytes_per_frame,
                            dtype=np.uint8).tobytes()
        rx.feed(tx.build(sent))          # frame 1: presync
        got = rx.feed(tx.build(sent))    # keeps flowing
        assert got == sent

    def test_alignment_after_junk(self, rng):
        tx, rx = self._link()
        junk = bytes(b for b in rng.integers(0, 256, 777, dtype=np.uint8)
                     if True)
        payload = make_payload(tx)
        rx.feed(junk)
        for _ in range(3):
            rx.feed(tx.build(payload))
        assert rx.state is FramerState.SYNC
        assert rx.counters.bytes_discarded_hunting >= 1

    def test_chunked_feed(self, rng):
        tx, rx = self._link()
        payload = rng.integers(0, 256, tx.payload_bytes_per_frame,
                               dtype=np.uint8).tobytes()
        wire = b"".join(tx.build(payload) for _ in range(4))
        got = b""
        for i in range(0, len(wire), 53):   # ATM-cell-sized chunks, why not
            got += rx.feed(wire[i : i + 53])
        assert got == payload * 4

    def test_presync_requires_two_frames(self):
        tx, rx = self._link()
        rx.feed(tx.build(make_payload(tx)))
        assert rx.state is FramerState.PRESYNC
        rx.feed(tx.build(make_payload(tx)))
        assert rx.state is FramerState.SYNC

    def test_false_lock_in_junk_is_not_loss_of_frame(self):
        """A1/A2 look-alikes in junk lock the receiver into PRESYNC; the
        next missed framing sends it back to the hunt at once, with no
        OOF event, so every real frame that follows lands."""
        tx, rx = self._link()
        rx.feed(bytes(100) + bytes([A1] * 3 + [A2] * 3) + bytes(500))
        for _ in range(8):
            rx.feed(tx.build(make_payload(tx)))
        assert rx.counters.oof_events == 0
        assert rx.counters.frames_ok == 8      # the false frame, then all 7 after it
        assert rx.state is FramerState.SYNC

    def test_loss_of_alignment_rehunts(self, rng):
        tx, rx = self._link(oof_threshold=1)
        payload = make_payload(tx)
        for _ in range(3):
            rx.feed(tx.build(payload))
        assert rx.state is FramerState.SYNC
        # Slip the stream by a few bytes: framing breaks.
        rx.feed(bytes(5))
        for _ in range(3):
            rx.feed(tx.build(payload))
        assert rx.counters.oof_events >= 1
        # It eventually re-locks.
        for _ in range(3):
            rx.feed(tx.build(payload))
        assert rx.state is FramerState.SYNC


class TestOverheadMonitoring:
    def test_clean_link_no_parity_errors(self, rng):
        tx = SonetFramer(3)
        rx = SonetRxFramer(3, expected_c2=SONET_C2_PPP_SCRAMBLED)
        for _ in range(6):
            payload = rng.integers(0, 256, tx.payload_bytes_per_frame,
                                   dtype=np.uint8).tobytes()
            rx.feed(tx.build(payload))
        c = rx.counters
        assert c.b1_errors == 0 and c.b2_errors == 0 and c.b3_errors == 0
        assert c.c2_mismatches == 0 and c.frames_ok == 6

    def test_corruption_hits_bip(self, rng):
        tx = SonetFramer(3)
        rx = SonetRxFramer(3)
        payload = make_payload(tx)
        rx.feed(tx.build(payload))
        rx.feed(tx.build(payload))
        wire = bytearray(tx.build(payload))
        wire[500] ^= 0x04           # corrupt one payload byte
        rx.feed(bytes(wire))
        rx.feed(tx.build(payload))  # parity for the dirty frame lands here
        assert rx.counters.b1_errors >= 1
        assert rx.counters.b3_errors >= 1

    def test_c2_mismatch_detected(self):
        tx = SonetFramer(3, c2=0xCF)
        rx = SonetRxFramer(3, expected_c2=SONET_C2_PPP_SCRAMBLED)
        for _ in range(2):
            rx.feed(tx.build(make_payload(tx)))
        assert rx.counters.c2_mismatches >= 1

    def test_nonzero_pointer_followed(self, rng):
        tx = SonetFramer(3, pointer=100)
        rx = SonetRxFramer(3)
        sent = rng.integers(0, 256, tx.payload_bytes_per_frame,
                            dtype=np.uint8).tobytes()
        rx.feed(tx.build(sent))
        got = rx.feed(tx.build(sent))
        assert got == sent

    def test_payload_is_scrambled_on_the_wire(self):
        """G.707 frame-sync scrambling is always on: a flag-fill
        payload does not appear on the wire, yet comes back intact."""
        tx, rx = SonetFramer(3), SonetRxFramer(3)
        payload = make_payload(tx)
        wires = [tx.build(payload) for _ in range(2)]
        assert all(payload[:90] not in wire for wire in wires)
        rx.feed(wires[0])
        assert rx.feed(wires[1]) == payload
