"""SONET pointer interpretation and alignment robustness details."""

import numpy as np
import pytest

from repro.errors import PointerError
from repro.sonet import FramerState, SonetFramer, SonetRxFramer, frame_layout
from repro.sonet.constants import A1, A2, LOF_FRAMES


def payload_for(framer, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, framer.payload_bytes_per_frame,
                        dtype=np.uint8).tobytes()


class TestPointerSweep:
    @pytest.mark.parametrize("pointer", [0, 1, 86, 260, 500, 782])
    def test_any_pointer_round_trips(self, pointer):
        tx = SonetFramer(3, pointer=pointer)
        rx = SonetRxFramer(3)
        sent = payload_for(tx, seed=pointer)
        rx.feed(tx.build(sent))
        got = rx.feed(tx.build(sent))
        assert got == sent
        assert rx.counters.pointer_invalid == 0

    def test_pointer_bounds(self):
        with pytest.raises(PointerError):
            SonetFramer(3, pointer=783)
        with pytest.raises(PointerError):
            SonetFramer(3, pointer=-1)

    def test_mismatched_pointer_still_decodes_consistently(self):
        """The RX follows whatever pointer the TX wrote — it never
        assumes a fixed offset."""
        for pointer in (0, 37):
            tx = SonetFramer(12, pointer=pointer)
            rx = SonetRxFramer(12)
            sent = payload_for(tx, seed=3)
            rx.feed(tx.build(sent))
            assert rx.feed(tx.build(sent)) == sent


class TestLofEscalation:
    def test_lof_after_persistent_oof(self):
        tx = SonetFramer(3)
        rx = SonetRxFramer(3, oof_threshold=1)
        good = payload_for(tx)
        for _ in range(3):
            rx.feed(tx.build(good))
        assert rx.state is FramerState.SYNC
        # Garbage short of LOF_FRAMES frame-times is OOF only...
        for _ in range(LOF_FRAMES - 1):
            rx.feed(bytes(rx.frame_bytes))
        assert rx.counters.oof_events == 1
        assert rx.counters.lof_events == 0
        # ...and persisting past them escalates to LOF, once.
        for _ in range(LOF_FRAMES):
            rx.feed(bytes(rx.frame_bytes))
        assert rx.counters.oof_events == 1
        assert rx.counters.lof_events == 1

    def test_recovery_after_lof(self):
        tx = SonetFramer(3)
        rx = SonetRxFramer(3, oof_threshold=1)
        good = payload_for(tx)
        for _ in range(3):
            rx.feed(tx.build(good))
        for _ in range(LOF_FRAMES + 2):
            rx.feed(bytes(rx.frame_bytes))
        assert rx.counters.lof_events == 1
        # Clean signal returns: re-hunt, presync, sync.
        for _ in range(4):
            rx.feed(tx.build(good))
        assert rx.state is FramerState.SYNC

    def test_false_locks_do_not_restart_the_lof_timer(self):
        """A dead line whose junk carries a framing look-alike every few
        frame-times never reaches SYNC, so it is still loss of frame."""
        tx = SonetFramer(3)
        rx = SonetRxFramer(3, oof_threshold=1)
        good = payload_for(tx)
        for _ in range(3):
            rx.feed(tx.build(good))
        look_alike = bytes([A1] * 3 + [A2] * 3)
        for i in range(100):
            junk = bytes(rx.frame_bytes)
            if i % 10 == 0:
                junk = look_alike + junk[len(look_alike):]
            rx.feed(junk)
        assert rx.state is not FramerState.SYNC
        assert rx.counters.oof_events == 1
        assert rx.counters.lof_events == 1

    def test_parity_state_reset_on_resync(self):
        """After re-hunting, stale B1/B3 latches must not fire."""
        tx = SonetFramer(3)
        rx = SonetRxFramer(3, oof_threshold=1)
        good = payload_for(tx)
        for _ in range(3):
            rx.feed(tx.build(good))
        rx.feed(bytes(10))   # slip
        b1_before = rx.counters.b1_errors
        for _ in range(4):
            rx.feed(tx.build(good))
        # One bounded burst of parity noise at the re-lock is
        # acceptable; it must not grow on subsequent clean frames.
        b1_at_relock = rx.counters.b1_errors
        for _ in range(4):
            rx.feed(tx.build(good))
        assert rx.counters.b1_errors <= b1_at_relock + 1


class TestScramblerInterop:
    def test_unscrambled_line_garbles_payload(self):
        """A line that skips frame-sync scrambling still aligns (A1/A2
        are never scrambled), but its payload comes out garbled."""
        tx = SonetFramer(3)
        rx = SonetRxFramer(3, oof_threshold=1)
        keystream = frame_layout(3, 0).keystream
        payload = payload_for(tx)
        recovered = b""
        for _ in range(5):
            line = np.frombuffer(tx.build(payload), dtype=np.uint8)
            recovered += rx.feed((line ^ keystream).tobytes())
        assert rx.state is FramerState.SYNC
        assert payload not in recovered

    def test_b1_catches_single_line_error(self):
        tx = SonetFramer(3)
        rx = SonetRxFramer(3)
        payload = payload_for(tx)
        rx.feed(tx.build(payload))
        rx.feed(tx.build(payload))
        damaged = bytearray(tx.build(payload))
        damaged[100] ^= 0x10
        rx.feed(bytes(damaged))
        rx.feed(tx.build(payload))   # parity report lands next frame
        assert rx.counters.b1_errors == 1
