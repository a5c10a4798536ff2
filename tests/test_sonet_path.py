"""Integration tests: PPP over SONET (RFC 1619 / RFC 2615)."""

import gc
import tracemalloc

import pytest

from repro.ppp import PppEndpoint
from repro.sonet import PppOverSonet
from repro.workloads import ppp_frame_contents


@pytest.mark.parametrize("scrambling", [True, False], ids=["rfc2615", "rfc1619"])
class TestPathRoundTrip:
    def test_frames_recovered(self, scrambling):
        path = PppOverSonet(12, payload_scrambling=scrambling)
        frames = ppp_frame_contents(15, seed=1)
        for frame in frames:
            path.queue_frame(frame)
        got = []
        while path.tx_backlog_frames or len(got) < len(frames):
            got += path.receive_line(path.next_line_frame())
            if len(got) >= len(frames):
                break
        assert got == frames
        assert path.hdlc_stats.total_errors() == 0

    def test_idle_line_is_flag_fill(self, scrambling):
        """An empty queue still produces full frames (flag idle fill)."""
        path = PppOverSonet(3, payload_scrambling=scrambling)
        wire = path.next_line_frame()
        assert len(wire) == 9 * 270
        got = path.receive_line(wire)
        got += path.receive_line(path.next_line_frame())
        assert got == []
        assert path.hdlc_stats.total_errors() == 0


class TestRates:
    def test_oc48_carries_imix_burst(self):
        path = PppOverSonet(48)
        frames = ppp_frame_contents(40, seed=2)
        for frame in frames:
            path.queue_frame(frame)
        got = []
        for _ in range(4):   # 4 frames x 125us is plenty for 40 packets
            got += path.receive_line(path.next_line_frame())
        assert got == frames

    def test_backlog_drains_over_time(self):
        path = PppOverSonet(3)
        big = [b"\xff\x03\x00\x21" + bytes(1000) for _ in range(6)]
        for frame in big:
            path.queue_frame(frame)
        assert path.tx_backlog_frames > 0
        got = []
        for _ in range(8):
            got += path.receive_line(path.next_line_frame())
        assert got == big


class TestMisalignment:
    def test_rx_joins_late(self):
        path = PppOverSonet(3)
        # First line frame reaches the receiver clipped (powered up
        # late); it carries only idle flags and is lost to hunting.
        got = path.receive_line(path.next_line_frame()[100:])
        frames = ppp_frame_contents(5, seed=3)
        for frame in frames:
            path.queue_frame(frame)
        for _ in range(4):
            got += path.receive_line(path.next_line_frame())
        # The x^43+1 descrambler needs 43 bits to self-synchronise, so
        # the opening of the very first PPP frame is garbled and that
        # frame is lost to HDLC hunting; everything after is intact.
        assert got == frames[1:]
        assert path.hdlc_stats.octets_discarded_hunting > 0


class TestBoundedReceiverState:
    """A long-lived receiver holds one open frame, not its history."""

    LINE_FRAMES = 1050

    @staticmethod
    def _held_growth(step, calls):
        """Traced memory held after ``calls`` calls of ``step`` beyond
        what was held after the first 50 (``step`` keeps nothing
        itself, and per-frame state that is replaced nets out)."""
        tracemalloc.start()
        try:
            for _ in range(50):
                step()
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(calls - 50):
                step()
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()

    def test_pos_path_memory_does_not_grow_with_frames(self):
        path = PppOverSonet(3)
        # About 1,900 of the line frame's 2,340 payload octets: the TX
        # queue stays empty, so only the receiver could hold more.
        contents = [b"\xff\x03\x00\x21" + bytes([i]) * 200 for i in range(9)]
        delivered = [0]

        def step():
            for content in contents:
                path.queue_frame(content)
            delivered[0] += len(path.receive_line(path.next_line_frame()))

        growth = self._held_growth(step, self.LINE_FRAMES)
        assert path.tx_backlog_frames == 0
        assert delivered[0] >= 9 * self.LINE_FRAMES
        assert growth < 8 * 1024, f"{growth} octets held after {delivered[0]} frames"

    def test_ppp_endpoint_memory_does_not_grow_with_frames(self):
        endpoint = PppEndpoint("rx", magic_seed=1)
        wire = b"".join(
            endpoint.rx_framer.encode(b"\xff\x03\x00\x21" + bytes([i]) * 200)
            for i in range(9)
        )

        def step():
            endpoint.receive_wire(wire)

        growth = self._held_growth(step, self.LINE_FRAMES)
        assert endpoint.counters.frames_rx == 9 * self.LINE_FRAMES
        assert growth < 8 * 1024, f"{growth} octets held"
