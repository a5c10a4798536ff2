"""Unit tests for the frame-level 1+1 selector over two SONET lines."""

import pytest

from repro.resilience.aps import PROTECT, WORKING, ApsRequest, ProtectionSelector
from repro.sonet import SonetFramer, SonetRxFramer


class ApsHarness:
    """A bridged head end feeding both fibres of a 1+1 selector."""

    def __init__(self, n=3, **selector_kwargs):
        self.tx = SonetFramer(n)
        self.working_rx = SonetRxFramer(n, oof_threshold=1)
        self.protection_rx = SonetRxFramer(n, oof_threshold=1)
        self.selector = ProtectionSelector(
            self.working_rx, self.protection_rx, **selector_kwargs
        )
        self.payload = bytes([0x7E]) * self.tx.payload_bytes_per_frame

    def frame(self, *, cut_working=False, b2_working=False) -> bytes:
        wire = self.tx.build(self.payload)
        working = wire
        if cut_working:
            working = bytes(len(wire))          # LOS: all-zero line
        elif b2_working:
            damaged = bytearray(wire)
            # A payload bit in row 5: inside B2's coverage, not the B2 byte.
            damaged[5 * self.tx.rate.columns + 100] ^= 0x01
            working = bytes(damaged)
        return self.selector.receive_frame(working, wire)


class TestSelection:
    def test_starts_on_working(self):
        harness = ApsHarness()
        assert harness.selector.active == "working"

    def test_healthy_lines_no_switch(self):
        harness = ApsHarness()
        for _ in range(6):
            harness.frame()
        assert harness.selector.active == WORKING
        assert harness.selector.switches == []
        assert harness.selector.request is ApsRequest.NO_REQUEST

    def test_fibre_cut_switches_to_protection(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        for _ in range(3):
            harness.frame(cut_working=True)
        assert harness.selector.active == PROTECT
        assert harness.selector.switches[0].request is ApsRequest.SIGNAL_FAIL

    def test_payload_continues_after_switch(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        payloads = [harness.frame(cut_working=True) for _ in range(4)]
        # After the switch the protection line still delivers payload.
        assert any(p for p in payloads)

    def test_non_revertive_by_default(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        for _ in range(3):
            harness.frame(cut_working=True)
        for _ in range(6):
            harness.frame()   # working healthy again
        assert harness.selector.active == PROTECT

    def test_revertive_mode_switches_back(self):
        harness = ApsHarness(revertive=True)
        for _ in range(4):
            harness.frame()
        for _ in range(3):
            harness.frame(cut_working=True)
        assert harness.selector.active == PROTECT
        for _ in range(8):
            harness.frame()
        assert harness.selector.active == WORKING
        kinds = [r.request for r in harness.selector.switches]
        assert ApsRequest.WAIT_TO_RESTORE in kinds

    def test_no_switch_when_standby_also_down(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        # Both lines destroyed: selector must not flap onto a dead line.
        wire = harness.tx.build(harness.payload)
        harness.selector.receive_frame(bytes(len(wire)), bytes(len(wire)))
        harness.selector.receive_frame(bytes(len(wire)), bytes(len(wire)))
        assert harness.selector.active == WORKING
        assert harness.selector.switches == []

    def test_forced_switch(self):
        harness = ApsHarness()
        for _ in range(3):
            harness.frame()
        harness.selector.force_switch(harness.selector.frame_no)
        assert harness.selector.active == PROTECT
        assert harness.selector.request is ApsRequest.FORCED_SWITCH


class TestSignalDegrade:
    """SD is ``degrade_threshold`` consecutive B2-errored frames."""

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_persistent_b2_errors_switch(self, threshold):
        harness = ApsHarness(degrade_threshold=threshold)
        for _ in range(4):
            harness.frame()
        for _ in range(threshold + 2):
            harness.frame(b2_working=True)
        assert harness.selector.lines[WORKING].counters.oof_events == 0
        assert harness.selector.active == PROTECT
        assert harness.selector.switches[0].request is ApsRequest.SIGNAL_DEGRADE

    def test_short_b2_run_does_not_switch(self):
        harness = ApsHarness(degrade_threshold=3)
        for _ in range(4):
            harness.frame()
        for _ in range(3):
            # Two B2-errored frames, then two clean ones: B2 reports
            # the previous frame, so the second clean frame ends the run.
            harness.frame(b2_working=True)
            harness.frame(b2_working=True)
            harness.frame()
            harness.frame()
        assert harness.selector.lines[WORKING].counters.b2_errors >= 6
        assert harness.selector.active == WORKING
        assert harness.selector.switches == []


class TestSignalling:
    def test_k1_channel_number(self):
        harness = ApsHarness()
        for _ in range(3):
            harness.frame()
        assert harness.selector.k1_byte() & 0x0F == 0
        harness.selector.force_switch(harness.selector.frame_no)
        assert harness.selector.k1_byte() & 0x0F == 1

    def test_k1_request_code(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        for _ in range(3):
            harness.frame(cut_working=True)
        # After the event the steady state is NO_REQUEST again or the
        # recorded event holds SIGNAL_FAIL.
        kinds = [r.request for r in harness.selector.switches]
        assert ApsRequest.SIGNAL_FAIL in kinds

    def test_switch_event_log(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        for _ in range(3):
            harness.frame(cut_working=True)
        record = harness.selector.switches[0]
        assert record.to_lane == PROTECT and record.interval > 4
