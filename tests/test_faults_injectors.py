"""The fault sources: BeatFaultInjector, storms, register upsets."""

import pytest

from repro.core.config import P5Config
from repro.core.oam import (
    ADDR_CTRL,
    ADDR_FRAMING,
    CTRL_RX_ENABLE,
    CTRL_TX_ENABLE,
)
from repro.core.p5 import P5System
from repro.faults import (
    MAX_BURST_BITS,
    BeatFaultInjector,
    OamRegisterUpset,
    backpressure_storm,
)
from repro.rtl.module import Channel
from repro.rtl.pipeline import StallPattern, StreamSink, StreamSource, beats_from_bytes
from repro.rtl.simulator import Simulator


def run_wire(data, *, width=4, arm=None, seed=0):
    """Drive ``data`` through an injector wire; returns (injector, sink)."""
    c_in = Channel("fi.in", 4)
    c_out = Channel("fi.out", 4)
    src = StreamSource("src", c_in, beats_from_bytes(data, width, frame_marks=False))
    fi = BeatFaultInjector("fi", c_in, c_out, seed=seed)
    if arm is not None:
        fi.arm(**arm)
    sink = StreamSink("sink", c_out)
    sim = Simulator([src, fi, sink], [c_in, c_out])
    sim.run_until(
        lambda: src.done and not c_in.can_pop and not c_out.can_pop,
        timeout=10_000,
        watchdog=500,
    )
    return fi, sink


def bit_diff(a, b):
    return bin(int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).count("1")


class TestTransparentWire:
    def test_unarmed_wire_is_transparent(self, rng):
        data = rng.integers(0, 256, 64, dtype="uint8").tobytes()
        fi, sink = run_wire(data)
        assert sink.data() == data
        assert fi.faults_applied == 0
        assert fi.events == []
        assert fi.line.stats.bits_flipped == 0

    def test_capacity_needs_declares_the_dup_burst(self):
        c_in, c_out = Channel("a", 4), Channel("b", 4)
        fi = BeatFaultInjector("fi", c_in, c_out)
        ((chan, words, _reason),) = fi.capacity_needs()
        assert chan is c_out
        assert words == 2


class TestArmValidation:
    def setup_method(self):
        self.fi = BeatFaultInjector("fi", Channel("a", 4), Channel("b", 4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            self.fi.arm("gamma-ray")

    def test_bits_bounded_by_crc32_burst_length(self):
        with pytest.raises(ValueError, match="CRC-32"):
            self.fi.arm("burst", bits=MAX_BURST_BITS + 1)
        with pytest.raises(ValueError):
            self.fi.arm("burst", bits=0)

    def test_double_arm_rejected(self):
        self.fi.arm("bit")
        with pytest.raises(ValueError, match="still armed"):
            self.fi.arm("drop")


class TestLineLayer:
    def test_single_bit_flip(self, rng):
        data = rng.integers(0, 256, 32, dtype="uint8").tobytes()
        fi, sink = run_wire(data, arm={"kind": "bit", "after_beats": 2})
        assert bit_diff(sink.data(), data) == 1
        assert fi.line.stats.bits_flipped == 1
        (event,) = fi.events
        assert event.layer == "line"
        assert event.kind == "bit"
        assert event.beat_index == 2
        assert event.detail["bits"] == 1

    def test_burst_spans_word_boundaries(self, rng):
        data = rng.integers(0, 256, 24, dtype="uint8").tobytes()
        fi, sink = run_wire(
            data, width=1, arm={"kind": "burst", "after_beats": 1, "bits": 20}
        )
        # A 20-bit burst cannot fit one 8-bit word: it must continue
        # across following beats and fully drain.
        assert fi.burst_bits_left == 0
        assert fi.line.stats.bits_flipped == 20
        assert bit_diff(sink.data(), data) == 20
        assert fi.beats_corrupted >= 3

    def test_burst_flips_are_contiguous(self):
        data = bytes(16)  # all zeros: flipped bits read back as ones
        fi, sink = run_wire(
            data, width=4, arm={"kind": "burst", "after_beats": 0, "bits": 12}
        )
        got = sink.data()
        ones = [i for i in range(8 * len(got))
                if got[i // 8] & (0x80 >> (i % 8))]
        assert len(ones) == 12
        assert ones == list(range(ones[0], ones[0] + 12))

    def test_line_stats_are_ground_truth(self, rng):
        data = rng.integers(0, 256, 40, dtype="uint8").tobytes()
        fi, _ = run_wire(data, arm={"kind": "burst", "bits": 7})
        assert fi.line.stats.bursts >= 1
        assert fi.line.stats.bits_flipped == 7
        assert fi.line.stats.bits_sent > 0


class TestBeatLayer:
    def test_drop_deletes_one_word(self, rng):
        data = rng.integers(0, 256, 32, dtype="uint8").tobytes()
        fi, sink = run_wire(data, arm={"kind": "drop", "after_beats": 3})
        assert sink.data() == data[:12] + data[16:]
        assert fi.beats_dropped == 1
        assert fi.events[0].layer == "beat"

    def test_dup_delivers_the_word_twice(self, rng):
        data = rng.integers(0, 256, 32, dtype="uint8").tobytes()
        fi, sink = run_wire(data, arm={"kind": "dup", "after_beats": 1})
        assert sink.data() == data[:8] + data[4:8] + data[8:]
        assert fi.beats_duplicated == 1
        # Two pushes happened on the duplicated cycle.
        assert fi.words_moved == len(data) // 4 + 1

    def test_lane_upset_on_full_word_deletes_an_octet(self, rng):
        data = rng.integers(0, 256, 32, dtype="uint8").tobytes()
        fi, sink = run_wire(data, arm={"kind": "lane", "after_beats": 5})
        # Input lanes are all valid, so the toggle always invalidates.
        assert len(sink.data()) == len(data) - 1
        (event,) = fi.events
        assert event.detail["now_valid"] == 0
        assert 0 <= event.detail["lane"] < 4

    def test_exactly_one_fault_per_arming(self, rng):
        data = rng.integers(0, 256, 64, dtype="uint8").tobytes()
        fi, _ = run_wire(data, arm={"kind": "drop"})
        assert fi.faults_applied == 1
        assert fi.beats_dropped == 1
        assert len(fi.events) == 1


class TestBackpressureStorm:
    def test_returns_a_stall_pattern(self):
        assert isinstance(backpressure_storm(0.5, seed=1), StallPattern)

    @pytest.mark.parametrize("probability", [0.0, -0.1, 0.76, 1.0])
    def test_probability_bounds(self, probability):
        with pytest.raises(ValueError):
            backpressure_storm(probability)

    def test_burst_must_be_positive(self):
        with pytest.raises(ValueError):
            backpressure_storm(0.5, burst=0)


class TestOamRegisterUpset:
    def make(self, seed=7):
        system = P5System(P5Config.thirty_two_bit())
        return system, OamRegisterUpset(system.oam, seed=seed)

    def test_unknown_target_rejected(self):
        _, upset = self.make()
        with pytest.raises(ValueError, match="unknown upset target"):
            upset.inject(target="voltage")

    def test_counter_writes_bounce_off_readonly_map(self):
        system, upset = self.make()
        # Every counter register, 0x10..0x1C, is an upset target.
        assert sorted(OamRegisterUpset.COUNTER_ADDRS) == list(range(0x10, 0x1D))
        before = {a: system.oam.read(a) for a in OamRegisterUpset.COUNTER_ADDRS}
        for _ in range(20):
            upset.inject(target="counter")
        for address in OamRegisterUpset.COUNTER_ADDRS:
            system.oam.write(address, 0xFFFF)
        after = {a: system.oam.read(a) for a in OamRegisterUpset.COUNTER_ADDRS}
        assert before == after

    def test_ctrl_upset_preserves_enables(self):
        system, upset = self.make()
        for _ in range(10):
            upset.inject(target="ctrl")
            ctrl = system.oam.read(ADDR_CTRL)
            assert ctrl & CTRL_TX_ENABLE
            assert ctrl & CTRL_RX_ENABLE
        assert system.tx.source.enabled

    def test_framing_upset_is_the_ignored_nonsense_pattern(self):
        system, upset = self.make()
        flag = system.rx.delineator.flag_octet
        esc = system.rx.delineator.esc_octet
        for _ in range(10):
            upset.inject(target="framing")
            # The write lands in the rw register, but it always carries
            # flag == escape — the nonsense the datapath hook ignores.
            stored = system.oam.read(ADDR_FRAMING)
            assert stored & 0xFF == (stored >> 8) & 0xFF
        assert system.rx.delineator.flag_octet == flag
        assert system.rx.delineator.esc_octet == esc
        assert system.tx.flags.flag_octet == flag

    def test_events_record_the_write(self):
        _, upset = self.make()
        event = upset.inject(cycle=42, target="irq_mask")
        assert event.layer == "oam"
        assert event.kind == "irq_mask"
        assert event.cycle == 42
        assert event.beat_index == -1
        assert "address" in event.detail and "value" in event.detail
        assert upset.events == [event]

    def test_random_target_comes_from_the_menu(self):
        _, upset = self.make(seed=3)
        for _ in range(25):
            assert upset.inject().kind in OamRegisterUpset.TARGETS
