"""Cycle-accurate tests for the complete TX and RX pipelines."""

import pytest

from repro.core.config import P5Config
from repro.core.rx import P5Receiver, WordDelineator
from repro.core.tx import FlagInserter, P5Transmitter, TxFrameSource
from repro.hdlc import Delineator, HdlcFramer
from repro.rtl import (
    Channel,
    Simulator,
    StreamSink,
    StreamSource,
    beats_from_bytes,
)


def run_tx(frames, config):
    tx = P5Transmitter(config)
    sink = StreamSink("phy_sink", tx.phy_out)
    sim = Simulator(tx.modules + [sink], tx.channels)
    for frame in frames:
        tx.submit(frame)
    sim.run_until(
        lambda: not tx.busy and not tx.phy_out.can_pop, timeout=200_000
    )
    return tx, sink.data()


def run_rx(wire, config):
    rx = P5Receiver(config)
    src = StreamSource(
        "phy_src", rx.phy_in,
        beats_from_bytes(wire, config.width_bytes, frame_marks=False),
    )
    sim = Simulator([src] + rx.modules, rx.channels)
    sim.run_until(
        lambda: src.done
        and not any(ch.can_pop for ch in rx.channels)
        and rx.escape.idle,
        timeout=200_000,
    )
    return rx


class TestTransmitter:
    @pytest.mark.parametrize("width", [8, 32], ids=["8bit", "32bit"])
    def test_wire_is_valid_hdlc(self, width, rng):
        config = P5Config(width_bits=width)
        frames = [rng.integers(0, 256, 40, dtype="uint8").tobytes()
                  for _ in range(3)]
        tx, wire = run_tx(frames, config)
        delineator = Delineator(framer=HdlcFramer(config.fcs))
        assert delineator.push_bytes(wire) == frames
        assert delineator.stats.total_errors() == 0

    def test_matches_software_framer(self, rng):
        """The hardware pipeline and HdlcFramer produce identical wires."""
        config = P5Config.thirty_two_bit()
        content = rng.integers(0, 256, 100, dtype="uint8").tobytes()
        _, wire = run_tx([content], config)
        assert wire == HdlcFramer(config.fcs).encode(content)

    def test_escape_heavy_frame(self, rng):
        config = P5Config.thirty_two_bit()
        content = bytes([0x7E, 0x7D] * 30)
        _, wire = run_tx([content], config)
        assert HdlcFramer(config.fcs).decode(wire).content == content

    def test_counters(self, rng):
        config = P5Config.thirty_two_bit()
        tx, _ = run_tx([b"abcd" * 5, b"efgh" * 5], config)
        assert tx.flags.frames_wrapped == 2
        assert tx.source.frames_fetched == 2

    def test_empty_frame_rejected(self):
        tx = P5Transmitter(P5Config())
        with pytest.raises(ValueError):
            tx.submit(b"")

    def test_disabled_source_sends_nothing(self):
        config = P5Config.thirty_two_bit()
        tx = P5Transmitter(config)
        tx.source.enabled = False
        tx.submit(b"queued")
        sink = StreamSink("s", tx.phy_out)
        sim = Simulator(tx.modules + [sink], tx.channels)
        sim.step(50)
        assert sink.data() == b""
        tx.source.enabled = True
        sim.run_until(lambda: not tx.busy and not tx.phy_out.can_pop, timeout=1000)
        assert sink.data() != b""


class TestWordDelineator:
    def _run(self, wire, width=4):
        c_in = Channel("in", capacity=2)
        c_out = Channel("out", capacity=2 * width + 4)
        src = StreamSource("src", c_in, beats_from_bytes(wire, width, frame_marks=False))
        delin = WordDelineator("d", c_in, c_out, width_bytes=width)
        sink = StreamSink("sink", c_out)
        sim = Simulator([src, delin, sink], [c_in, c_out])
        sim.run_until(lambda: src.done and not c_in.can_pop and not c_out.can_pop,
                      timeout=50_000)
        return delin, sink

    def test_strips_flags_marks_frames(self):
        wire = b"\x7e" + b"ABCDEFG" + b"\x7e"
        delin, sink = self._run(wire)
        assert sink.data() == b"ABCDEFG"
        assert sink.beats[0].sof and sink.beats[-1].eof
        assert delin.frames_delineated == 1

    def test_word_aligned_body_gets_eof(self):
        """A body of exactly k*W bytes still carries its eof mark."""
        wire = b"\x7e" + b"ABCDEFGH" + b"\x7e"   # 8 = 2 words at W=4
        delin, sink = self._run(wire)
        assert sink.data() == b"ABCDEFGH"
        assert sink.beats[-1].eof

    def test_hunting_discards(self):
        wire = b"\x01\x02\x03\x7eBODY\x7e"
        delin, sink = self._run(wire)
        assert delin.octets_discarded_hunting == 3
        assert sink.data() == b"BODY"

    def test_idle_flags_between_frames(self):
        wire = b"\x7e\x7e\x7eAB\x7e\x7e\x7eCD\x7e"
        delin, sink = self._run(wire)
        assert delin.frames_delineated == 2
        assert delin.empty_bodies >= 2
        assert sink.data() == b"ABCD"

    def test_many_tiny_frames_in_one_word(self):
        wire = b"\x7e" + b"".join(b"%c\x7e" % c for c in b"ABCDEFGH")
        delin, sink = self._run(wire, width=8)
        assert delin.frames_delineated == 8
        assert sink.data() == b"ABCDEFGH"


class TestReceiver:
    @pytest.mark.parametrize("width", [8, 32], ids=["8bit", "32bit"])
    def test_receives_software_encoded_frames(self, width, rng):
        config = P5Config(width_bits=width)
        framer = HdlcFramer(config.fcs)
        frames = [rng.integers(0, 256, int(rng.integers(1, 120)),
                               dtype="uint8").tobytes() for _ in range(5)]
        wire = b"".join(framer.encode(f) for f in frames)
        rx = run_rx(wire, config)
        assert rx.good_frames() == frames
        assert rx.crc.frames_ok == 5

    def test_bad_fcs_flagged_not_delivered_as_good(self, rng):
        config = P5Config.thirty_two_bit()
        framer = HdlcFramer(config.fcs)
        good = rng.integers(0, 256, 50, dtype="uint8").tobytes()
        wire = bytearray(framer.encode(good))
        wire[10] ^= 0x02
        rx = run_rx(bytes(wire), config)
        assert rx.crc.fcs_errors == 1
        assert rx.good_frames() == []
        assert len(rx.frames) == 1 and rx.frames[0][1] is False

    def test_join_mid_stream(self, rng):
        config = P5Config.thirty_two_bit()
        framer = HdlcFramer(config.fcs)
        frames = [rng.integers(0, 256, 60, dtype="uint8").tobytes()
                  for _ in range(3)]
        wire = b"".join(framer.encode(f) for f in frames)
        rx = run_rx(wire[7:], config)   # start inside frame 1
        assert rx.good_frames() == frames[1:]
