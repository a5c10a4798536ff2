"""Unit tests for the streaming frame delineator."""

import pytest

from repro.crc import CRC32
from repro.hdlc import Delineator, HdlcFramer


@pytest.fixture
def framer():
    return HdlcFramer(CRC32)


@pytest.fixture
def delineator(framer):
    return Delineator(framer=framer)


class TestHunting:
    def test_starts_out_of_sync(self, delineator):
        assert not delineator.in_sync

    def test_discards_until_first_flag(self, delineator, framer):
        stream = b"\x55\xaa\x31" + framer.encode(b"\xff\x03ok")
        frames = delineator.push_bytes(stream)
        assert len(frames) == 1
        assert delineator.stats.octets_discarded_hunting == 3

    def test_syncs_on_flag(self, delineator):
        delineator.push_bytes(b"\x7e")
        assert delineator.in_sync

    def test_partial_frame_before_sync_not_decoded(self, delineator, framer):
        # Joining mid-frame: the tail of frame 1 is discarded while
        # hunting (its closing flag is the first flag ever seen), and
        # delineation picks up cleanly with frame 2.
        wire = framer.encode(b"\xff\x03first") + framer.encode(b"\xff\x03second")
        frames = delineator.push_bytes(wire[4:])   # skip into frame 1
        assert frames == [b"\xff\x03second"]
        assert delineator.stats.fcs_errors == 0
        assert delineator.stats.octets_discarded_hunting > 0


class TestStreaming:
    def test_byte_at_a_time(self, delineator, framer):
        content = b"\xff\x03" + bytes(range(64))
        frames = []
        for octet in framer.encode(content):
            frames += delineator.push_bytes(bytes([octet]))
        assert frames == [content]

    def test_back_to_back_frames(self, delineator, framer):
        contents = [b"\xff\x03" + bytes([i]) * 10 for i in range(5)]
        stream = framer.encode_stream(contents)
        frames = delineator.push_bytes(stream)
        assert frames == contents
        assert delineator.stats.frames_ok == 5

    def test_idle_flags_are_not_frames(self, delineator):
        delineator.push_bytes(bytes([0x7E] * 32))
        assert delineator.stats.frames_ok == 0
        assert delineator.stats.total_errors() == 0

    def test_chunk_boundaries_irrelevant(self, framer, rng):
        content = b"\xff\x03" + rng.integers(0, 256, 300, dtype="uint8").tobytes()
        wire = framer.encode(content) * 3
        for chunk in (1, 2, 7, 64, len(wire)):
            d = Delineator(framer=HdlcFramer(CRC32))
            for off in range(0, len(wire), chunk):
                d.push_bytes(wire[off : off + chunk])
            assert d.stats.frames_ok == 3, f"chunk={chunk}"


class TestErrorAccounting:
    def test_fcs_error_counted(self, delineator, framer):
        wire = bytearray(framer.encode(b"\xff\x03payload"))
        wire[4] ^= 0x10
        delineator.push_bytes(bytes(wire))
        assert delineator.stats.fcs_errors == 1
        assert delineator.stats.frames_ok == 0
        # A 7D 7D pair no conforming sender makes destuffs to 5D, as
        # in the cycle RX, and fails the FCS.
        delineator.push_bytes(bytes([0x7E, 0x41, 0x7D, 0x7D, 0x42, 0x43, 0x44, 0x7E]))
        assert delineator.stats.fcs_errors == 2
        assert delineator.stats.framing_errors == 0

    def test_abort_counted(self, delineator):
        delineator.push_bytes(bytes([0x7E, 0x41, 0x42, 0x7D, 0x7E]))
        assert delineator.stats.aborts == 1
        # Any body whose last octet is the escape is an abort.
        delineator.push_bytes(bytes([0x41, 0x42, 0x7D, 0x7D, 0x7E]))
        assert delineator.stats.aborts == 2
        assert delineator.stats.framing_errors == 0

    def test_runt_counted(self, delineator):
        delineator.push_bytes(bytes([0x7E, 0x41, 0x42, 0x7E]))
        assert delineator.stats.runts == 1

    def test_flush_drops_partial(self, delineator, framer):
        wire = framer.encode(b"\xff\x03data")
        delineator.push_bytes(wire[:-3])
        delineator.flush()
        assert delineator.stats.framing_errors == 1
        assert not delineator.in_sync

    def test_mru_guards_good_frames(self, framer):
        delineator = Delineator(framer=HdlcFramer(CRC32, max_content=16))
        long_frame = HdlcFramer(CRC32).encode(b"\xff\x03" + bytes(20))
        assert delineator.push_bytes(long_frame) == []
        assert delineator.stats.oversize == 1
        # A damaged frame under the cut is an FCS error, however long.
        damaged = bytearray(long_frame)
        damaged[5] ^= 0x01
        delineator.push_bytes(bytes(damaged))
        assert delineator.stats.oversize == 1
        assert delineator.stats.fcs_errors == 1

    def test_flush_when_empty_is_clean(self, delineator):
        delineator.push_bytes(b"\x7e")
        delineator.flush()
        assert delineator.stats.framing_errors == 0

    def test_octet_accounting(self, delineator, framer):
        wire = framer.encode(b"\xff\x03x")
        delineator.push_bytes(wire)
        assert delineator.stats.octets_in == len(wire)
