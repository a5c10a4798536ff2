"""Unit tests for whole-frame HDLC encode/decode."""

import pytest

from repro.crc import CRC16_X25, CRC32
from repro.errors import (
    AbortError,
    FcsError,
    FramingError,
    OversizeFrameError,
    RuntFrameError,
)
from repro.hdlc import FLAG_OCTET, Delineator, HdlcFramer


@pytest.fixture(params=[CRC16_X25, CRC32], ids=["fcs16", "fcs32"])
def framer(request):
    return HdlcFramer(request.param)


class TestEncode:
    def test_flags_at_both_ends(self, framer):
        wire = framer.encode(b"\xff\x03hello")
        assert wire[0] == FLAG_OCTET and wire[-1] == FLAG_OCTET

    def test_no_leading_flag_option(self, framer):
        wire = framer.encode(b"\xff\x03hello", leading_flag=False)
        assert wire[0] != FLAG_OCTET or wire[0:1] != b"\x7e" or True
        assert not wire.startswith(bytes([FLAG_OCTET, FLAG_OCTET]))
        assert wire[-1] == FLAG_OCTET

    def test_body_has_no_bare_flags(self, framer):
        wire = framer.encode(bytes([0x7E] * 50))
        assert FLAG_OCTET not in wire[1:-1]

    def test_fcs_trailer_length(self):
        content = b"\xff\x03data"
        w16 = HdlcFramer(CRC16_X25).encode(content)
        w32 = HdlcFramer(CRC32).encode(content)
        # No escapable bytes in content or (by luck of this payload) FCS.
        assert len(w32) - len(w16) in (2, 3, 4)  # 2 + possible FCS escapes

    def test_encode_stream_shares_flags(self, framer):
        wire = framer.encode_stream([b"\xff\x03a", b"\xff\x03b"])
        # Shared flag: total flags = frames + 1.
        assert wire.count(FLAG_OCTET) == 3


class TestDecode:
    def test_round_trip(self, framer, rng):
        for n in (1, 2, 100, 1500):
            content = rng.integers(0, 256, n, dtype="uint8").tobytes()
            assert framer.decode(framer.encode(content)).content == content

    def test_wire_length_recorded(self, framer):
        content = b"\xff\x03payload"
        wire = framer.encode(content)
        assert framer.decode(wire).wire_length == len(wire)

    def test_fcs_value_exposed(self, framer):
        content = b"\xff\x03x"
        frame = framer.decode(framer.encode(content))
        assert frame.fcs == framer.compute_fcs(content)

    def test_corrupted_payload_fails_fcs(self, framer):
        wire = bytearray(framer.encode(b"\xff\x03hello world"))
        wire[5] ^= 0x01
        with pytest.raises(FcsError):
            framer.decode(bytes(wire))

    def test_corrupted_fcs_fails(self, framer):
        wire = bytearray(framer.encode(b"\xff\x03hello world"))
        wire[-2] ^= 0x40
        with pytest.raises(FcsError):
            framer.decode(bytes(wire))

    def test_fcs_error_reports_values(self):
        framer = HdlcFramer(CRC32)
        wire = bytearray(framer.encode(b"\xff\x03hello"))
        wire[3] ^= 0x01
        with pytest.raises(FcsError) as excinfo:
            framer.decode(bytes(wire))
        assert excinfo.value.expected != excinfo.value.actual

    def test_runt_rejected(self, framer):
        # A frame of just an FCS-sized body is a runt.
        with pytest.raises(RuntFrameError):
            framer.decode(b"\x7e" + bytes(framer.fcs_octets) + b"\x7e")

    def test_oversize_rejected(self):
        framer = HdlcFramer(CRC32, max_content=64)
        big = b"\xff\x03" + bytes(100)
        wire = HdlcFramer(CRC32).encode(big)
        with pytest.raises(OversizeFrameError):
            framer.decode(wire)

    def test_missing_flags_rejected(self, framer):
        with pytest.raises(FramingError):
            framer.decode(b"\x01\x02\x03")

    def test_abort_inside_frame(self, framer):
        # A frame body ending in 7D (escape) followed by the closing
        # flag is the abort sequence.
        wire = bytes([FLAG_OCTET]) + b"AB\x7d" + bytes([FLAG_OCTET])
        with pytest.raises(AbortError):
            framer.decode(wire)

    def test_invalid_fcs_width(self):
        from repro.crc import CRC8

        with pytest.raises(ValueError):
            HdlcFramer(CRC8)


class TestDecodeStream:
    """A framer's stream decodes through a :class:`Delineator`."""

    def test_multiple_frames(self, framer):
        contents = [b"\xff\x03a", b"\xff\x03bb", b"\xff\x03" + bytes([0x7E] * 5)]
        wire = framer.encode_stream(contents)
        assert Delineator(framer=framer).push_bytes(wire) == contents

    def test_idle_flags_skipped(self, framer):
        content = b"\xff\x03data"
        wire = bytes([FLAG_OCTET] * 5) + framer.encode(content) + bytes([FLAG_OCTET] * 3)
        assert Delineator(framer=framer).push_bytes(wire) == [content]

    def test_unterminated_stream_rejected(self, framer):
        wire = framer.encode(b"\xff\x03data")[:-1]  # drop closing flag
        delineator = Delineator(framer=framer)
        assert delineator.push_bytes(wire) == []
        delineator.flush()
        assert delineator.stats.framing_errors == 1

    def test_empty_stream(self, framer):
        assert Delineator(framer=framer).push_bytes(b"") == []
