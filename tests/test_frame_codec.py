"""The one frame codec: kernels against their oracles, chunking
invariance of both streaming receivers, and bounded receive state."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import P5Config
from repro.crc import CRC16_X25, CRC32, TableCrc, crc_function
from repro.fastpath import FastpathEngine
from repro.hdlc import Accm, Delineator, HdlcFramer
from repro.hdlc.byte_stuffing import (
    _stuff_scalar,
    _unstuff_scalar,
    escape_set,
    stuff,
    unstuff,
)
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET
from repro.workloads.packets import ppp_frame_contents

# Escape-dense octets: framing octets, their escaped forms, and an
# ACCM-able control octet, plus anything else.
dense = st.binary(max_size=80) | st.lists(
    st.sampled_from([0x7D, 0x7E, 0x5D, 0x5E, 0x01, 0x20, 0x41]), max_size=80
).map(bytes)
accms = st.sampled_from([None, Accm(0), Accm.for_async(), Accm(0x0000000B)])


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is the observation
        return type(exc), None


# ------------------------------------------------------------------- oracles
@settings(max_examples=400, deadline=None)
@given(data=dense, accm=accms)
def test_stuff_matches_scalar_oracle(data, accm):
    assert stuff(data, accm) == _stuff_scalar(data, escape_set(accm))


@settings(max_examples=400, deadline=None)
@given(data=dense, strict=st.booleans())
def test_unstuff_matches_scalar_oracle(data, strict):
    assert _outcome(unstuff, data, strict=strict) == _outcome(
        _unstuff_scalar, data, strict=strict
    )


@settings(max_examples=200, deadline=None)
@given(data=dense, accm=accms)
def test_unstuff_inverts_stuff(data, accm):
    assert unstuff(stuff(data, accm)) == data


def test_programmable_framing_octets_stuff_like_the_oracle():
    data = bytes(range(256)) * 2
    got = stuff(data, Accm(0x0B), flag=0xC3, esc=0xC9)
    assert got == _stuff_scalar(data, P5Config(
        flag_octet=0xC3, esc_octet=0xC9, accm_mask=0x0B).escape_octets, 0xC9)
    assert 0xC3 not in got
    assert unstuff(got, flag=0xC3, esc=0xC9) == data
    # 0x21 ^ 0x20 is the ACCM octet 0x01: no replace order is exact for
    # this set, so it takes the per-octet walk (and, like the cycle
    # engine, sends 0x01 as 7D 21 — a bare flag).
    got = stuff(data, Accm(0x02), flag=0x21)
    assert got == _stuff_scalar(data, P5Config(
        flag_octet=0x21, accm_mask=0x02).escape_octets)


# ----------------------------------------------------------------------- FCS
def test_crc_function_picks_zlib_only_for_fcs32():
    import zlib

    assert crc_function(CRC32) is zlib.crc32
    fcs16 = crc_function(CRC16_X25)
    assert fcs16(b"123456789") == CRC16_X25.check


def test_table_is_built_once_per_spec():
    assert TableCrc(CRC16_X25)._table is TableCrc(CRC16_X25)._table


def test_no_decode_path_builds_a_crc_engine_per_frame(monkeypatch):
    contents = ppp_frame_contents(20, seed=4)
    framer = HdlcFramer(CRC16_X25)
    engine = FastpathEngine(P5Config(fcs=CRC16_X25))
    delineator = Delineator(framer=HdlcFramer(CRC16_X25))
    wire = framer.encode_stream(contents)
    line = engine.encode_frames(contents).line
    built = []
    original = TableCrc.__init__

    def counting(self, spec):
        built.append(spec)
        original(self, spec)

    monkeypatch.setattr(TableCrc, "__init__", counting)
    assert [framer.decode(framer.encode(c)).content for c in contents] == contents
    assert delineator.push_bytes(wire) == contents
    assert engine.decode_stream(line).good_frames() == contents
    assert built == []


# ------------------------------------------------------- chunking invariance
def _wire(kind, draw):
    engine = FastpathEngine()
    contents = draw(
        st.lists(st.binary(min_size=1, max_size=40) | dense.filter(bool),
                 min_size=1, max_size=5)
    )
    line = engine.encode_frames(contents).line
    if kind == "allflags":
        return bytes([FLAG_OCTET]) * draw(st.integers(1, 40))
    if kind == "damaged":
        damaged = bytearray(line)
        for _ in range(draw(st.integers(1, 6))):
            at = draw(st.integers(0, len(damaged) - 1))
            damaged[at] = draw(st.sampled_from([FLAG_OCTET, ESC_OCTET, 0x00, 0xFF]))
        return draw(st.binary(max_size=6)) + bytes(damaged)
    return line


def _split(draw, wire):
    cuts = sorted(draw(st.lists(st.integers(0, len(wire)), max_size=8)))
    bounds = [0] + cuts + [len(wire)]
    return [wire[a:b] for a, b in zip(bounds, bounds[1:])]


def _delineate(pieces):
    delineator = Delineator(framer=HdlcFramer(max_content=24))
    frames = []
    for piece in pieces:
        frames += delineator.push_bytes(piece)
    return frames, delineator.stats, delineator.in_sync


def _feed(pieces, max_frame_octets):
    engine = FastpathEngine(P5Config(max_frame_octets=max_frame_octets))
    total = None
    for piece in pieces:
        result = engine.feed(piece)
        if total is None:
            total = result
            continue
        total.frames += result.frames
        for name in ("frames_ok", "fcs_errors", "runt_frames", "aborts",
                     "oversize_drops", "empty_bodies",
                     "octets_discarded_hunting", "octets_deleted"):
            setattr(total, name, getattr(total, name) + getattr(result, name))
        total.open_tail_octets = result.open_tail_octets
    return total, engine.take_carry()


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       kind=st.sampled_from(["clean", "damaged", "allflags"]),
       max_frame_octets=st.sampled_from([0, 32]))
def test_streaming_receivers_ignore_chunking(data, kind, max_frame_octets):
    wire = _wire(kind, data.draw)
    pieces = _split(data.draw, wire)
    assert _delineate(pieces) == _delineate([wire])
    assert _feed(pieces, max_frame_octets) == _feed([wire], max_frame_octets)


def test_every_two_piece_split_decodes_alike():
    """Cuts at every offset: inside each ``7D xx`` pair, either side of
    every flag."""
    contents = [b"\x7e\x7d\x41", b"\x7d" * 5, b"abc\x7ede"]
    wire = b"\x00" + FastpathEngine().encode_frames(contents).line
    whole_d, whole_f = _delineate([wire]), _feed([wire], 16)
    assert whole_d[0] == contents
    for cut in range(len(wire) + 1):
        pieces = [wire[:cut], wire[cut:]]
        assert _delineate(pieces) == whole_d
        assert _feed(pieces, 16) == whole_f


# ------------------------------------------------------------ bounded state
def test_delineator_caps_a_flagless_body_and_recovers():
    framer = HdlcFramer()
    delineator = Delineator(framer=framer)
    cap = 2 * (framer.max_content + framer.fcs_octets)
    delineator.push_bytes(bytes([FLAG_OCTET]))
    for _ in range(16):
        delineator.push_bytes(b"\xff" * 65536)  # AIS: all ones
        assert len(delineator._carry) <= 1 + cap  # flag + open frame
    assert delineator.stats.oversize == 1
    # The cut prefix closes as a frame of its own, as the cycle RX does.
    assert delineator.stats.fcs_errors == 1
    assert delineator.stats.octets_discarded_hunting == 16 * 65536 - cap - 1
    assert not delineator.in_sync
    assert delineator.push_bytes(framer.encode(b"after-ais")) == [b"after-ais"]


def test_delineator_cap_admits_the_longest_conforming_body():
    framer = HdlcFramer(max_content=40)
    cap = 2 * (40 + 4)
    longest = b"\x7d\x5e" * (40 + 4)  # every octet escaped
    flag = bytes([FLAG_OCTET])
    delineator = Delineator(framer=framer)
    delineator.push_bytes(flag + longest + flag)
    assert delineator.stats.fcs_errors == 1
    assert delineator.stats.oversize == 0
    delineator.push_bytes(longest + b"abc" + flag)  # cap + 3 octets
    assert delineator.stats.oversize == 1
    assert delineator.stats.fcs_errors == 2  # the closed cut prefix
    assert delineator.stats.octets_discarded_hunting == 2
    assert delineator.in_sync and len(longest) == cap


def test_fastpath_carry_is_bounded_and_decode_time_linear():
    engine = FastpathEngine(P5Config.thirty_two_bit(max_frame_octets=512))
    engine.feed(bytes([FLAG_OCTET]))
    noise = bytes(range(0x80, 0x80 + 64)) * 16  # 1 KB, no flag or escape
    times = []
    for _ in range(1000):
        start = time.perf_counter()
        result = engine.feed(noise)
        times.append(time.perf_counter() - start)
        assert result.open_tail_octets <= 512
    assert len(engine.take_carry()) <= 513
    # A carry that grew with the feeds would make late feeds orders of
    # magnitude slower than early ones.
    first, last = sorted(times[:100])[50], sorted(times[-100:])[50]
    assert last < 4 * first + 1e-4


@pytest.mark.parametrize("max_frame_octets", [32, 512])
def test_fastpath_carry_cut_matches_whole_stream_decode(max_frame_octets):
    engine = FastpathEngine(P5Config(max_frame_octets=max_frame_octets))
    body = bytes(range(1, 0x7D)) * 10
    line = bytes([FLAG_OCTET]) + body + bytes([FLAG_OCTET])
    whole = engine.decode_stream(line)
    streamed = _feed([line[:200], line[200:]], max_frame_octets)[0]
    streamed.open_tail_octets = whole.open_tail_octets
    assert streamed == whole
    assert whole.oversize_drops == 1
