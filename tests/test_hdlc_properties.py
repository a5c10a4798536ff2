"""Property-based tests for HDLC framing layers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crc import CRC16_X25, CRC32
from repro.hdlc import Delineator, HdlcFramer, bit_stuff, bit_unstuff, stuff, unstuff
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET

payloads = st.binary(min_size=0, max_size=500)


@given(data=payloads)
def test_stuff_round_trip(data):
    assert unstuff(stuff(data)) == data


@given(data=payloads)
def test_stuffed_never_contains_bare_flag(data):
    assert FLAG_OCTET not in stuff(data)


@given(data=payloads)
def test_stuff_expansion_bounds(data):
    out = stuff(data)
    assert len(data) <= len(out) <= 2 * len(data)


@given(data=payloads)
def test_stuff_expansion_exact(data):
    specials = sum(1 for b in data if b in (FLAG_OCTET, ESC_OCTET))
    assert len(stuff(data)) == len(data) + specials


@given(data=st.binary(min_size=1, max_size=300))
def test_frame_round_trip_both_fcs(data):
    for spec in (CRC16_X25, CRC32):
        framer = HdlcFramer(spec)
        assert framer.decode(framer.encode(data)).content == data


@given(contents=st.lists(st.binary(min_size=1, max_size=60), min_size=1, max_size=8))
@settings(max_examples=50)
def test_stream_round_trip(contents):
    framer = HdlcFramer(CRC32)
    wire = framer.encode_stream(contents)
    assert Delineator(framer=framer).push_bytes(wire) == contents


@given(
    contents=st.lists(st.binary(min_size=1, max_size=60), min_size=1, max_size=6),
    junk=st.binary(max_size=20),
)
@settings(max_examples=50)
def test_delineator_recovers_all_frames_after_junk(contents, junk):
    """Leading junk may cost hunting octets but never valid frames."""
    framer = HdlcFramer(CRC32)
    wire = junk.replace(bytes([FLAG_OCTET]), b"\x00") + framer.encode_stream(contents)
    delineator = Delineator(framer=HdlcFramer(CRC32))
    assert delineator.push_bytes(wire) == contents


@given(bits=st.lists(st.integers(min_value=0, max_value=1), max_size=400))
def test_bit_stuff_round_trip(bits):
    arr = np.array(bits, dtype=np.uint8)
    assert np.array_equal(bit_unstuff(bit_stuff(arr)), arr)


@given(bits=st.lists(st.integers(min_value=0, max_value=1), max_size=400))
def test_bit_stuff_no_flag_pattern(bits):
    stuffed = bit_stuff(np.array(bits, dtype=np.uint8))
    run = 0
    for bit in stuffed:
        run = run + 1 if bit else 0
        assert run <= 5


# ------------------------------------------------- contract conformance
def _declared_stuffing_expansion():
    """The max_expansion the escape-generate unit's contract declares."""
    from repro.core.escape_pipeline import PipelinedEscapeGenerate
    from repro.rtl.module import Channel

    unit = PipelinedEscapeGenerate(
        "gen", Channel("in"), Channel("out"), width_bytes=4
    )
    (timing,) = unit.timing_contract().outputs
    return timing.max_expansion


@given(data=payloads)
def test_stuffing_never_exceeds_declared_max_expansion(data):
    """The x2 bound in the escape-generate timing contract is sound:
    no payload — including hypothesis-found adversarial ones — makes
    byte stuffing expand beyond it."""
    bound = _declared_stuffing_expansion()
    from repro.hdlc import stuffed_length

    assert len(stuff(data)) <= bound * max(len(data), 1)
    assert stuffed_length(data) == len(stuff(data))


def test_adversarial_payloads_reach_but_never_break_the_bound():
    """All-flag and all-escape payloads are the exact worst case the
    escape-generate unit's contract must cover."""
    bound = _declared_stuffing_expansion()
    assert bound == 2.0
    for octet in (FLAG_OCTET, ESC_OCTET):
        payload = bytes([octet]) * 256
        assert len(stuff(payload)) == int(bound * len(payload))
