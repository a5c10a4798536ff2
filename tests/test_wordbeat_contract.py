"""``WordBeat`` keeps the contract of the original frozen dataclass.

The reference below is the dataclass the slotted, payload-caching
``repro.rtl.pipeline.WordBeat`` replaced, copied verbatim.  Every
observable of a beat — lanes, valid mask, valid-lane count, payload,
width, rendering, equality and hash — and every rejected input must
agree between the two, for left-aligned beats (``from_bytes``) and for
gapped beats with arbitrary valid masks, as the escape units and the
fault injectors build them.
"""

from dataclasses import dataclass
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtl import pipeline


@dataclass(frozen=True)
class WordBeat:
    """One datapath word in flight.

    Attributes
    ----------
    lanes:
        Byte values, lane 0 first on the wire.  Invalid lanes carry 0.
    valid:
        Per-lane valid bits; ``valid[i]`` qualifies ``lanes[i]``.
    sof / eof:
        Frame delimiting marks (the in-band equivalent of the flag
        octets once the framing layer has been processed).
    """

    lanes: Tuple[int, ...]
    valid: Tuple[bool, ...]
    sof: bool = False
    eof: bool = False

    def __post_init__(self) -> None:
        if len(self.lanes) != len(self.valid):
            raise ValueError("lanes and valid must have equal length")
        for lane, ok in zip(self.lanes, self.valid):
            if ok and not 0 <= lane <= 0xFF:
                raise ValueError(f"lane value out of range: {lane}")

    @property
    def width_bytes(self) -> int:
        return len(self.lanes)

    @property
    def n_valid(self) -> int:
        return sum(self.valid)

    def payload(self) -> bytes:
        """The valid octets of this beat, in lane order."""
        return bytes(b for b, ok in zip(self.lanes, self.valid) if ok)

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        width_bytes: int,
        *,
        sof: bool = False,
        eof: bool = False,
    ) -> "WordBeat":
        """Left-aligned beat from 1..width_bytes octets."""
        if not 0 < len(data) <= width_bytes:
            raise ValueError(f"beat must carry 1..{width_bytes} octets, got {len(data)}")
        lanes = tuple(data) + (0,) * (width_bytes - len(data))
        valid = (True,) * len(data) + (False,) * (width_bytes - len(data))
        return cls(lanes, valid, sof=sof, eof=eof)

    def render(self) -> str:
        """Human-readable lane dump for timing diagrams, e.g. ``7E 12 -- 45``."""
        cells = [
            f"{b:02X}" if ok else "--" for b, ok in zip(self.lanes, self.valid)
        ]
        marks = ("S" if self.sof else "") + ("E" if self.eof else "")
        return " ".join(cells) + (f" [{marks}]" if marks else "")


Reference = WordBeat
Beat = pipeline.WordBeat
WIDTHS = (1, 2, 4, 8)


def assert_same(new: Beat, ref: Reference) -> None:
    assert new.lanes == ref.lanes
    assert new.valid == ref.valid
    assert (new.sof, new.eof) == (ref.sof, ref.eof)
    assert new.n_valid == ref.n_valid
    assert new.payload() == ref.payload()
    assert new.width_bytes == ref.width_bytes
    assert new.render() == ref.render()
    assert repr(new) == repr(ref)
    assert hash(new) == hash(ref)


@st.composite
def left_aligned(draw):
    width = draw(st.sampled_from(WIDTHS))
    data = draw(st.binary(min_size=1, max_size=width))
    return data, width, draw(st.booleans()), draw(st.booleans())


@st.composite
def gapped(draw):
    """Arbitrary valid masks; invalid lanes carry 0 or any octet."""
    width = draw(st.sampled_from(WIDTHS))
    valid = tuple(draw(st.lists(st.booleans(), min_size=width, max_size=width)))
    lanes = tuple(
        draw(st.integers(0, 0xFF)) if ok or draw(st.booleans()) else 0 for ok in valid
    )
    return lanes, valid, draw(st.booleans()), draw(st.booleans())


class TestAgreesWithReference:
    @settings(max_examples=200, deadline=None)
    @given(left_aligned())
    def test_from_bytes(self, args):
        data, width, sof, eof = args
        new = Beat.from_bytes(data, width, sof=sof, eof=eof)
        ref = Reference.from_bytes(data, width, sof=sof, eof=eof)
        assert_same(new, ref)
        assert new.payload() == data

    @settings(max_examples=200, deadline=None)
    @given(gapped())
    def test_gapped(self, args):
        lanes, valid, sof, eof = args
        assert_same(Beat(lanes, valid, sof=sof, eof=eof), Reference(lanes, valid, sof=sof, eof=eof))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(gapped(), left_aligned()), st.one_of(gapped(), left_aligned()))
    def test_equality_agrees(self, a, b):
        def build(cls, args):
            if isinstance(args[0], bytes):
                data, width, sof, eof = args
                return cls.from_bytes(data, width, sof=sof, eof=eof)
            lanes, valid, sof, eof = args
            return cls(lanes, valid, sof=sof, eof=eof)

        new_a, new_b = build(Beat, a), build(Beat, b)
        ref_a, ref_b = build(Reference, a), build(Reference, b)
        assert (new_a == new_b) == (ref_a == ref_b)
        assert (new_a != new_b) == (ref_a != ref_b)
        assert new_a == build(Beat, a)
        assert hash(new_a) == hash(build(Beat, a))

    def test_not_equal_to_other_types(self):
        beat = Beat.from_bytes(b"\x01", 1)
        assert beat != ((1,), (True,), False, False)
        assert beat != Reference.from_bytes(b"\x01", 1)

    def test_invalid_lane_may_hold_anything(self):
        """Only valid lanes are range-checked, as before."""
        lanes, valid = (300, 7), (False, True)
        assert_same(Beat(lanes, valid), Reference(lanes, valid))


REJECTED = [
    pytest.param(lambda cls: cls((1, 2), (True,)), id="length-mismatch"),
    pytest.param(lambda cls: cls((1,), (True, False)), id="length-mismatch-valid"),
    pytest.param(lambda cls: cls((300,), (True,)), id="valid-lane-300"),
    pytest.param(lambda cls: cls((1, -1), (True, True)), id="valid-lane-negative"),
    pytest.param(lambda cls: cls.from_bytes(b"", 4), id="from-bytes-empty"),
    pytest.param(lambda cls: cls.from_bytes(b"12345", 4), id="from-bytes-over-width"),
    pytest.param(lambda cls: cls.from_bytes([1, 300], 4), id="from-bytes-octet-300"),
]


@pytest.mark.parametrize("build", REJECTED)
def test_same_inputs_rejected(build):
    with pytest.raises(ValueError) as ref_err:
        build(Reference)
    with pytest.raises(ValueError) as new_err:
        build(Beat)
    assert str(new_err.value) == str(ref_err.value)
