"""Property-based differential: fastpath vs. cycle engine must agree.

These are the satellite-3 properties: random frame batches, random
ACCM escape sets, and adversarial wire streams (runts, aborts,
oversize bodies, flagless noise) all produce byte-identical line
streams, identical frame verdicts and identical OAM counters on the
two engines — up to the one documented force-close divergence that
``run_rx`` already excludes (see ``repro.fastpath.differential``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import P5Config
from repro.fastpath import DifferentialHarness, FastpathEngine
from repro.fastpath.differential import RX_COUNTERS, CycleReceiver
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET

# Cycle runs cost milliseconds per frame; keep batches honest but small.
frame_batches = st.lists(
    st.binary(min_size=1, max_size=48), min_size=1, max_size=4
)

_SETTINGS = dict(max_examples=12, deadline=None)


@settings(**_SETTINGS)
@given(contents=frame_batches)
def test_clean_loopback_agrees(contents):
    DifferentialHarness().run(contents).assert_ok()


@settings(**_SETTINGS)
@given(
    contents=frame_batches,
    accm_mask=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_agreement_holds_for_any_accm(contents, accm_mask):
    config = P5Config(accm_mask=accm_mask)
    DifferentialHarness(config).run(contents).assert_ok()


@settings(**_SETTINGS)
@given(data=st.data())
def test_rx_agreement_on_damaged_lines(data):
    """Crafted aborts, runts and noise decode identically on both RX."""
    engine = FastpathEngine()
    pieces = [bytes([FLAG_OCTET])]
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        kind = data.draw(
            st.sampled_from(("good", "abort", "runt", "noise", "empty"))
        )
        if kind == "good":
            content = data.draw(st.binary(min_size=1, max_size=32))
            pieces.append(engine.encode_frame(content)[1:])
        elif kind == "abort":
            body = data.draw(st.binary(min_size=0, max_size=8))
            body = bytes(b for b in body if b not in (FLAG_OCTET, ESC_OCTET))
            pieces.append(body + bytes([ESC_OCTET, FLAG_OCTET]))
        elif kind == "runt":
            octets = data.draw(st.integers(min_value=1, max_value=4))
            pieces.append(b"\x01" * octets + bytes([FLAG_OCTET]))
        elif kind == "noise":
            raw = data.draw(st.binary(min_size=1, max_size=16))
            pieces.append(raw + bytes([FLAG_OCTET]))
        else:
            pieces.append(bytes([FLAG_OCTET]))
    DifferentialHarness().run_rx(b"".join(pieces)).assert_ok()


@settings(max_examples=6, deadline=None)
@given(contents=st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=3))
def test_oversize_frames_counted_identically(contents):
    config = P5Config(max_frame_octets=16)
    harness = DifferentialHarness(config)
    line = harness.engine.encode_frames(
        contents + [bytes(range(1, 41))]  # stuffs past the 16-octet cut
    ).line
    harness.run_rx(line).assert_ok()


# ------------------------------------------------ cycle receiver chunking
def _feed_in_pieces(wire, cuts):
    """Frames and summed counters of one CycleReceiver fed ``wire``
    split at ``cuts``."""
    receiver = CycleReceiver(P5Config(), "chunkrx", timeout=1_000_000)
    bounds = [0, *sorted(set(cuts)), len(wire)]
    frames, counts = [], dict.fromkeys(_COUNTER_FIELDS, 0)
    for start, end in zip(bounds, bounds[1:]):
        piece = receiver.feed(wire[start:end])
        frames += piece.frames
        for name in counts:
            counts[name] += getattr(piece, name)
    return frames, counts


_COUNTER_FIELDS = [name for name, _read in RX_COUNTERS.values()]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), damaged=st.booleans())
def test_cycle_receiver_ignores_chunking(data, damaged):
    """Any split of a clean or FCS-damaged wire decodes to the same
    frames and counters as one feed."""
    wire = bytearray(FastpathEngine().encode_frames(data.draw(frame_batches)).line)
    if damaged:
        # Flip one bit inside a frame body; skip flags and escapes so
        # the damage is an FCS error, not an abort.
        at = data.draw(st.integers(min_value=1, max_value=len(wire) - 2))
        bit = 1 << data.draw(st.integers(min_value=0, max_value=7))
        if wire[at] not in (FLAG_OCTET, ESC_OCTET) and (
            wire[at] ^ bit
        ) not in (FLAG_OCTET, ESC_OCTET):
            wire[at] ^= bit
    wire = bytes(wire)
    cuts = data.draw(
        st.lists(st.integers(min_value=1, max_value=len(wire) - 1), max_size=4)
    )
    assert _feed_in_pieces(wire, cuts) == _feed_in_pieces(wire, [])


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP correctness item 1: the cycle receiver's handling of "
    "an aborted frame depends on word alignment, and a feed boundary "
    "shifts the alignment",
)
def test_cycle_receiver_chunking_with_an_abort():
    good = FastpathEngine().encode_frame(b"hello world!")
    wire = good + bytes(range(1, 6)) + bytes([ESC_OCTET, FLAG_OCTET]) + good[1:]
    assert _feed_in_pieces(wire, [1]) == _feed_in_pieces(wire, [])
