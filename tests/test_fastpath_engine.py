"""The frame-level fastpath engine: TX/RX kernels."""

import pytest

from repro.core.config import P5Config
from repro.crc import CRC16_X25
from repro.fastpath import DifferentialHarness, FastpathEngine
from repro.hdlc import Accm, HdlcFramer, stuff, unstuff
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET
from repro.workloads.packets import ppp_frame_contents

CONTENTS = [b"\xff\x03\x00\x21hello", b"\x7e\x7d\x7e\x7d", bytes(range(64))]


def test_tx_matches_behavioural_framer_back_to_back():
    engine = FastpathEngine()
    framer = HdlcFramer()
    line = engine.encode_frames(CONTENTS).line
    # The cycle TX wraps each frame in its own pair of flags.
    assert line == b"".join(framer.encode(c) for c in CONTENTS)


def test_tx_matches_framer_with_accm():
    mask = 0x0000_000B
    engine = FastpathEngine(P5Config(accm_mask=mask))
    framer = HdlcFramer(accm=Accm(mask))
    contents = [bytes([0, 1, 2, 3, 4]) * 10, b"\x7e\x00\x03"]
    assert engine.encode_frames(contents).line == b"".join(
        framer.encode(c) for c in contents
    )


def test_tx_counters():
    engine = FastpathEngine()
    tx = engine.encode_frames([b"\x7e\x7dAB"])
    assert tx.frames == 1
    assert tx.content_octets == 4
    # 2 escapable content octets; the FCS trailer may add more.
    assert tx.octets_escaped >= 2
    assert tx.line_octets == len(tx.line)


def test_tx_empty_batch_and_empty_frame():
    engine = FastpathEngine()
    assert engine.encode_frames([]).line == b""
    with pytest.raises(ValueError):
        engine.encode_frames([b""])


def test_loopback_recovers_everything():
    engine = FastpathEngine()
    contents = ppp_frame_contents(25, seed=3)
    tx, rx = engine.loopback(contents)
    assert rx.frames_ok == len(contents)
    assert rx.fcs_errors == 0
    assert rx.good_frames() == list(contents)
    # n frames wrapped individually -> n-1 empty inter-frame bodies.
    assert rx.empty_bodies == len(contents) - 1


def test_fcs16_path_uses_table_engine():
    engine = FastpathEngine(P5Config(fcs=CRC16_X25))
    _tx, rx = engine.loopback(CONTENTS)
    assert rx.good_frames() == CONTENTS


def test_rx_hunt_discards_and_open_tail():
    engine = FastpathEngine()
    frame = engine.encode_frame(b"data-frame-x")
    rx = engine.decode_stream(b"\x00\x01\x02" + frame + b"\x55\x66")
    assert rx.octets_discarded_hunting == 3
    assert rx.open_tail_octets == 2
    assert rx.frames_ok == 1


def test_rx_abort_runt_and_no_flag():
    engine = FastpathEngine()
    aborted = bytes([FLAG_OCTET, 0x41, 0x42, ESC_OCTET, FLAG_OCTET])
    rx = engine.decode_stream(aborted)
    assert rx.aborts == 1 and not rx.frames
    runt = bytes([FLAG_OCTET, 1, 2, 3, FLAG_OCTET])  # 3 octets <= FCS-32
    rx = engine.decode_stream(runt)
    assert rx.runt_frames == 1 and not rx.frames
    rx = engine.decode_stream(b"\x00" * 10)  # flagless noise
    assert rx.octets_discarded_hunting == 10 and not rx.frames


def test_rx_oversize_cut_matches_cycle_semantics():
    config = P5Config(max_frame_octets=32)
    engine = FastpathEngine(config)
    body = bytes(100)  # stuffs to itself; way past the 32-octet cut
    line = bytes([FLAG_OCTET]) + body + bytes([FLAG_OCTET])
    rx = engine.decode_stream(line)
    assert rx.oversize_drops == 1
    assert rx.octets_discarded_hunting == len(body) - (32 + 1)
    # The cut prefix is force-closed like the cycle model's: a 33-octet
    # frame that (here) fails its FCS.
    assert rx.frames == [(bytes(33 - 4), False)]
    assert rx.fcs_errors == 1


def test_rx_oversize_boundary_frame_still_decodes():
    """A frame whose stuffed body is exactly max+1 octets is counted
    oversize by the cycle delineator, yet the force-closed prefix is
    the complete frame — it must still FCS-check good."""
    config = P5Config(max_frame_octets=16)
    engine = FastpathEngine(config)
    content = bytes(13)
    line = engine.encode_frame(content)
    assert len(line) == 2 + 17  # no stuffing: 13 content + 4 FCS
    rx = engine.decode_stream(line)
    assert rx.oversize_drops == 1
    assert rx.frames_ok == 1
    assert rx.good_frames() == [content]


@pytest.mark.parametrize("run", [1, 2, 3])
def test_rx_oversize_cut_inside_an_escape_run(run):
    """A deleting escape right at the cut has nothing left to restore:
    Escape Detect drops it, and so must the engine."""
    config = P5Config(max_frame_octets=16)
    body = b"A" * (17 - run) + bytes([ESC_OCTET]) * run + b"BCDEF"
    line = bytes([FLAG_OCTET]) + body + bytes([FLAG_OCTET])
    rx = FastpathEngine(config).decode_stream(line)
    assert rx.oversize_drops == 1 and rx.fcs_errors == 1
    assert rx.octets_deleted == (run + 1) // 2
    DifferentialHarness(config).run_rx(line).assert_ok()


def test_destuff_chained_escapes_match_unstuff():
    # The engine's RX destuff is the shared kernel in non-strict mode.
    payload = bytes([ESC_OCTET, ESC_OCTET, FLAG_OCTET, 0x00, ESC_OCTET])
    stuffed = stuff(payload)
    assert unstuff(stuffed, strict=False) == unstuff(stuffed) == payload
    # Non-conforming 7D 7D decodes to 5D, like the cycle pipeline.
    raw = bytes([ESC_OCTET, ESC_OCTET])
    assert unstuff(raw, strict=False) == bytes([ESC_OCTET ^ 0x20])
    line = bytes([FLAG_OCTET]) + raw + b"\x41" + bytes([FLAG_OCTET])
    assert FastpathEngine().decode_stream(line).octets_deleted == 1

