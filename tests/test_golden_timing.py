"""The cycle engine's golden timing, pinned as literals.

A seeded ``P5System`` + ``PhyWire`` loopback carries 60 imix frames
(every 8th one all-flag, so the escape units run at their worst case)
submitted on a fixed cycle schedule at 80% of the wire rate.  Every
module's cycle and stall counts, every channel's push count and peak
occupancy, and the cycle each frame lands in receive memory are
compared with the values below.  Any change to the kernel, the beat
representation or the CRC core that moves one simulated cycle fails
here, at the 32-bit and at the 8-bit datapath.
"""

import zlib
from typing import Dict, List

import pytest

from repro.core.config import P5Config
from repro.core.p5 import build_loopback
from repro.hdlc.constants import FLAG_OCTET
from repro.workloads.packets import ppp_frame_contents

N_FRAMES = 60
DENSE_EVERY = 8
LOAD = 0.8


def _frames() -> List[bytes]:
    frames = ppp_frame_contents(N_FRAMES, seed=2024)
    return [
        bytes([FLAG_OCTET]) * len(c) if i % DENSE_EVERY == DENSE_EVERY - 1 else c
        for i, c in enumerate(frames)
    ]


def _wire_octets(content: bytes) -> int:
    """Octets one frame occupies on the line (FCS-32, 7D/7E escaped)."""
    body = content + zlib.crc32(content).to_bytes(4, "little")
    return len(body) + body.count(b"\x7d") + body.count(b"\x7e") + 2


def golden_run(width_bits: int) -> Dict[str, object]:
    """Run the loopback and collect every timing observable."""
    frames = _frames()
    width_bytes = width_bits // 8
    due = []
    offered = 0
    for content in frames:
        due.append(int(offered / (width_bytes * LOAD)))
        offered += _wire_octets(content)

    system, sim = build_loopback(P5Config(width_bits=width_bits), name="gold")
    sink = system.rx.sink
    landed: List[int] = []

    class Landing(list):
        """Receive memory that notes the cycle each frame lands."""

        def append(self, item) -> None:
            landed.append(sink.cycles)
            super().append(item)

    sink.frames = Landing()
    for i, content in enumerate(frames):
        if due[i] > sim.cycle:
            sim.step(due[i] - sim.cycle)
        system.submit(content)
    sim.run_until(
        lambda: len(system.received()) == N_FRAMES and system.idle(),
        timeout=200_000,
    )
    assert system.received() == [(c, True) for c in frames]
    return {
        "cycle": sim.cycle,
        "modules": {m.name: (m.cycles, m.stalled_cycles) for m in sim.modules},
        "channels": {
            ch.name: (ch.pushes, ch.max_occupancy) for ch in system.channels
        },
        "landed": landed,
    }


GOLDEN = {
    32: {
        "cycle": 5294,
        "modules": {
            "gold.tx.source": (5294, 262),
            "gold.tx.crcgen": (5294, 298),
            "gold.tx.escgen": (5294, 337),
            "gold.tx.flags": (5294, 0),
            "gold.wire": (5294, 0),
            "gold.rx.delin": (5294, 0),
            "gold.rx.escdet": (5294, 0),
            "gold.rx.crcchk": (5294, 0),
            "gold.rx.sink": (5294, 0),
        },
        "channels": {
            "gold.tx.content": (3765, 2),
            "gold.tx.crc": (3825, 4),
            "gold.tx.escaped": (4206, 1),
            "gold.tx.phy": (4255, 2),
            "gold.rx.phy": (4255, 1),
            "gold.rx.body": (4206, 2),
            "gold.rx.clear": (3825, 1),
            "gold.rx.checked": (3765, 1),
        },
        "landed": [
            163, 211, 227, 377, 795, 902, 918, 944, 963, 978,
            1130, 1314, 1364, 1380, 1395, 1422, 1809, 2052, 2236, 2286,
            2301, 2317, 2332, 2627, 2712, 2728, 2880, 2928, 2944, 2960,
            2975, 3002, 3155, 3204, 3355, 3404, 3420, 3805, 4048, 4108,
            4127, 4142, 4294, 4343, 4359, 4511, 4560, 4855, 4940, 4956,
            5106, 5155, 5171, 5187, 5203, 5229, 5247, 5263, 5279, 5294,
        ],
    },
    8: {
        "cycle": 21131,
        "modules": {
            "gold.tx.source": (21131, 1265),
            "gold.tx.crcgen": (21131, 1391),
            "gold.tx.escgen": (21131, 1435),
            "gold.tx.flags": (21131, 0),
            "gold.wire": (21131, 0),
            "gold.rx.delin": (21131, 0),
            "gold.rx.escdet": (21131, 0),
            "gold.rx.crcchk": (21131, 0),
            "gold.rx.sink": (21131, 0),
        },
        "channels": {
            "gold.tx.content": (15060, 2),
            "gold.tx.crc": (15300, 7),
            "gold.tx.escaped": (16787, 1),
            "gold.tx.phy": (16907, 3),
            "gold.rx.phy": (16907, 1),
            "gold.rx.body": (16787, 1),
            "gold.rx.clear": (15300, 1),
            "gold.rx.checked": (15060, 1),
        },
        "landed": [
            601, 798, 861, 1463, 3132, 3562, 3625, 3731, 3805, 3867,
            4472, 5209, 5407, 5471, 5533, 5640, 7187, 8159, 8897, 9096,
            9158, 9221, 9283, 10462, 10803, 10866, 11469, 11667, 11730, 11792,
            11855, 11961, 12574, 12771, 13372, 13570, 13632, 15175, 16146, 16387,
            16461, 16523, 17127, 17325, 17389, 17995, 18193, 19372, 19713, 19776,
            20377, 20575, 20637, 20700, 20763, 20870, 20943, 21006, 21068, 21131,
        ],
    },
}


@pytest.fixture(scope="module", params=sorted(GOLDEN), ids=lambda w: f"{w}bit")
def run(request):
    return request.param, golden_run(request.param)


class TestGoldenTiming:
    def test_total_cycles(self, run):
        width, got = run
        assert got["cycle"] == GOLDEN[width]["cycle"]

    def test_module_cycles_and_stalls(self, run):
        width, got = run
        assert got["modules"] == GOLDEN[width]["modules"]

    def test_channel_pushes_and_peaks(self, run):
        width, got = run
        assert got["channels"] == GOLDEN[width]["channels"]

    def test_landing_cycle_of_every_frame(self, run):
        width, got = run
        assert got["landed"] == GOLDEN[width]["landed"]
