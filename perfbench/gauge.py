"""Host-speed gauge: a fixed kernel timed between the benchmark's calls.

The benchmark shares its host with other tenants, whose load changes
how fast this host runs by tens of percent over seconds to minutes,
for the benchmark's process and for this kernel alike.  A run samples
the kernel's time after every few milliseconds of timed calls, and
each call time is rescaled by the kernel's local slowdown against a
fixed reference:

    scaled = raw * GAUGE_REF_S / (kernel time around the call)

so a scaled time reads as the time the call would take on the
reference host, whatever else the host was doing at that moment.  The
kernel belongs to the benchmark and calls nothing in the program, so
a change to the program moves scaled times exactly as it moves raw
ones.  The kernel mixes what the workloads do: a table-driven CRC
loop, small objects with slotted attributes and method calls (the
cycle engine's shape), and numpy and ``bytes`` passes over a buffer.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

#: The kernel's time on the reference host (the 2-core host this
#: benchmark was built on, Python 3.11, numpy 2.4, with no other load);
#: it only sets the unit of the scaled times.
GAUGE_REF_S = 0.65e-3

_TABLE = []
for _byte in range(256):
    _reg = _byte
    for _ in range(8):
        _reg = (_reg >> 1) ^ (0xEDB88320 if _reg & 1 else 0)
    _TABLE.append(_reg)
_DATA = bytes(range(256)) * 2
_BUFFER = np.frombuffer(bytes(range(256)) * 64, dtype=np.uint8)


class _Cell:
    __slots__ = ("value", "count")

    def __init__(self) -> None:
        self.value = 0
        self.count = 0

    def step(self, x: int) -> int:
        self.count += 1
        self.value = (self.value + x) & 0xFFFF
        return self.value


def kernel_seconds() -> float:
    """Run the kernel once; its host time in seconds."""
    t0 = time.perf_counter()
    reg = 0xFFFFFFFF
    table = _TABLE
    for byte in _DATA:
        reg = table[(reg ^ byte) & 0xFF] ^ (reg >> 8)
    cells = [_Cell() for _ in range(8)]
    queue: List[int] = []
    for i in range(300):
        for cell in cells:
            queue.append(cell.step(i))
        if len(queue) > 16:
            del queue[:8]
    for _ in range(4):
        int(np.flatnonzero(_BUFFER == 0x7E).size)
        int(np.cumsum(_BUFFER, dtype=np.int64)[-1])
        _BUFFER.tobytes().replace(b"\x7e", b"\x7d\x5e")
    return time.perf_counter() - t0


def scale(raw: Sequence[float], after: Sequence[int], samples: Sequence[float]) -> np.ndarray:
    """Rescale ``raw[i]`` by the median of the gauge samples around
    ``samples[after[i]]``, the first sample taken after call ``i``."""
    g = np.asarray(samples, dtype=np.float64)
    idx = np.asarray(after)
    local = np.median(
        np.stack([g[np.clip(idx + d, 0, g.size - 1)] for d in (-1, 0, 1)]), axis=0
    )
    return np.asarray(raw, dtype=np.float64) * GAUGE_REF_S / local
