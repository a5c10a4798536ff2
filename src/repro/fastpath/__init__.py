"""repro.fastpath — the frame-level fast datapath.

The cycle-accurate P5 in :mod:`repro.core` is the golden model: every
register, stall and resynchronisation buffer of the paper, one clock
at a time.  This package is its throughput-serving twin: the same
stuff → CRC → frame → delineate → destuff → check transformation
applied to *whole frames and batches of frames* with the package's
one bytes-native frame codec (:mod:`repro.hdlc.byte_stuffing`, and
:mod:`zlib` for FCS-32) and its one receiver
(:class:`~repro.hdlc.receiver.HdlcReceiver`) — no per-cycle stepping.

The two engines are kept honest against each other by the
:class:`~repro.fastpath.differential.DifferentialHarness`, which runs
identical workloads through both and asserts byte-identical line
streams, identical frame verdicts and identical OAM-visible counters.
``repro bench`` records the speedup trajectory in
``BENCH_fastpath.json``; see ``docs/performance.md`` for when to use
which engine.
"""

from repro.fastpath.differential import DifferentialHarness, DifferentialReport
from repro.fastpath.engine import FastpathEngine, FastpathTxResult

__all__ = [
    "FastpathEngine",
    "FastpathTxResult",
    "DifferentialHarness",
    "DifferentialReport",
]
