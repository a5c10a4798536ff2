"""The ``repro bench`` engine: record the fastpath speedup trajectory.

Runs the same workloads through the cycle-accurate P5 loopback and the
frame-level fastpath engine, times both, differentially verifies them
against each other on the very same traffic, and writes the result as
``BENCH_fastpath.json`` — the recorded perf trajectory CI keeps as an
artifact and guards with a speedup floor (a slower codec shows up as
a floor violation, not as a quietly slower suite).

Workloads:

* ``imix`` — real IPv4-in-PPP frames following the simple IMIX
  (40/576/1500 at 7:4:1), the standard throughput mixture;
* ``random`` — uniform random payloads (escape density ~1/128 per
  ACCM-less config);
* ``allflags`` — every payload octet is the flag, the paper's
  worst-case 2x expansion traffic.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import P5Config
from repro.core.p5 import P5System, PhyWire
from repro.fastpath.differential import DifferentialHarness
from repro.fastpath.engine import FastpathEngine
from repro.hdlc.constants import FLAG_OCTET
from repro.rtl.simulator import Simulator
from repro.utils.rng import make_rng

__all__ = ["BENCH_SCHEMA", "standard_workloads", "run_bench", "render_text"]

BENCH_SCHEMA = "repro/bench-fastpath/v1"

#: CI fails when the imix fastpath/cycle speedup drops below this.
DEFAULT_SPEEDUP_FLOOR = 20.0


def standard_workloads(
    frames: int, *, seed: int = 0
) -> Dict[str, Callable[[], List[bytes]]]:
    """Named workload builders, deferred so unused ones cost nothing."""
    from repro.workloads.packets import ppp_frame_contents

    def imix() -> List[bytes]:
        return ppp_frame_contents(frames, seed=seed)

    def random_frames() -> List[bytes]:
        rng = make_rng(seed)
        return [
            bytes(rng.integers(0, 256, size=256, dtype="uint8"))
            for _ in range(frames)
        ]

    def allflags() -> List[bytes]:
        return [bytes([FLAG_OCTET]) * 256 for _ in range(frames)]

    return {"imix": imix, "random": random_frames, "allflags": allflags}


def _time_cycle(
    contents: Sequence[bytes], config: P5Config, *, timeout: int
) -> Dict[str, float]:
    """Clock one P5 loopback through the workload; wall-time it."""
    system = P5System(config, name="bench")
    wire = PhyWire("bench.wire", system.tx.phy_out, system.rx.phy_in)
    sim = Simulator(
        system.tx.modules + [wire] + system.rx.modules, system.channels
    )
    for content in contents:
        system.submit(content)
    start = time.perf_counter()
    sim.run_until(
        lambda: len(system.received()) >= len(contents) and system.idle(),
        timeout=timeout,
    )
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "cycles": sim.cycle,
        "cycles_per_s": sim.cycle / elapsed if elapsed else 0.0,
        "frames_delivered": len(system.received()),
    }


def _time_fastpath(
    contents: Sequence[bytes], config: P5Config
) -> Dict[str, float]:
    """Encode + decode the workload on the frame-level engine."""
    engine = FastpathEngine(config)
    start = time.perf_counter()
    tx, rx = engine.loopback(contents)
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "line_octets": tx.line_octets,
        "frames_delivered": rx.frames_ok,
    }


def run_bench(
    *,
    frames: int = 150,
    workloads: Optional[Sequence[str]] = None,
    floor: float = DEFAULT_SPEEDUP_FLOOR,
    config: Optional[P5Config] = None,
    seed: int = 0,
    timeout: int = 20_000_000,
) -> dict:
    """Run the two-engine benchmark; return the BENCH_fastpath payload.

    ``ok`` is True when every workload's differential harness passed
    and the imix speedup meets ``floor`` — the exact condition the CI
    smoke step enforces.
    """
    cfg = config or P5Config()
    builders = standard_workloads(frames, seed=seed)
    selected = list(workloads) if workloads else list(builders)
    harness = DifferentialHarness(cfg, timeout=timeout)

    report: dict = {
        "schema": BENCH_SCHEMA,
        "python": platform.python_version(),
        "config": {
            "width_bits": cfg.width_bits,
            "fcs": cfg.fcs.name,
            "clock_hz": cfg.clock_hz,
        },
        "frames_per_workload": frames,
        "speedup_floor": floor,
        "workloads": {},
    }

    ok = True
    for name in selected:
        contents = builders[name]()
        content_octets = sum(len(c) for c in contents)
        cycle = _time_cycle(contents, cfg, timeout=timeout)
        fast = _time_fastpath(contents, cfg)
        differential = harness.run(contents)
        ok = ok and differential.ok

        def rates(timing: Dict[str, float]) -> Dict[str, float]:
            seconds = timing["seconds"]
            return {
                **timing,
                "frames_per_s": len(contents) / seconds if seconds else 0.0,
                "mb_per_s": content_octets / seconds / 1e6 if seconds else 0.0,
            }

        cycle, fast = rates(cycle), rates(fast)
        speedup = (
            fast["frames_per_s"] / cycle["frames_per_s"]
            if cycle["frames_per_s"]
            else 0.0
        )
        report["workloads"][name] = {
            "frames": len(contents),
            "content_octets": content_octets,
            "cycle": cycle,
            "fastpath": fast,
            "speedup_frames_per_s": speedup,
            "differential_ok": differential.ok,
            "differential_mismatches": differential.mismatches,
        }

    imix = report["workloads"].get("imix")
    if imix is not None:
        ok = ok and imix["speedup_frames_per_s"] >= floor
    report["ok"] = ok
    return report


def render_text(report: dict) -> str:
    """Human-readable summary of a BENCH_fastpath payload."""
    lines = [
        f"fastpath benchmark ({report['frames_per_workload']} frames/workload, "
        f"{report['config']['width_bits']}-bit datapath)",
        "",
        f"{'workload':<10} {'cycle fr/s':>12} {'fast fr/s':>12} "
        f"{'fast MB/s':>10} {'speedup':>9} {'differential':>13}",
    ]
    for name, data in report["workloads"].items():
        lines.append(
            f"{name:<10} {data['cycle']['frames_per_s']:>12.1f} "
            f"{data['fastpath']['frames_per_s']:>12.1f} "
            f"{data['fastpath']['mb_per_s']:>10.2f} "
            f"{data['speedup_frames_per_s']:>8.1f}x "
            f"{'ok' if data['differential_ok'] else 'FAIL':>13}"
        )
    lines.append("")
    verdict = "PASS" if report["ok"] else "FAIL"
    lines.append(
        f"{verdict}: floor {report['speedup_floor']:.0f}x on imix; "
        f"differential harness on every workload"
    )
    return "\n".join(lines)
