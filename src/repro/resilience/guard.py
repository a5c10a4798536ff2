"""Graceful fastpath degradation with differential spot-checks.

The supervisor moves traffic through the
:class:`~repro.fastpath.engine.FastpathEngine` — that is what makes a
10k-frame soak affordable — but the fast engine is only trusted while
it provably matches the golden cycle model.  This guard enforces that
trust at runtime:

* in **fast** mode, every ``CHECK_EVERY``-th (8th) encode (and any encode
  whose output left the engine tampered — the chaos schedule's
  ``sabotage`` event models a fastpath memory fault) is differentially
  spot-checked against the cycle engine via
  :meth:`DifferentialHarness.run
  <repro.fastpath.differential.DifferentialHarness.run>`, plus a
  live comparison of the bytes actually shipped against the engine's
  re-encode;
* any mismatch **quarantines** the fastpath: a diagnostic event is
  logged, and TX/RX fall back to the harness's cycle-accurate
  loopback (:meth:`~repro.fastpath.differential.DifferentialHarness.cycle_loopback`)
  and a persistent :class:`~repro.fastpath.differential.CycleReceiver`
  (running under a non-strict timing
  :class:`~repro.sta.conformance.ContractMonitor`, whose findings feed
  the health engine) — traffic keeps flowing, slower but golden;
* after ``REINSTATE_AFTER`` (3) consecutive quarantined intervals in which
  the fast engine's re-encode agrees byte-for-byte with the shipped
  cycle line, the fastpath is reinstated.

Both receive paths are *streaming* and report the same
:class:`~repro.hdlc.receiver.RxResult`: the fast engine's
:meth:`~repro.fastpath.engine.FastpathEngine.feed` carries the open
frame (from its last seen flag) between intervals, and the cycle
receiver is a long-lived pipeline fed through
:meth:`~repro.rtl.pipeline.StreamSource.extend` — so frames split
across interval boundaries by storms or cuts decode exactly as a
continuous wire would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import P5Config
from repro.fastpath.differential import CycleReceiver, DifferentialHarness
from repro.fastpath.engine import FastpathEngine
from repro.hdlc.receiver import RxResult
from repro.resilience.events import EventLog
from repro.sta.conformance import ContractMonitor

__all__ = ["GuardMode", "QuarantineRecord", "FastpathGuard"]

#: Fast encodes between differential spot-checks.
CHECK_EVERY = 8
#: Consecutive clean quarantined intervals before the fastpath returns.
REINSTATE_AFTER = 3
#: Cycle-engine watchdog for the golden runs, in cycles.
TIMEOUT = 2_000_000


class GuardMode(enum.Enum):
    FAST = "fast"
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class QuarantineRecord:
    """Why the fastpath was benched."""

    interval: int
    mismatches: Tuple[str, ...]

    def as_dict(self) -> Dict[str, object]:
        return {"interval": self.interval, "mismatches": list(self.mismatches)}


class FastpathGuard:
    """Mode-switching TX/RX codec for one lane."""

    def __init__(
        self,
        config: P5Config,
        *,
        name: str,
        log: Optional[EventLog] = None,
    ) -> None:
        self.config = config
        self.name = name
        self.log = log if log is not None else EventLog()
        self.engine = FastpathEngine(config)
        self.mode = GuardMode.FAST
        self.spot_checks = 0
        self.quarantines: List[QuarantineRecord] = []
        self.reinstatements = 0
        #: Timing-contract findings on the quarantine receiver so far.
        self.contract_violations = 0
        self._encodes = 0
        self._clean_streak = 0
        self._sabotage_armed = False
        self._harness = DifferentialHarness(config, timeout=TIMEOUT)
        self._cycle_rx: Optional[Tuple[CycleReceiver, ContractMonitor]] = None
        self._pending_carry = b""

    # ------------------------------------------------------------------ chaos
    def arm_sabotage(self) -> None:
        """Corrupt the next fast encode's output (models a fastpath
        memory fault the spot-check must catch)."""
        self._sabotage_armed = True

    def _sabotage(self, line: bytes) -> bytes:
        """Flip one bit of a body byte, keeping flag/escape census
        intact so the damage is a pure payload corruption."""
        special = {self.config.flag_octet, self.config.esc_octet}
        out = bytearray(line)
        for i, value in enumerate(out):
            if value not in special and (value ^ 0x01) not in special:
                out[i] = value ^ 0x01
                return bytes(out)
        return bytes(out)  # pathological all-flag line: ship unchanged

    # --------------------------------------------------------------------- TX
    def encode(self, contents: Sequence[bytes], interval: int) -> bytes:
        """Encode one interval's batch; returns the bytes to ship."""
        if self.mode is GuardMode.QUARANTINED:
            return self._encode_quarantined(contents, interval)
        self._encodes += 1
        shipped = self.engine.encode_frames(list(contents)).line
        expected = shipped
        if self._sabotage_armed:
            self._sabotage_armed = False
            shipped = self._sabotage(shipped)
        due = self._encodes % CHECK_EVERY == 0
        if due or shipped != expected:
            self._spot_check(contents, shipped, expected, interval)
        return shipped

    def _spot_check(
        self,
        contents: Sequence[bytes],
        shipped: bytes,
        expected: bytes,
        interval: int,
    ) -> None:
        self.spot_checks += 1
        mismatches: List[str] = []
        if shipped != expected:
            diff_at = next(
                (
                    i
                    for i, (a, b) in enumerate(zip(shipped, expected))
                    if a != b
                ),
                min(len(shipped), len(expected)),
            )
            mismatches.append(
                f"shipped line diverges from fastpath re-encode at octet "
                f"{diff_at}"
            )
        report = self._harness.run(list(contents))
        mismatches.extend(report.mismatches)
        if mismatches:
            self._quarantine(interval, mismatches)
        else:
            self.log.record(
                interval, "fastpath", self.name, "spot-check-ok",
                frames=len(contents),
            )

    def _quarantine(self, interval: int, mismatches: List[str]) -> None:
        record = QuarantineRecord(
            interval=interval, mismatches=tuple(mismatches)
        )
        self.quarantines.append(record)
        self.mode = GuardMode.QUARANTINED
        self._clean_streak = 0
        # Hand the fast decoder's open frame to the cycle receiver so
        # no in-flight frame is lost across the mode switch.
        self._pending_carry = self.engine.take_carry()
        self.log.record(
            interval, "fastpath", self.name, "quarantine",
            diagnostic="; ".join(mismatches),
        )

    def _encode_quarantined(
        self, contents: Sequence[bytes], interval: int
    ) -> bytes:
        _system, line = self._harness.cycle_loopback(list(contents))
        # Re-verification: once the fast engine agrees with the golden
        # line for REINSTATE_AFTER consecutive intervals, trust it again.
        fast = self.engine.encode_frames(list(contents)).line
        if fast == line:
            self._clean_streak += 1
            if self._clean_streak >= REINSTATE_AFTER:
                self.mode = GuardMode.FAST
                self.reinstatements += 1
                self._clean_streak = 0
                self.engine.take_carry()
                self.log.record(
                    interval, "fastpath", self.name, "reinstate",
                    after_clean_intervals=REINSTATE_AFTER,
                )
        else:
            self._clean_streak = 0
            self.log.record(
                interval, "fastpath", self.name, "still-diverging",
            )
        return line

    # --------------------------------------------------------------------- RX
    def decode(self, data: bytes, interval: int) -> RxResult:
        """Decode one interval's arriving bytes in the current mode."""
        if self.mode is GuardMode.FAST:
            return self.engine.feed(data)
        if self._cycle_rx is None:
            rx = CycleReceiver(self.config, f"{self.name}.qrx", timeout=TIMEOUT)
            # Non-strict: findings are folded into health scores
            # instead of aborting the soak mid-flight.
            self._cycle_rx = (rx, rx.sim.enable_conformance(strict=False))
        rx, monitor = self._cycle_rx
        carry, self._pending_carry = self._pending_carry, b""
        result = rx.feed(carry + data)
        self.contract_violations = len(monitor.findings())
        return result

    def resync(self) -> None:
        """Recovery-ladder rung: drop delineation state and re-hunt."""
        self.engine.take_carry()
        self._pending_carry = b""

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "mode": self.mode.value,
            "spot_checks": self.spot_checks,
            "quarantines": [q.as_dict() for q in self.quarantines],
            "reinstatements": self.reinstatements,
        }
