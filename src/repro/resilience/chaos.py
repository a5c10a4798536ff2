"""Deterministic seeded chaos schedules for supervisor soaks.

A schedule is a flat, interval-sorted list of impairment events drawn
from one seeded stream (``default_rng([seed, 0xCA05])``), so a soak is
exactly reproducible from its seed.  Event kinds map onto the
:class:`~repro.resilience.wire.LaneWire` hooks (``cut`` / ``burst`` /
``storm`` — the byte-level forms of the :mod:`repro.faults` injector
layers) plus ``sabotage``, which corrupts one fastpath encode so the
guard's differential spot-check has something real to catch.

Schedules are *survivable by construction*: cuts get exclusive,
guarded windows (no other event while a cut and its recovery are in
flight, and never a cut on each lane at once), everything stays clear
of the first few priming intervals and of a tail reserve long enough
for wait-to-restore to complete — so a clean supervisor ends a
schedule back on the working lane, and any frame lost outside an
event's influence window is a genuine supervisor bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.faults.injectors import MAX_BURST_BITS
from repro.utils.rng import make_rng

__all__ = ["ChaosEvent", "chaos_schedule"]

WORKING = "working"
PROTECT = "protect"

#: Intervals at the start of a soak kept event-free (LQR priming).
WARMUP = 6


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled impairment."""

    interval: int
    lane: str
    kind: str              # cut | burst | storm | sabotage
    duration: int = 1      # intervals (cut/storm); 1 otherwise
    bits: int = 0          # burst only

    @property
    def end(self) -> int:
        return self.interval + self.duration - 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "interval": self.interval,
            "lane": self.lane,
            "kind": self.kind,
            "duration": self.duration,
            "bits": self.bits,
        }


def _overlaps(spans: List[Tuple[int, int]], start: int, end: int) -> bool:
    return any(start <= hi and end >= lo for lo, hi in spans)


def chaos_schedule(
    *,
    intervals: int,
    events: int,
    seed: int,
    hold_off: int = 2,
    wait_to_restore: int = 6,
) -> List[ChaosEvent]:
    """Build a deterministic schedule of ``events`` impairments.

    Guarantees (all required by the soak's acceptance invariants):

    * at least one **working-lane cut** long enough to force an APS
      switchover (duration > hold-off);
    * at least one **sabotage** event (forced fastpath mismatch) on
      the working lane, at the first interval from two thirds into the
      schedule (wrapping to the start) that lies outside every cut's
      guard window and more than ``2 * (wait_to_restore + hold_off)``
      intervals after any other working-lane event, none starting by
      the next interval — so traffic is on the working lane when it
      strikes.  It is placed after every other event is drawn, so the
      rest of the schedule does not depend on it;
    * cuts never overlap each other (on either lane) and own an
      exclusive guard window — ``wait_to_restore + hold_off`` clear
      intervals on both sides — so every failover fully recovers
      before the next upset;
    * nothing scheduled in the first :data:`WARMUP` intervals or in
      the final ``wait_to_restore + hold_off + 8`` reserve.
    """
    reserve = wait_to_restore + hold_off + 8
    lo, hi = WARMUP, intervals - reserve
    if hi - lo < 4 * (wait_to_restore + hold_off):
        raise ValueError(
            f"soak too short for a chaos schedule: need well over "
            f"{4 * (wait_to_restore + hold_off) + WARMUP + reserve} intervals, "
            f"got {intervals}"
        )
    if events < 2:
        raise ValueError("need at least 2 events (one cut + one sabotage)")
    rng = make_rng([seed, 0xCA05])
    guard = wait_to_restore + hold_off
    cut_spans: List[Tuple[int, int]] = []
    out: List[ChaosEvent] = []

    def reserve_cut(start: int, duration: int) -> bool:
        lo_span, hi_span = start - guard, start + duration - 1 + guard
        if _overlaps(cut_spans, lo_span, hi_span):
            return False
        cut_spans.append((lo_span, hi_span))
        return True

    # Mandatory working-lane cut, long enough to outlast hold-off.
    cut_len = hold_off + 3
    first_cut = lo + (hi - lo) // 3
    reserve_cut(first_cut, cut_len)
    out.append(ChaosEvent(first_cut, WORKING, "cut", duration=cut_len))

    kinds = ("burst", "storm", "cut")
    sabotages = 1
    cuts = 1
    attempts = 0
    while len(out) < events - 1 and attempts < 50 * events:
        attempts += 1
        kind = kinds[int(rng.integers(0, len(kinds)))]
        lane = (WORKING, PROTECT)[int(rng.integers(0, 2))]
        at = int(rng.integers(lo, hi))
        if kind == "cut":
            if cuts >= 4:
                kind = "burst"
            else:
                duration = int(rng.integers(2, hold_off + 4))
                if not reserve_cut(at, duration):
                    continue
                cuts += 1
                out.append(ChaosEvent(at, lane, "cut", duration=duration))
                continue
        if kind == "storm":
            duration = int(rng.integers(1, 4))
            if _overlaps(cut_spans, at, at + duration - 1):
                continue
            out.append(ChaosEvent(at, lane, "storm", duration=duration))
            continue
        # burst (also the fallback for a cut that would not fit)
        if _overlaps(cut_spans, at, at):
            continue
        if sabotages < 2 and rng.random() < 0.08:
            out.append(ChaosEvent(at, lane, "sabotage"))
            sabotages += 1
            continue
        bits = int(rng.integers(2, MAX_BURST_BITS + 1))
        out.append(ChaosEvent(at, lane, "burst", bits=bits))
    if len(out) < events - 1:
        raise ValueError(
            f"could not place {events} events in {intervals} intervals"
        )

    # Mandatory sabotage on the working lane's fastpath, placed last so
    # it lands where traffic is: outside every cut's guard window, and
    # with no working-lane event settling (a storm or burst can still
    # switch traffic to protect) or starting around it.
    settle = 2 * guard
    working = [(e.interval, e.end) for e in out if e.lane == WORKING]
    start = lo + 2 * (hi - lo) // 3
    slots = [
        at for at in (*range(start, hi), *range(lo, start))
        if not _overlaps(cut_spans, at, at)
    ] or [start]
    sabotage_at = next(
        (at for at in slots if not _overlaps(working, at - settle, at + 1)),
        slots[0],
    )
    out.append(ChaosEvent(sabotage_at, WORKING, "sabotage"))
    out.sort(key=lambda e: (e.interval, e.lane, e.kind))
    return out
