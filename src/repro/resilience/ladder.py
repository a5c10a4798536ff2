"""The recovery ladder: bounded retries with exponential backoff.

When the active lane is unhealthy the supervisor does not thrash — it
climbs a fixed escalation ladder, giving each rung a bounded number of
attempts and spacing attempts with exponential backoff plus seeded
jitter (so two supervisors sharing a failure domain do not retry in
lockstep):

1. ``resync``       — drop the receiver's delineation carry, re-hunt;
2. ``flush``        — flush the RX side and the wire's deferred bytes;
3. ``renegotiate``  — bounce LCP through :class:`repro.ppp.fsm`
   restart timers (Down/Up, then Configure exchange or TO- give-up);
4. ``switch``       — ask the APS controller for a lane switch;
5. ``quarantine``   — declare the link down (typed
   :class:`repro.errors.LinkDownError` if both lanes are gone).

The ladder resets to the bottom rung the moment the lane is healthy
again; every action it emits is a structured event.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.resilience.events import EventLog
from repro.utils.rng import SeedLike, make_rng

__all__ = ["RecoveryStep", "LadderAction", "RecoveryLadder"]


class RecoveryStep(enum.Enum):
    RESYNC = "resync"
    FLUSH = "flush"
    RENEGOTIATE = "renegotiate"
    SWITCH = "switch"
    QUARANTINE = "quarantine"


#: Escalation order, cheapest remedy first.
LADDER = (
    RecoveryStep.RESYNC,
    RecoveryStep.FLUSH,
    RecoveryStep.RENEGOTIATE,
    RecoveryStep.SWITCH,
    RecoveryStep.QUARANTINE,
)
#: Attempts per rung before escalating to the next.
RETRIES_PER_STEP = 2
#: Backoff before the second attempt, in intervals; it doubles with
#: every escalation up to ``BACKOFF_CAP``.
BACKOFF_BASE = 1
BACKOFF_CAP = 8
#: Seeded jitter added to every backoff: ``0..JITTER`` intervals.
JITTER = 1


@dataclass(frozen=True)
class LadderAction:
    """One emitted recovery attempt."""

    interval: int
    step: RecoveryStep
    attempt: int           # 1-based attempt number within the rung
    backoff: int           # intervals until the next attempt may fire


class RecoveryLadder:
    """Escalation scheduler for one protected link."""

    def __init__(
        self,
        *,
        seed: SeedLike = None,
        log: Optional[EventLog] = None,
    ) -> None:
        self.log = log if log is not None else EventLog()
        self._rng = make_rng(seed)
        self._rung = 0
        self._attempt = 0
        self._escalations = 0
        self._next_allowed = 0

    # ------------------------------------------------------------------ views
    @property
    def current_step(self) -> RecoveryStep:
        return LADDER[self._rung]

    @property
    def quarantined(self) -> bool:
        return self.current_step is RecoveryStep.QUARANTINE

    # ---------------------------------------------------------------- actions
    def _backoff(self) -> int:
        """Exponential in total escalations, capped, plus seeded jitter."""
        base = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** self._escalations))
        return base + int(self._rng.integers(0, JITTER + 1))

    def next_action(self, interval: int, lane: str = "-") -> Optional[LadderAction]:
        """The recovery attempt due this interval, if any.

        Call only while the active lane is unhealthy; returns ``None``
        while backing off.  The quarantine rung re-emits (throttled by
        the capped backoff) rather than advancing — there is nothing
        above it.
        """
        if interval < self._next_allowed:
            return None
        step = self.current_step
        self._attempt += 1
        backoff = self._backoff()
        self._escalations += 1
        self._next_allowed = interval + backoff
        action = LadderAction(
            interval=interval,
            step=step,
            attempt=self._attempt,
            backoff=backoff,
        )
        self.log.record(
            interval, "ladder", lane, step.value,
            attempt=self._attempt, backoff=backoff,
        )
        if (
            self._attempt >= RETRIES_PER_STEP
            and step is not RecoveryStep.QUARANTINE
        ):
            self._rung += 1
            self._attempt = 0
            self.log.record(
                interval, "ladder", lane, "escalate",
                to=LADDER[self._rung].value,
            )
        return action

    def reset(self, interval: int, lane: str = "-") -> None:
        """Lane healthy again: back to the bottom rung, zero backoff."""
        if self._rung or self._attempt or self._escalations:
            self.log.record(interval, "ladder", lane, "reset")
        self._rung = 0
        self._attempt = 0
        self._escalations = 0
        self._next_allowed = 0
