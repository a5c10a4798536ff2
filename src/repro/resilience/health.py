"""Per-lane health scoring with hysteresis.

The supervisor folds everything it can observe about a lane over one
interval — delivery ratio against the bridged traffic, the receiver's
framing-fault and FCS counters, the RFC 1333 LQR verdict (or its
absence: a starved LQR exchange is itself a symptom), and timing
ContractMonitor findings from cycle-mode spot checks — into a single
score in ``[0, 1]``, then runs the score through a signal-degrade /
signal-fail hysteresis so one noisy interval cannot flap the APS
selector.

The thresholds mirror GR-253's SD/SF split: *signal fail* is the hard
condition (lane effectively dark), *signal degrade* the soft one
(errored but passing traffic).  Recovery requires ``RECOVER_INTERVALS``
consecutive clean scores above the corresponding *exit* threshold —
the hysteresis gap is what keeps a lane from oscillating between
states on a score hovering at the boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.hdlc.receiver import RxResult

__all__ = ["LaneState", "HealthSample", "HealthEngine"]


class LaneState(enum.Enum):
    """Hysteresis outcome for one lane."""

    OK = "ok"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass(frozen=True)
class HealthSample:
    """What one interval showed about one lane."""

    #: Frames the head end bridged onto the lane this interval
    #: (data + control; what *should* have arrived).
    expected_frames: int
    #: What the lane's tail decoded this interval: FCS-good frames,
    #: FCS errors, delineation damage and hunt discards.
    rx: RxResult
    #: Whether the LQR exchange completed this interval.
    lqr_seen: bool = True
    #: Loss fractions from the lane's LQR verdict (0.0 when clean).
    outbound_loss: float = 0.0
    inbound_loss: float = 0.0
    #: Timing-contract findings observed in cycle-mode operation.
    contract_violations: int = 0


#: Score at or below which a lane *fails*, and at or above which a
#: failed lane may begin recovering.
SF_ENTER = 0.35
SF_EXIT = 0.75
#: The analogous signal-degrade pair.
SD_ENTER = 0.70
SD_EXIT = 0.90
#: Consecutive intervals above the exit threshold required to step the
#: state back up (FAILED -> DEGRADED -> OK).
RECOVER_INTERVALS = 2


class HealthEngine:
    """Folds :class:`HealthSample` streams into a lane state.

    ``name`` is the lane name, echoed in ``describe()`` output.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.state = LaneState.OK
        self.score = 1.0
        self.samples = 0
        self._good_streak = 0

    # ----------------------------------------------------------------- scoring
    def score_sample(self, sample: HealthSample) -> float:
        """One interval's score: delivery ratio minus symptom penalties."""
        rx = sample.rx
        if sample.expected_frames > 0:
            base = min(1.0, rx.frames_ok / sample.expected_frames)
        else:
            # Idle interval: judge only by symptoms.
            base = 1.0
        penalty = 0.0
        penalty += 0.5 * max(sample.outbound_loss, sample.inbound_loss)
        if not sample.lqr_seen:
            penalty += 0.25
        penalty += min(0.3, 0.05 * (rx.aborts + rx.oversize_drops + rx.runt_frames))
        penalty += min(0.2, 0.05 * rx.fcs_errors)
        if rx.octets_discarded_hunting:
            penalty += 0.05
        if sample.contract_violations:
            penalty += 0.4
        return max(0.0, base - penalty)

    def update(self, sample: HealthSample) -> LaneState:
        """Fold one interval's sample; returns the (new) lane state."""
        self.samples += 1
        self.score = self.score_sample(sample)
        if self.state is LaneState.OK:
            self._good_streak = 0
            if self.score <= SF_ENTER:
                self.state = LaneState.FAILED
            elif self.score <= SD_ENTER:
                self.state = LaneState.DEGRADED
        elif self.state is LaneState.DEGRADED:
            if self.score <= SF_ENTER:
                self.state = LaneState.FAILED
                self._good_streak = 0
            elif self.score >= SD_EXIT:
                self._good_streak += 1
                if self._good_streak >= RECOVER_INTERVALS:
                    self.state = LaneState.OK
                    self._good_streak = 0
            else:
                self._good_streak = 0
        else:  # FAILED
            if self.score >= SF_EXIT:
                self._good_streak += 1
                if self._good_streak >= RECOVER_INTERVALS:
                    self.state = LaneState.DEGRADED
                    # A streak that also clears SD_EXIT keeps counting
                    # toward OK rather than starting over.
                    if self.score >= SD_EXIT:
                        self._good_streak = RECOVER_INTERVALS - 1
                    else:
                        self._good_streak = 0
            else:
                self._good_streak = 0
        return self.state

    # ------------------------------------------------------------------ views
    @property
    def usable(self) -> bool:
        """Whether the APS selector may stand traffic on this lane."""
        return self.state is not LaneState.FAILED

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "state": self.state.value,
            "score": round(self.score, 4),
            "samples": self.samples,
        }
