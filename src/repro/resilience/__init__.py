"""repro.resilience — the supervised redundant-link runtime.

Everything before this package *measures* how the P⁵ datapath fails
(:mod:`repro.faults` campaigns) or how fast it goes
(:mod:`repro.fastpath`); this package makes a link *survive*.  A
:class:`LinkSupervisor` runs two full P⁵ lanes — working and protect —
as one long-lived 1+1 protected session:

* per-lane health scoring with SD/SF hysteresis
  (:mod:`repro.resilience.health`);
* APS-style switchover with hold-off and wait-to-restore timers,
  signalling the same K1/K2 vocabulary as :mod:`repro.sonet.aps`
  (:mod:`repro.resilience.aps`);
* a bounded-retry recovery ladder — resync, flush, LCP renegotiate,
  lane switch, quarantine (:mod:`repro.resilience.ladder`);
* graceful fastpath degradation under differential spot-checks
  (:mod:`repro.resilience.guard`);
* deterministic seeded chaos schedules reusing the fault-campaign
  injector primitives (:mod:`repro.resilience.chaos`).

``repro resilience --soak`` drives all of it from the CLI.
"""

from repro.resilience.aps import PROTECT, WORKING, ApsController, SwitchRecord
from repro.resilience.chaos import ChaosEvent, chaos_schedule
from repro.resilience.events import EventLog, ResilienceEvent
from repro.resilience.guard import FastpathGuard, GuardMode
from repro.resilience.health import HealthEngine, HealthSample, LaneState
from repro.resilience.ladder import LadderAction, RecoveryLadder, RecoveryStep
from repro.resilience.supervisor import (
    LinkSupervisor,
    SoakResult,
    SoakViolation,
    SupervisorConfig,
)
from repro.resilience.wire import LaneWire

__all__ = [
    "ApsController",
    "ChaosEvent",
    "EventLog",
    "FastpathGuard",
    "GuardMode",
    "HealthEngine",
    "HealthSample",
    "LadderAction",
    "LaneState",
    "LaneWire",
    "LinkSupervisor",
    "PROTECT",
    "RecoveryLadder",
    "RecoveryStep",
    "ResilienceEvent",
    "SoakResult",
    "SoakViolation",
    "SupervisorConfig",
    "SwitchRecord",
    "WORKING",
    "chaos_schedule",
]
