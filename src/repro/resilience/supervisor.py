"""The LinkSupervisor: a 1+1 protected P⁵ link that heals itself.

The head end *bridges* every frame onto two independent lanes —
``working`` and ``protect`` — each a full P⁵ datapath (fastpath
engine with cycle-accurate fallback, see
:mod:`repro.resilience.guard`) behind its own impairable wire.  The
tail end *selects* the APS-active lane's output.  Time advances in
logical intervals; each interval the supervisor:

1. applies any scheduled chaos (:mod:`repro.resilience.chaos`);
2. bridges one batch of sequence-tagged data frames plus one in-band
   RFC 1333 LQR control frame onto both lanes;
3. collects each lane's deliveries, accounting every good frame
   against the submitted payload (a good frame whose payload does not
   match what was submitted is an **undetected corruption** — the
   invariant the whole stack exists to keep at zero);
4. folds the interval's evidence into each lane's
   :class:`~repro.resilience.health.HealthEngine`;
5. lets the :class:`~repro.resilience.aps.ApsController` decide
   hold-off / switch / wait-to-restore;
6. climbs the :class:`~repro.resilience.ladder.RecoveryLadder` while
   the active lane stays unhealthy — resync, flush, LCP renegotiate
   (a real :class:`~repro.ppp.fsm.NegotiationFsm` driven through its
   restart timers), lane switch, and finally quarantine with a typed
   :class:`~repro.errors.LinkDownError` when both lanes are gone.

:meth:`LinkSupervisor.run_soak` returns a :class:`SoakResult` whose
violations list enforces the acceptance invariants: zero undetected
corruptions, per-switchover loss bounded by the declared hold-off
budget, no loss outside any chaos/switch influence window, automatic
reversion to the working lane, and at least one fastpath quarantine
that kept passing traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import P5Config
from repro.errors import LinkDownError, ProtocolError
from repro.ppp.fsm import Event, FsmActions, NegotiationFsm, State
from repro.ppp.lqm import LinkQualityMonitor
from repro.resilience.aps import PROTECT, WORKING, ApsController, SwitchRecord
from repro.resilience.chaos import ChaosEvent, chaos_schedule
from repro.resilience.events import EventLog
from repro.fastpath.engine import FastpathRxResult
from repro.resilience.guard import FastpathGuard, GuardMode
from repro.resilience.health import HealthEngine, HealthSample, LaneState
from repro.resilience.ladder import RecoveryLadder, RecoveryStep
from repro.resilience.wire import LaneWire
from repro.utils.rng import make_rng

__all__ = [
    "SupervisorConfig",
    "Lane",
    "LinkSupervisor",
    "SoakResult",
    "SoakViolation",
    "FRAME_DATA",
    "FRAME_LQR",
]

#: One-octet frame type tags (first content octet).
FRAME_DATA = 0x44  # 'D'
FRAME_LQR = 0x51   # 'Q'
_HEADER_OCTETS = 5  # type + 32-bit sequence/interval number

#: Fixed soak parameters (the component classes keep their own knobs).
#: Data payload size range, in octets.
FRAME_OCTETS: Tuple[int, int] = (24, 72)
MAX_FRAME_OCTETS = 512
#: Fastpath guard: spot-check cadence and clean intervals to reinstate.
CHECK_EVERY = 8
REINSTATE_AFTER = 3
#: Health: consecutive good intervals before a lane counts as recovered.
RECOVER_INTERVALS = 2
#: Recovery ladder: attempts per rung and backoff ceiling (intervals).
RETRIES_PER_STEP = 2
BACKOFF_CAP = 8
REVERTIVE = True
#: Cycle-engine watchdog for the guard's golden runs, in cycles.
TIMEOUT = 2_000_000


@dataclass(frozen=True)
class SupervisorConfig:
    """Everything a soak needs, with CI-smoke-sized defaults."""

    intervals: int = 640
    frames_per_interval: int = 16
    seed: int = 1
    width_bits: int = 32
    chaos_events: int = 24
    hold_off: int = 2
    wait_to_restore: int = 6
    #: Raise :class:`LinkDownError` when the ladder quarantines a
    #: both-lanes-down link (otherwise it is only logged).
    raise_on_quarantine: bool = True

    @property
    def switchover_loss_budget(self) -> int:
        """Declared per-switchover frame-loss bound.

        One interval for detection, ``hold_off`` intervals of
        deliberate waiting, one interval of switch/drain slack — each
        worth ``frames_per_interval`` bridged data frames.
        """
        return (self.hold_off + 3) * self.frames_per_interval

    @property
    def loss_window(self) -> int:
        """Intervals before a switch whose losses it must answer for."""
        return self.hold_off + 3

    def p5(self) -> P5Config:
        return P5Config(
            width_bits=self.width_bits,
            max_frame_octets=MAX_FRAME_OCTETS,
        )


@dataclass(frozen=True)
class SoakViolation:
    """One broken soak invariant (mirrors the faults campaign's shape)."""

    kind: str
    message: str

    def as_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "message": self.message}

    def render(self) -> str:
        return f"VIOLATION [{self.kind}] {self.message}"


@dataclass
class LaneDelivery:
    """What one lane handed the selector this interval."""

    data: List[Tuple[int, bytes]] = field(default_factory=list)
    bad_frames: int = 0
    unparsable: List[bytes] = field(default_factory=list)
    lqr_seen: bool = False
    outbound_loss: float = 0.0
    inbound_loss: float = 0.0
    rx: FastpathRxResult = field(default_factory=FastpathRxResult)
    #: Timing-contract findings the lane's cycle receiver raised.
    contract_violations: int = 0


class Lane:
    """One protected lane: guard codec + wire + LQM pair + LCP."""

    def __init__(
        self, name: str, cfg: SupervisorConfig, log: EventLog, *, seed: int
    ) -> None:
        self.name = name
        self.cfg = cfg
        self.log = log
        self.wire = LaneWire(f"{name}.wire", seed=seed)
        self.guard = FastpathGuard(
            cfg.p5(),
            name=name,
            check_every=CHECK_EVERY,
            reinstate_after=REINSTATE_AFTER,
            log=log,
            timeout=TIMEOUT,
        )
        self.health = HealthEngine(name, recover_intervals=RECOVER_INTERVALS)
        magic = (seed * 2654435761) & 0xFFFFFFFF
        self.head_lqm = LinkQualityMonitor(magic=magic or 1)
        self.tail_lqm = LinkQualityMonitor(magic=(magic ^ 0x5A5A5A5A) or 2)
        self.lcp = NegotiationFsm(FsmActions(), name=f"{name}.lcp")
        self.renegotiations = 0
        self._open_lcp()

    # ------------------------------------------------------------------- LCP
    def _open_lcp(self) -> None:
        self.lcp.open()
        self.lcp.up()
        self._converge_lcp()

    def _converge_lcp(self) -> None:
        self.lcp.receive(Event.RCR_PLUS)
        self.lcp.receive(Event.RCA)

    def renegotiate(self, interval: int) -> bool:
        """Ladder rung: bounce LCP through its restart timers.

        Succeeds (re-converges to Opened) only when the wire can carry
        the Configure exchange; on a cut lane the restart counter
        drains through TO+ to TO- and the FSM parks in Stopped.
        """
        self.renegotiations += 1
        try:
            self.lcp.down()
            self.lcp.up()
        except ProtocolError:
            # Parked in Stopped from an earlier failed attempt: Down
            # re-arms via Starting, Up re-sends Configure-Request.
            pass
        if self.lcp.state is not State.REQ_SENT:
            # Stopped -> Starting (tls) needs an explicit lower-layer
            # bounce before Up is legal again.
            if self.lcp.state is State.STARTING:
                self.lcp.up()
        ticks = 0
        if not self.wire.is_cut(interval):
            self._converge_lcp()
        else:
            while self.lcp.timer_running:
                self.lcp.tick()
                ticks += 1
        opened = self.lcp.is_opened
        self.log.record(
            interval, "ladder", self.name, "renegotiate-result",
            opened=opened, state=self.lcp.state.name, timeouts=ticks,
        )
        return opened

    # ------------------------------------------------------------- transport
    def transmit_interval(
        self, interval: int, payloads: List[Tuple[int, bytes]]
    ) -> LaneDelivery:
        """Bridge one batch (plus the LQR) across this lane."""
        contents: List[bytes] = []
        for seq, payload in payloads:
            content = (
                bytes([FRAME_DATA]) + seq.to_bytes(4, "big") + payload
            )
            contents.append(content)
            self.head_lqm.count_tx(len(content))
        lqr = (
            bytes([FRAME_LQR])
            + (interval & 0xFFFFFFFF).to_bytes(4, "big")
            + self.head_lqm.build_report()
        )
        contents.append(lqr)

        line = self.guard.encode(contents, interval)
        arrived = self.wire.transmit(line, interval)
        violations = self.guard.contract_violations
        rx = self.guard.decode(arrived, interval)

        delivery = LaneDelivery(
            rx=rx,
            contract_violations=self.guard.contract_violations - violations,
        )
        for content, good in rx.frames:
            if not good:
                delivery.bad_frames += 1
                self.tail_lqm.count_rx_error()
                continue
            kind = content[0] if content else 0
            if kind == FRAME_LQR and len(content) >= _HEADER_OCTETS + 48:
                self.tail_lqm.receive_report(content[_HEADER_OCTETS:])
                # The tail's own report rides the (healthy-by-
                # construction) return fibre of the same lane pair.
                verdict = self.head_lqm.receive_report(
                    self.tail_lqm.build_report()
                )
                delivery.lqr_seen = True
                if verdict is not None:
                    delivery.outbound_loss = verdict.outbound_loss
                    delivery.inbound_loss = verdict.inbound_loss
            elif kind == FRAME_DATA and len(content) > _HEADER_OCTETS:
                self.tail_lqm.count_rx(len(content))
                seq = int.from_bytes(content[1:_HEADER_OCTETS], "big")
                delivery.data.append((seq, content[_HEADER_OCTETS:]))
            else:
                # Good FCS but an impossible header: corrupted payload
                # that slipped delineation — the selector must flag it.
                delivery.unparsable.append(content)
        return delivery

    def sample_from(self, delivery: LaneDelivery, expected: int) -> HealthSample:
        rx = delivery.rx
        return HealthSample(
            expected_frames=expected,
            delivered_ok=rx.frames_ok,
            fcs_errors=rx.fcs_errors,
            framing_faults=rx.aborts + rx.oversize_drops + rx.runt_frames,
            hunt_octets=rx.octets_discarded_hunting,
            lqr_seen=delivery.lqr_seen,
            outbound_loss=delivery.outbound_loss,
            inbound_loss=delivery.inbound_loss,
            contract_violations=delivery.contract_violations,
        )


@dataclass
class SoakResult:
    """Everything a soak produced, plus the invariant verdicts."""

    config: SupervisorConfig
    intervals_run: int
    frames_submitted: int
    frames_delivered: int
    frames_lost: int
    undetected_corruptions: int
    degraded_delivered: int
    switchovers: List[SwitchRecord]
    switch_losses: List[Dict[str, int]]
    reversions: int
    final_active: str
    chaos: List[ChaosEvent]
    lanes: Dict[str, Dict[str, object]]
    violations: List[SoakViolation]
    log: EventLog

    @property
    def ok(self) -> bool:
        return not self.violations


class LinkSupervisor:
    """Runs the protected link for a configured number of intervals."""

    def __init__(
        self,
        config: Optional[SupervisorConfig] = None,
        *,
        chaos: Optional[List[ChaosEvent]] = None,
    ) -> None:
        self.cfg = config or SupervisorConfig()
        self.log = EventLog()
        self._rng = make_rng([self.cfg.seed, 0x50AC])
        self.lanes: Dict[str, Lane] = {
            WORKING: Lane(
                WORKING, self.cfg, self.log, seed=self.cfg.seed * 2 + 1
            ),
            PROTECT: Lane(
                PROTECT, self.cfg, self.log, seed=self.cfg.seed * 2 + 2
            ),
        }
        self.aps = ApsController(
            hold_off=self.cfg.hold_off,
            wait_to_restore=self.cfg.wait_to_restore,
            revertive=REVERTIVE,
            log=self.log,
        )
        self.ladder = RecoveryLadder(
            retries_per_step=RETRIES_PER_STEP,
            backoff_cap=BACKOFF_CAP,
            seed=[self.cfg.seed, 0x1ADD],
            log=self.log,
        )
        if chaos is None:
            chaos = chaos_schedule(
                intervals=self.cfg.intervals,
                events=self.cfg.chaos_events,
                seed=self.cfg.seed,
                hold_off=self.cfg.hold_off,
                wait_to_restore=self.cfg.wait_to_restore,
            )
        self.chaos = sorted(chaos, key=lambda e: (e.interval, e.lane, e.kind))
        # Traffic ledger.
        self._next_seq = 0
        self._pending: Dict[int, bytes] = {}
        self._submitted_at: Dict[int, int] = {}
        self._delivered: Set[int] = set()
        self.undetected_corruptions = 0
        self.degraded_delivered = 0
        self.quarantine_declared = False

    # ------------------------------------------------------------------ chaos
    def _apply_chaos(self, interval: int) -> None:
        for event in self.chaos:
            if event.interval != interval:
                continue
            lane = self.lanes[event.lane]
            if event.kind == "cut":
                lane.wire.cut(interval, event.duration)
            elif event.kind == "storm":
                lane.wire.storm(interval, event.duration)
            elif event.kind == "burst":
                lane.wire.arm_burst(event.bits)
            elif event.kind == "sabotage":
                lane.guard.arm_sabotage()
            self.log.record(
                interval, "chaos", event.lane, event.kind,
                duration=event.duration, bits=event.bits,
            )

    # ---------------------------------------------------------------- traffic
    def _make_batch(self, interval: int) -> List[Tuple[int, bytes]]:
        lo, hi = FRAME_OCTETS
        batch: List[Tuple[int, bytes]] = []
        for _ in range(self.cfg.frames_per_interval):
            n = int(self._rng.integers(lo, hi + 1))
            payload = self._rng.integers(0, 256, size=n, dtype="uint8").tobytes()
            seq = self._next_seq
            self._next_seq += 1
            self._pending[seq] = payload
            self._submitted_at[seq] = interval
            batch.append((seq, payload))
        return batch

    def _select(self, interval: int, delivery: LaneDelivery) -> None:
        """Account the active lane's output against the ledger."""
        active = self.aps.active
        quarantined = (
            self.lanes[active].guard.mode is GuardMode.QUARANTINED
        )
        for seq, payload in delivery.data:
            expected = self._pending.get(seq)
            if expected is None:
                if seq in self._delivered:
                    continue  # duplicate delivery of an accounted frame
                self.undetected_corruptions += 1
                self.log.record(
                    interval, "traffic", active, "corrupt-delivered",
                    seq=seq, reason="unknown sequence number",
                )
                continue
            if payload != expected:
                self.undetected_corruptions += 1
                self.log.record(
                    interval, "traffic", active, "corrupt-delivered",
                    seq=seq, reason="payload mismatch",
                )
                continue
            del self._pending[seq]
            self._delivered.add(seq)
            if quarantined:
                self.degraded_delivered += 1
        for _content in delivery.unparsable:
            self.undetected_corruptions += 1
            self.log.record(
                interval, "traffic", active, "corrupt-delivered",
                reason="unparsable header on a good frame",
            )

    # ----------------------------------------------------------------- ladder
    def _run_ladder(
        self, interval: int, states: Dict[str, LaneState]
    ) -> None:
        active = self.aps.active
        if states[active] is LaneState.OK:
            self.ladder.reset(interval, active)
            return
        action = self.ladder.next_action(interval, active)
        if action is None:
            return
        lane = self.lanes[active]
        if action.step is RecoveryStep.RESYNC:
            lane.guard.resync()
        elif action.step is RecoveryStep.FLUSH:
            lane.guard.resync()
            lane.wire.flush()
        elif action.step is RecoveryStep.RENEGOTIATE:
            lane.renegotiate(interval)
        elif action.step is RecoveryStep.SWITCH:
            self.aps.force_switch(interval, reason="recovery ladder")
        elif action.step is RecoveryStep.QUARANTINE:
            if all(s is LaneState.FAILED for s in states.values()):
                self.quarantine_declared = True
                self.log.record(
                    interval, "ladder", "-", "link-down",
                    working=states[WORKING].value,
                    protect=states[PROTECT].value,
                )
                if self.cfg.raise_on_quarantine:
                    raise LinkDownError(
                        f"both lanes down at interval {interval}: "
                        f"working={states[WORKING].value}, "
                        f"protect={states[PROTECT].value}",
                        events=self.log.events,
                    )
            else:
                self.log.record(
                    interval, "ladder", "-", "quarantine-averted",
                    reason="standby lane still usable",
                )

    # ------------------------------------------------------------------- run
    def run_interval(self, interval: int) -> None:
        """One full supervision cycle."""
        self._apply_chaos(interval)
        batch = self._make_batch(interval)
        expected = len(batch) + 1  # data + the LQR control frame
        deliveries = {
            name: lane.transmit_interval(interval, batch)
            for name, lane in self.lanes.items()
        }
        self._select(interval, deliveries[self.aps.active])
        states: Dict[str, LaneState] = {}
        for name, lane in self.lanes.items():
            sample = lane.sample_from(deliveries[name], expected)
            states[name] = lane.health.update(sample)
        self.aps.evaluate(interval, states[WORKING], states[PROTECT])
        self._run_ladder(interval, states)

    def run_soak(self) -> SoakResult:
        for interval in range(self.cfg.intervals):
            self.run_interval(interval)
        return self._finalize()

    # -------------------------------------------------------------- verdicts
    def _finalize(self) -> SoakResult:
        cfg = self.cfg
        lost = sorted(self._pending)
        violations: List[SoakViolation] = []

        if self.undetected_corruptions:
            violations.append(SoakViolation(
                "undetected-corruption",
                f"{self.undetected_corruptions} frame(s) delivered as good "
                f"with a payload that was never submitted",
            ))

        # Per-switchover loss against the declared hold-off budget.
        switch_losses: List[Dict[str, int]] = []
        covered: Set[int] = set()
        for record in self.aps.switches:
            window_lo = record.interval - cfg.loss_window
            in_window = [
                seq for seq in lost
                if window_lo < self._submitted_at[seq] <= record.interval
            ]
            covered.update(in_window)
            switch_losses.append({
                "interval": record.interval,
                "loss": len(in_window),
                "budget": cfg.switchover_loss_budget,
            })
            if len(in_window) > cfg.switchover_loss_budget:
                violations.append(SoakViolation(
                    "switchover-loss",
                    f"switch at interval {record.interval} lost "
                    f"{len(in_window)} frames, budget "
                    f"{cfg.switchover_loss_budget}",
                ))

        # Unbounded loss: every lost frame must sit in some event's
        # influence window (chaos upset or switchover).
        slack = cfg.hold_off + 4
        for seq in lost:
            if seq in covered:
                continue
            at = self._submitted_at[seq]
            near_chaos = any(
                event.interval - 1 <= at <= event.end + slack
                for event in self.chaos
            )
            if not near_chaos:
                violations.append(SoakViolation(
                    "unbounded-loss",
                    f"frame {seq} (interval {at}) lost outside every "
                    f"chaos/switch influence window",
                ))

        reversions = sum(
            1 for r in self.aps.switches
            if r.to_lane == WORKING and r.request.name == "WAIT_TO_RESTORE"
        )
        working_cuts = [
            e for e in self.chaos if e.kind == "cut" and e.lane == WORKING
        ]
        if REVERTIVE and working_cuts:
            if reversions < 1:
                violations.append(SoakViolation(
                    "no-reversion",
                    "a working-lane cut occurred but traffic never "
                    "reverted to the working lane after wait-to-restore",
                ))
            if self.aps.active != WORKING and not self.quarantine_declared:
                violations.append(SoakViolation(
                    "no-reversion",
                    f"soak ended on the {self.aps.active} lane despite a "
                    f"revertive configuration and an event-free tail reserve",
                ))

        sabotages = [e for e in self.chaos if e.kind == "sabotage"]
        if sabotages:
            quarantines = sum(
                len(lane.guard.quarantines) for lane in self.lanes.values()
            )
            if quarantines < 1:
                violations.append(SoakViolation(
                    "fastpath-degradation",
                    "a sabotage event was scheduled but no differential "
                    "spot-check ever quarantined the fastpath",
                ))
            elif self.degraded_delivered < 1:
                violations.append(SoakViolation(
                    "fastpath-degradation",
                    "the fastpath was quarantined but no traffic was "
                    "delivered through the cycle engine while degraded",
                ))

        lanes = {
            name: {
                "guard": lane.guard.describe(),
                "wire": lane.wire.describe(),
                "health": lane.health.describe(),
                "lqm_verdicts": len(lane.head_lqm.verdicts),
                "renegotiations": lane.renegotiations,
                "lcp_state": lane.lcp.state.name,
            }
            for name, lane in self.lanes.items()
        }
        for violation in violations:
            self.log.record(
                cfg.intervals, "verdict", "-", violation.kind,
                message=violation.message,
            )
        return SoakResult(
            config=cfg,
            intervals_run=cfg.intervals,
            frames_submitted=self._next_seq,
            frames_delivered=len(self._delivered),
            frames_lost=len(lost),
            undetected_corruptions=self.undetected_corruptions,
            degraded_delivered=self.degraded_delivered,
            switchovers=list(self.aps.switches),
            switch_losses=switch_losses,
            reversions=reversions,
            final_active=self.aps.active,
            chaos=list(self.chaos),
            lanes=lanes,
            violations=violations,
            log=self.log,
        )
