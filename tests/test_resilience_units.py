"""Resilience building blocks: health, APS, ladder, wire, chaos, events."""

import pytest

from repro.errors import ConfigError
from repro.resilience import (
    PROTECT,
    WORKING,
    ApsController,
    EventLog,
    HealthEngine,
    HealthSample,
    LaneState,
    LaneWire,
    RecoveryLadder,
    RecoveryStep,
    chaos_schedule,
)
from repro.resilience.ladder import LADDER
from repro.sonet.aps import ApsRequest


def clean(expected=17):
    return HealthSample(expected_frames=expected, delivered_ok=expected)


def dark(expected=17):
    return HealthSample(
        expected_frames=expected, delivered_ok=0, lqr_seen=False
    )


class TestHealthEngine:
    def test_clean_intervals_stay_ok(self):
        engine = HealthEngine("working")
        for _ in range(10):
            assert engine.update(clean()) is LaneState.OK
        assert engine.usable

    def test_dark_interval_fails_immediately(self):
        engine = HealthEngine("working")
        assert engine.update(dark()) is LaneState.FAILED
        assert not engine.usable

    def test_single_fcs_error_is_tolerated(self):
        engine = HealthEngine("working")
        state = engine.update(HealthSample(
            expected_frames=17, delivered_ok=16, fcs_errors=1,
        ))
        assert state is LaneState.OK

    def test_errored_interval_degrades_not_fails(self):
        engine = HealthEngine("working")
        state = engine.update(HealthSample(
            expected_frames=17, delivered_ok=15, fcs_errors=2,
            framing_faults=2, hunt_octets=12,
        ))
        assert state is LaneState.DEGRADED
        assert engine.usable

    def test_recovery_needs_consecutive_clean_intervals(self):
        engine = HealthEngine("working", recover_intervals=2)
        engine.update(dark())
        assert engine.state is LaneState.FAILED
        # One clean interval is not enough...
        engine.update(clean())
        assert engine.state is LaneState.FAILED
        # ...two consecutive are; a clean score above sd_exit carries
        # the streak so OK follows one interval later.
        engine.update(clean())
        assert engine.state is LaneState.DEGRADED
        engine.update(clean())
        assert engine.state is LaneState.OK

    def test_recovery_streak_resets_on_relapse(self):
        engine = HealthEngine("working", recover_intervals=2)
        engine.update(dark())
        engine.update(clean())
        engine.update(dark())  # relapse
        engine.update(clean())
        assert engine.state is LaneState.FAILED

    def test_lqr_silence_and_loss_are_symptoms(self):
        engine = HealthEngine("working")
        state = engine.update(HealthSample(
            expected_frames=17, delivered_ok=17,
            lqr_seen=False, outbound_loss=0.5,
        ))
        assert state is LaneState.DEGRADED

    def test_idle_interval_judged_by_symptoms_only(self):
        engine = HealthEngine("working")
        assert engine.update(HealthSample(0, 0)) is LaneState.OK

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            HealthEngine("x", sf_enter=0.9, sf_exit=0.5)
        with pytest.raises(ConfigError):
            HealthEngine("x", recover_intervals=0)


class TestApsController:
    def test_failed_active_switches_after_hold_off(self):
        aps = ApsController(hold_off=2)
        assert aps.evaluate(0, LaneState.FAILED, LaneState.OK) is None
        record = aps.evaluate(1, LaneState.FAILED, LaneState.OK)
        assert record is not None
        assert record.request is ApsRequest.SIGNAL_FAIL
        assert aps.active == PROTECT

    def test_one_errored_interval_never_switches(self):
        aps = ApsController(hold_off=2)
        assert aps.evaluate(0, LaneState.DEGRADED, LaneState.OK) is None
        assert aps.evaluate(1, LaneState.OK, LaneState.OK) is None
        assert aps.active == WORKING
        assert not aps.switches

    def test_no_switch_onto_a_failed_standby(self):
        aps = ApsController(hold_off=1)
        for interval in range(6):
            assert aps.evaluate(
                interval, LaneState.FAILED, LaneState.FAILED
            ) is None
        assert aps.active == WORKING

    def test_wait_to_restore_reverts_to_working(self):
        aps = ApsController(hold_off=1, wait_to_restore=3)
        aps.evaluate(0, LaneState.FAILED, LaneState.OK)
        assert aps.active == PROTECT
        reverted = None
        for interval in range(1, 10):
            reverted = aps.evaluate(interval, LaneState.OK, LaneState.OK)
            if reverted:
                break
        assert reverted is not None
        assert reverted.request is ApsRequest.WAIT_TO_RESTORE
        assert aps.active == WORKING
        # WTR streak starts at interval 1; 3 healthy intervals end at 3,
        # and spacing (> hold_off after the switch at 0) also allows it.
        assert reverted.interval == 3

    def test_non_revertive_stays_on_protect(self):
        aps = ApsController(hold_off=1, revertive=False)
        aps.evaluate(0, LaneState.FAILED, LaneState.OK)
        for interval in range(1, 10):
            assert aps.evaluate(interval, LaneState.OK, LaneState.OK) is None
        assert aps.active == PROTECT

    def test_force_switch_respects_spacing(self):
        log = EventLog()
        aps = ApsController(hold_off=3, log=log)
        assert aps.force_switch(5, reason="test") is not None
        assert aps.force_switch(7, reason="too soon") is None
        assert log.select(category="aps", kind="force-refused")
        assert aps.force_switch(9, reason="spaced out") is not None

    def test_k1_k2_signalling_bytes(self):
        aps = ApsController(hold_off=1)
        assert aps.k1_byte() == 0  # NO_REQUEST on working
        aps.evaluate(0, LaneState.FAILED, LaneState.OK)
        # SIGNAL_FAIL (0b1100) in bits 1-4, protect channel in 5-8.
        assert aps.k1_byte() == (0b1100 << 4) | 1
        assert aps.k2_byte() == (1 << 4) | 0b100

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ApsController(hold_off=0)
        with pytest.raises(ConfigError):
            ApsController(hold_off=4, wait_to_restore=2)


class TestRecoveryLadder:
    def test_escalation_order_is_the_ladder(self):
        ladder = RecoveryLadder(retries_per_step=1, jitter=0, seed=1)
        steps = []
        interval = 0
        while len(steps) < len(LADDER):
            action = ladder.next_action(interval)
            if action:
                steps.append(action.step)
            interval += 1
        assert steps == list(LADDER)

    def test_retries_before_escalation(self):
        ladder = RecoveryLadder(retries_per_step=2, jitter=0, seed=1)
        first = ladder.next_action(0)
        second = ladder.next_action(first.backoff)
        assert first.step is second.step is RecoveryStep.RESYNC
        assert (first.attempt, second.attempt) == (1, 2)
        third = ladder.next_action(first.backoff + second.backoff)
        assert third.step is RecoveryStep.FLUSH

    def test_backoff_grows_exponentially_and_caps(self):
        ladder = RecoveryLadder(
            retries_per_step=1, backoff_base=1, backoff_cap=8,
            jitter=0, seed=1,
        )
        backoffs = []
        interval = 0
        for _ in range(7):
            action = ladder.next_action(interval)
            backoffs.append(action.backoff)
            interval += action.backoff
        assert backoffs == [1, 2, 4, 8, 8, 8, 8]

    def test_nothing_fires_during_backoff(self):
        ladder = RecoveryLadder(retries_per_step=1, jitter=0, seed=1)
        action = ladder.next_action(0)
        for interval in range(1, action.backoff):
            assert ladder.next_action(interval) is None

    def test_quarantine_rung_reemits_without_advancing(self):
        ladder = RecoveryLadder(retries_per_step=1, jitter=0, seed=1)
        interval = 0
        for _ in range(10):
            action = ladder.next_action(interval)
            interval += action.backoff if action else 1
        assert ladder.current_step is RecoveryStep.QUARANTINE
        assert ladder.quarantined

    def test_reset_returns_to_bottom_rung(self):
        ladder = RecoveryLadder(retries_per_step=1, jitter=0, seed=1)
        for interval in (0, 10, 20):
            ladder.next_action(interval)
        assert ladder.current_step is not RecoveryStep.RESYNC
        ladder.reset(21)
        assert ladder.current_step is RecoveryStep.RESYNC
        assert ladder.next_action(21).backoff == 1  # backoff re-zeroed


class TestLaneWire:
    def test_clean_wire_is_transparent(self):
        wire = LaneWire("w", seed=1)
        assert wire.transmit(b"hello", 0) == b"hello"

    def test_cut_drops_everything_for_the_span(self):
        wire = LaneWire("w", seed=1)
        wire.cut(5, duration=2)
        assert wire.transmit(b"abc", 5) == b""
        assert wire.transmit(b"def", 6) == b""
        assert wire.transmit(b"ghi", 7) == b"ghi"
        assert wire.octets_dropped == 6

    def test_storm_defers_and_then_delivers_intact(self):
        wire = LaneWire("w", seed=1)
        wire.storm(3, duration=2)
        assert wire.transmit(b"abc", 3) == b""
        assert wire.transmit(b"def", 4) == b""
        assert wire.transmit(b"ghi", 5) == b"abcdefghi"
        assert wire.octets_deferred_peak == 6
        assert wire.octets_dropped == 0

    def test_cut_during_storm_loses_the_backlog(self):
        wire = LaneWire("w", seed=1)
        wire.storm(0, duration=1)
        wire.transmit(b"abcd", 0)
        wire.cut(1, duration=1)
        assert wire.transmit(b"ef", 1) == b""
        assert wire.octets_dropped == 6

    def test_burst_flips_bits_within_crc_bound(self):
        wire = LaneWire("w", seed=7)
        wire.arm_burst(8)
        data = bytes(64)
        out = wire.transmit(data, 0)
        assert out != data
        assert len(out) == len(data)
        assert 1 <= wire.line.stats.bits_flipped <= 8
        # One-shot: the next batch is clean again.
        assert wire.transmit(data, 1) == data

    def test_burst_size_is_validated(self):
        wire = LaneWire("w", seed=1)
        with pytest.raises(ValueError):
            wire.arm_burst(0)
        with pytest.raises(ValueError):
            wire.arm_burst(33)

    def test_flush_drops_the_backlog(self):
        wire = LaneWire("w", seed=1)
        wire.storm(0, duration=5)
        wire.transmit(b"abcd", 0)
        assert wire.flush() == 4
        wire2_out = wire.transmit(b"xy", 6)
        assert wire2_out == b"xy"


class TestChaosSchedule:
    def test_deterministic_from_seed(self):
        kwargs = dict(intervals=300, events=12, seed=42)
        assert chaos_schedule(**kwargs) == chaos_schedule(**kwargs)
        assert chaos_schedule(**kwargs) != chaos_schedule(
            intervals=300, events=12, seed=43
        )

    def test_mandatory_working_cut_and_sabotage(self):
        schedule = chaos_schedule(intervals=300, events=10, seed=1,
                                  hold_off=2, wait_to_restore=6)
        cuts = [e for e in schedule
                if e.kind == "cut" and e.lane == WORKING]
        assert cuts and any(c.duration > 2 for c in cuts)
        assert any(e.kind == "sabotage" for e in schedule)

    def test_cut_guard_windows_never_overlap(self):
        schedule = chaos_schedule(intervals=960, events=30, seed=5,
                                  hold_off=2, wait_to_restore=6)
        guard = 6 + 2
        cuts = sorted(
            (e for e in schedule if e.kind == "cut"),
            key=lambda e: e.interval,
        )
        for a, b in zip(cuts, cuts[1:]):
            assert b.interval - guard > a.end + guard

    def test_warmup_and_tail_reserve_are_event_free(self):
        schedule = chaos_schedule(intervals=300, events=10, seed=3,
                                  hold_off=2, wait_to_restore=6)
        reserve = 6 + 2 + 8
        for event in schedule:
            assert event.interval >= 6
            assert event.end < 300 - reserve

    def test_mandatory_sabotage_lands_where_traffic_is(self):
        """Regression: the working-lane sabotage must not sit inside a
        cut's guard window or just after a working-lane storm/burst —
        there traffic runs on protect, the quarantine lands on the
        standby lane and the soak misses fastpath degradation."""
        hold_off, wait_to_restore = 2, 6
        guard = hold_off + wait_to_restore
        reserve = guard + 8
        for seed in range(1, 301):
            schedule = chaos_schedule(intervals=640, events=24, seed=seed,
                                      hold_off=hold_off,
                                      wait_to_restore=wait_to_restore)
            cut_windows = [(e.interval - guard, e.end + guard)
                           for e in schedule if e.kind == "cut"]
            others = [e for e in schedule
                      if e.lane == WORKING and e.kind != "sabotage"]

            def lands_on_traffic(at):
                return (
                    6 <= at < 640 - reserve
                    and not any(lo <= at <= hi for lo, hi in cut_windows)
                    and not any(e.interval <= at + 1
                                and e.end >= at - 2 * guard
                                for e in others)
                )

            assert any(
                lands_on_traffic(e.interval) for e in schedule
                if e.kind == "sabotage" and e.lane == WORKING
            ), f"seed {seed}: no working-lane sabotage on quiet traffic"

    def test_too_short_soak_is_rejected(self):
        with pytest.raises(ValueError):
            chaos_schedule(intervals=40, events=5, seed=1)
        with pytest.raises(ValueError):
            chaos_schedule(intervals=300, events=1, seed=1)


class TestDualLaneTopology:
    def test_registered_with_lint_and_clean(self):
        from repro.lint.graph import lint_topology
        from repro.lint.targets import shipped_topologies

        topologies = {t.name: t for t in shipped_topologies()}
        assert "resilience-dual-lane" in topologies
        dual = topologies["resilience-dual-lane"]
        # Two full lanes: strictly more hardware than one fault harness.
        assert len(list(dual.modules)) > len(
            list(topologies["fault-harness"].modules)
        )
        assert lint_topology(dual.modules, dual.channels) == []

    def test_sta_canonical_findings_stay_clean(self):
        from repro.sta import canonical_findings

        assert canonical_findings() == []


class TestEventLog:
    def test_record_select_and_render(self):
        log = EventLog()
        log.record(3, "aps", "working", "switch", reason="test")
        log.record(4, "chaos", "protect", "cut", duration=2)
        assert len(log) == 2
        assert log.select(category="aps")[0].kind == "switch"
        assert log.select(lane="protect", kind="cut")
        assert not log.select(category="aps", kind="cut")
        assert "switch" in log.events[0].render()
        assert log.as_dicts()[1]["detail"] == {"duration": 2}
