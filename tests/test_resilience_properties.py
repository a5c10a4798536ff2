"""Property-based resilience invariants (hypothesis).

Two properties pin down the supervisor's core safety contract:

1. **Switch pacing** — under *any* sequence of lane-state inputs and
   forced-switch commands, the APS controller completes at most one
   switch in any ``hold_off``-interval window.
2. **No corrupt delivery** — whatever a seeded burst (within the
   CRC-32 guaranteed-detection bound) does to the wire bytes, the
   guard never hands up a good-flagged frame whose payload was not
   transmitted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import P5Config
from repro.resilience import (
    ApsController,
    FastpathGuard,
    LaneState,
    LaneWire,
)

lane_states = st.sampled_from(list(LaneState))
hold_offs = st.integers(min_value=1, max_value=5)

# One interval's stimulus: lane states plus an optional forced switch.
stimuli = st.lists(
    st.tuples(lane_states, lane_states, st.booleans()),
    min_size=1,
    max_size=60,
)


@given(hold_off=hold_offs, schedule=stimuli)
@settings(max_examples=200, deadline=None)
def test_at_most_one_switch_per_hold_off_window(hold_off, schedule):
    aps = ApsController(hold_off=hold_off, wait_to_restore=hold_off + 2)
    switch_intervals = []
    for interval, (working, protect, force) in enumerate(schedule):
        if aps.evaluate(interval, working, protect):
            switch_intervals.append(interval)
        if force and aps.force_switch(interval, reason="prop"):
            switch_intervals.append(interval)
    # Every hold_off-wide window contains at most one completed switch.
    for a, b in zip(switch_intervals, switch_intervals[1:]):
        assert b - a > hold_off


@given(hold_off=hold_offs, schedule=stimuli)
@settings(max_examples=100, deadline=None)
def test_hold_off_requires_persistent_condition(hold_off, schedule):
    """No switch fires before the condition has held hold_off intervals."""
    aps = ApsController(hold_off=hold_off, wait_to_restore=hold_off + 2)
    bad_streak = 0
    for interval, (working, protect, _force) in enumerate(schedule):
        active_bad = (working if aps.active == "working" else protect) in (
            LaneState.DEGRADED, LaneState.FAILED
        )
        record = aps.evaluate(interval, working, protect)
        bad_streak = bad_streak + 1 if active_bad else 0
        if record and record.request.name in ("SIGNAL_FAIL", "SIGNAL_DEGRADE"):
            assert bad_streak >= hold_off


frame_batches = st.lists(
    st.binary(min_size=6, max_size=48), min_size=1, max_size=4
)


@given(
    batch=frame_batches,
    burst_bits=st.integers(min_value=1, max_value=32),
    wire_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_never_delivers_a_corrupt_frame_as_good(batch, burst_bits, wire_seed):
    config = P5Config.thirty_two_bit(max_frame_octets=512)
    guard = FastpathGuard(config, name="prop")
    wire = LaneWire("prop.wire", seed=wire_seed)
    wire.arm_burst(burst_bits)
    line = guard.encode(batch, 0)
    delta = guard.decode(wire.transmit(line, 0), 0)
    submitted = set(batch)
    for content, good in delta.frames:
        if good:
            assert content in submitted


@given(
    batch=frame_batches,
    burst_bits=st.integers(min_value=1, max_value=32),
    wire_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_quarantined_guard_is_equally_incorruptible(
    batch, burst_bits, wire_seed
):
    """The cycle-mode receive path holds the same no-corrupt-delivery
    contract as the fast path."""
    config = P5Config.thirty_two_bit(max_frame_octets=512)
    guard = FastpathGuard(config, name="prop")
    guard.arm_sabotage()
    guard.encode([b"primer-frame"], 0)  # trips the quarantine
    wire = LaneWire("prop.wire", seed=wire_seed)
    wire.arm_burst(burst_bits)
    line = guard.encode(batch, 1)
    delta = guard.decode(wire.transmit(line, 1), 1)
    submitted = set(batch)
    for content, good in delta.frames:
        if good:
            assert content in submitted
