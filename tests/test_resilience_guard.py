"""FastpathGuard: spot-checks, quarantine, cycle fallback, reinstatement."""

import numpy as np
import pytest

from repro.core.config import P5Config
from repro.resilience import EventLog, FastpathGuard, GuardMode
from repro.resilience.guard import CHECK_EVERY, REINSTATE_AFTER


@pytest.fixture
def config():
    return P5Config.thirty_two_bit(max_frame_octets=512)


def frames(rng, count=4, size=32):
    return [rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            for _ in range(count)]


def pump(guard, batch, interval):
    """One clean interval through the guard's TX and RX."""
    line = guard.encode(batch, interval)
    return guard.decode(line, interval)


class TestFastMode:
    def test_clean_traffic_stays_fast_and_delivers(self, config, rng):
        log = EventLog()
        guard = FastpathGuard(config, name="lane", log=log)
        for interval in range(2 * CHECK_EVERY):
            batch = frames(rng)
            delta = pump(guard, batch, interval)
            assert delta.frames_ok == len(batch)
            assert [f for f, good in delta.frames if good] == batch
        assert guard.mode is GuardMode.FAST
        # Every CHECK_EVERY-th encode is spot-checked, and only those.
        assert guard.spot_checks == 2
        assert [
            e.interval
            for e in log.select(category="fastpath", kind="spot-check-ok")
        ] == [CHECK_EVERY - 1, 2 * CHECK_EVERY - 1]
        assert not guard.quarantines

    def test_frame_split_across_intervals_reassembles(self, config, rng):
        guard = FastpathGuard(config, name="lane")
        batch = frames(rng, count=2)
        line = guard.encode(batch, 0)
        cut = len(line) // 2
        first = guard.decode(line[:cut], 0)
        second = guard.decode(line[cut:], 1)
        got = [f for delta in (first, second)
               for f, good in delta.frames if good]
        assert got == batch

    def test_spot_check_events_are_logged(self, config, rng):
        log = EventLog()
        guard = FastpathGuard(config, name="lane", log=log)
        for interval in range(CHECK_EVERY):
            pump(guard, frames(rng), interval)
        (event,) = log.select(category="fastpath", kind="spot-check-ok")
        assert (event.lane, event.detail["frames"]) == ("lane", 4)


class TestQuarantine:
    def test_sabotage_is_caught_and_quarantines(self, config, rng):
        log = EventLog()
        guard = FastpathGuard(config, name="lane", log=log)
        guard.arm_sabotage()
        batch = frames(rng)
        line = guard.encode(batch, 0)
        assert guard.mode is GuardMode.QUARANTINED
        assert guard.quarantines
        quarantine_events = log.select(category="fastpath", kind="quarantine")
        assert quarantine_events
        assert "diverges" in str(quarantine_events[0].detail["diagnostic"])
        # The sabotaged frame fails FCS at the receiver — never
        # delivered as good.
        delta = guard.decode(line, 0)
        good = [f for f, ok in delta.frames if ok]
        assert batch[0] not in good
        assert delta.fcs_errors >= 1

    def test_quarantined_traffic_flows_through_cycle_engine(self, config, rng):
        guard = FastpathGuard(config, name="lane")
        guard.arm_sabotage()
        pump(guard, frames(rng), 0)
        assert guard.mode is GuardMode.QUARANTINED
        # Short of the reinstatement streak, every interval stays on
        # the cycle engine and still delivers.
        for interval in range(1, REINSTATE_AFTER):
            batch = frames(rng, count=3)
            delta = pump(guard, batch, interval)
            assert guard.mode is GuardMode.QUARANTINED
            assert [f for f, good in delta.frames if good] == batch

    def test_reinstatement_after_clean_agreement_streak(self, config, rng):
        log = EventLog()
        guard = FastpathGuard(config, name="lane", log=log)
        guard.arm_sabotage()
        pump(guard, frames(rng), 0)
        assert guard.mode is GuardMode.QUARANTINED
        for interval in range(1, REINSTATE_AFTER + 1):
            assert guard.mode is GuardMode.QUARANTINED
            delta = pump(guard, frames(rng), interval)
            assert delta.frames_ok == 4
        assert guard.mode is GuardMode.FAST
        assert guard.reinstatements == 1
        (event,) = log.select(category="fastpath", kind="reinstate")
        assert event.interval == REINSTATE_AFTER
        assert event.detail["after_clean_intervals"] == REINSTATE_AFTER
        # And the reinstated fastpath keeps delivering.
        batch = frames(rng)
        delta = pump(guard, batch, REINSTATE_AFTER + 1)
        assert [f for f, good in delta.frames if good] == batch

    def test_open_tail_carries_across_the_mode_switch(self, config, rng):
        """A frame in flight when the guard quarantines is not lost."""
        guard = FastpathGuard(config, name="lane")
        batch = frames(rng, count=2)
        line = guard.encode(batch, 0)
        cut = len(line) - 8  # split inside the final frame
        first = guard.decode(line[:cut], 0)
        guard.arm_sabotage()
        sab_batch = frames(rng)
        sab_line = guard.encode(sab_batch, 1)
        assert guard.mode is GuardMode.QUARANTINED
        second = guard.decode(line[cut:] + sab_line, 1)
        got = [f for delta in (first, second)
               for f, good in delta.frames if good]
        assert batch[0] in got
        assert batch[1] in got

    def test_resync_drops_delineation_state(self, config, rng):
        guard = FastpathGuard(config, name="lane")
        batch = frames(rng, count=2)
        line = guard.encode(batch, 0)
        guard.decode(line[: len(line) - 8], 0)
        guard.resync()
        delta = guard.decode(line[len(line) - 8:], 1)
        # The tail of the split frame alone cannot decode as good.
        assert batch[1] not in [f for f, good in delta.frames if good]
