"""The cycle-budget stall watchdog in the simulation kernel."""

import pytest

from repro.errors import PipelineStallError, SimulationError
from repro.rtl.module import Channel, Module
from repro.rtl.pipeline import StreamSink, StreamSource, beats_from_bytes
from repro.rtl.simulator import Simulator


class NeverReady(Module):
    """A sink that deasserts ready forever — the canonical wedge."""

    def __init__(self, name, inp):
        super().__init__(name)
        self.inp = self.reads(inp)

    def clock(self):
        if not self.inp.can_pop:
            return
        self.note_stall()


def wedged_pipeline():
    ch = Channel("wedge.ch", capacity=2)
    source = StreamSource("src", ch, beats_from_bytes(bytes(range(64)), 4))
    sink = NeverReady("sink", ch)
    return source, sink, Simulator([source, sink], [ch])


class TestWatchdog:
    def test_wedged_pipeline_trips_watchdog(self):
        source, _sink, sim = wedged_pipeline()
        with pytest.raises(PipelineStallError):
            sim.run_until(lambda: source.done, watchdog=50)

    def test_stall_error_is_a_simulation_error(self):
        _, _, sim = wedged_pipeline()
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, watchdog=50, timeout=10_000)

    def test_diagnostic_names_modules_and_channels(self):
        source, sink, sim = wedged_pipeline()
        with pytest.raises(PipelineStallError) as excinfo:
            sim.run_until(lambda: source.done, watchdog=50)
        diag = excinfo.value.diagnostic
        assert diag["quiet_cycles"] >= 50
        names = {m["name"] for m in diag["modules"]}
        assert names == {"src", "sink"}
        (ch,) = [c for c in diag["channels"] if c["name"] == "wedge.ch"]
        assert ch["occupancy"] == ch["capacity"] == 2
        by_name = {m["name"]: m for m in diag["modules"]}
        assert by_name["sink"]["stalled_cycles"] > 0

    def test_message_mentions_occupied_channel(self):
        source, _sink, sim = wedged_pipeline()
        with pytest.raises(PipelineStallError, match="wedge.ch=2/2"):
            sim.run_until(lambda: source.done, watchdog=50)

    def test_watchdog_observes_undeclared_channels(self):
        """Forgetting the channel list must not blind the watchdog."""
        ch = Channel("hidden", capacity=2)
        source = StreamSource("src", ch, beats_from_bytes(bytes(16), 4))
        sink = NeverReady("sink", ch)
        sim = Simulator([source, sink])  # no channels declared
        with pytest.raises(PipelineStallError):
            sim.run_until(lambda: source.done, watchdog=50)

    def test_healthy_pipeline_does_not_trip(self):
        ch = Channel("ok.ch", capacity=2)
        source = StreamSource("src", ch, beats_from_bytes(bytes(range(64)), 4))
        sink = StreamSink("sink", ch)
        sim = Simulator([source, sink], [ch], watchdog=8)
        sim.run_until(lambda: source.done and not ch.can_pop, timeout=1_000)
        assert sink.data() == bytes(range(64))

    def test_constructor_default_applies_to_runs(self):
        source, _sink, sim = wedged_pipeline()
        sim.watchdog = 40
        with pytest.raises(PipelineStallError):
            sim.run_until(lambda: source.done, timeout=10_000)

    def test_per_call_override_beats_constructor(self):
        """A generous per-call budget outlives a tight constructor one."""
        ch = Channel("slow.ch", capacity=2)
        source = StreamSource("src", ch, beats_from_bytes(bytes(8), 4))
        sink = StreamSink("sink", ch)
        sim = Simulator([source, sink], [ch], watchdog=1_000)
        cycles = sim.run_until(
            lambda: source.done and not ch.can_pop, watchdog=5_000, timeout=10_000
        )
        assert cycles > 0

    def test_drain_supports_watchdog(self):
        _source, _sink, sim = wedged_pipeline()
        sim.step(10)  # fill the channel so drain has work it cannot do
        with pytest.raises(PipelineStallError):
            sim.drain(watchdog=50)

    def test_no_watchdog_means_timeout_semantics(self):
        source, _sink, sim = wedged_pipeline()
        with pytest.raises(SimulationError) as excinfo:
            sim.run_until(lambda: source.done, timeout=200)
        assert not isinstance(excinfo.value, PipelineStallError)


class Idle(Module):
    """A module wired to no channels at all."""

    def clock(self):
        pass


class TestWatchdogEdges:
    """Boundary behaviour of the watchdog and drain machinery."""

    def test_zero_wired_channels_drain_completes(self):
        sim = Simulator([Idle("idle")])
        assert sim.drain(idle_cycles=3) == 3
        assert sim.stall_diagnostic(0)["channels"] == []

    def test_zero_wired_channels_still_trip_a_silence_watchdog(self):
        """With nothing to ever move, the budget counts from cycle 0."""
        sim = Simulator([Idle("idle")])
        with pytest.raises(PipelineStallError, match="occupied channels: none"):
            sim.run_until(lambda: False, watchdog=5, timeout=100)

    def test_observer_exception_propagates_after_cycle_advance(self):
        sim = Simulator([Idle("idle")])

        def explode(cycle):
            if cycle == 3:
                raise RuntimeError("observer boom")

        sim.add_observer(explode)
        sim.step(2)
        with pytest.raises(RuntimeError, match="observer boom"):
            sim.step()
        # The cycle had already been committed before observers ran.
        assert sim.cycle == 3

    def test_quiet_budget_reports_exactly_the_budget(self):
        """The stall fires the first cycle the budget is met, not later."""
        source, _sink, sim = wedged_pipeline()
        with pytest.raises(PipelineStallError) as excinfo:
            sim.run_until(lambda: source.done, watchdog=37)
        assert excinfo.value.diagnostic["quiet_cycles"] == 37

    def _quiet_drain_sim(self):
        ch = Channel("quiet.ch", capacity=2)
        source = StreamSource("src", ch, [])      # nothing to send
        sink = StreamSink("sink", ch)
        return Simulator([source, sink], [ch])

    def test_drain_budget_at_the_boundary_completes(self):
        # idle_cycles checks happen at quiet counts 0..idle_cycles-1,
        # so a budget equal to idle_cycles never fires.
        assert self._quiet_drain_sim().drain(idle_cycles=4, watchdog=4) == 4

    def test_drain_budget_below_the_boundary_trips(self):
        with pytest.raises(PipelineStallError):
            self._quiet_drain_sim().drain(idle_cycles=4, watchdog=3)

    def test_drain_watches_undeclared_channels(self):
        """Idleness is judged on the wired channels too: with the link
        left out of the channel list, drain still delivers everything."""
        payload = bytes(range(200))
        ch = Channel("undeclared", capacity=2)
        source = StreamSource("src", ch, beats_from_bytes(payload, 4))
        sink = StreamSink("sink", ch)
        sim = Simulator([source, sink])  # no channels declared
        assert sim.drain() == 55
        assert sink.data() == payload
