"""The paper's quantitative claims, each as an executable assertion.

One test per claim in EXPERIMENTS.md (C1, C2, C3, C4); the T1-T3
table anchors live in test_synth_model.py.
"""

import pytest

from repro.analysis import measure_escape_latency, measure_escape_throughput
from repro.core import P5Config, run_duplex_exchange
from repro.synth import analyze_timing, get_device, system_area
from repro.workloads import ppp_frame_contents, random_payload


class TestClaimC1Throughput:
    """§1/§5: 625 Mbps (8-bit) / 2.5 Gbps (32-bit) at 78.125 MHz, with
    W bits processed every clock cycle."""

    def test_8bit_625mbps(self):
        report = measure_escape_throughput(
            random_payload(30_000, seed=1), P5Config.eight_bit()
        )
        assert report.line_gbps == pytest.approx(0.625, rel=0.02)

    def test_32bit_2_5gbps(self):
        report = measure_escape_throughput(
            random_payload(30_000, seed=1), P5Config.thirty_two_bit()
        )
        assert report.line_gbps == pytest.approx(2.5, rel=0.02)

    def test_32_bits_every_cycle(self):
        report = measure_escape_throughput(
            random_payload(30_000, seed=1), P5Config.thirty_two_bit()
        )
        assert report.utilization > 0.99

    def test_clock_requirement_is_78_125mhz(self):
        assert P5Config.thirty_two_bit().clock_hz == pytest.approx(78.125e6)
        assert P5Config.thirty_two_bit().line_rate_bps == pytest.approx(2.5e9)


class TestClaimC2Latency:
    """§3: 4 pipeline stages, first data delayed 4 cycles ~ 50 ns,
    continuous flow thereafter."""

    def test_fill_is_exactly_4_cycles(self):
        assert measure_escape_latency(P5Config.thirty_two_bit()).fill_cycles == 4

    def test_fill_is_about_50ns(self):
        report = measure_escape_latency(P5Config.thirty_two_bit())
        assert report.fill_ns == pytest.approx(51.2, abs=1.0)

    def test_flow_continuous_after_fill(self):
        report = measure_escape_throughput(
            random_payload(40_000, seed=2), P5Config.thirty_two_bit()
        )
        # Fill cost amortises: within 1% of one word per cycle.
        assert report.output_bytes_per_cycle > 0.99 * 4


class TestClaimC3AreaRatio:
    """§4/§5: the 32-bit system is ~11x the 8-bit system, 'mainly due
    to the byte sorter and buffering mechanisms'."""

    def test_system_ratio(self):
        ratio = (
            system_area(P5Config.thirty_two_bit()).luts
            / system_area(P5Config.eight_bit()).luts
        )
        assert 9 <= ratio <= 13

    def test_growth_is_superlinear_in_width(self):
        luts = {
            w: system_area(P5Config(width_bits=w)).luts for w in (8, 16, 32, 64)
        }
        # Each doubling of width more than doubles the area.
        assert luts[16] > 2 * luts[8] * 0.9
        assert luts[32] > 2 * luts[16]
        assert luts[64] > 2 * luts[32]


class TestClaimC4CriticalPath:
    """§4: 6 LUT levels on both families; the Virtex-II speedup is
    technology, not placement."""

    def test_six_levels(self):
        assert system_area(P5Config.thirty_two_bit()).depth == 6

    def test_same_depth_both_families(self):
        netlist = system_area(P5Config.thirty_two_bit())
        assert (
            analyze_timing(netlist, get_device("XCV600-4")).levels
            == analyze_timing(netlist, get_device("XC2V1000-6")).levels
        )

    def test_virtex_ii_speedup_from_lut_delay(self):
        netlist = system_area(P5Config.thirty_two_bit())
        v1 = analyze_timing(netlist, get_device("XCV600-4"))
        v2 = analyze_timing(netlist, get_device("XC2V1000-6"))
        assert v2.fmax_post_mhz > 1.3 * v1.fmax_post_mhz


class TestClaimC2Static:
    """C2 again, but *statically*: the 4-cycle/~50 ns sorter fill and
    the end-to-end first-word latencies fall out of the declared
    timing contracts alone — no cycle is clocked."""

    def _bound(self, config, index):
        from repro.core.p5 import build_duplex
        from repro.sta import latency_between, paper_budgets

        a, _b, sim = build_duplex(config)
        budget = paper_budgets(a.tx, a.rx)[index]
        return budget, latency_between(
            sim.modules, sim.channels, source=budget.source, sink=budget.sink
        )

    def test_sorter_fill_is_statically_4_cycles_51ns(self):
        from repro.sta import cycles_to_ns

        budget, bound = self._bound(P5Config.thirty_two_bit(), 0)
        assert bound.cycles == budget.max_cycles == 4
        assert cycles_to_ns(bound.cycles, 78.125e6) == pytest.approx(51.2)

    def test_sorter_fill_8bit_is_2_cycles(self):
        _budget, bound = self._bound(P5Config.eight_bit(), 0)
        assert bound.cycles == 2

    def test_tx_end_to_end_bounds(self):
        for config, cycles in (
            (P5Config.thirty_two_bit(), 7), (P5Config.eight_bit(), 5)
        ):
            budget, bound = self._bound(config, 1)
            assert bound.cycles == cycles <= budget.max_cycles

    def test_rx_end_to_end_bounds(self):
        for config, cycles in (
            (P5Config.thirty_two_bit(), 13), (P5Config.eight_bit(), 11)
        ):
            budget, bound = self._bound(config, 2)
            assert bound.cycles == cycles <= budget.max_cycles

    def test_static_and_measured_fill_agree(self):
        _budget, bound = self._bound(P5Config.thirty_two_bit(), 0)
        assert bound.cycles == measure_escape_latency(
            P5Config.thirty_two_bit()
        ).fill_cycles

    def test_analyzer_holds_the_duplex_to_every_budget(self):
        from repro.sta import canonical_findings

        assert canonical_findings() == []

    def test_every_shipped_tx_and_rx_carries_its_budgets(self):
        """``repro sta`` analyzes the list ``repro lint`` checks, with
        the sorter-fill and TX budgets on every transmitter and the RX
        budget on every receiver."""
        from repro.lint.targets import shipped_topologies

        pair = ["escape-generate-fill", "tx-end-to-end", "rx-end-to-end"]
        budgets = {
            t.name: [b.name for b in t.budgets] for t in shipped_topologies()
        }
        assert budgets == {
            "duplex/32-bit": pair * 2,
            "duplex/8-bit": pair * 2,
            "tx-standalone": pair[:2],
            "rx-standalone": pair[2:],
            "escape-trace": [],
            "fault-harness": pair,
            "resilience-dual-lane": pair * 2,
        }


class TestEndToEndRateScaling:
    """The whole-system consequence of C1: wall-clock cycles scale
    inversely with width for the same traffic."""

    def test_cycle_scaling(self):
        frames = ppp_frame_contents(5, seed=7)
        cycles = {
            w: run_duplex_exchange(
                frames, [], P5Config(width_bits=w), timeout=600_000
            ).cycles
            for w in (8, 32)
        }
        assert 3.0 <= cycles[8] / cycles[32] <= 4.5
