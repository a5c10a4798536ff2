"""The shipped topologies ``repro lint`` and ``repro sta`` check.

Building a topology wires modules and channels (registering the graph
observationally) without clocking a cycle — exactly the elaboration
step a hardware DRC or timing analyzer runs against.  Each entry
covers a distinct wiring shape: the full cross-connected duplex system
at both datapath widths (4-stage and 2-stage escape pipelines), a
standalone TX pipeline drained by a sink, a standalone RX pipeline fed
by a source, the single-unit trace harness from the CLI, the
fault-injection loopback harness (TX looped to RX through a
BeatFaultInjector), and the resilience runtime's working + protect
lane pair (two fault harnesses in one graph).

Every entry carries the paper's latency budgets
(:mod:`repro.sta.claims`) for each transmitter and receiver it holds,
so the graph DRC and the static timing analyzer see the same list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, NamedTuple, Sequence

from repro.rtl.module import Channel, Module

if TYPE_CHECKING:  # pragma: no cover - repro.sta imports repro.lint
    from repro.sta.analyzer import LatencyBudget

__all__ = ["Topology", "shipped_topologies"]


class Topology(NamedTuple):
    """One elaborated topology and the paper budgets it is held to."""

    name: str
    modules: Sequence[Module]
    channels: Iterable[Channel]
    budgets: Sequence[LatencyBudget]


def shipped_topologies() -> List[Topology]:
    """Build every shipped topology for the graph DRC and the STA."""
    from repro.core.config import P5Config
    from repro.core.escape_pipeline import PipelinedEscapeGenerate
    from repro.core.p5 import build_duplex
    from repro.core.rx import P5Receiver
    from repro.core.tx import P5Transmitter
    from repro.faults.campaign import build_fault_harness
    from repro.rtl.pipeline import StreamSink, StreamSource
    from repro.sta.claims import (
        paper_budgets,
        rx_end_to_end_budget,
        sorter_fill_budget,
        tx_end_to_end_budget,
    )

    topologies: List[Topology] = []

    for config in (P5Config.thirty_two_bit(), P5Config.eight_bit()):
        a, b, sim = build_duplex(config)
        topologies.append(Topology(
            f"duplex/{config.width_bits}-bit", sim.modules, sim.channels,
            paper_budgets(a.tx, a.rx) + paper_budgets(b.tx, b.rx),
        ))

    config = P5Config.thirty_two_bit()
    tx = P5Transmitter(config, name="tx")
    tx_sink = StreamSink("wire", tx.phy_out)
    topologies.append(Topology(
        "tx-standalone", tx.modules + [tx_sink], tx.channels,
        [sorter_fill_budget(tx), tx_end_to_end_budget(tx)],
    ))

    rx = P5Receiver(config, name="rx")
    rx_source = StreamSource("wire", rx.phy_in, [])
    topologies.append(Topology(
        "rx-standalone", [rx_source] + rx.modules, rx.channels,
        [rx_end_to_end_budget(rx)],
    ))

    c_in = Channel("escgen.in", capacity=2)
    c_out = Channel("escgen.out", capacity=2)
    source = StreamSource("src", c_in, [])
    unit = PipelinedEscapeGenerate("gen", c_in, c_out, width_bytes=4)
    sink = StreamSink("sink", c_out)
    topologies.append(
        Topology("escape-trace", [source, unit, sink], [c_in, c_out], [])
    )

    harness_config = P5Config.thirty_two_bit(max_frame_octets=512)
    system, _injector, fault_sim = build_fault_harness(harness_config)
    topologies.append(Topology(
        "fault-harness", fault_sim.modules, fault_sim.channels,
        paper_budgets(system.tx, system.rx),
    ))

    modules: List[Module] = []
    channels: List[Channel] = []
    budgets: List[LatencyBudget] = []
    for lane in ("work", "prot"):
        system, _injector, lane_sim = build_fault_harness(
            harness_config, name=f"aps.{lane}"
        )
        modules.extend(lane_sim.modules)
        channels.extend(lane_sim.channels)
        budgets.extend(paper_budgets(system.tx, system.rx))
    topologies.append(
        Topology("resilience-dual-lane", modules, channels, budgets)
    )

    return topologies
