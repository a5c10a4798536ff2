"""The combined static analyzer: contracts in, P5T findings out.

:func:`analyze_topology` runs every static check over a constructed
topology and returns ordinary :class:`repro.lint.Finding` records, so
the reporters, suppression machinery and CLI exit-code logic are
shared with the graph DRC.  No cycle is clocked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.lint.rules import Finding
from repro.rtl.module import Channel, Module
from repro.sta.flow import channel_demands, cycle_credits
from repro.sta.paths import cycles_to_ns, latency_between

__all__ = [
    "LatencyBudget",
    "analyze_topology",
    "analyze_simulator",
    "canonical_findings",
]


@dataclass(frozen=True)
class LatencyBudget:
    """A machine-checked latency claim: source → sink within a bound.

    ``source == sink`` budgets a single stage (the paper's 4-cycle
    sorter fill); otherwise the worst fully-constrained path between
    the two named modules is held to ``max_cycles``.
    """

    name: str
    source: str
    sink: str
    max_cycles: int
    note: str = ""


def _check_contracts(modules: Sequence[Module], emit) -> None:
    """P5T004 (self-consistency) and P5T002 (internal buffers)."""
    for module in modules:
        contract = module.timing_contract()
        if contract is None:
            continue
        if contract.latency_cycles < 1:
            emit("P5T004",
                 f"module {module.name!r} declares non-positive latency "
                 f"{contract.latency_cycles}", module.name)
        if contract.initiation_interval < 1:
            emit("P5T004",
                 f"module {module.name!r} declares non-positive initiation "
                 f"interval {contract.initiation_interval}", module.name)
        for timing in contract.outputs:
            if timing.channel is not None and timing.channel not in module.writes_to:
                emit("P5T004",
                     f"module {module.name!r} declares timing for channel "
                     f"{timing.channel.name!r} it does not write", module.name)
            if timing.min_expansion > timing.max_expansion:
                emit("P5T004",
                     f"module {module.name!r} declares min expansion "
                     f"{timing.min_expansion} above max {timing.max_expansion}",
                     module.name)
            if timing.min_expansion < 0 or timing.per_frame_octets < 0:
                emit("P5T004",
                     f"module {module.name!r} declares negative flow bounds",
                     module.name)
            if timing.burst_words < 1:
                emit("P5T004",
                     f"module {module.name!r} declares a burst below one word "
                     f"into {timing.channel.name if timing.channel else '?'!r}",
                     module.name)
        for bound in contract.buffers:
            if bound.min_required < 0 or bound.capacity < 0:
                emit("P5T004",
                     f"module {module.name!r} declares negative sizing for "
                     f"buffer {bound.name!r}", module.name)
            elif bound.capacity < bound.min_required:
                emit("P5T002",
                     f"internal buffer {bound.name!r} of module "
                     f"{module.name!r} holds {bound.capacity} words but the "
                     f"worst case needs {bound.min_required}"
                     + (f" ({bound.why})" if bound.why else ""),
                     module.name)


def _check_capacities(
    modules: Sequence[Module], channels: Iterable[Channel], emit
) -> None:
    """P5T002 for wired channels vs. declared single-cycle bursts."""
    for demand in channel_demands(modules, channels):
        if demand.channel.capacity < demand.required:
            emit("P5T002",
                 f"channel {demand.channel.name!r} holds "
                 f"{demand.channel.capacity} words but the worst case needs "
                 f"{demand.required} ({demand.why})",
                 demand.channel.name)


def _check_cycles(
    modules: Sequence[Module], channels: Iterable[Channel], emit
) -> None:
    """P5T003: registered credit must cover in-flight demand."""
    for credit in cycle_credits(modules, channels):
        if not credit.registered:
            continue  # combinational loop: the graph DRC's P5D007 owns it
        if credit.credit < credit.demand:
            names = sorted(credit.modules)
            emit("P5T003",
                 f"cycle through {names} has {credit.credit} words of "
                 f"registered credit but up to {credit.demand} in flight",
                 names[0])


def _check_unconstrained(modules: Sequence[Module], emit) -> None:
    """P5T005: stages on the dataflow with no declaration."""
    for module in modules:
        if not module.reads_from and not module.writes_to:
            continue  # not on any path
        if module.timing_contract() is None:
            emit("P5T005",
                 f"module {module.name!r} is on the datapath but declares no "
                 f"timing contract; every path through it is unbounded",
                 module.name)


def _check_budgets(
    modules: Sequence[Module],
    channels: Iterable[Channel],
    budgets: Sequence[LatencyBudget],
    clock_hz: float,
    emit,
) -> None:
    """P5T001: declared path latencies against their budgets."""
    for budget in budgets:
        bound = latency_between(
            modules, channels, source=budget.source, sink=budget.sink
        )
        if bound is None:
            emit("P5T001",
                 f"budget {budget.name!r}: no path from {budget.source!r} "
                 f"to {budget.sink!r}", budget.name)
            continue
        if bound.cycles is None:
            # The unconstrained stages already carry P5T005 findings;
            # an unverifiable budget is still a budget failure.
            emit("P5T001",
                 f"budget {budget.name!r}: path "
                 f"{' -> '.join(bound.modules)} cannot be bounded "
                 f"(no contract on {list(bound.unconstrained)})", budget.name)
            continue
        if bound.cycles > budget.max_cycles:
            over_ns = cycles_to_ns(bound.cycles, clock_hz)
            limit_ns = cycles_to_ns(budget.max_cycles, clock_hz)
            emit("P5T001",
                 f"budget {budget.name!r}: path "
                 f"{' -> '.join(bound.modules)} takes {bound.cycles} cycles "
                 f"({over_ns:.1f} ns) against a budget of "
                 f"{budget.max_cycles} ({limit_ns:.1f} ns)"
                 + (f" — {budget.note}" if budget.note else ""),
                 budget.name)


def analyze_topology(
    modules: Sequence[Module],
    channels: Iterable[Channel] = (),
    *,
    topology_name: str = "",
    budgets: Sequence[LatencyBudget] = (),
    clock_hz: float = 78.125e6,
) -> List[Finding]:
    """Run every static timing/sizing/deadlock check; returns findings."""
    if math.isnan(clock_hz) or clock_hz <= 0:
        raise ValueError("clock_hz must be positive")
    findings: List[Finding] = []
    module_list = list(modules)
    channel_list = list(channels)
    prefix = f"{topology_name}: " if topology_name else ""

    def emit(code: str, message: str, subject: str) -> None:
        findings.append(Finding.of(code, prefix + message, subject=subject))

    _check_contracts(module_list, emit)
    _check_capacities(module_list, channel_list, emit)
    _check_cycles(module_list, channel_list, emit)
    _check_unconstrained(module_list, emit)
    _check_budgets(module_list, channel_list, budgets, clock_hz, emit)
    return findings


def analyze_simulator(sim, **kwargs) -> List[Finding]:
    """Analyze a built :class:`~repro.rtl.simulator.Simulator`."""
    return analyze_topology(sim.modules, sim.channels, **kwargs)


def canonical_findings(*, clock_hz: float = 78.125e6) -> List[Finding]:
    """Analyze every shipped topology against its paper budgets.

    The list is :func:`repro.lint.targets.shipped_topologies`, the one
    ``repro lint`` checks too.  CI runs exactly this and fails on any
    error-severity finding — so a restructure that slows a pipeline,
    shrinks a buffer below its worst case, or starves a credit loop is
    caught before a single cycle is simulated.
    """
    from repro.lint.targets import shipped_topologies

    findings: List[Finding] = []
    for topology in shipped_topologies():
        findings.extend(
            analyze_topology(
                topology.modules,
                topology.channels,
                topology_name=topology.name,
                budgets=topology.budgets,
                clock_hz=clock_hz,
            )
        )
    return findings
