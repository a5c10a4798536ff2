"""Seeded fault campaigns over the P5 loopback datapath.

A campaign is ``faults`` independent trials.  Each trial builds a
fresh P5 system looped back through a :class:`BeatFaultInjector`
(transmitter PHY output feeding the same system's receiver), submits
a few random frames, injects exactly one fault from the trial's layer
and runs — under the simulator's stall watchdog — until the exchange
settles.  Then the full recovery contract of
:mod:`repro.faults.invariants` is evaluated.

Reproducibility: trial ``i`` of a campaign with seed ``s`` draws every
random choice from ``default_rng([s, i])``, so any failing trial can
be re-run alone, and two runs of the same campaign are identical.

The four layers rotate round-robin, so a campaign of ``4n`` faults
exercises each layer exactly ``n`` times:

``line``
    Bit flips and multi-bit bursts on the wire words (via the
    injector's internal :class:`~repro.phy.line.BitErrorLine`).
``beat``
    Whole-word faults: drop, duplicate, lane-valid upset.
``backpressure``
    A randomized ready-deassertion storm on the receive frame sink.
``oam``
    A stray host-bus register write mid-exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import P5Config
from repro.core.p5 import P5System
from repro.errors import SimulationError
from repro.faults.injectors import (
    BeatFaultInjector,
    FaultEvent,
    OamRegisterUpset,
    backpressure_storm,
)
from repro.faults.invariants import Violation, check_trial, match_frames
from repro.phy.line import LineStats
from repro.rtl.pipeline import StallPattern
from repro.rtl.simulator import Simulator
from repro.utils.rng import SeedLike

__all__ = [
    "LAYERS",
    "CampaignConfig",
    "TrialSummary",
    "CampaignResult",
    "build_fault_harness",
    "run_campaign",
]

#: Injection layers, in round-robin order.
LAYERS = ("line", "beat", "backpressure", "oam")

_LINE_KINDS = ("bit", "burst")
_BEAT_KINDS = ("drop", "dup", "lane")


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign's knobs (all defaults give the CI smoke campaign)."""

    faults: int = 208
    seed: int = 1
    width_bits: int = 32
    frames_per_trial: int = 6
    frame_octets: Tuple[int, int] = (24, 72)
    #: Damage bound per single fault (a beat fault can straddle one
    #: frame boundary, so 2).
    max_damaged: int = 2
    #: Watchdog budget in quiet cycles; generous against the longest
    #: plausible backpressure-storm stall run.
    watchdog: int = 4096
    timeout: int = 200_000
    #: Receive-side oversize cut-off handed to :class:`P5Config`.
    max_frame_octets: int = 512


@dataclass
class TrialSummary:
    """Outcome of one trial, ready for the report."""

    index: int
    layer: str
    kind: str
    cycles: int
    frames: int
    damaged: int
    stalled: bool
    stall_message: str
    event: Optional[FaultEvent]
    violations: List[Violation] = field(default_factory=list)
    #: Seeds handed to the trial's stochastic components, all derived
    #: from ``default_rng([campaign_seed, index])`` — recorded so a
    #: report reader can verify that reruns are byte-reproducible and
    #: re-create any single injector in isolation.
    injector_seed: int = 0
    stall_seed: Optional[int] = None
    upset_seed: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "layer": self.layer,
            "kind": self.kind,
            "cycles": self.cycles,
            "frames": self.frames,
            "damaged": self.damaged,
            "stalled": self.stalled,
            "stall_message": self.stall_message,
            "event": self.event.as_dict() if self.event else None,
            "violations": [v.as_dict() for v in self.violations],
            "derived_seeds": {
                "injector": self.injector_seed,
                "stall": self.stall_seed,
                "upset": self.upset_seed,
            },
        }


@dataclass
class CampaignResult:
    """Aggregate of a whole campaign."""

    config: CampaignConfig
    trials: List[TrialSummary]
    line_stats: LineStats

    @property
    def violations(self) -> List[Violation]:
        return [v for t in self.trials for v in t.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_layer(self) -> Dict[str, int]:
        counts = {layer: 0 for layer in LAYERS}
        for trial in self.trials:
            counts[trial.layer] += 1
        return counts

    def damaged_total(self) -> int:
        return sum(t.damaged for t in self.trials)


def build_fault_harness(
    config: Optional[P5Config] = None,
    *,
    name: str = "p5",
    seed: SeedLike = None,
    stall: Optional[StallPattern] = None,
    watchdog: Optional[int] = None,
) -> Tuple[P5System, BeatFaultInjector, Simulator]:
    """One P5 looped back through a fault injector, plus a simulator.

    The transmitter's PHY output feeds the same system's receiver via
    the injector, so a single system exercises the full TX + RX path;
    the OAM is serviced every cycle.  Two entries of
    :func:`repro.lint.targets.shipped_topologies`, which ``repro lint``
    and ``repro sta`` check, are built from it: ``fault-harness`` (one
    harness) and ``resilience-dual-lane`` (two).  ``name`` prefixes
    every module and channel, so several harnesses (e.g. the
    resilience runtime's working + protect lanes) can share one
    topology without name collisions.
    """
    cfg = config or P5Config(max_frame_octets=512)
    system = P5System(cfg, name=name)
    injector = BeatFaultInjector(
        f"{name}.faultwire", system.tx.phy_out, system.rx.phy_in, seed=seed
    )
    if stall is not None:
        system.rx.sink.stall = stall
    modules = system.tx.modules + [injector] + system.rx.modules
    sim = Simulator(modules, system.channels, watchdog=watchdog)
    sim.add_observer(lambda _cycle: system.oam.service())
    return system, injector, sim


def _trial_frames(rng: np.random.Generator, cfg: CampaignConfig) -> List[bytes]:
    lo, hi = cfg.frame_octets
    frames: List[bytes] = []
    for _ in range(cfg.frames_per_trial):
        n = int(rng.integers(lo, hi + 1))
        frames.append(rng.integers(0, 256, size=n, dtype=np.uint8).tobytes())
    return frames


def _fault_window_beats(frames: List[bytes], width_bytes: int) -> int:
    """Last wire-beat index where a fault may land.

    Bounded to the wire span of all but the final three frames:
    ``len + 6`` (two flags + CRC-32 FCS) octets per frame is a lower
    bound on the stuffed wire length, so a fault at or before this
    beat cannot touch the last two frames — which the recovery
    invariant requires to arrive intact — even with a one-frame
    damage straddle.
    """
    keep_clean = 3
    span = sum(len(f) + 6 for f in frames[:-keep_clean])
    return max(1, span // width_bytes)


def _run_trial(cfg: CampaignConfig, index: int) -> Tuple[TrialSummary, LineStats]:
    layer = LAYERS[index % len(LAYERS)]
    rng = np.random.default_rng([cfg.seed, index])
    p5cfg = P5Config(
        width_bits=cfg.width_bits, max_frame_octets=cfg.max_frame_octets
    )
    frames = _trial_frames(rng, cfg)

    # Every derived seed below comes from the trial stream (and is
    # recorded on the summary), so a rerun with the same campaign seed
    # rebuilds byte-identical injectors.  The draw order is load-bearing:
    # reordering it changes every seeded campaign's outcome.
    stall = None
    stall_seed: Optional[int] = None
    if layer == "backpressure":
        probability = 0.25 + 0.5 * float(rng.random())
        burst = int(rng.integers(1, 9))
        stall_seed = int(rng.integers(1 << 31))
        stall = backpressure_storm(probability, burst=burst, seed=stall_seed)
    injector_seed = int(rng.integers(1 << 31))
    system, injector, sim = build_fault_harness(
        p5cfg, seed=injector_seed, stall=stall,
        watchdog=cfg.watchdog,
    )
    for frame in frames:
        system.submit(frame)

    event: Optional[FaultEvent] = None
    upset: Optional[OamRegisterUpset] = None
    upset_seed: Optional[int] = None
    if layer in ("line", "beat"):
        kinds = _LINE_KINDS if layer == "line" else _BEAT_KINDS
        kind = kinds[int(rng.integers(len(kinds)))]
        window = _fault_window_beats(frames, p5cfg.width_bytes)
        bits = int(rng.integers(2, 33)) if kind == "burst" else 1
        injector.arm(kind, after_beats=int(rng.integers(window)), bits=bits)
    elif layer == "oam":
        upset_seed = int(rng.integers(1 << 31))
        upset = OamRegisterUpset(system.oam, seed=upset_seed)

    def settled() -> bool:
        return (
            not system.tx.busy
            and not any(ch.can_pop for ch in system.channels)
            and system.rx.escape.idle
        )

    stalled = False
    stall_message = ""
    try:
        if upset is not None:
            warmup = int(rng.integers(1, 200))
            sim.step(warmup)
            event = upset.inject(cycle=sim.cycle)
        sim.run_until(settled, timeout=cfg.timeout)
    except SimulationError as exc:  # PipelineStallError is a subclass
        stalled = True
        stall_message = str(exc)

    if event is None and injector.events:
        event = injector.events[0]
    kind = event.kind if event else (
        "storm" if layer == "backpressure" else "none"
    )

    good = system.rx.sink.good_frames()
    matched, _ = match_frames(frames, good)
    violations = check_trial(
        trial=index,
        layer=layer,
        kind=kind,
        system=system,
        injector=injector,
        submitted=frames,
        max_damaged=cfg.max_damaged,
        stalled=stalled,
        stall_message=stall_message,
    )
    return TrialSummary(
        index=index,
        layer=layer,
        kind=kind,
        cycles=sim.cycle,
        frames=len(frames),
        damaged=matched.count(False) if not stalled else len(frames),
        stalled=stalled,
        stall_message=stall_message,
        event=event,
        violations=violations,
        injector_seed=injector_seed,
        stall_seed=stall_seed,
        upset_seed=upset_seed,
    ), injector.line.stats


def run_campaign(cfg: Optional[CampaignConfig] = None) -> CampaignResult:
    """Run every trial of a campaign; never raises on faulty behaviour
    (violations are data, mirroring ``repro lint`` findings)."""
    cfg = cfg or CampaignConfig()
    trials: List[TrialSummary] = []
    stats = LineStats()
    for index in range(cfg.faults):
        summary, line_stats = _run_trial(cfg, index)
        trials.append(summary)
        stats = stats.merge(line_stats)
    return CampaignResult(config=cfg, trials=trials, line_stats=stats)
