"""Text and JSON reporters for supervisor soak results.

Same contract as :mod:`repro.faults.report`: stable ordering, an
explicit JSON schema version, and a report detailed enough to replay
an outage — every chaos event, every switchover with its loss against
the declared budget, every quarantine, and the full structured event
log (which the CLI can also ship as a standalone artifact).
"""

from __future__ import annotations

import json
from typing import Dict

from repro.resilience.supervisor import (
    CHECK_EVERY,
    FRAME_OCTETS,
    REINSTATE_AFTER,
    SoakResult,
)

__all__ = ["render_text", "render_json", "render_events_json", "JSON_SCHEMA_VERSION"]

JSON_SCHEMA_VERSION = 1


def _chaos_summary(result: SoakResult) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for event in result.chaos:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


def render_text(result: SoakResult) -> str:
    """Human-readable soak report."""
    cfg = result.config
    lines = [
        f"resilience soak: {result.intervals_run} intervals, "
        f"{cfg.frames_per_interval} frames/interval, seed {cfg.seed}, "
        f"width {cfg.width_bits} bits",
        f"  traffic: {result.frames_submitted} submitted, "
        f"{result.frames_delivered} delivered, {result.frames_lost} lost, "
        f"{result.undetected_corruptions} undetected corruption(s)",
        f"  chaos:   "
        + ", ".join(
            f"{kind} x{count}"
            for kind, count in sorted(_chaos_summary(result).items())
        ),
    ]
    for record, loss in zip(result.switchovers, result.switch_losses):
        lines.append(
            f"  switch @ {record.interval:>5}: {record.from_lane} -> "
            f"{record.to_lane} ({record.request.name}, {record.reason}); "
            f"loss {loss['loss']}/{loss['budget']}"
        )
    lines.append(
        f"  reversions: {result.reversions}, final active lane: "
        f"{result.final_active}"
    )
    for name in ("working", "protect"):
        lane = result.lanes[name]
        guard = lane["guard"]
        lines.append(
            f"  {name:<8} mode={guard['mode']}, "
            f"{guard['spot_checks']} spot-checks, "
            f"{len(guard['quarantines'])} quarantine(s), "
            f"{guard['reinstatements']} reinstatement(s), "
            f"health={lane['health']['state']}, "
            f"lcp={lane['lcp_state']}"
        )
    if result.degraded_delivered:
        lines.append(
            f"  degraded delivery: {result.degraded_delivered} frame(s) "
            f"carried by the cycle engine while the fastpath was benched"
        )
    for violation in result.violations:
        lines.append(violation.render())
    if result.ok:
        lines.append("clean: all resilience invariants held")
    else:
        lines.append(f"{len(result.violations)} invariant violation(s)")
    return "\n".join(lines)


def render_json(result: SoakResult) -> str:
    """Machine-parseable soak report (sorted keys, stable ordering)."""
    cfg = result.config
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "config": {
            "intervals": cfg.intervals,
            "frames_per_interval": cfg.frames_per_interval,
            "frame_octets": list(FRAME_OCTETS),
            "seed": cfg.seed,
            "width_bits": cfg.width_bits,
            "chaos_events": cfg.chaos_events,
            "hold_off": cfg.hold_off,
            "wait_to_restore": cfg.wait_to_restore,
            "check_every": CHECK_EVERY,
            "reinstate_after": REINSTATE_AFTER,
            "switchover_loss_budget": cfg.switchover_loss_budget,
        },
        "traffic": {
            "submitted": result.frames_submitted,
            "delivered": result.frames_delivered,
            "lost": result.frames_lost,
            "undetected_corruptions": result.undetected_corruptions,
            "degraded_delivered": result.degraded_delivered,
        },
        "chaos": [event.as_dict() for event in result.chaos],
        "switchovers": [record.as_dict() for record in result.switchovers],
        "switch_losses": result.switch_losses,
        "reversions": result.reversions,
        "final_active": result.final_active,
        "lanes": result.lanes,
        "violations": [v.as_dict() for v in result.violations],
        "events": result.log.as_dicts(),
        "ok": result.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_events_json(result: SoakResult) -> str:
    """Just the structured event log (the CI artifact)."""
    payload: Dict[str, object] = {
        "schema_version": JSON_SCHEMA_VERSION,
        "seed": result.config.seed,
        "intervals": result.intervals_run,
        "ok": result.ok,
        "events": result.log.as_dicts(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
