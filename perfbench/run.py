"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fastpath-imix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from
``src/``.  ``--workload all`` runs every workload, each in its own
process.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs the workload untraced, then traced over the same inputs, and
prints the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object; the lines before it give the
same figures for people, with each workload's own extras.  A broken
correctness gate prints ``"correct": false`` and exits with code 1.

Every pass of a workload repeats the same calls on the same inputs,
so the k-th call of every pass does the same work.  The end-to-end
timings are scaled by a host-speed gauge sampled between calls (see
``gauge.py``) and use, for each call position, the median over the
run's passes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: Passes a --trace 0 run completes at least (the per-position median
#: needs repeats).
MIN_PASSES = 2
#: Set-up is timed before the passes in this many samples; each sample
#: repeats the build until SETUP_SAMPLE_S has passed and keeps the mean
#: (a single build can take 10 us, too short to time alone).
SETUP_SAMPLES = 15
SETUP_SAMPLE_S = 0.002
TRACE_DIR = ROOT / ".perfbench-out"


def load_spec() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path.name} not found at the checkout root")
    return json.loads(path.read_text())


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit("error: the program (src/repro) is not in this checkout")
    sys.path.insert(0, str(src))
    import repro  # noqa: F401  (fail here, before any result)


class Phase:
    """Whole passes of one workload until ``seconds`` have elapsed and
    at least ``min_passes`` are done; checks the passes agree."""

    def __init__(self, workload: Any, seconds: float, rec: Any, min_passes: int) -> None:
        from workloads import gate

        self.rec = rec
        self.results: List[Any] = []
        durations: List[float] = []
        t_start = time.perf_counter()
        while len(self.results) < min_passes or (
            time.perf_counter() - t_start + statistics.mean(durations) / 2 < seconds
        ):
            t0 = time.perf_counter()
            rec.new_pass()
            self.results.append(workload.run_pass(rec))
            rec.end_pass()
            durations.append(time.perf_counter() - t0)
        first = self.results[0]
        for result in self.results[1:]:
            gate(result == first, "passes over the same inputs gave different "
                 f"results: {result.signature} != {first.signature}")
        gate(len({len(p) for p in rec.passes}) == 1, "passes made different numbers of calls")

    @property
    def calls(self) -> List[float]:
        return [c for p in self.rec.passes for c in p]


def measure_setup(workload: Any) -> Tuple[List[float], List[float]]:
    """Per-build seconds of each set-up sample, and the gauge sample
    taken after each."""
    from gauge import kernel_seconds

    per_build: List[float] = []
    gauge: List[float] = []
    for _ in range(SETUP_SAMPLES):
        builds, t0 = 0, time.perf_counter()
        while True:
            workload.build()
            builds += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SETUP_SAMPLE_S:
                break
        per_build.append(elapsed / builds)
        gauge.append(kernel_seconds())
    return per_build, gauge


def end_to_end(workload: Any, phase: Phase, setup: Tuple[List[float], List[float]]) -> Tuple[Dict[str, float], List[str]]:
    from gauge import GAUGE_REF_S, scale

    rec = phase.rec
    scaled = [scale(p, a, rec.gauge) for p, a in zip(rec.passes, rec.after)]
    best = np.median(np.array(scaled), axis=0)
    first = phase.results[0]
    tail = float(np.percentile(best, workload.tail_pct))
    metrics = {
        "goodput_MBps": first.octets / best.sum() / 1e6,
        "call_ms_p50": float(np.percentile(best, 50)) * 1e3,
        "call_ms_tail": tail * 1e3,
        "setup_s": float(np.median(scale(setup[0], range(SETUP_SAMPLES), setup[1]))),
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "frames_delivered_ratio": first.frames_delivered / first.frames_sent,
    }
    calls = phase.calls
    lost = first.frames_sent - first.frames_delivered
    notes = [
        f"passes: {len(rec.passes)} of {len(best)} calls; timings are host-speed scaled, "
        f"each call position's median over the passes",
        f"host gauge: median {np.median(rec.gauge) * 1e3:.4f} ms over {len(rec.gauge)} samples "
        f"(reference {GAUGE_REF_S * 1e3:g} ms)",
        f"unscaled, all calls: goodput {first.octets * len(rec.passes) / sum(calls) / 1e6:.6f} MB/s, "
        f"p50 {np.percentile(calls, 50) * 1e3:.4f} ms",
        f"call_ms_tail: p{workload.tail_pct:g} of {len(best)} positions, "
        f"{int((best > tail).sum())} beyond it",
        f"setup_s: median of {SETUP_SAMPLES} samples, unscaled "
        f"{statistics.median(setup[0]) * 1e6:.2f} us",
        f"frames_lost_ratio: {lost / first.frames_sent:.6f} ({lost} of {first.frames_sent} per pass)",
    ]
    violations = first.extra.get("soak_violations")
    if violations:
        kinds = ", ".join(f"{k} x{violations.count(k)}" for k in sorted(set(violations)))
        notes.append(f"soak invariants missed (reported, not gated): {kinds}")
    if "sim_Gbps" in first.extra:
        extra = first.extra
        notes += [
            f"sim_cycles_per_s: {extra['sim_cycles'] / best.sum():.1f} cycles/s",
            f"sim_Gbps: {extra['sim_Gbps']:.6f} Gb/s (exact)",
            f"sim_latency_cycles_p50: {extra['sim_latency_cycles_p50']:g} cycles (exact)",
            f"sim_latency_cycles_tail: p{workload.LATENCY_TAIL_PCT:g} "
            f"{extra['sim_latency_cycles_tail']:g} cycles (exact)",
        ]
    return metrics, notes


SPANNED_LAYERS = (
    "fastpath.encode", "fastpath.fcs", "fastpath.decode", "hdlc.encode",
    "hdlc.delineate", "sonet.build", "sonet.rx", "sonet.scramble", "sonet.path",
    "phy.line", "rtl.step", "resilience.interval", "resilience.spot_check", "crc.table",
)
COUNTED = (
    "fastpath.encode.calls", "fastpath.encode.escapes", "fastpath.fcs.calls",
    "fastpath.decode.calls", "fastpath.decode.frames_ok", "fastpath.decode.fcs_errors",
    "fastpath.decode.aborts", "fastpath.decode.hunt_octets", "crc.table_builds",
    "hdlc.delineate.frames_ok", "hdlc.delineate.fcs_errors", "hdlc.delineate.aborts",
    "hdlc.delineate.hunt_octets", "sonet.b1_errors", "sonet.b3_errors", "sonet.oof_events",
    "phy.bits_flipped", "rtl.module_cycles", "rtl.on_cycle.calls", "rtl.beats_built",
    "resilience.spot_check.calls",
)


def per_layer(untraced: Phase, traced: "TracedPhase", tracer: Any) -> Tuple[Dict[str, float], List[str]]:
    from tracing import CORE_CHANNELS, CORE_MODULES, ROOT_SPAN

    passes = len(traced.results)
    self_s = {n: s / passes for n, s in tracer.self_times(under=ROOT_SPAN).items()}
    counts = traced.counts

    metrics: Dict[str, float] = {f"{n}.self_s": self_s.get(n, 0.0) for n in SPANNED_LAYERS}
    metrics.update({key: counts.get(key, 0) for key in COUNTED})
    module_cycles = counts.get("rtl.module_cycles", 0)
    metrics["rtl.quiescent_ratio"] = (
        1 - counts.get("rtl.on_cycle.calls", 0) / module_cycles if module_cycles else 0.0
    )
    for module in CORE_MODULES:
        metrics[f"core.{module}.self_s"] = self_s.get(f"core.{module}", 0.0)
        for what in ("busy_cycles", "stalled_cycles"):
            metrics[f"core.{module}.{what}"] = counts.get(f"core.{module}.{what}", 0)
    for channel in CORE_CHANNELS:
        key = f"core.{channel}.peak_occupancy"
        metrics[key] = counts.get(key, 0)
    first = traced.results[0]
    for key in ("switchovers", "quarantines", "switch_loss_frames"):
        metrics[f"resilience.{key}"] = first.signature.get(key, 0)
    metrics["ppp.renegotiations"] = first.signature.get("renegotiations", 0)
    for key in ("sim_Gbps", "sim_latency_cycles_p50", "sim_latency_cycles_tail"):
        metrics[key.replace("sim_", "sim.")] = first.extra.get(key, 0.0)

    call_time = tracer.total_seconds(ROOT_SPAN) / passes
    uncovered = self_s.get(ROOT_SPAN, 0.0)
    metrics["trace.coverage"] = 1 - uncovered / call_time
    metrics["trace.uncovered_s"] = uncovered
    untraced_calls, traced_calls = untraced.calls, traced.calls
    metrics["trace.overhead_ratio"] = (
        statistics.mean(traced_calls) / statistics.mean(untraced_calls) - 1
    )
    metrics["trace.spans"] = tracer.span_count / passes

    ranked = sorted(((s, n) for n, s in self_s.items() if s > 0), reverse=True)
    notes = [f"traced: {passes} passes of {len(traced_calls) // passes} calls; "
             f"untraced: {len(untraced.results)} passes; times are per pass"]
    notes += [f"  self {n:<24} {s / call_time:7.2%}" for s, n in ranked]
    return metrics, notes


class TracedPhase(Phase):
    """A phase under the tracer; every pass must count the same."""

    def __init__(self, workload: Any, seconds: float, rec: Any, tracer: Any) -> None:
        from workloads import gate

        per_pass: List[Dict[str, int]] = []
        run_pass = workload.run_pass

        def counted(rec: Any) -> Any:
            tracer.counts.clear()
            result = run_pass(rec)
            tracer.harvest_channels()
            per_pass.append({**tracer.counts, **tracer.peaks})
            tracer.peaks.clear()
            return result

        workload.run_pass = counted
        try:
            super().__init__(workload, seconds, rec, 1)
        finally:
            del workload.run_pass
        for counts in per_pass[1:]:
            diff = sorted(k for k in set(counts) | set(per_pass[0])
                          if counts.get(k) != per_pass[0].get(k))
            gate(not diff, f"traced passes gave different exact counts: {diff}")
        self.counts = per_pass[0]


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, float],
         units: Dict[str, str], notes: List[str]) -> None:
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Every workload, each in its own process (peak RSS is per
    process); the last line merges their results as
    ``<workload>/<metric>``."""
    merged: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), proc.stderr, sep="\n", end="", flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    import_program()
    from workloads import WORKLOADS, GateError, Recorder, gate

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or 'all'")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    attempted = 1
    try:
        workload = WORKLOADS[args.workload](args.seed)
        if not args.trace:
            setup = measure_setup(workload)
            phase = Phase(workload, args.seconds, Recorder(gauged=True), MIN_PASSES)
            attempted = len(phase.calls)
            metrics, notes = end_to_end(workload, phase, setup)
        else:
            from tracing import Tracer, install

            t_start = time.perf_counter()
            untraced = Phase(workload, args.seconds / 3, Recorder(), 1)
            tracer = Tracer()
            patches = install(tracer)
            try:
                remaining = args.seconds - (time.perf_counter() - t_start)
                traced = TracedPhase(workload, remaining, Recorder(tracer), tracer)
            finally:
                patches.restore()
            gate(traced.results[0] == untraced.results[0],
                 "the traced run gave different results from the untraced run")
            attempted = len(untraced.calls) + len(traced.calls)
            metrics, notes = per_layer(untraced, traced, tracer)
            path = TRACE_DIR / f"trace-{workload.name}.npz"
            tracer.save(path)
            notes.append(f"spans: {tracer.span_count} written to {path.relative_to(ROOT)}")
    except GateError as exc:
        print(f"GATE FAILED: {exc}")
        emit(False, attempted, 1, {}, units, [])
        return 1
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise SystemExit(f"error: metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    emit(True, attempted, 0, metrics, units, notes)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(2)
