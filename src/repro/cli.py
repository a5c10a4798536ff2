"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``info``
    Package and configuration summary.
``tables``
    Regenerate the paper's Tables 1–3 from the synthesis model.
``throughput``
    Measure escape-pipeline throughput at a given width.
``latency``
    Measure pipeline fill latency at a given width.
``trace``
    Run the Figure 5 scenario and dump a VCD waveform.
``lint``
    Static design-rule checks: graph DRC over the shipped topologies
    plus the ready/valid AST lint over the source tree.
``sta``
    Static timing, buffer-sizing and deadlock analysis over the
    canonical duplex topologies, held to the paper's latency budgets
    (see :mod:`repro.sta`).
``faults``
    Seeded fault-injection campaigns over the loopback datapath with
    recovery-invariant checking (see :mod:`repro.faults`).
``resilience``
    Supervised redundant-link chaos soak: two P5 lanes under an
    APS-style 1+1 selector, a recovery ladder, and graceful fastpath
    degradation (see :mod:`repro.resilience`).
``bench``
    Two-engine benchmark: the cycle-accurate P5 loopback vs. the
    frame-level fastpath on identical workloads, differentially
    verified, recorded in ``BENCH_fastpath.json`` (see
    :mod:`repro.fastpath`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "P5 — programmable pipelined PPP packet processor "
            "(Toal & Sezer, IPPS 2003) reproduction toolkit"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and configuration summary")

    sub.add_parser("tables", help="regenerate the paper's Tables 1-3")

    p_thr = sub.add_parser("throughput", help="escape-pipeline throughput")
    p_thr.add_argument("--width", type=int, default=32, choices=(8, 16, 32, 64))
    p_thr.add_argument("--bytes", type=int, default=20_000, dest="nbytes")
    p_thr.add_argument(
        "--payload", choices=("random", "all-flags"), default="random"
    )
    p_thr.add_argument("--seed", type=int, default=1)

    p_lat = sub.add_parser("latency", help="pipeline fill latency")
    p_lat.add_argument("--width", type=int, default=32, choices=(8, 16, 32, 64))
    p_lat.add_argument("--stages", type=int, default=None)

    p_trc = sub.add_parser("trace", help="run Figure 5 and dump a VCD")
    p_trc.add_argument("--out", default="figure5.vcd")

    p_dup = sub.add_parser("duplex", help="run a duplex P5 exchange")
    p_dup.add_argument("--width", type=int, default=32, choices=(8, 16, 32, 64))
    p_dup.add_argument("--frames", type=int, default=10)
    p_dup.add_argument("--seed", type=int, default=1)

    p_lint = sub.add_parser("lint", help="static DRC + ready/valid AST lint")
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    p_lint.add_argument(
        "--path", action="append", default=None, dest="paths",
        help="file or directory to AST-lint (repeatable; default: the "
             "installed repro package source)",
    )
    p_lint.add_argument(
        "--no-graph", action="store_true",
        help="skip the graph DRC over the shipped topologies",
    )
    p_lint.add_argument(
        "--no-ast", action="store_true",
        help="skip the AST discipline lint",
    )
    p_lint.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings as well as errors",
    )

    p_sta = sub.add_parser(
        "sta", help="static timing / buffer-sizing / deadlock analysis"
    )
    p_sta.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    p_sta.add_argument(
        "--clock-mhz", type=float, default=78.125,
        help="line clock for cycle-to-ns conversion (default: 78.125, "
             "the OC-48 word clock)",
    )
    p_sta.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings as well as errors",
    )

    p_flt = sub.add_parser(
        "faults", help="layered fault-injection campaign with invariant checks"
    )
    p_flt.add_argument(
        "--campaign", choices=("quick", "smoke", "soak"), default="smoke",
        help="preset size: quick=24, smoke=208, soak=1000 faults "
             "(default: smoke)",
    )
    p_flt.add_argument(
        "--faults", type=int, default=None,
        help="override the preset fault count",
    )
    p_flt.add_argument("--seed", type=int, default=1)
    p_flt.add_argument("--width", type=int, default=32, choices=(8, 16, 32, 64))
    p_flt.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    p_flt.add_argument(
        "--json", action="store_true",
        help="shorthand for --format json",
    )

    p_res = sub.add_parser(
        "resilience",
        help="supervised redundant-link soak with APS failover under chaos",
    )
    p_res.add_argument(
        "--soak", action="store_true",
        help="run the chaos soak (the default action; flag kept for "
             "explicit CI invocations)",
    )
    p_res.add_argument(
        "--smoke", action="store_true",
        help="CI-sized soak (640 intervals x 16 frames, 24 chaos events)",
    )
    p_res.add_argument(
        "--intervals", type=int, default=None,
        help="override the interval count (default: 960, or 640 with --smoke)",
    )
    p_res.add_argument(
        "--events", type=int, default=None,
        help="override the chaos event count (default: 30, or 24 with --smoke)",
    )
    p_res.add_argument("--seed", type=int, default=1)
    p_res.add_argument("--width", type=int, default=32, choices=(8, 16, 32, 64))
    p_res.add_argument(
        "--schedule", action="store_true",
        help="print the deterministic chaos schedule and exit (no soak)",
    )
    p_res.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="also write the structured event log as JSON to PATH",
    )
    p_res.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    p_res.add_argument(
        "--json", action="store_true",
        help="shorthand for --format json",
    )

    p_bch = sub.add_parser(
        "bench", help="cycle-vs-fastpath benchmark with differential check"
    )
    p_bch.add_argument(
        "--frames", type=int, default=None,
        help="frames per workload (default: 150, or 40 with --smoke)",
    )
    p_bch.add_argument(
        "--smoke", action="store_true",
        help="small CI-sized run (fewer frames, same checks)",
    )
    p_bch.add_argument(
        "--floor", type=float, default=None,
        help="minimum imix fastpath/cycle speedup to pass (default: 20)",
    )
    p_bch.add_argument("--width", type=int, default=32, choices=(8, 16, 32, 64))
    p_bch.add_argument("--seed", type=int, default=0)
    p_bch.add_argument(
        "--workload", action="append", default=None, dest="workloads",
        choices=("imix", "random", "allflags"),
        help="restrict to one workload (repeatable; default: all)",
    )
    p_bch.add_argument(
        "--out", default="BENCH_fastpath.json",
        help="where to write the JSON record (default: BENCH_fastpath.json; "
             "'-' to skip the file)",
    )
    p_bch.add_argument(
        "--json", action="store_true",
        help="print the JSON record instead of the text summary",
    )

    return parser


def _cmd_info() -> int:
    from repro.core.config import P5Config
    from repro.sonet.rates import rate_for

    print(f"repro {__version__} — P5 reproduction (Toal & Sezer, IPPS 2003)")
    for config in (P5Config.eight_bit(), P5Config.thirty_two_bit()):
        print(" ", config.describe())
    rate = rate_for(48)
    print(f"  target transport: {rate.name} = {rate.line_rate_bps / 1e9:.5f} Gbps "
          f"({rate.sdh_name})")
    return 0


def _cmd_tables() -> int:
    from repro.core.config import P5Config
    from repro.synth import escape_generate_area, synthesize, system_area
    from repro.synth.report import format_table

    s8 = system_area(P5Config.eight_bit())
    print(format_table(
        "Table 1 — P5 8-bit implementation",
        [synthesize(s8, d) for d in ("XCV50-4", "XC2V40-6")],
    ))
    print()
    s32 = system_area(P5Config.thirty_two_bit())
    print(format_table(
        "Table 2 — P5 32-bit implementation",
        [synthesize(s32, d) for d in ("XCV600-4", "XC2V1000-6")],
    ))
    print()
    eg8 = escape_generate_area(P5Config.eight_bit())
    eg32 = escape_generate_area(P5Config.thirty_two_bit())
    print("Table 3 — Escape Generate (XC2V40-6)")
    print(f"  32-bit: {eg32.luts} LUTs / {eg32.ffs} FFs")
    print(f"   8-bit: {eg8.luts} LUTs / {eg8.ffs} FFs")
    print(f"  ratios: {eg32.luts / eg8.luts:.1f}x LUTs, "
          f"{eg32.ffs / eg8.ffs:.1f}x FFs (paper: ~25x / ~28x)")
    return 0


def _cmd_throughput(args: argparse.Namespace) -> int:
    from repro.analysis import measure_escape_throughput
    from repro.core.config import P5Config
    from repro.workloads import all_flags_payload, random_payload

    payload = (
        random_payload(args.nbytes, seed=args.seed)
        if args.payload == "random"
        else all_flags_payload(args.nbytes)
    )
    config = P5Config(width_bits=args.width)
    report = measure_escape_throughput(payload, config)
    print(f"width {args.width} bits, payload {args.payload} x{args.nbytes}B")
    print(f"  input : {report.input_bytes_per_cycle:.3f} B/cycle "
          f"= {report.input_gbps:.3f} Gbps")
    print(f"  line  : {report.output_bytes_per_cycle:.3f} B/cycle "
          f"= {report.line_gbps:.3f} Gbps")
    print(f"  utilization of the W-bytes/cycle ideal: {report.utilization:.3f}")
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from repro.analysis import measure_escape_latency
    from repro.core.config import P5Config

    report = measure_escape_latency(
        P5Config(width_bits=args.width), pipeline_stages=args.stages
    )
    print(f"width {report.width_bits} bits, {report.pipeline_stages} stages:")
    print(f"  fill latency {report.fill_cycles} cycles "
          f"= {report.fill_ns:.1f} ns at {report.clock_hz / 1e6:.3f} MHz")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.escape_pipeline import PipelinedEscapeGenerate
    from repro.hdlc.constants import FLAG_OCTET
    from repro.rtl import Channel, Simulator, StreamSink, StreamSource, beats_from_bytes
    from repro.rtl.vcd import VcdWriter

    data = bytes([FLAG_OCTET, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE])
    c_in, c_out = Channel("escgen.in", capacity=2), Channel("escgen.out", capacity=2)
    src = StreamSource("src", c_in, beats_from_bytes(data, 4))
    unit = PipelinedEscapeGenerate("gen", c_in, c_out, width_bytes=4)
    sink = StreamSink("sink", c_out)
    sim = Simulator([src, unit, sink], [c_in, c_out])
    writer = VcdWriter([c_in, c_out])
    sim.add_observer(writer.sample)
    sim.run_until(lambda: src.done and unit.idle and not c_out.can_pop, timeout=100)
    writer.save(args.out)
    print(f"wrote {args.out}: {sim.cycle} cycles, "
          f"{len(writer.channels) * 3} signals")
    return 0


def _cmd_duplex(args: argparse.Namespace) -> int:
    from repro.core import P5Config, run_duplex_exchange
    from repro.workloads import ppp_frame_contents

    config = P5Config(width_bits=args.width)
    frames = ppp_frame_contents(args.frames, seed=args.seed)
    result = run_duplex_exchange(frames, frames, config, timeout=5_000_000)
    microseconds = result.cycles / config.clock_hz * 1e6
    print(f"{config.describe()}")
    print(f"exchanged {args.frames} frames each way in {result.cycles} cycles "
          f"({microseconds:.1f} us)")
    print(f"all FCS-good: {result.all_good()}")
    print(f"escapes inserted A->B: "
          f"{result.a.oam.regs.read_name('ESC_INSERTED')}")
    return 0 if result.all_good() else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    from repro import lint

    findings: List[lint.Finding] = []
    if not args.no_graph:
        for topology in lint.shipped_topologies():
            findings.extend(
                lint.lint_topology(
                    topology.modules, topology.channels, topology_name=topology.name
                )
            )
    if not args.no_ast:
        paths = args.paths
        if paths is None:
            paths = [pathlib.Path(__file__).resolve().parent]
        missing = [str(p) for p in paths if not pathlib.Path(p).exists()]
        if missing:
            print(f"repro lint: error: no such path: {', '.join(missing)}",
                  file=sys.stderr)
            return 2
        findings.extend(lint.lint_paths(paths))

    return _report_findings(findings, args)


def _report_findings(findings, args: argparse.Namespace) -> int:
    from repro import lint

    if args.format == "json":
        print(lint.render_json(findings))
    elif args.format == "sarif":
        print(lint.render_sarif(findings))
    else:
        print(lint.render_text(findings))
    if lint.has_errors(findings):
        return 1
    if args.strict and findings:
        return 1
    return 0


def _cmd_sta(args: argparse.Namespace) -> int:
    from repro import sta

    if args.clock_mhz <= 0:
        print("repro sta: error: --clock-mhz must be positive", file=sys.stderr)
        return 2
    findings = sta.canonical_findings(clock_hz=args.clock_mhz * 1e6)
    return _report_findings(findings, args)


_CAMPAIGN_PRESETS = {"quick": 24, "smoke": 208, "soak": 1000}


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro import faults

    count = args.faults if args.faults is not None else _CAMPAIGN_PRESETS[args.campaign]
    if count < 1:
        print("repro faults: error: --faults must be >= 1", file=sys.stderr)
        return 2
    config = faults.CampaignConfig(
        faults=count, seed=args.seed, width_bits=args.width
    )
    result = faults.run_campaign(config)
    if args.json or args.format == "json":
        print(faults.render_json(result))
    else:
        print(faults.render_text(result))
    return 0 if result.ok else 1


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.errors import LinkDownError
    from repro.resilience import LinkSupervisor, SupervisorConfig, chaos_schedule
    from repro.resilience.report import render_events_json, render_json, render_text

    intervals = args.intervals if args.intervals is not None else (
        640 if args.smoke else 960
    )
    events = args.events if args.events is not None else (
        24 if args.smoke else 30
    )
    if intervals < 1 or events < 2:
        print(
            "repro resilience: error: need --intervals >= 1 and --events >= 2",
            file=sys.stderr,
        )
        return 2
    config = SupervisorConfig(
        intervals=intervals,
        chaos_events=events,
        seed=args.seed,
        width_bits=args.width,
    )
    if args.schedule:
        for event in chaos_schedule(
            intervals=config.intervals,
            events=config.chaos_events,
            seed=config.seed,
            hold_off=config.hold_off,
            wait_to_restore=config.wait_to_restore,
        ):
            print(
                f"{event.interval:>5} {event.lane:<8} {event.kind:<9} "
                f"duration={event.duration} bits={event.bits}"
            )
        return 0
    supervisor = LinkSupervisor(config)
    try:
        result = supervisor.run_soak()
    except LinkDownError as exc:
        print(f"repro resilience: link down: {exc}", file=sys.stderr)
        for event in exc.events[-20:]:
            print("  " + event.render(), file=sys.stderr)
        return 1
    if args.events_out:
        with open(args.events_out, "w", encoding="utf-8") as handle:
            handle.write(render_events_json(result) + "\n")
    if args.json or args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
        if args.events_out:
            print(f"wrote {args.events_out}")
    return 0 if result.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.core.config import P5Config
    from repro.fastpath import bench

    frames = args.frames if args.frames is not None else (40 if args.smoke else 150)
    if frames < 1:
        print("repro bench: error: --frames must be >= 1", file=sys.stderr)
        return 2
    floor = args.floor if args.floor is not None else bench.DEFAULT_SPEEDUP_FLOOR
    report = bench.run_bench(
        frames=frames,
        workloads=args.workloads,
        floor=floor,
        config=P5Config(width_bits=args.width),
        seed=args.seed,
    )
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    if args.json:
        print(payload)
    else:
        print(bench.render_text(report))
        if args.out != "-":
            print(f"wrote {args.out}")
    return 0 if report["ok"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "tables":
        return _cmd_tables()
    if args.command == "throughput":
        return _cmd_throughput(args)
    if args.command == "latency":
        return _cmd_latency(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "duplex":
        return _cmd_duplex(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "sta":
        return _cmd_sta(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "resilience":
        return _cmd_resilience(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
