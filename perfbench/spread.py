"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--seconds N]

Runs ``perfbench/run.py --trace 0`` once per seed and workload, one
run at a time, and prints for every end-to-end metric its median and
its spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.  A spread above a
third of the bound is flagged.  Per-run results are appended to
``.perfbench-out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".perfbench-out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)

    worst = 0.0
    for workload in workloads:
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
                return 1
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({len(args.seeds)} seeds, {args.seconds} s runs)")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= bounds[name] / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:<24} median {median:14.6g}  spread {spread:8.4f}  "
                  f"bound {bounds[name]:.2f}{flag}")
    print(f"largest spread/bound (setup_s excepted): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
