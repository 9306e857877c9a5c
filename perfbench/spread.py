"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload paper_mix --seeds 1-10

The spread of a metric is its inter-quartile distance over its median
across the seeds; it is printed next to the metric's bound from
``BENCHMARK.json``.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.measure import quartile_spread  # noqa: E402


def _seeds(spec: str):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv=None) -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    args = ap.parse_args(argv)
    values = {}
    for seed in _seeds(args.seeds):
        cmd = [*doc["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(doc["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    for name, vals in values.items():
        print(f"{name:<20} median {statistics.median(vals):>12.6g}  "
              f"spread {quartile_spread(vals):.4f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
