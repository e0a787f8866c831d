"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ncd_dynamic --seeds 1-10 --seconds 20

Runs are sequential, one process at a time.  For every metric it prints
the median of the per-run values and the distance between their first
and third quartiles as a share of that median, the figure the benchmark's
bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.stats import quartile_spread  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)
    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s, correct={result['correct']} "
              f"attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        print(f"{name:55s} median {statistics.median(values):.6g}  spread {spread:.4f}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
