"""Every end-to-end metric of every workload as a table.

    python3 perfbench/report.py [--seed 0] [--seconds 25]

Runs ``run.py`` once per workload and prints one row per metric with its
unit and sample count.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    """One ``run.py`` call in a subprocess; returns its (details, result) lines."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(int(trace))],
                         cwd=HERE.parent, capture_output=True, text=True, check=True)
    detail, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return detail, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args()
    print(f"{'workload':10} {'metric':14} {'value':>12} {'unit':6} samples")
    for workload in WORKLOADS:
        detail, result = run(workload, args.seed, args.seconds, False)
        for name, m in detail["metrics"].items():
            note = f"  (p{detail['op_tail_percentile']:.2f})" if name == "op_tail_ms" else ""
            print(f"{workload:10} {name:14} {m['value']:12.4f} {m['unit']:6} {m['samples']}{note}")
        print(f"{workload:10} {'correct':14} {str(result['correct']):>12}")


if __name__ == "__main__":
    main()
