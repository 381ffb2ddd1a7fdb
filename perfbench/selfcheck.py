"""The benchmark's own tests: traced counts repeat, and seeds vary values only.

    python3 perfbench/selfcheck.py [--seed 0]

For each workload this makes two traced runs with one seed and one with the
next seed, through ``run.py --trace 1``.  It checks that

- every run is correct (ops pass their checks, traced outputs equal the
  untraced ones);
- the two same-seed runs give identical calls, counts and ratios
  (``quadform.alpha_doublings`` included);
- the other seed gives the same op mix per ambient but different inputs.

It exits 1 if any check fails.
"""

import argparse
import sys
from pathlib import Path

from report import run
from run import WORKLOADS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def counts(result):
    """The metrics that must repeat exactly: counts and non-timing ratios."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "ratio") and not k.startswith("trace.")}


def check(workload, seed):
    from workloads import WORKLOADS as PLANS

    problems = []
    (d1, r1), (_, r2), (d3, r3) = (run(workload, s, 1, True) for s in (seed, seed, seed + 1))
    for label, res in (("first", r1), ("second", r2), ("other seed", r3)):
        if not res["correct"]:
            problems.append(f"{label} run not correct")
    c1, c2 = counts(r1), counts(r2)
    diff = sorted(k for k in c1 if c1[k] != c2.get(k))
    if diff:
        problems.append(f"same-seed counts differ: {diff[:5]}")
    if d1["op_mix"] != d3["op_mix"]:
        problems.append("op mix changed with the seed")
    a, b = PLANS[workload](seed), PLANS[workload](seed + 1)
    same = [a.input(i)[0] for i in range(len(a.cycle)) if a.input(i) == b.input(i)]
    if same:
        problems.append(f"inputs did not change with the seed: {same}")
    return problems, len(c1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    failed = False
    for workload in WORKLOADS:
        problems, n = check(workload, args.seed)
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {workload}: {n} counts compared"
              + "".join(f"\n  {p}" for p in problems))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
