"""Benchmark of redstab: one workload, one seed, one run.

    python3 perfbench/run.py --workload support --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (it needs ``src/redstab``; nothing
has to be installed).  With ``--trace 0`` it times the workload's setup in
several fresh interpreters, then runs its closed loop for ``--seconds`` in a
fresh worker and prints the end-to-end metrics.  With ``--trace 1`` it runs
the workload's fixed op list untraced and traced and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the details (all six end-to-end metrics with sample counts,
including ``fail_ratio``, the tail percentile, op mix and fingerprint).
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("support", "pencil", "charges", "cli")
SETUP_PROBES = 5       # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10       # the tail is the highest percentile with this many samples beyond
TIME_LIMIT_S = 170     # whole run, so that it ends within three minutes


class WorkerFailed(RuntimeError):
    pass


def call_worker(args, deadline):
    """Run worker.py in a fresh interpreter; returns its JSON result."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"worker {args[:2]} passed the time limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args[:2]} exited {proc.returncode}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail(latencies):
    """(value, percentile): the sample with exactly TAIL_BEYOND samples above it.

    A run too short to have one reports its maximum as the 100th percentile.
    """
    s = sorted(latencies)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s)


def fingerprint(numpy_version):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((ROOT / "src" / "redstab").glob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit(),
            "src_redstab_lines": lines}


def git_commit():
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args, deadline):
    probes = [call_worker(["setup", args.workload, str(args.seed)], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = call_worker(["run", args.workload, str(args.seed), str(args.seconds)], deadline)
    lat = res["latencies"]
    n = len(lat)
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(probes), "s", len(probes)),
        "ops_per_s": (n / sum(lat), "1/s", n),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", n),
        "op_tail_ms": (tail_s * 1e3, "ms", n),
        "fail_ratio": (res["failed"] / n, "ratio", n),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "metrics": {k: {"value": v, "unit": u, "samples": c} for k, (v, u, c) in metrics.items()},
        "op_tail_percentile": tail_pct, "setup_probes_s": probes,
        "op_clock": "CPU time", "timed_phase_wall_s": res["wall_s"],
        "op_mix": res["op_mix"], "errors": res["errors"],
        "fingerprint": fingerprint(res["numpy"]),
    }
    del metrics["fail_ratio"]      # never a gated metric: it is 0 on correct code
    result = {"correct": res["failed"] == 0, "attempted": n, "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    return detail, result


def per_layer(args, deadline):
    res = call_worker(["trace", args.workload, str(args.seed)], deadline)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": True,
        "outputs_identical": res["outputs_identical"],
        "untraced_failed": res["untraced_failed"], "op_mix": res["op_mix"],
        "errors": res["errors"], "fingerprint": fingerprint(res["numpy"]),
    }
    correct = res["failed"] == 0 and res["untraced_failed"] == 0 and res["outputs_identical"]
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}}
    return detail, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "redstab" / "__init__.py").is_file():
        sys.exit(f"no redstab sources under {ROOT / 'src'}: run from a source checkout")
    deadline = monotonic() + TIME_LIMIT_S
    try:
        detail, result = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerFailed as exc:
        sys.exit(str(exc))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
