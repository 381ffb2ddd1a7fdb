"""One benchmark process: set up a workload, then time or trace its ops.

    python3 perfbench/worker.py setup <workload> <seed>
    python3 perfbench/worker.py run   <workload> <seed> <seconds>
    python3 perfbench/worker.py trace <workload> <seed>

Each mode prints one JSON object on stdout.  ``setup`` times importing
redstab and building the workload's inputs in this fresh interpreter.
``run`` is a closed loop with one client: the next op starts when the
previous one returned, its check runs outside the op's timed interval, and
the loop stops at the end of the first whole cycle of the workload's slots
that ends after ``seconds``, so the measured op mix is the declared one.
Op and setup times are CPU seconds (``plan.clock``), so time during which
the host runs other tenants instead of this process does not count.  ``trace`` runs
the workload's fixed op list untraced, then again with every layer wrapped,
compares the two runs' outputs and reports per-layer metrics.
"""

import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
WARMUP_S = 0.5


def setup(name, seed):
    t0 = process_time()
    sys.path.insert(0, str(ROOT / "src"))
    import redstab  # noqa: F401
    from workloads import WORKLOADS
    plan = WORKLOADS[name](seed)
    return plan, process_time() - t0


def attempt(plan, i):
    """Run op i; returns (slot, input, seconds, output or None, error or None).

    The seconds are the op's CPU time by ``plan.clock``.
    """
    slot, inst = plan.input(i)
    t0 = plan.clock()
    try:
        out = plan.run(slot, inst)
    except Exception as exc:  # a failing op is counted, the loop goes on
        return slot, inst, plan.clock() - t0, None, repr(exc)
    return slot, inst, plan.clock() - t0, out, None


def checked(plan, slot, inst, out, err):
    if err is not None:
        return False, err
    try:
        ok = bool(plan.check(slot, inst, out))
    except Exception as exc:  # a check that cannot run fails the op
        return False, "check: " + repr(exc)
    return ok, None if ok else f"check failed on {slot}"


def warm_up(plan):
    """Run ops, unchecked and untimed, until lazy set-up has finished."""
    start = perf_counter()
    i = 0
    while perf_counter() - start < WARMUP_S:
        attempt(plan, i)
        i += 1


def run(plan, seconds):
    warm_up(plan)
    latencies, failures, errors = [], 0, []
    mix = Counter()
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        slot, inst, dt, out, err = attempt(plan, i)
        latencies.append(dt)
        mix[f"{slot[0]}.n{slot[1]}"] += 1
        ok, why = checked(plan, slot, inst, out, err)
        if not ok:
            failures += 1
            errors.append(why)
        i += 1
        if i % len(plan.cycle) == 0 and perf_counter() >= deadline:
            break
    who = resource.RUSAGE_CHILDREN if plan.name == "cli" else resource.RUSAGE_SELF
    return {"latencies": latencies, "wall_s": perf_counter() - start,
            "failed": failures, "errors": errors[:5],
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "op_mix": dict(sorted(mix.items()))}


def _pass(plan, tracer=None):
    outputs, busy, failures, errors = [], 0.0, 0, []
    for i in range(plan.trace_ops):
        if tracer is not None:
            tracer.op_id = i
            tracer.enabled = True
        slot, inst, dt, out, err = attempt(plan, i)
        if tracer is not None:
            tracer.enabled = False
        busy += dt
        ok, why = checked(plan, slot, inst, out, err)
        if not ok:
            failures += 1
            errors.append(why)
        outputs.append(None if out is None else plan.fingerprint(slot, out))
    return outputs, busy, failures, errors


def _import_times(stderr):
    """(numpy, redstab without numpy) import seconds from -X importtime output.

    ``redstab.cli`` is the child's first import and a top-level line, so its
    cumulative time covers the package, every module the CLI pulls in and
    numpy, which is nested below it and subtracted.
    """
    cum = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].rstrip()
            if name.strip() == "numpy" and "numpy" not in cum:
                cum["numpy"] = int(parts[1]) / 1e6
            elif name == " redstab.cli":
                cum["redstab.cli"] = int(parts[1]) / 1e6
    if "redstab.cli" not in cum or "numpy" not in cum:
        raise ValueError("no top-level redstab.cli or numpy import in -X importtime output")
    return cum["numpy"], cum["redstab.cli"] - cum["numpy"]


def trace(plan):
    from spans import Tracer, layer_metrics

    warm_up(plan)
    base, base_busy, base_fail, base_err = _pass(plan)
    cli = {"cli.import_numpy_s": 0.0, "cli.import_redstab_s": 0.0, "cli.run_s": 0.0}
    if plan.name == "cli":
        plan.traced = True
        traced, busy, failures, errors = _pass(plan)
        calls, self_s, counts = Counter(), Counter(), Counter()
        for path in plan.child_reports:
            rep = json.loads(path.read_text())
            path.unlink()
            calls.update(rep["calls"])
            self_s.update(rep["self_s"])
            counts.update(rep["counts"])
            cli["cli.run_s"] += rep["run_s"]
        for stderr in plan.child_stderr:
            numpy_s, redstab_s = _import_times(stderr)
            cli["cli.import_numpy_s"] += numpy_s
            cli["cli.import_redstab_s"] += redstab_s
    else:
        tracer = Tracer()
        tracer.install()
        traced, busy, failures, errors = _pass(plan, tracer)
        tracer.uninstall()
        calls, self_s = tracer.self_times()
        counts = tracer.counts
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{plan.name}.tsv")
    metrics = layer_metrics(calls, self_s, counts)
    for key, value in cli.items():
        metrics[key] = (value, "s")
    n = plan.trace_ops
    metrics["trace.untraced_ops_per_s"] = (n / base_busy, "1/s")
    metrics["trace.traced_ops_per_s"] = (n / busy, "1/s")
    metrics["trace.overhead_ratio"] = (busy / base_busy, "ratio")
    mix = Counter(f"{plan.input(i)[0][0]}.n{plan.input(i)[0][1]}" for i in range(n))
    return {"metrics": metrics, "attempted": n, "failed": failures,
            "untraced_failed": base_fail, "errors": (base_err + errors)[:5],
            "outputs_identical": traced == base, "op_mix": dict(sorted(mix.items()))}


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    plan, setup_s = setup(name, seed)
    if mode == "setup":
        result = {"setup_s": setup_s}
    elif mode == "run":
        result = run(plan, float(argv[3]))
        result["setup_s"] = setup_s
    else:
        result = trace(plan)
    import numpy
    result["numpy"] = numpy.__version__
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
