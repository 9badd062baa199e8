"""Run one projdyn benchmark workload; print its metrics as the last line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the program is imported from ``src/``.  Each
workload is a single-process closed loop with one client: the next task
starts when the previous one returns.  The fixed task list of a workload is
one pass; passes repeat while another one is likely to end within
``--seconds`` (at least one pass).  Task times are rescaled by the
machine's speed while each task ran (see REFERENCE_S).
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
first half of the time runs untraced and the second half traced, and the
per-layer metrics are printed.  Details, with every span of a traced run,
go to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# the workloads and metrics, with their units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# fresh interpreters timed per run, half before and half after the passes so
# that a slow spell of the machine does not set them all; setup_s is their median
SETUP_PROBES = 8
# Task times are rescaled to a machine on which reference_loop() takes
# REFERENCE_S.  On a shared VM the same interpreter work runs at 1.0x to
# 1.9x its usual time, switching within about a second, with slow and fast
# stretches of seconds to minutes; the program's tasks slow with it.  Right
# after each task the loop runs for REFERENCE_SHARE of the task's time, and
# at least once; the median of those times gives the speed the task ran at.
# A workload may opt out (Workload.rescale).  setup_s is not rescaled: the
# probes run in other processes, and their times did not follow the speed
# measured here.
REFERENCE_S = 0.001
REFERENCE_SHARE = 0.05


def reference_loop():
    """Fixed pure-Python work, apart from projdyn: modular products of
    62-bit integers, fractions, strings and dicts."""
    p = (1 << 61) - 1
    rows = [[(i * 7919 + j * 104729) % p for j in range(40)] for i in range(40)]
    acc = 0
    for row in rows:
        for j in range(0, 40, 2):
            acc = (acc + row[j] * row[j + 1]) % p
    total = sum(Fraction(i, i + 3) for i in range(1, 60))
    words = {f"k{i}": str(i * i) for i in range(1500)}
    return acc, total, ",".join(sorted(words.values(), key=len))


def time_reference(budget):
    """Times of reference_loop(), run once and then until `budget` seconds."""
    times = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        times.append(end - t0)
        if end - start >= budget:
            return times


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few tasks per workload, for the benchmark's own tests")
    return ap.parse_args(argv)


def probe_setup(args) -> float:
    """Seconds from launching a fresh interpreter to its first task being ready."""
    cmd = [sys.executable, str(BENCH / "probe.py"), args.workload, str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {code}")
    return ready - start


def run_pass(wl, tracer=None):
    """One pass over the task list: task seconds, measured and rescaled, and
    verdicts."""
    outcomes, times, scaled = [], [], []
    start = time.perf_counter()
    for i, task in enumerate(wl.tasks):
        if tracer is not None:
            tracer.task = i
        t0 = time.perf_counter()
        outcomes.append(task.run())
        times.append(time.perf_counter() - t0)
        speed = 1.0
        if wl.rescale:
            refs = time_reference(REFERENCE_SHARE * times[-1])
            speed = REFERENCE_S / statistics.median(refs)
        scaled.append(times[-1] * speed)
    elapsed = time.perf_counter() - start
    verdicts = wl.check(outcomes)
    for task, out, ok in zip(wl.tasks, outcomes, verdicts):
        if not ok:
            print(f"failed: {task.label}: {out!r}"[:300], file=sys.stderr)
    # `speed` turns a time measured in this pass into rescaled seconds
    return {"elapsed": elapsed, "times": times, "scaled": scaled,
            "speed": sum(scaled) / sum(times), "verdicts": verdicts}


def measure(wl, seconds, tracer=None):
    """Passes until another one would likely end past `seconds`; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, tracer))
        if tracer is not None:
            passes[-1]["summary"], passes[-1]["top_ns"] = tracer.summary()
            passes[-1]["spans"] = tracer.spans
            tracer.reset()
        if time.perf_counter() - start + passes[-1]["elapsed"] > seconds:
            return passes


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes, setup):
    times = [t for p in passes for t in p["scaled"]]
    values = {
        "run_s": statistics.median(sum(p["scaled"]) for p in passes),
        "task_p50_s": statistics.median(times),
        "task_p90_s": p90(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}, {
        "run_s": len(passes), "task_p50_s": len(times),
        "task_p90_s": len(times), "setup_s": len(setup), "peak_rss_mib": 1}


def per_layer(untraced, traced, failed, attempted):
    """Every per-layer metric: run-wide ratios, or SPAN.STAT of one span name."""
    def run_s(passes):
        return statistics.median(sum(p["scaled"]) for p in passes)

    values = {
        "trace.overhead_ratio": run_s(traced) / run_s(untraced),
        "trace.top_span_coverage":
            statistics.median(p["top_ns"] / 1e9 / sum(p["times"])
                              for p in traced),
        "failed_ratio": failed / attempted,
    }
    first = traced[0]["summary"]
    metrics = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name not in values:
            span, stat = name.rsplit(".", 1)
            entry = first.get(span, {})
            calls = entry.get("calls", 0)
            if stat == "self_s":
                values[name] = statistics.median(
                    p["summary"].get(span, {}).get("self_ns", 0) * p["speed"]
                    for p in traced) / 1e9
            elif stat == "success_ratio":
                values[name] = entry["successes"] / calls if calls else 0.0
            elif stat == "drawn":
                values[name] = entry.get("successes", 0)
            else:
                values[name] = entry.get(stat, 0)
        metrics[name] = (values[name], metric["unit"])
    return metrics


def deterministic(name, unit):
    """Counts and outcome ratios repeat exactly for the same code and seed."""
    return unit != "s" and not name.startswith(("trace.", "peak_rss"))


def context(seed):
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "projdyn").rglob("*.py")))
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "src_lines": src_lines,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "projdyn" / "__init__.py").is_file():
        print(f"error: projdyn sources not found under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    probes = 0 if args.trace else SETUP_PROBES
    setup = [probe_setup(args) for _ in range(probes // 2)]

    import workloads
    wl = workloads.build(args.workload, args.seed, args.tiny)
    if args.trace:
        from tracer import Tracer
        untraced = measure(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install([workloads])
        try:
            traced = measure(wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
    else:
        passes = measure(wl, args.seconds)

    setup += [probe_setup(args) for _ in range(probes - len(setup))]

    attempted = sum(len(p["verdicts"]) for p in passes)
    failed = sum(not ok for p in passes for ok in p["verdicts"])
    if args.trace:
        metrics = per_layer(untraced, traced, failed, attempted)
        samples = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
    else:
        metrics, samples = end_to_end(passes, setup)

    details = {"workload": args.workload, "trace": args.trace,
               "context": context(args.seed), "samples": samples,
               "timings": {k: v for k, (v, unit) in metrics.items()
                           if not deterministic(k, unit)},
               "counters": {k: v for k, (v, unit) in metrics.items()
                            if deterministic(k, unit)},
               "passes": [{"task_s": p["times"], "scaled_task_s": p["scaled"]}
                          for p in passes]}
    if args.trace:
        details["spans"] = [[list(s) for s in p["spans"]] for p in traced]
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details), encoding="utf-8")

    print(json.dumps({"context": details["context"], "samples": samples,
                      "speed": statistics.median(p["speed"] for p in passes)}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
