"""Record the benchmark's end-to-end and per-layer numbers in a committed BENCH file.

    git clone --quiet . ../parent-checkout
    git -C ../parent-checkout checkout --quiet --detach HEAD~1
    python3 scripts/bench_record.py --out BENCH_11.json --seconds 8 \
        --seeds 101 102 103 --parent ../parent-checkout

The parent checkout is a git clone detached at the parent commit (above,
with the change committed as HEAD), so that its ``revision`` is recorded;
a copy without git metadata records None there.

Runs ``bench/run.py`` (untraced) for every workload of ``BENCHMARK.json``
and every seed, in this checkout and, with ``--parent``, in a checkout of
the parent commit.  The two sides alternate which runs first from one seed
to the next.  Per run the file keeps the last-line JSON of ``bench/run.py``
and the run's context, samples and counters from ``.bench_out``.  Per
workload and side it keeps the median and quartiles of each end-to-end
metric, and with a parent, how many pairs the change won on each.  After
the pairs, traced runs (``--trace 1``) at the first ``TRACED_SEEDS`` seeds,
alternating the same way, record the per-layer metrics: calls and counts
per pass, and self times per pass, rescaled like the task times.  Each
side keeps its traced runs and, under ``traced``, the median of each
per-layer metric over them, so one run's speed phase does not read as a
change in a layer.  With a parent, ``traced_ratios`` pairs the two sides'
traced runs by seed and keeps, per metric, each pair's change/parent ratio
and the median of those ratios: a layer's change measured within pairs that
ran one after the other, not between two medians.  The file also records
each side's ``src/`` line count, a sha256 of its ``src/`` sources (the
``revision`` of ``git describe`` is None in a checkout without git metadata
and ends in ``-dirty`` before a commit; equal digests mean the sides ran
the same code) and the machine's ``nproc``.

Each run is spawned through ``spawn_command``, so the ``peak_rss_mib`` it
reports is its own high-water mark, not this recorder's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
TRACED_SEEDS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--parent", type=Path,
                    help="checkout of the parent commit, measured alongside")
    return ap.parse_args(argv)


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((tree / "src").rglob("*.py")))


def src_sha256(tree: Path) -> str:
    """sha256 over each ``src/**/*.py`` in order of relative path: the
    path, the file's size and its bytes."""
    src = tree / "src"
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(src).as_posix() for p in src.rglob("*.py")):
        data = (src / rel).read_bytes()
        digest.update(b"%s\0%d\0" % (rel.encode(), len(data)))
        digest.update(data)
    return digest.hexdigest()


def revision(tree: Path):
    try:
        out = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def spawn_command(cmd: list) -> list:
    """``cmd`` run by a forked child of ``/bin/sh`` instead of exec'd from here.

    Linux carries the exec'ing process's peak RSS into the new program's
    ``ru_maxrss``, so a run exec'd straight from this process reads at least
    the recorder's own size.  The shell is small, and the child it forks for
    ``cmd`` starts a fresh mark.  The trailing ``exit`` keeps the shell from
    exec'ing ``cmd`` in its own place.
    """
    return ["/bin/sh", "-c", '"$@"; exit $?', "sh", *cmd]


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(spawn_command(cmd), cwd=tree, capture_output=True, text=True,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return {"seed": seed, "result": result, "context": record["context"],
            "samples": record["samples"], "counters": record["counters"]}


def value(run: dict, metric: str) -> float:
    return run["result"]["metrics"][metric]["value"]


def alternating(sides: list, seeds: list):
    """(side, seed) in run order: the sides swap which runs first from one
    seed to the next."""
    for i, seed in enumerate(seeds):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            yield side, seed


def median_metrics(runs: list) -> dict:
    """The runs' seeds and, per metric of the first run, the median value
    over the runs, in the shape of one run's result."""
    metrics = {m: {"value": statistics.median(value(r, m) for r in runs),
                   "unit": entry["unit"]}
               for m, entry in runs[0]["result"]["metrics"].items()}
    return {"seeds": [r["seed"] for r in runs], "result": {"metrics": metrics}}


def paired_ratios(parent: list, change: list) -> dict:
    """Per metric, the change/parent ratio of each pair of runs with one
    seed, in seed order, and the median of the ratios.  A ratio is 1.0 where
    both runs read 0 and None where only the parent does; the median is
    over the other ratios (None when there are none)."""
    by_seed = {r["seed"]: r for r in parent}
    pairs = [(by_seed[c["seed"]], c) for c in change if c["seed"] in by_seed]
    metrics = {}
    for m in change[0]["result"]["metrics"]:
        ratios = []
        for p, c in pairs:
            pv, cv = value(p, m), value(c, m)
            ratios.append(cv / pv if pv else None if cv else 1.0)
        defined = [r for r in ratios if r is not None]
        metrics[m] = {"ratios": ratios,
                      "median": statistics.median(defined) if defined else None}
    return {"seeds": [c["seed"] for _, c in pairs], "metrics": metrics}


def summary(runs: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        values = [value(r, m) for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        out[m] = {"median": median, "q1": q1, "q3": q3}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [m["name"] for m in spec["end_to_end"]]
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    trees = {"change": HERE}
    if args.parent is not None:
        trees = {"parent": args.parent.resolve(), **trees}

    report = {"command": " ".join(spec["command"]), "seconds": args.seconds,
              "seeds": args.seeds, "nproc": os.cpu_count(),
              "trees": {side: {"revision": revision(tree), "src_sha256": src_sha256(tree),
                               "src_lines": src_lines(tree)}
                        for side, tree in trees.items()},
              "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = {side: [] for side in trees}
        for side, seed in alternating(list(trees), args.seeds):
            runs[side].append(run_once(trees[side], name, seed, args.seconds))
            print(name, seed, side, value(runs[side][-1], "run_s"), file=sys.stderr)
        traced = {side: [] for side in trees}
        for side, seed in alternating(list(trees), args.seeds[:TRACED_SEEDS]):
            traced[side].append(run_once(trees[side], name, seed, args.seconds, trace=1))
        entry = {side: {"summary": summary(runs[side], metrics), "runs": runs[side],
                        "traced": median_metrics(traced[side]),
                        "traced_runs": traced[side]}
                 for side in trees}
        if "parent" in runs:
            wins = {m: 0 for m in metrics}
            for c, p in zip(runs["change"], runs["parent"]):
                for m in metrics:
                    cv, pv = value(c, m), value(p, m)
                    wins[m] += cv < pv if lower[m] else cv > pv
            entry["change_wins"] = wins
            entry["traced_ratios"] = paired_ratios(traced["parent"], traced["change"])
        report["workloads"][name] = entry
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
