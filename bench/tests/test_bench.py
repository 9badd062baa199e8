"""Tests of the benchmark itself: metrics, tracing coverage, failure modes.

    python3 -m pytest bench/tests

Tiny runs go through ``bench/run.py`` in a subprocess, as the benchmark is
run for real.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
from tracer import Tracer, cross_layer_bindings, projdyn_modules  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# layers each workload exists to exercise; a zero call count there means
# the boundary wrappers missed the work
LAYERS = {
    "plane-image-symbolic": ("coeff", "mpoly", "resultant", "dynamics"),
    "certificate-sweep-62bit": ("mpoly", "resultant", "dynamics"),
    "line-critical-orbits": ("mpoly", "resultant", "dynamics", "sympow"),
    "cli-queries": ("mpoly", "resultant", "dynamics", "sympow", "cli"),
}

_runs = {}


def tiny_run(workload, trace, attempt=0):
    key = (workload, trace, attempt)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "0", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        _runs[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _runs[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_exercised_layer_reads_calls(workload):
    metrics = tiny_run(workload, 1)["metrics"]
    for layer in LAYERS[workload]:
        calls = sum(v["value"] for k, v in metrics.items()
                    if k.startswith(layer + ".") and k.endswith((".calls", ".drawn")))
        assert calls > 0, f"{workload}: no calls into {layer}"
    assert metrics["trace.top_span_coverage"]["value"] >= 0.95


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counters_repeat(workload):
    first = tiny_run(workload, 1)["metrics"]
    second = tiny_run(workload, 1, attempt=1)["metrics"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counters = [k for k in first if units[k] != "s" and not k.startswith("trace.")]
    assert counters
    assert {k: first[k] for k in counters} == {k: second[k] for k in counters}


def test_tracer_wraps_every_cross_layer_binding():
    import workloads
    before = list(cross_layer_bindings(projdyn_modules() + [workloads]))
    assert len(before) > 20
    tracer = Tracer()
    tracer.install([workloads])
    try:
        for mod, name, fn, _ in before:
            wrapped = getattr(mod, name)
            assert wrapped is not fn and wrapped.__wrapped__ is fn, (mod, name)
        # the defining modules are left alone
        for mod, name, fn, layer in before:
            assert getattr(sys.modules[fn.__module__], fn.__name__) is fn
    finally:
        tracer.uninstall()
    assert all(getattr(mod, name) is fn for mod, name, fn, _ in before)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [("outer", 0, 100, -1, 0, False), ("inner", 10, 40, 0, 0, False),
                    ("inner", 50, 60, 0, 0, True)]
    by_name, top_ns = tracer.summary()
    assert by_name["outer"]["self_ns"] == 60 and by_name["inner"]["self_ns"] == 40
    assert by_name["inner"]["calls"] == 2 and by_name["inner"]["raised"] == 1
    assert top_ns == 100


def test_task_times_are_rescaled_unless_the_workload_opts_out():
    import run
    from workloads import Task, Workload
    for rescale in (True, False):
        wl = Workload([Task("sleep", lambda: time.sleep(0.01))], lambda outs: [True],
                      rescale)
        one = run.run_pass(wl)
        assert (one["scaled"] != one["times"]) == rescale
        assert one["speed"] == pytest.approx(one["scaled"][0] / one["times"][0])
    metrics, _ = run.end_to_end([{"times": [1.0, 3.0], "scaled": [0.5, 1.5]}],
                                [0.3, 0.5])
    assert metrics["run_s"] == (2.0, "s") and metrics["task_p50_s"] == (1.0, "s")
    assert metrics["setup_s"] == (0.4, "s")  # probes are not rescaled


@pytest.mark.parametrize("p, d", [(7, 2), (7, 3), (11, 2)])
def test_gcd_oracle_matches_brute_force_when_jacobian_splits(p, d):
    rng = Random(p * d)
    compared = 0
    for _ in range(300):
        f = [[rng.randrange(p) for _ in range(d + 1)] for _ in range(2)]
        if not (oracle.is_morphism(f, p) and any(oracle.jacobian(f, p))):
            continue
        brute = oracle.split_critical_periods(f, p)
        if brute == "nonsplit":
            continue
        compared += 1
        bound = 4
        assert oracle.least_critical_period(f, bound, p) == (
            brute if brute is not None and brute <= bound else None)
    assert compared > 10


def test_pcf_oracle_finds_the_rational_three_cycle():
    assert oracle.pcf_parameters(2, 3, None) == {-1}
    assert oracle.pcf_parameters(2, 5, None) == set()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
