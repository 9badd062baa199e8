import importlib.util
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
HELD_MIB = 64


def load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def child_peak_mib(cmd):
    """ru_maxrss, in MiB, that a Python child started by `cmd` reads of itself."""
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    return int(out) / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss across exec is Linux's")
def test_spawned_runs_read_their_own_peak_rss():
    # a parent holding HELD_MIB hands that mark to a child it execs directly;
    # through the spawn helper the child reads only its own size
    held = bytearray(HELD_MIB << 20)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >= HELD_MIB << 10
    child = [sys.executable, "-c",
             "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"]
    assert child_peak_mib(child) >= HELD_MIB
    assert child_peak_mib(load_recorder().spawn_command(child)) < HELD_MIB / 2
    del held


def test_spawn_command_passes_arguments_and_exit_code_through():
    spawn = load_recorder().spawn_command
    echo = [sys.executable, "-c", "import sys; print(sys.argv[1:]); sys.exit(3)",
            "two words", "$HOME", "'"]
    proc = subprocess.run(spawn(echo), capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout.strip() == repr(["two words", "$HOME", "'"])


def fake_run(seed, **metrics):
    return {"seed": seed, "result": {"metrics": {
        m: {"value": v, "unit": "s"} for m, v in metrics.items()}}}


def test_traced_runs_alternate_and_merge_by_median():
    recorder = load_recorder()
    order = list(recorder.alternating(["parent", "change"], [7, 8, 9]))
    assert order == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                     ("parent", 9), ("change", 9)]
    runs = [fake_run(7, a=0.3, b=5), fake_run(8, a=0.1, b=5), fake_run(9, a=0.2, b=6)]
    merged = recorder.median_metrics(runs)
    assert merged == {"seeds": [7, 8, 9], "result": {"metrics": {
        "a": {"value": 0.2, "unit": "s"}, "b": {"value": 5, "unit": "s"}}}}
    # one run is its own median, so a single traced run reads as before
    assert recorder.median_metrics(runs[:1])["result"] == runs[0]["result"]


def test_traced_pairs_keep_change_over_parent_ratios_per_seed():
    recorder = load_recorder()
    # the sides' runs arrive in alternating order, and the seeds pair them
    parent = [fake_run(7, a=0.2, b=5, z=0), fake_run(8, a=0.4, b=5, z=0),
              fake_run(9, a=0.1, b=4, z=0)]
    change = [fake_run(7, a=0.1, b=5, z=0), fake_run(9, a=0.1, b=2, z=3),
              fake_run(8, a=0.1, b=5, z=0)]
    paired = recorder.paired_ratios(parent, change)
    assert paired["seeds"] == [7, 9, 8]
    assert paired["metrics"] == {
        "a": {"ratios": [0.5, 1.0, 0.25], "median": 0.5},
        "b": {"ratios": [1.0, 0.5, 1.0], "median": 1.0},
        # 0 on both sides is no change; a count the parent never made has no ratio
        "z": {"ratios": [1.0, None, 1.0], "median": 1.0}}
    # a seed traced on one side only pairs with nothing
    assert recorder.paired_ratios(parent[:1], change)["seeds"] == [7]


def test_src_digest_follows_content_not_location(tmp_path):
    src_digest = load_recorder().src_sha256
    tree = tmp_path / "a"
    (tree / "src" / "pkg").mkdir(parents=True)
    (tree / "src" / "pkg" / "core.py").write_text("X = 1\n", encoding="utf-8")
    (tree / "src" / "pkg" / "__init__.py").write_text("", encoding="utf-8")
    (tree / "src" / "notes.txt").write_text("not code\n", encoding="utf-8")
    copy = tmp_path / "b"
    shutil.copytree(tree, copy)
    assert src_digest(copy) == src_digest(tree)
    (copy / "src" / "notes.txt").write_text("other\n", encoding="utf-8")
    assert src_digest(copy) == src_digest(tree)  # only .py files count
    (copy / "src" / "pkg" / "core.py").write_text("X = 2\n", encoding="utf-8")
    assert src_digest(copy) != src_digest(tree)
    # the same bytes under another name are other code
    (copy / "src" / "pkg" / "core.py").rename(copy / "src" / "pkg" / "main.py")
    (copy / "src" / "pkg" / "main.py").write_text("X = 1\n", encoding="utf-8")
    assert src_digest(copy) != src_digest(tree)
