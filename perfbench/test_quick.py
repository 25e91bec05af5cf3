"""Tests of the benchmark itself; run with ``python3 -m pytest -q perfbench/test_quick.py``.

They are outside the ``tests`` testpath, so the tier-1 run does not
collect them.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", BENCH_DIR / "probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_self_times_add_up_and_phases_split():
    probe = load_probe()
    tracer = probe.Tracer("t")

    def leaf():
        time.sleep(0.01)

    timed_leaf = tracer.timed(leaf, "m.leaf")

    def middle():
        timed_leaf()
        time.sleep(0.01)
        timed_leaf()

    timed_middle = tracer.timed(middle, "m.middle", phase=probe.SAMPLE)
    outer = tracer.timed(lambda: timed_middle(), "m.outer", span=True)
    outer()

    stats = {(name, phase): v for (name, phase), v in tracer.stats.items()}
    assert stats[("m.leaf", probe.SAMPLE)][0] == 2
    assert ("m.leaf", probe.OTHER) not in stats
    count, total, self_time = stats[("m.middle", probe.SAMPLE)]
    assert count == 1 and 0.009 < self_time < total - 0.019
    outer_total = stats[("m.outer", probe.OTHER)][1]
    assert abs(sum(v[2] for v in stats.values()) - outer_total) < 1e-9
    assert tracer.phase == probe.OTHER
    assert [span[0] for span in tracer.spans] == ["m.outer"]


def test_quick_mode_runs_every_workload_and_check():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # One process untraced and two (traced and untraced) in the trace mode.
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3 * len(bench["workloads"])
    for workload in bench["workloads"]:
        assert f"# quick {workload['name']} trace=1: correct=True" in proc.stdout
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert f"# {metric['name']} " in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lanes-csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
