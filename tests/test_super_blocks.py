"""Worker tasks: a task steps ``SUPER_BLOCK * BLOCK_SIZE`` replicates as one
lane array on the task's own stream, so a run's bytes do not depend on how
many workers share its tasks, and a run never starts more workers than it
has tasks.
"""

import concurrent.futures
import json
from pathlib import Path

import pytest

from ubmc import harness
from ubmc.cli import main as cli_main
from ubmc.harness import BLOCK_SIZE, SUPER_BLOCK, ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def _config(path: str) -> dict:
    return json.loads((ROOT / path).read_text())


# Every sampling plan: the chains of the generic driver, pcn, both
# linear-Gaussian and both independence-sampler models, and logistic with
# a short reference fit and pilot.
PLANS = {
    "contracting-normals": _config("configs/contracting-normals.json"),
    "circle": _config("configs/circle.json"),
    "pcn": _config("configs/pcn.json"),
    "linear-gaussian": _config("configs/linear-gaussian.json"),
    "elliptic-is": _config("perfbench/configs/elliptic-is.json"),
    "linear2d": {"experiment": "indep-sampler", "params": {"model": "linear2d"}},
    "logistic": {"experiment": "logistic", "params": {"reference_draws": 10_000, "pilot_replicates": 50}},
}


@pytest.mark.parametrize("case", sorted(PLANS))
def test_cli_bytes_equal_across_parallel_degrees(tmp_path, case):
    # Two full tasks and a 5-lane tail: three tasks, over one worker and three.
    config = PLANS[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    experiment = config["experiment"]
    replicates = 2 * SUPER_BLOCK * BLOCK_SIZE + 5
    outputs = []
    for parallel in (1, 3):
        out = tmp_path / f"p{parallel}"
        args = [experiment, "--config", str(path)]
        args += ["--replicates", str(replicates), "--seed", "7", "--out", str(out)]
        assert cli_main(args + ["--parallel", str(parallel)]) == 0
        csv = (out / f"{experiment}-draws.csv").read_bytes()
        summary = json.loads((out / f"{experiment}-summary.json").read_text())
        del summary["config"]["out"], summary["config"]["parallel"]
        outputs.append((csv, json.dumps(summary, indent=2, sort_keys=True)))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") == replicates + 1


def test_other_plans_run_super_blocks(monkeypatch):
    # Every plan alike: tasks of SUPER_BLOCK blocks' replicates, the last
    # taking the rest, each on the stream of its own index.
    calls = []
    task = harness._run_block_task

    def recording(key, index, count, seed):
        calls.append((index, count))
        return task(key, index, count, seed)

    monkeypatch.setattr(harness, "_run_block_task", recording)
    config = _config("configs/contracting-normals.json")
    config.update(replicates=2 * SUPER_BLOCK * BLOCK_SIZE + 5, seed=3)
    harness._run_blocks(ExperimentConfig.from_dict(config))
    assert calls == [(0, SUPER_BLOCK * BLOCK_SIZE), (1, SUPER_BLOCK * BLOCK_SIZE), (2, 5)]


class _SerialExecutor:
    """A process pool stand-in that starts no process: it records its
    worker count and runs the tasks in this process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_workers_capped_at_task_count(monkeypatch):
    # A fork start launches every worker at the first submit, so a
    # --parallel above the task count would fork workers with nothing to do.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialExecutor)
    monkeypatch.setattr(_SerialExecutor, "max_workers", [])
    config = _config("configs/contracting-normals.json")
    config.update(replicates=2 * SUPER_BLOCK * BLOCK_SIZE + 5, seed=3, parallel=64)
    _, records = harness._run_blocks(ExperimentConfig.from_dict(config))
    assert _SerialExecutor.max_workers == [3]
    assert records["N"].size == config["replicates"]
