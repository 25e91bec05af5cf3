"""Super-blocks: a worker task steps ``SUPER_BLOCK`` blocks' lanes as one
array, and every block still draws from its own streams, so each block
gives the bits it gives alone.  The plans whose lane rows go through BLAS
products run one block per task, and a run never starts more workers than
it has tasks.
"""

import concurrent.futures
import json
from pathlib import Path

import numpy as np
import pytest

from ubmc import harness
from ubmc.cli import main as cli_main
from ubmc.harness import BLOCK_SIZE, SUPER_BLOCK, ExperimentConfig, _config_key

ROOT = Path(__file__).resolve().parents[1]

HOLDER = {"experiment": "linear-gaussian", "params": {"a": 1.5, "coordinate": 3}}
PLANS = {
    "contracting-normals": "configs/contracting-normals.json",
    "circle": "configs/circle.json",
    "pcn": "configs/pcn.json",
    "linear-tail": "configs/linear-gaussian.json",
    "holder": HOLDER,
}
# Blocks 0..K+2: a full super-block, then two full blocks and a 5-lane tail.
COUNTS = [BLOCK_SIZE] * (SUPER_BLOCK + 2) + [5]


def _plan_key(case: str) -> str:
    config = PLANS[case]
    if isinstance(config, str):
        config = json.loads((ROOT / config).read_text())
    return _config_key(ExperimentConfig.from_dict(config))


def _bits(out: dict) -> dict:
    return {
        "N": out["N"],
        "z": out["z"].view(np.uint64),
        "work": out["work"].view(np.uint64),
        "level_max_dim": out["level_max_dim"],
    }


@pytest.mark.parametrize("case", sorted(PLANS))
def test_super_blocks_equal_separate_blocks(case):
    key, seed = _plan_key(case), 13
    tasks = [(0, COUNTS[:SUPER_BLOCK]), (SUPER_BLOCK, COUNTS[SUPER_BLOCK:])]
    joined = []
    for first, counts in tasks:
        got_first, out = harness._run_block_task(key, first, tuple(counts), seed)
        assert got_first == first
        alone = [
            harness._run_block_task(key, b, (count,), seed)[1]
            for b, count in enumerate(counts, start=first)
        ]
        # Some block stops short of its super-block's deepest level: with
        # one run per level (pcn, linear-gaussian), it never reaches the
        # deepest run, and the tail block's five lanes stop early too.
        tops = [int(block["N"].max()) for block in alone]
        assert min(tops) < max(tops), tops
        for name, values in _bits(out).items():
            expected = np.concatenate([_bits(block)[name] for block in alone])
            np.testing.assert_array_equal(values, expected, err_msg=f"{case} {name}")
        joined.append(out)
    assert sum(out["N"].size for out in joined) == sum(COUNTS)


@pytest.mark.parametrize("experiment", ["contracting-normals", "circle", "pcn"])
def test_cli_bytes_equal_across_parallel_degrees(tmp_path, experiment):
    # 2 K blocks and a 5-lane tail: three tasks, over one worker and three.
    replicates = 2 * SUPER_BLOCK * BLOCK_SIZE + 5
    outputs = []
    for parallel in (1, 3):
        out = tmp_path / f"p{parallel}"
        args = [experiment, "--config", str(ROOT / "configs" / f"{experiment}.json")]
        args += ["--replicates", str(replicates), "--seed", "7", "--out", str(out)]
        assert cli_main(args + ["--parallel", str(parallel)]) == 0
        csv = (out / f"{experiment}-draws.csv").read_bytes()
        summary = json.loads((out / f"{experiment}-summary.json").read_text())
        del summary["config"]["out"], summary["config"]["parallel"]
        outputs.append((csv, json.dumps(summary, indent=2, sort_keys=True)))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") == replicates + 1


def _task_blocks(monkeypatch, config: dict) -> list[int]:
    """The number of blocks each task of a serial run carries."""
    blocks = []
    task = harness._run_block_task

    def recording(key, first, counts, seed):
        blocks.append(len(counts))
        return task(key, first, counts, seed)

    monkeypatch.setattr(harness, "_run_block_task", recording)
    harness._run_blocks(ExperimentConfig.from_dict(config))
    return blocks


LOGISTIC = {"experiment": "logistic", "params": {"reference_draws": 10_000, "pilot_replicates": 50}}
ELLIPTIC = json.loads((ROOT / "perfbench/configs/elliptic-is.json").read_text())
LINEAR2D = {"experiment": "indep-sampler", "params": {"model": "linear2d"}}


@pytest.mark.parametrize("config", [LOGISTIC, ELLIPTIC, LINEAR2D], ids=["logistic", "elliptic", "linear2d"])
def test_blas_plans_run_one_block_per_task(monkeypatch, config):
    # Their BLAS products must see the rows a block alone gives them.
    assert config["experiment"] in harness.ONE_BLOCK_EXPERIMENTS
    config = dict(config, replicates=2 * BLOCK_SIZE + 5, seed=3)
    assert _task_blocks(monkeypatch, config) == [1, 1, 1]


def test_other_plans_run_super_blocks(monkeypatch):
    config = json.loads((ROOT / "configs/contracting-normals.json").read_text())
    config.update(replicates=2 * SUPER_BLOCK * BLOCK_SIZE + 5, seed=3)
    assert _task_blocks(monkeypatch, config) == [SUPER_BLOCK, SUPER_BLOCK, 1]


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
    config = json.loads((ROOT / "configs/contracting-normals.json").read_text())
    config.update(replicates=2 * SUPER_BLOCK * BLOCK_SIZE + 5, seed=3, parallel=64)
    _, records = harness._run_blocks(ExperimentConfig.from_dict(config))
    assert _SerialExecutor.max_workers == [3]
    assert records["N"].size == config["replicates"]
