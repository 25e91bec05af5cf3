"""Pinned output bytes: speed work on the samplers must not move a draw.

Each case runs ``--replicates 3000 --seed 5`` and compares the SHA-256 of
the draws CSV and of the summary JSON (re-serialized without the
``out`` and ``parallel`` config fields, which name the run, not its
result) with hashes recorded once a worker task's replicates all drew
from the task's one stream: the 3000 replicates are one task.
Acceptance probabilities go through BLAS products whose last bit depends
on the batch shape, so a draw could only move if a uniform fell within
that bit of a threshold.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ubmc.harness import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parents[1]

LINEAR2D = {"experiment": "indep-sampler", "params": {"model": "linear2d"}}
HOLDER = {"experiment": "linear-gaussian", "params": {"a": 1.5, "coordinate": 3}}

PINNED = {
    "elliptic-is": (
        "perfbench/configs/elliptic-is.json",
        "30f9e6db6cc7f2cdf40ffcf993a37b0f7a7eaa1161608ac000e1d1a4cf18e2bf",
        "b0ceaf3a3be1fb4bfd9093e10864ba9ac27363987f8e37fc25b60cd21fc9fedd",
    ),
    "indep-sampler": (
        "configs/indep-sampler.json",
        "30f9e6db6cc7f2cdf40ffcf993a37b0f7a7eaa1161608ac000e1d1a4cf18e2bf",
        "d656e5546910a172936fa9d42b99f64cef9952ed0dd2da7010f59384de50ef05",
    ),
    "linear2d": (
        LINEAR2D,
        "a4573f5021407c3dd8cc7108aafdf264177157c5c5b5f6411171d59e3247129d",
        "ae9e363cfd51d79148f590e87a3684dfd90b0a221f9faafa533b1aeb109f9493",
    ),
    # Logistic draws go through the log-density's BLAS row sums.  As with
    # alpha_star, the summary's reference_center and contraction_* come
    # from BLAS products whose last bit depends on the batch shape, so a
    # change of batching in the fit or the pilot can move them, and the
    # draws with them.
    "logistic-fit": (
        "perfbench/configs/logistic-fit.json",
        "19cca0dcdd39da2d3480568cbe5fec0c1cdfa2501856c8475e32ccfa77095de8",
        "9a15537f8a38e120544ee485e2dbd0c6c9de5dfe206ee5e719da80e4bc67e528",
    ),
    "contracting-normals": (
        "configs/contracting-normals.json",
        "f70ac24a74ed0fb9174a40c3ba39f1a60f2a6b207b743d9edf1711b4ea83a4c6",
        "20cc966d64a333f5d1d058b52de7977e043e85fa0837bd60057992751e454c5f",
    ),
    "circle": (
        "configs/circle.json",
        "8a1e75f4a25f950af22a54cd7c32b434e00c3c63bcdf97b499d1b4875283c49f",
        "0852cbb99056a3b337c2acb1e479a232b4d597769c78622069dd4274bfc4a201",
    ),
    "pcn": (
        "configs/pcn.json",
        "6014d8b75ff1df097f2a29e282779ece8d1b03dfd5f7d800981ca0bb6b6f3f79",
        "d4bfa7ac49e3019e7ac69eb3329c6b8d6eac1c1ab026738372c085e43db9ca8e",
    ),
    "linear-tail": (
        "configs/linear-gaussian.json",
        "cc0752114fa50faa0cf52911e234990ee628c470fd6288f476e3e4072ae86ee4",
        "a643dd7d7c491a5521c8fab7b5ef32cec80abb96d2ccf4032f922b65f746ca35",
    ),
    "holder": (
        HOLDER,
        "27117047074e7e6c396c8e51d1016c6ac780790ffbebb5abe6d39629ef41119f",
        "918a4f2643f5935c0f1ccfc31e3e1160fe076ac74c36da2dd0227e99c0a84e66",
    ),
}


def output_hashes(config: dict, out: Path, parallel: int) -> tuple[str, str]:
    config = dict(config, replicates=3000, seed=5, out=str(out), parallel=parallel)
    summary = run_experiment(ExperimentConfig.from_dict(config))
    csv = hashlib.sha256(Path(summary["csv_path"]).read_bytes()).hexdigest()
    written = json.loads(Path(summary["json_path"]).read_text())
    del written["config"]["out"], written["config"]["parallel"]
    text = json.dumps(written, indent=2, sort_keys=True)
    return csv, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_outputs_match_pinned_hashes(tmp_path, case):
    config, csv, summary = PINNED[case]
    if isinstance(config, str):
        config = json.loads((ROOT / config).read_text())
    assert output_hashes(config, tmp_path / "p1", 1) == (csv, summary)
    if case in ("elliptic-is", "logistic-fit"):  # one task: --parallel 2 starts no worker, same bytes
        assert output_hashes(config, tmp_path / "p2", 2) == (csv, summary)
