"""Pinned output bytes: speed work on the samplers must not move a draw.

Each case runs ``--replicates 3000 --seed 5`` and compares the SHA-256 of
the draws CSV and of the summary JSON (re-serialized without the
``out`` and ``parallel`` config fields, which name the run, not its
result) with hashes recorded before the independence-sampler lane step
and the elliptic forward map were rewritten (logistic: once its
log-density took its row sums as BLAS products).  Acceptance probabilities
go through BLAS products whose last bit depends on the batch shape, so a
draw could only move if a uniform fell within that bit of a threshold.
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
        "44f6a3565d58584af29b90c6944bf3b98ae7de9e23aa506901cf31a6cfc9587c",
        "671f02023e0fb3df04ce612c614e449fe0964649b359f3a077558d2f5b52bbe9",
    ),
    "indep-sampler": (
        "configs/indep-sampler.json",
        "44f6a3565d58584af29b90c6944bf3b98ae7de9e23aa506901cf31a6cfc9587c",
        "85cb1528e99d4e57f16db82890d2ce71b7b85cc5d7bdba226b658f37a08005de",
    ),
    "linear2d": (
        LINEAR2D,
        "00cef5c62cc20a52ee24ec9b6f525cd9bfec8a43bfeecb500b75456b0934dec9",
        "0308638c28b45cdddb11863cd7db3d8aed05cd8f5bc8eb86e96b1182b13ce9fb",
    ),
    # Logistic draws go through the log-density's BLAS row sums, pinned
    # since they replaced the reductions.  As with alpha_star, the
    # summary's reference_center and contraction_* come from BLAS products
    # whose last bit depends on the batch shape, so a change of batching
    # in the fit or the pilot can move them, and the draws with them.
    "logistic-fit": (
        "perfbench/configs/logistic-fit.json",
        "a4b6400ce0c8242c979a723c0a4698461016f04f77dde2af07d1181bde13b062",
        "46d0785ddd9f83ae8d78fd18bd23e0b49165584082963419c6afd91117389b3b",
    ),
    "contracting-normals": (
        "configs/contracting-normals.json",
        "27e722581a318b52278dbc9d06d714dcc8250912f6239348f056fb32fda8f323",
        "485af827c0232e35d45978a718e44c33f493ef444a016e195cbbd9bf784394db",
    ),
    # Recorded before linear-gaussian moved onto LevelSchedule and the
    # level difference took its work per step from the chain's kernel.
    "circle": (
        "configs/circle.json",
        "084ad2265f022ac707400cb8a3bc2c93fbb29f9e4f6314d4b25fb39bc60ac4fd",
        "1294f2eee77141866ef741825ff41707fb334f6215bf856119bae573bb2e7eaf",
    ),
    "pcn": (
        "configs/pcn.json",
        "82326e2efd4d43022315d46e18e72cf8026eff94a9f1c7dc76a9d89101208d29",
        "06febbef7fd0623e23b03b6e4417fd5f8acada5a97e0c9c3f211c20601a582e6",
    ),
    "linear-tail": (
        "configs/linear-gaussian.json",
        "fc3401151130b48674ef750320ebac39d05933764e4523b6c1b7cd46230ee080",
        "32104cbdc3918bb2337fe29d65cadaffd2686b45c05aca9940f2d0bfc3a4f5ad",
    ),
    "holder": (
        HOLDER,
        "2eeb75f8b8642621126e30cedcda212412f7181b9a3b6710ca6480e273c2d25e",
        "2234544b7cb96cb624356f04a8410928fa4cdd4e6cf1fd47fedb781f6fb090c5",
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
    if case in ("elliptic-is", "logistic-fit"):  # three blocks over two workers: the same bytes
        assert output_hashes(config, tmp_path / "p2", 2) == (csv, summary)
