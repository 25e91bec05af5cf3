"""The benchmark's trace probe still finds every name it wraps.

``perfbench/probe.py`` wraps module attributes by name (``harness.estimate_once``,
``estimator.sample_truncation``, ``models.contracting_unbiased_block``, the
chains' ``_delta`` bindings, ...) before it runs the CLI.  A refactor that
unbinds one of them, or samples around one of them, fails here, not only
in the slow benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LINEAR2D = {"experiment": "indep-sampler", "params": {"model": "linear2d"}}
INDEP_STEPS = [
    "independence_sampler.delta",
    "independence_sampler.split_step",
    "independence_sampler.coupled_is_step",
]
GENERIC_STEPS = ["couplings.delta", "couplings.lone_step", "couplings.joint_step"]


def _config(path):
    return json.loads((ROOT / path).read_text())


# Each case names the wrapped layers its sampling must pass through.  A
# path that bypassed one of them (a lane kernel, say) would leave the
# benchmark's per-layer metrics reading 0; it fails here instead.
@pytest.mark.parametrize(
    "experiment, config, layers",
    [
        pytest.param(
            "contracting-normals", _config("configs/contracting-normals.json"),
            ["models.contracting_unbiased_block", *GENERIC_STEPS], id="contracting-normals",
        ),
        pytest.param("circle", None, GENERIC_STEPS, id="circle"),
        pytest.param(
            "pcn", None, ["pcn.delta", "pcn.pcn_step", "pcn.coupled_pcn_step"], id="pcn"
        ),
        pytest.param("indep-sampler", LINEAR2D, INDEP_STEPS, id="indep-sampler-linear2d"),
        pytest.param(
            "indep-sampler", _config("perfbench/configs/elliptic-is.json"),
            INDEP_STEPS + ["models.elliptic_forward"], id="indep-sampler-elliptic",
        ),
        pytest.param(
            "logistic", _config("perfbench/configs/logistic-fit.json"),
            GENERIC_STEPS + ["pcn.pcn_step", "models.logistic_posterior_logdensity"],
            id="logistic",
        ),
    ],
)
def test_trace_probe_runs_the_cli(tmp_path, experiment, config, layers):
    args = [experiment, "--replicates", "16"]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    result = tmp_path / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(result), "trace", "t", "--", *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["exit_code"] == 0
    assert report["draws"] == 16
    sample_calls = {
        row[0]: row[2] for row in report["stats"] if row[1] == "sample"
    }
    for name in ["estimator.sample_many", "rng.generator", *layers]:
        assert sample_calls.get(name, 0) > 0, name
