"""The benchmark's trace probe still finds every name it wraps.

``perfbench/probe.py`` wraps module attributes by name (``harness.estimate_once``,
``estimator.sample_truncation``, ``models.contracting_unbiased_block``, the
chains' ``_delta`` bindings, ...) before it runs the CLI.  A refactor that
unbinds one of them fails here, not only in the slow benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LINEAR2D = {"experiment": "indep-sampler", "params": {"model": "linear2d"}}


@pytest.mark.parametrize(
    "experiment, config",
    [
        ("contracting-normals", json.loads((ROOT / "configs/contracting-normals.json").read_text())),
        ("circle", None),
        ("pcn", None),
        ("indep-sampler", LINEAR2D),
        ("indep-sampler", json.loads((ROOT / "perfbench/configs/elliptic-is.json").read_text())),
    ],
    ids=["contracting-normals", "circle", "pcn", "indep-sampler-linear2d", "indep-sampler-elliptic"],
)
def test_trace_probe_runs_the_cli(tmp_path, experiment, config):
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
    if config is not None and config["params"].get("model") == "elliptic":
        # The chain steps still call the forward map through the wrapped
        # name; otherwise models.elliptic_forward_calls would read 0.
        calls = sum(
            row[2]
            for row in report["stats"]
            if row[0] == "models.elliptic_forward" and row[1] == "sample"
        )
        assert calls > 0
