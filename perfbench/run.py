"""Time-to-precision benchmark for the ubmc CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --quick [--workload NAME]

Each timed run is a fresh ``ubmc`` CLI process, because users pay import
and experiment preparation on every invocation.  A run keeps starting
processes, with seeds derived from ``--seed``, until ``--seconds`` is
spent, then reports timings pooled over the processes and divided by the
host's slowdown, which a calibration kernel timed between the processes
measures, and variance-based products from the median of the processes'
variances.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it describe the environment, every metric and every check.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates traced and untraced processes and reports the
per-layer metrics; the traced processes' spans and aggregates are written
to ``.perfbench/traces/``.  ``--quick`` runs every workload small in both
modes, runs every check, and checks that the metric names and units match
BENCHMARK.json.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))

# Every workload runs one single-threaded process at a time; BLAS may use
# at most this many threads, which is below nproc on every supported host.
BLAS_THREADS = 1
PROCESS_TIMEOUT_S = 120.0
# A run stops starting processes once this much time has gone, whatever
# --seconds says, so that it ends well within three minutes.
RUN_BUDGET_S = 150.0
# Seconds the calibration kernel takes at the reference host speed; every
# end-to-end timing is reported in seconds at that speed.
CALIBRATION_REFERENCE_S = SPEC["calibration"]["reference_s"]
# After each process the kernel runs until it has taken at least this
# share of the process's wall time, so that a run's slowdown rests on a
# fixed share of its time whatever the length of its processes.
CALIBRATION_SHARE = 0.25


@dataclass(frozen=True)
class Workload:
    experiment: str
    config: str
    replicates: int
    out: bool  # write the draws CSV and summary JSON
    identity_replicates: int  # replicates of the --parallel byte-identity check
    quick_replicates: int
    # Config params of the quick mode and of the byte-identity check.
    quick_params: dict | None = None


WORKLOADS = {
    "lanes-csv": Workload(
        "contracting-normals", "configs/contracting-normals.json", 250_000,
        out=True, identity_replicates=2 * 1024 + 1, quick_replicates=20_000,
    ),
    "elliptic-is": Workload(
        "indep-sampler", "perfbench/configs/elliptic-is.json", 1_024,
        out=False, identity_replicates=1024 + 1, quick_replicates=200,
    ),
    "logistic-fit": Workload(
        "logistic", "perfbench/configs/logistic-fit.json", 5_000,
        out=False, identity_replicates=1024 + 1, quick_replicates=300,
        quick_params={"rwm_steps": 10_000},
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


@dataclass
class Process:
    exit_code: int
    start: float  # perf_counter just before the process was started
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    stdout: bytes
    stderr: bytes


def run_process(argv: list[str], work: Path, tag: str) -> Process:
    """Run ``argv`` from the checkout root; time it and read its peak RSS."""
    out_path, err_path = work / f"{tag}.stdout", work / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Process(
        exit_code=code,
        start=start,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def cli_args(wl: Workload, config: str, seed: int, replicates: int, out: Path | None):
    args = [wl.experiment, "--config", config, "--seed", str(seed), "--replicates", str(replicates)]
    if out is not None:
        args += ["--out", str(out)]
    return args


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of the kinds of work the program does.

    The mix stands for the program's per-draw Python calls, its Philox
    generators, its small numpy operations and its CSV formatting.  It
    runs in the benchmark's own process and never imports the program, so
    a change to the program cannot move it; a change in the speed of the
    CPU it shares with the program moves both.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(2400):
        seq = np.random.SeedSequence(entropy=12345, spawn_key=(i, i % 7))
        x = np.random.Generator(np.random.Philox(seq)).standard_normal(32)
        acc += math.fsum(x) + float(np.dot(x, x)) + float(np.max(np.cumsum(x)))
        for j in range(40):
            acc += math.exp(-((j * 0.01 + acc * 1e-9) ** 2))
    rows = [",".join((str(i), format(acc / (i + 1), ".17g"), format(i * 0.1, ".17g")))
            for i in range(40_000)]
    values = np.random.Generator(np.random.Philox(3)).standard_normal(400_000)
    acc += float(np.sort(values)[-1]) + len("\n".join(rows))
    if not math.isfinite(acc):
        raise BenchError("the calibration kernel lost its result")
    return time.perf_counter() - start


@dataclass
class Sample:
    """One CLI process run under the probe."""

    traced: bool
    proc: Process
    probe: dict
    summary: dict
    z: np.ndarray
    problems: list[str]

    def total(self, name: str, phase: str | None = None) -> float:
        return sum(r[3] for r in self.probe["stats"] if r[0] == name and phase in (None, r[1]))

    def self_time(self, name: str, phase: str | None = None) -> float:
        return sum(r[4] for r in self.probe["stats"] if r[0] == name and phase in (None, r[1]))

    def calls(self, name: str, phase: str | None = None) -> int:
        return sum(r[2] for r in self.probe["stats"] if r[0] == name and phase in (None, r[1]))

    def counter(self, name: str, phase: str | None = None) -> float:
        return sum(r[2] for r in self.probe["counters"] if r[0] == name and phase in (None, r[1]))

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def prepare_s(self) -> float:
        return self.total("harness.prepare")

    @property
    def setup_s(self) -> float:
        """Seconds from starting the process to the end of preparation.

        perf_counter is the system-wide monotonic clock, so the probe's
        span ends and the parent's start time share one time line.
        """
        ends = [span[2] for span in self.probe["spans"] if span[0] == "harness.prepare"]
        return max(ends) - self.proc.start

    @property
    def sampling_s(self) -> float:
        """Time in run_experiment outside preparation and emission."""
        return self.total("harness.run_experiment") - self.prepare_s - self.total("harness.emit")


def run_sample(wl, config, seed, replicates, work, tag, traced) -> Sample:
    out_dir = work / f"{tag}-out" if wl.out else None
    result = work / f"{tag}.probe.json"
    argv = [sys.executable, str(BENCH_DIR / "probe.py"), str(result),
            "trace" if traced else "light", tag, "--"]
    proc = run_process(argv + cli_args(wl, config, seed, replicates, out_dir), work, tag)
    problems, probe, summary, z = [], {}, {}, np.empty(0)
    if proc.exit_code != 0:
        problems.append(f"exit code {proc.exit_code}: {proc.stderr.decode(errors='replace')[-500:]}")
    try:
        probe = json.loads(result.read_text(encoding="utf-8"))
        z = np.load(str(result) + ".z.npy")
        summary = json.loads(proc.stdout)
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable process output: {exc}")
    if not problems:
        problems += check_process(wl, replicates, probe, summary, z, out_dir)
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    return Sample(traced, proc, probe, summary, z, problems)


def check_process(wl, replicates, probe, summary, z, out_dir) -> list[str]:
    problems = []
    src = (ROOT / "src").resolve()
    if not Path(probe["ubmc_file"]).is_relative_to(src):
        problems.append(f"ubmc was imported from {probe['ubmc_file']}, not {src}")
    if summary.get("replicates") != replicates:
        problems.append(f"summary reports {summary.get('replicates')} replicates, asked {replicates}")
    if probe["draws"] != summary.get("replicates") or z.size != probe["draws"]:
        problems.append("the blocks did not return every replicate")
    if not probe["finite"]:
        problems.append("a draw has a non-finite z or work")
    if z.size and not math.isclose(float(np.mean(z)), summary["mean"], rel_tol=1e-9, abs_tol=1e-12):
        problems.append("the summary mean disagrees with the draws")
    if out_dir is not None:
        csv = out_dir / f"{wl.experiment}-draws.csv"
        js = out_dir / f"{wl.experiment}-summary.json"
        if not js.is_file():
            problems.append("no summary JSON written")
        if not csv.is_file() or csv.read_bytes().count(b"\n") != z.size + 1:
            problems.append("the draws CSV does not hold one row per replicate")
    return problems


def identity_check(wl: Workload, config: str, seed: int, work: Path) -> list[str]:
    """Reduced runs at --parallel 1 and 2 must write the same bytes.

    The runs span at least two blocks of 1024 replicates, so the blocks
    are spread over both workers and concatenated back in block order.
    ``config`` carries the quick mode's params, which shorten the
    reference fit of logistic-fit.

    The summary echoes its own config, so ``parallel`` and ``out`` are
    removed from it before comparing; everything else must match exactly.
    """
    files = []
    for parallel in (1, 2):
        out = work / f"identity-p{parallel}"
        argv = [sys.executable, "-m", "ubmc.cli"] + cli_args(wl, config, seed, wl.identity_replicates, out)
        proc = run_process(argv + ["--parallel", str(parallel)], work, f"identity-p{parallel}")
        if proc.exit_code != 0:
            return [f"identity run at --parallel {parallel} exited {proc.exit_code}"]
        csv = (out / f"{wl.experiment}-draws.csv").read_bytes()
        summary = json.loads((out / f"{wl.experiment}-summary.json").read_bytes())
        for key in ("parallel", "out"):
            summary["config"].pop(key)
        files.append((csv, json.dumps(summary, sort_keys=True)))
        shutil.rmtree(out, ignore_errors=True)
    problems = []
    if files[0][0] != files[1][0]:
        problems.append("draws CSV differs between --parallel 1 and 2")
    if files[0][1] != files[1][1]:
        problems.append("summary JSON differs between --parallel 1 and 2")
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def pooled_moments(samples: list[Sample]) -> dict:
    """Mean, variance and the standard errors of both over every draw."""
    z = np.concatenate([s.z for s in samples])
    n = z.size
    mean = float(np.mean(z))
    dev = z - mean
    var = float(dev @ dev) / (n - 1)
    m4 = float(np.mean(dev**4))
    # Var(s^2) = (mu4 - sigma^4 (n - 3) / (n - 1)) / n
    var_se = math.sqrt(max(m4 - var * var * (n - 3) / (n - 1), 0.0) / n)
    return {"n": n, "mean": mean, "se": math.sqrt(var / n), "variance": var, "variance_se": var_se}


def median_variance(samples: list[Sample]) -> float:
    return statistics.median(float(np.var(s.z, ddof=1)) for s in samples)


def end_to_end(samples: list[Sample], slowdown: float) -> dict:
    """Timings pooled over the run's processes, memory as their median.

    Every timing is in seconds at the reference host speed: seconds
    divided by the run's slowdown.  The host's speed drifts by up to 2x
    and stays slow for minutes, so raw seconds of the same code differ
    from run to run by more than any useful bound; the slowdown measured
    on the same CPU over the same run tracks that drift.  The work and the
    seconds per draw pool every draw.

    The two products take the median of the processes' sample variances,
    not the pooled variance: a single draw in the far tail of ``Z`` moves
    the pooled variance of a run by more than any useful bound (on
    elliptic-is, one ``|z|`` of 250 among 10^4 draws otherwise below 12
    took a run's pooled figure from 5.7 to 74), but moves the median of
    ten processes little.
    """
    draws = sum(s.probe["draws"] for s in samples)
    work_per_draw = sum(s.probe["work_sum"] for s in samples) / draws
    seconds_per_draw = sum(s.sampling_s for s in samples) / draws / slowdown
    variance = median_variance(samples)
    return {
        "wall_s": statistics.fmean(s.proc.wall_s for s in samples) / slowdown,
        "setup_s": statistics.median(s.setup_s for s in samples) / slowdown,
        "draws_per_s": 1.0 / seconds_per_draw,
        "var_wall_product": variance * seconds_per_draw,
        "msework_product": variance * work_per_draw,
        "peak_rss_mb": statistics.median(s.proc.peak_rss_mb for s in samples),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layers(s: Sample) -> dict:
    """Per-layer metrics of one traced process."""
    sample = "sample"
    run = s.total("harness.run_experiment")
    draws = s.probe["draws"]
    pcn_lone = s.calls("pcn.sampler_step", sample)
    is_split = s.calls("independence_sampler.split_step", sample)
    is_joint = s.calls("independence_sampler.coupled_is_step", sample)
    return {
        "cli.startup_s": s.proc.wall_s - run,
        "harness.prepare_s": s.prepare_s,
        "harness.blocks": s.calls("harness.block"),
        "harness.block_s": s.total("harness.block"),
        "harness.aggregate_s": s.self_time("harness.run_experiment"),
        "harness.emit_s": s.total("harness.emit"),
        "harness.emit_rows": s.counter("harness.emit_rows"),
        "harness.emit_bytes": s.counter("harness.emit_bytes"),
        "estimator.draws": draws,
        "estimator.levels": s.probe["levels"],
        "estimator.self_s": s.self_time("estimator.estimate_once"),
        "estimator.truncation_s": s.total("estimator.sample_truncation", sample)
        + s.total("estimator.sample_many", sample),
        "estimator.expected_work": ratio(s.probe["work_sum"], draws),
        "estimator.work_per_s": ratio(s.probe["work_sum"], s.sampling_s),
        "rng.generators": s.calls("rng.generator"),
        "rng.generators_per_draw": ratio(s.calls("rng.generator", sample), draws),
        "rng.generator_s": s.total("rng.generator"),
        "couplings.lone_steps": s.calls("couplings.lone_step", sample),
        "couplings.joint_steps": s.calls("couplings.joint_step", sample),
        "couplings.lone_s": s.total("couplings.lone_step", sample),
        "couplings.joint_s": s.total("couplings.joint_step", sample),
        "couplings.pilot_s": s.total("couplings.estimate_contraction"),
        # A lone step is one pcn_step; a joint step is two, one per chain.
        "pcn.lone_steps": pcn_lone,
        "pcn.joint_steps": (s.calls("pcn.pcn_step", sample) - pcn_lone) / 2,
        "pcn.step_s": s.total("pcn.pcn_step", sample),
        "pcn.accept_ratio": ratio(s.counter("pcn.accepts", sample), s.counter("pcn.steps", sample)),
        # Each coupled step makes two split steps, one per chain.
        "independence_sampler.lone_steps": is_split - 2 * is_joint,
        "independence_sampler.joint_steps": is_joint,
        "independence_sampler.step_self_s": sum(
            s.self_time(f"independence_sampler.{name}", sample)
            for name in ("split_step", "coupled_is_step", "draw_randomness")
        ),
        "independence_sampler.sync_ratio": ratio(
            s.counter("independence_sampler.sync", sample), is_joint
        ),
        "independence_sampler.minorize_ratio": ratio(
            s.counter("independence_sampler.minorize", sample), is_split
        ),
        "models.lanes_block_s": s.total("models.contracting_unbiased_block"),
        "models.elliptic_forward_calls": s.calls("models.elliptic_forward"),
        "models.elliptic_forward_s": s.total("models.elliptic_forward"),
        "models.logistic_logdensity_calls": s.calls("models.logistic_posterior_logdensity"),
        "models.logistic_logdensity_s": s.total("models.logistic_posterior_logdensity"),
        "models.reference_fit_s": s.total("models.logistic_reference_fit"),
    }


def module_self_times(s: Sample) -> dict:
    """Self time per module; with cli.startup_s they add up to the wall time."""
    out = {"cli.startup": s.proc.wall_s - s.total("harness.run_experiment")}
    for name, _, _, _, self_s in s.probe["stats"]:
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + self_s
    return out


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    import scipy

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def prepare_config(wl: Workload, work: Path, quick: bool) -> str:
    if not (quick and wl.quick_params):
        return wl.config
    raw = json.loads((ROOT / wl.config).read_text(encoding="utf-8"))
    raw["params"].update(wl.quick_params)
    path = work / "quick-config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool, work: Path):
    wl = WORKLOADS[name]
    config = prepare_config(wl, work, quick)
    replicates = wl.quick_replicates if quick else wl.replicates
    checks = identity_check(wl, prepare_config(wl, work, True), seed, work)
    # The timed processes and the calibration kernel share one CPU, which
    # the processes inherit from this one: the two CPUs of a shared host
    # slow down separately, so a kernel timed on the other CPU would not
    # track the program's slowdown.  The kernel runs between processes;
    # the run's slowdown is its mean time over its reference time.  Bursts
    # shorter than a process average out over the run, and a kernel time
    # next to one process tracks them worse than it tracks the spells of
    # tens of seconds that move a whole run.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        start = time.perf_counter()
        samples: list[Sample] = []
        calibration = [calibration_kernel()]
        while True:
            traced = trace and len(samples) % 2 == 0
            k = len(samples)
            sample = run_sample(wl, config, seed * 1000 + k, replicates, work, f"p{k}", traced)
            gap = 0.0
            while gap < CALIBRATION_SHARE * sample.proc.wall_s or gap == 0.0:
                calibration.append(calibration_kernel())
                gap += calibration[-1]
            samples.append(sample)
            elapsed = time.perf_counter() - start
            typical = (1.0 + CALIBRATION_SHARE) * statistics.median(s.proc.wall_s for s in samples)
            need_pair = trace and not all(any(s.traced is t for s in samples) for t in (True, False))
            if need_pair and elapsed < RUN_BUDGET_S:
                continue
            if elapsed + typical > seconds or elapsed > RUN_BUDGET_S:
                break
    finally:
        os.sched_setaffinity(0, allowed)
    slowdown = statistics.fmean(calibration) / CALIBRATION_REFERENCE_S
    return wl, samples, checks, calibration, slowdown


def mean_check(name: str, moments: dict) -> list[str]:
    ref = SPEC["reference"][name]
    limit = SPEC["tolerance_se"] * math.hypot(moments["se"], ref["se"])
    gap = abs(moments["mean"] - ref["mean"])
    if gap > limit:
        return [f"mean {moments['mean']:.6g} is {gap:.3g} from the reference {ref['mean']:.6g}"
                f" (limit {limit:.3g})"]
    return []


def report(name, seed, seconds, trace, quick, work) -> dict:
    """Run one workload and return the result object of the last output line."""
    wl, samples, checks, calibration, slowdown = run_workload(name, seed, seconds, trace, quick, work)
    units = declared_metrics(trace)
    failed = [s for s in samples if not s.ok]
    for k, s in enumerate(samples):
        checks += [f"process {k}: {p}" for p in s.problems]
    good = [s for s in samples if s.ok]
    if not good or not any(s.traced == trace for s in good) or not any(not s.traced for s in good):
        raise BenchError(f"{name}: too few processes succeeded: {checks}")
    moments = pooled_moments(good)
    checks += mean_check(name, moments)
    untraced = [s for s in good if not s.traced]
    values = end_to_end(untraced, slowdown)
    print(f"# workload {name} seed {seed}: {len(samples)} processes "
          f"({sum(s.traced for s in samples)} traced), {len(failed)} failed, "
          f"failed_share {len(failed) / len(samples):.3g}")
    print(f"# pooled over {moments['n']} draws: mean {moments['mean']:.6g} "
          f"(se {moments['se']:.3g}), variance {moments['variance']:.6g} "
          f"(se {moments['variance_se']:.3g}, {ratio(moments['variance_se'], moments['variance']):.2%}); "
          f"median variance of the untraced processes {median_variance(untraced):.6g}")
    walls = sorted(s.proc.wall_s for s in untraced)
    cpu = sum(s.proc.cpu_s for s in untraced) / sum(walls)
    print(f"# raw wall seconds per untraced process: median {statistics.median(walls):.4g}, "
          f"min {walls[0]:.4g}, max {walls[-1]:.4g}, n {len(walls)}; cpu/wall {cpu:.3f}")
    print(f"# host slowdown over the run: {slowdown:.4g} (calibration kernel "
          f"{CALIBRATION_REFERENCE_S} s = 1; {len(calibration)} kernel runs, "
          f"min {min(calibration):.4g} s, max {max(calibration):.4g} s)")
    e2e_units = declared_metrics(False)
    for key, value in values.items():
        print(f"# {key} {value:.6g} {e2e_units.get(key, '?')}")
    if trace:
        values = trace_report(name, seed, good, moments, values["wall_s"], slowdown, checks)
        for key, value in values.items():
            print(f"# {key} {value:.6g} {units.get(key, '?')}")
    if set(values) != set(units):
        checks.append(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    for problem in checks:
        print(f"# CHECK FAILED: {problem}")
    return {
        "correct": not checks,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }


def trace_report(name, seed, good, moments, untraced_wall, slowdown, checks) -> dict:
    traced = [s for s in good if s.traced]
    per_process = [layers(s) for s in traced]
    metrics = {key: statistics.median(p[key] for p in per_process) for key in per_process[0]}
    metrics["estimator.variance_rel_se"] = ratio(moments["variance_se"], moments["variance"])
    metrics["trace.wall_s"] = statistics.fmean(s.proc.wall_s for s in traced) / slowdown
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    for s in traced:
        accounted = sum(module_self_times(s).values())
        if not math.isclose(accounted, s.proc.wall_s, rel_tol=1e-6):
            checks.append(f"self times add up to {accounted:.6f} s, not the wall {s.proc.wall_s:.6f} s")
    first = traced[0]
    print(f"# self time by module in one traced process (wall {first.proc.wall_s:.4f} s):")
    for module, value in sorted(module_self_times(first).items(), key=lambda kv: -kv[1]):
        print(f"#   {module:<22} {value:9.4f} s  {value / first.proc.wall_s:6.1%}")
    trace_dir = ROOT / ".perfbench" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{name}-seed{seed}.json"
    trace_path.write_text(json.dumps([s.probe for s in traced]), encoding="utf-8")
    print(f"# spans and aggregates of the traced processes: {trace_path.relative_to(ROOT)}")
    return metrics


def declared_metrics(trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def quick(names: list[str], seed: int, work: Path) -> dict:
    """Every named workload, small, in both modes; one process per mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    mapped = [m for layer in SPEC["layers"].values() for m in layer["metrics"]]
    problems = []
    if sorted(mapped) != sorted(m["name"] for m in bench["per_layer"]):
        problems.append("spec.json's layer map and BENCHMARK.json's per_layer metrics differ")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json's workloads differ from run.py's")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    total = {"correct": not problems, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (False, True):
            result = report(name, seed, 0.0, trace, True, work)
            print(f"# quick {name} trace={int(trace)}: correct={result['correct']}")
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload small, in both modes, and run every check")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    missing = [p for p in ["src/ubmc/cli.py"] + [w.config for w in WORKLOADS.values()]
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: the program is not in this checkout: missing {missing}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(), sort_keys=True))
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # Compile the package once so that no timed process writes bytecode.
        subprocess.run([sys.executable, "-c", "import ubmc.cli"], cwd=ROOT, env=child_env(),
                       check=True, timeout=PROCESS_TIMEOUT_S)
        if args.quick:
            result = quick([args.workload] if args.workload else list(WORKLOADS), args.seed, work)
        else:
            result = report(args.workload, args.seed, args.seconds, bool(args.trace), False, work)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] or not args.quick else 1


if __name__ == "__main__":
    sys.exit(main())
