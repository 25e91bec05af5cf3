"""Run the ``ubmc`` CLI in this process with timers around its layers.

    python3 perfbench/probe.py RESULT_JSON {light|trace} RUN_ID -- <ubmc cli arguments>

The probe wraps, from outside, the names that each module's callers
resolve at call time (module globals, class attributes and the
``harness.EXPERIMENTS`` table), then calls ``ubmc.cli.main``.  Nothing in
``src/`` is edited.

``light`` wraps only the coarse entry points, each called once per run or
once per block of 1024 replicates: ``run_experiment``, the experiment's
prepare function, ``_run_block_task`` and ``_write_outputs``.  The parent
takes its end-to-end metrics from these runs.  ``trace`` also wraps the
per-draw and per-step calls of every module.  Hot calls are kept as
per-name aggregates (count, total, self time); coarse calls are also kept
as spans (name, start, end, parent, run id).

On exit the probe writes RESULT_JSON and, next to it, the per-draw ``z``
values as ``<RESULT_JSON>.z.npy`` so the parent can pool moments.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

SETUP, SAMPLE, OTHER = "setup", "sample", "other"


class Tracer:
    """Self-time accounting over a stack of wrapped calls.

    A call's self time is its duration minus the durations of the wrapped
    calls it made.  Aggregates are keyed by (name, phase), where the phase
    is ``setup`` inside the experiment's prepare function, ``sample``
    inside a block, and ``other`` elsewhere.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = OTHER
        self.stack: list[list[float]] = []  # per active call: [child seconds]
        self.span_stack: list[int] = []
        self.stats: dict[tuple[str, str], list] = {}
        self.counters: dict[tuple[str, str], float] = {}
        self.spans: list[tuple] = []

    def count(self, name: str, amount: float = 1) -> None:
        key = (name, self.phase)
        self.counters[key] = self.counters.get(key, 0) + amount

    def timed(self, fn, name, *, span=False, phase=None, observe=None):
        """Return ``fn`` wrapped with timing; ``observe(args, result)`` runs after."""
        stack, stats, span_stack, spans = self.stack, self.stats, self.span_stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            saved_phase = self.phase
            if phase is not None:
                self.phase = phase
            frame = [0.0]
            stack.append(frame)
            if span:
                span_id = len(spans)
                parent = span_stack[-1] if span_stack else None
                spans.append(None)
                span_stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                key = (name, self.phase)
                agg = stats.get(key)
                if agg is None:
                    agg = stats[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
                if span:
                    span_stack.pop()
                    spans[span_id] = (name, start, end, parent, self.run_id)
                self.phase = saved_phase
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def wrap(self, owner, attr, name, **options):
        setattr(owner, attr, self.timed(getattr(owner, attr), name, **options))


class DrawLog:
    """Per-draw columns of every block, in block order."""

    def __init__(self):
        self.z: list[np.ndarray] = []
        self.work: list[np.ndarray] = []
        self.levels: list[np.ndarray] = []

    def observe_block(self, args, result):
        _, out = result
        self.z.append(np.asarray(out["z"], dtype=float))
        self.work.append(np.asarray(out["work"], dtype=float))
        self.levels.append(np.asarray(out["N"], dtype=np.int64))

    def columns(self):
        def cat(parts, dtype):
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        return cat(self.z, float), cat(self.work, float), cat(self.levels, np.int64)


def install_light(tracer: Tracer, draws: DrawLog, experiment: str) -> None:
    from ubmc import cli, harness

    tracer.wrap(cli, "run_experiment", "harness.run_experiment", span=True)
    prepare = harness.EXPERIMENTS.get(experiment)
    if prepare is not None:
        harness.EXPERIMENTS[experiment] = tracer.timed(
            prepare, "harness.prepare", span=True, phase=SETUP
        )
    tracer.wrap(
        harness, "_run_block_task", "harness.block",
        span=True, phase=SAMPLE, observe=draws.observe_block,
    )

    def observe_emit(args, result):
        config, records, summary = args
        tracer.count("harness.emit_rows", int(next(iter(records.values())).size))
        for key in ("csv_path", "json_path"):
            if key in summary:
                tracer.count("harness.emit_bytes", os.path.getsize(summary[key]))

    tracer.wrap(harness, "_write_outputs", "harness.emit", span=True, observe=observe_emit)


def install_trace(tracer: Tracer) -> None:
    from ubmc import couplings, estimator, harness, independence_sampler, models, pcn, rng

    tracer.wrap(harness, "estimate_once", "estimator.estimate_once")
    tracer.wrap(estimator, "sample_truncation", "estimator.sample_truncation")
    tracer.wrap(estimator.SurvivalDistribution, "sample_many", "estimator.sample_many")
    tracer.wrap(rng.Stream, "generator", "rng.generator")

    # The generic driver receives its kernel and coupling as arguments, so
    # the lone and joint phases are timed by handing it wrapped copies.
    delta = couplings._delta
    copies: dict[tuple[int, int], tuple] = {}

    def delta_with_timed_steps(kernel, coupling, *rest):
        key = (id(kernel), id(coupling))
        entry = copies.get(key)
        if entry is None:
            entry = copies[key] = (
                dataclasses.replace(
                    kernel, step=tracer.timed(kernel.step, "couplings.lone_step")
                ),
                dataclasses.replace(
                    coupling, step=tracer.timed(coupling.step, "couplings.joint_step")
                ),
                kernel,  # keeps the originals alive so their ids stay unique
                coupling,
            )
        return delta(entry[0], entry[1], *rest)

    couplings._delta = tracer.timed(delta_with_timed_steps, "couplings.delta")
    tracer.wrap(harness, "estimate_contraction", "couplings.estimate_contraction", span=True)

    def observe_pcn_step(args, result):
        # pcn_step returns its input state object when it rejects.
        tracer.count("pcn.steps")
        if result is not args[2]:
            tracer.count("pcn.accepts")

    tracer.wrap(pcn, "_delta", "pcn.delta")
    tracer.wrap(pcn, "sampler_step", "pcn.sampler_step")
    tracer.wrap(pcn, "coupled_pcn_step", "pcn.coupled_pcn_step")
    tracer.wrap(pcn, "pcn_step", "pcn.pcn_step", observe=observe_pcn_step)

    minorize = independence_sampler.Branch.MINORIZE

    def observe_split(args, result):
        if result[1] is minorize:
            tracer.count("independence_sampler.minorize")

    def observe_coupled(args, result):
        branches = result[1]
        if branches[0] is branches[1]:
            tracer.count("independence_sampler.sync")

    tracer.wrap(independence_sampler, "_delta", "independence_sampler.delta")
    tracer.wrap(independence_sampler, "draw_randomness", "independence_sampler.draw_randomness")
    tracer.wrap(independence_sampler, "split_step", "independence_sampler.split_step", observe=observe_split)
    tracer.wrap(
        independence_sampler, "coupled_is_step", "independence_sampler.coupled_is_step",
        observe=observe_coupled,
    )

    tracer.wrap(models, "contracting_unbiased_block", "models.contracting_unbiased_block")
    tracer.wrap(models, "elliptic_forward", "models.elliptic_forward")
    tracer.wrap(models, "logistic_posterior_logdensity", "models.logistic_posterior_logdensity")
    tracer.wrap(models, "logistic_reference_fit", "models.logistic_reference_fit", span=True)


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--" or argv[1] not in ("light", "trace"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    result_path, mode, run_id, cli_args = Path(argv[0]), argv[1], argv[2], argv[4:]
    import ubmc
    from ubmc import cli

    tracer = Tracer(run_id)
    draws = DrawLog()
    install_light(tracer, draws, cli_args[0] if cli_args else "")
    if mode == "trace":
        install_trace(tracer)
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        z, work, levels = draws.columns()
        np.save(str(result_path) + ".z.npy", z)
        result = {
            "exit_code": code,
            "ubmc_file": str(Path(ubmc.__file__).resolve()),
            "draws": int(z.size),
            "levels": int(levels.sum() + levels.size),
            "work_sum": float(work.sum()),
            "finite": bool(np.all(np.isfinite(z)) and np.all(np.isfinite(work))),
            "stats": [[n, p, *v] for (n, p), v in tracer.stats.items()],
            "counters": [[n, p, v] for (n, p), v in tracer.counters.items()],
            "spans": tracer.spans,
        }
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
