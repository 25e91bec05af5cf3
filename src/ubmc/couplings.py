"""Generic coupled-chain machinery.

The unbiased estimator needs level differences whose expectations
telescope to the equilibrium expectation of a Markov chain.  They are
produced here from a simulatable coupling: the level-``i`` difference runs
a "top" chain for ``a_i`` steps and a "bottom" chain for ``a_{i-1}`` steps,
evolving the pair jointly over the final ``a_{i-1}`` steps so that a
contracting coupling drives ``f(top) - f(bottom)`` to zero geometrically.
Levels that share both dimensions and the lone-phase length form a run,
and one driver steps every pair of a run, of one block or of several, as
one lane array.

Also provided: a least-squares contraction-rate estimator and the level
schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .rng import Stream, lane_rng

__all__ = [
    "MarkovKernel",
    "CoupledKernel",
    "LevelSchedule",
    "contraction_delta_batch",
    "level_runs",
    "pad_to",
    "estimate_contraction",
    "ContractionFit",
]


@dataclass
class MarkovKernel:
    """One-step transition ``x -> x'``.

    ``step`` draws the next state from ``P(x, .)`` using the supplied
    generator.  Kernels on a fixed space also take lanes: an array with a
    leading lane axis steps every lane independently with the law of a
    one-state step, drawing the lanes' randomness in one call.
    """

    step: Callable[[object, np.random.Generator], object]
    work_per_step: float = 1.0


@dataclass
class CoupledKernel:
    """Joint one-step transition ``(x, y) -> (x', y')``.

    Each marginal of one coupled step must be distributed as one step of
    the chain's own :class:`MarkovKernel`; shared-randomness couplings on a
    fixed space should also be faithful (``x == y`` implies ``x' == y'``).
    """

    step: Callable[[tuple, np.random.Generator], tuple]


class LevelSchedule:
    """Paired level sequences: steps ``a_i`` and dimensions ``j_i``.

    ``a_0`` and ``j_0`` are at least 1, both sequences are nondecreasing,
    and every level raises ``a_i`` or ``j_i``; so a fixed-space schedule
    (``j`` constant, the default) needs strictly increasing steps.  Both
    are supplied as callables or sequences and validated lazily, as one
    cache of ``(a_i, j_i)`` pairs, on the queried prefix.
    """

    def __init__(self, steps, dims=None):
        self._steps = steps if callable(steps) else list(steps).__getitem__
        dims = (lambda i: 1) if dims is None else dims
        self._dims = dims if callable(dims) else list(dims).__getitem__
        self._levels: list[tuple[int, int]] = []

    @classmethod
    def arithmetic(cls, m: int, dims=None) -> "LevelSchedule":
        """``a_i = m * (i + 1)`` for a positive integer ``m``."""
        if m < 1:
            raise ValueError("m must be a positive integer")
        return cls(lambda i: m * (i + 1), dims)

    def steps_at(self, i: int) -> int:
        return self._level(i)[0]

    def dims_at(self, i: int) -> int:
        return self._level(i)[1]

    def _level(self, i: int) -> tuple[int, int]:
        if i < 0:
            raise ValueError("level index must be >= 0")
        levels = self._levels
        while len(levels) <= i:
            k = len(levels)
            a, j = int(self._steps(k)), int(self._dims(k))
            if not levels:
                if a < 1 or j < 1:
                    raise ValueError(f"need a_0, j_0 >= 1; got a_0 = {a}, j_0 = {j}")
            elif a < levels[-1][0] or j < levels[-1][1] or (a, j) == levels[-1]:
                raise ValueError(
                    f"a and j must be nondecreasing with one of them rising at every "
                    f"level; (a, j) goes from {levels[-1]} to {(a, j)} at level {k}"
                )
            levels.append((a, j))
        return levels[i]


def contraction_delta_batch(
    kernel: MarkovKernel,
    coupling: CoupledKernel,
    schedule: LevelSchedule,
    f: Callable[[np.ndarray], np.ndarray],
    x0,
) -> Callable[[list, Callable[[int], list]], list]:
    """Coupled level differences of a fixed-space chain, as the
    ``delta_batch`` of :func:`~ubmc.estimator.estimate_block`.

    A level-``i`` pair runs its top chain alone for ``a_i - a_{i-1}``
    steps from ``x0``, then jointly with a bottom chain from ``x0`` for
    ``a_{i-1}`` steps, and returns ``f(top) - f(bottom)`` (level 0: ``f``
    after ``a_0`` steps) with work ``a_i * kernel.work_per_step``.  Each
    run of levels steps as one array of states tiled from ``x0`` (or a
    dataclass of arrays, tiled as :func:`_tile` does), so the steps and
    ``f`` must act on a leading lane axis.
    """
    # _delta is looked up at call time, as the benchmark's trace probe needs.
    return _run_batches(schedule, lambda first, counts, rngs: _delta(
        kernel, coupling, schedule, first, counts, _tile(x0, sum(map(sum, counts))), f, rngs,
    ))


def _delta(kernel, coupling, schedule, first, counts, x0, f, rngs):
    # The kernel's own step functions are handed through unwrapped: the
    # inner loops are the hot path of every generic chain.
    return _level_difference(
        schedule, first, counts, x0, f, rngs,
        lambda j: kernel, lambda j_lo, j_hi: coupling.step, lambda x, j: x,
    )


def level_runs(schedule: LevelSchedule, top: int) -> list[range]:
    """Levels ``0..top`` cut into runs, from the schedule alone.

    A run is a maximal range of levels sharing the top dimension ``j_i``,
    the bottom dimension ``j_{i-1}`` and the lone-phase length
    ``a_i - a_{i-1}`` (``a_{-1} = 0``); level 0 joins level 1's run when
    ``j_0 = j_1`` and ``a_0 = a_1 - a_0``.  Arithmetic steps in one
    dimension make every level one run; strictly growing dimensions make
    every level its own.
    """

    def key(i):
        if i == 0:
            return schedule.dims_at(0), schedule.dims_at(0), schedule.steps_at(0)
        return (
            schedule.dims_at(i), schedule.dims_at(i - 1),
            schedule.steps_at(i) - schedule.steps_at(i - 1),
        )

    runs, first, previous = [], 0, key(0)
    for i in range(1, top + 1):
        current = key(i)
        if current != previous:
            runs.append(range(first, i))
            first = i
        previous = current
    runs.append(range(first, top + 1))
    return runs


def _run_batches(schedule: LevelSchedule, run_delta: Callable) -> Callable:
    """A ``delta_batch`` that calls ``run_delta(first, counts, rngs)`` once
    per run of :func:`level_runs`: ``counts`` lists the run's per-level
    counts of each block that reaches it, and ``rngs`` those blocks'
    ``level_rng(first)``.  It joins the runs' per-level results."""

    def delta_batch(counts: list, level_rng: Callable) -> list:
        levels = []
        for run in level_runs(schedule, len(counts[0]) - 1):
            live = [row[run.start : run.stop] for row in counts if row[run.start]]
            levels += run_delta(run.start, live, level_rng(run.start))
        return levels

    return delta_batch


def _level_difference(schedule, first, counts, x0, f, rngs, kernel, joint, embed):
    """The lone and joint phases of one run of levels, shared by every chain.

    The run is levels ``first, first + 1, ...``, ``counts[b][k]`` pairs of
    chains of block ``b`` at level ``first + k``, all sharing ``j_i``,
    ``j_{i-1}`` and ``a_i - a_{i-1}`` (one level is always a run);
    ``rngs`` lists the blocks' generators.  ``kernel(j)`` is the chain's
    :class:`MarkovKernel` at dimension ``j``, whose step the lone phase
    takes and whose ``work_per_step`` is the cost of one step there;
    ``joint(j_lo, j_hi)`` is the step ``((top, bottom), rng) -> (top,
    bottom)`` and ``embed(x, j)`` maps a state into dimension ``j``.
    ``x0`` holds one start per pair, block after block and in each block
    deeper levels first (a single level may take one unbatched state), so
    each block's pairs still running are a prefix of its rows.
    Start-aligned, every top chain takes the shared lone steps from
    ``embed(x0, j_i)``, then every pair of level >= 1 steps jointly, its
    bottom chain from ``embed(x0, j_{i-1})``; level ``i``'s deltas are
    taken when ``a_i`` steps are done, ``f`` seeing both chains at
    ``j_i``, and its pairs are cut off.  Each step takes its lane count
    from the state it is handed and draws through
    :func:`~ubmc.rng.lane_rng`, each block's rows on that block's
    generator.  Returns ``(deltas, a_i * kernel(j_i).work_per_step)`` per
    level, in level order, the deltas block after block.
    """
    j_hi = schedule.dims_at(first)
    a_lone = schedule.steps_at(first) - (schedule.steps_at(first - 1) if first > 0 else 0)
    # ends[k][b]: block b's pairs of levels >= first + k; level first + k
    # owns the last ends[k][b] - ends[k + 1][b] of them.
    ends = [[sum(row[k:]) for row in counts] for k in range(len(counts[0]) + 1)]
    lone = kernel(j_hi)
    step = lone.step
    draws = lane_rng(rngs, ends[0])
    top = embed(x0, j_hi)
    for _ in range(a_lone):
        top = step(top, draws)
    levels, done, bottom = [], 0, None
    for k, level in enumerate(range(first, first + len(counts[0]))):
        if level > 0:
            if bottom is None:
                j_lo = schedule.dims_at(level - 1)
                step = joint(j_lo, j_hi)
                # k is 1 when level 0 ended first: its pairs have no bottom chain.
                bottom = embed(x0[: sum(ends[k])] if k else x0, j_lo)
            a_lo = schedule.steps_at(level - 1)
            draws = lane_rng(rngs, ends[k])
            for _ in range(a_lo - done):
                top, bottom = step((top, bottom), draws)
            done = a_lo
        running = _running(ends[k], ends[k + 1])
        top, top_end = _split(top, running)
        if level == 0:
            deltas = f(top_end)
        else:
            bottom, bottom_end = _split(bottom, running)
            deltas = f(embed(top_end, j_hi)) - f(embed(bottom_end, j_hi))
        levels.append((deltas, schedule.steps_at(level) * lone.work_per_step))
    return levels


def _running(before: list, after: list):
    """The rows that keep running of a lane array of ``before[b]`` rows of
    each block ``b``, when each block keeps its first ``after[b]``: their
    count, a prefix, when one block has rows, else a mask."""
    if sum(n > 0 for n in before) <= 1:
        return sum(after)
    before = np.asarray(before)
    block_start = np.repeat(np.cumsum(before) - before, before)
    return np.arange(block_start.size) - block_start < np.repeat(after, before)


def _split(state, running) -> tuple:
    """``(state[running], the rest)``: the pairs still running and those of
    the level that ends, for a prefix count or a mask ``running``; ``None``
    runs on when no pair does."""
    if isinstance(running, np.ndarray):
        return (state[running] if running.any() else None), state[~running]
    return (state[:running], state[running:]) if running else (None, state)


def pad_to(state, n: int) -> np.ndarray:
    """Embed a coefficient vector, or each row of a ``(lanes, j)`` array,
    into dimension ``n``: zero-pad or truncate."""
    state = np.asarray(state, dtype=float)
    if state.ndim == 0:
        state = state.reshape(1)
    width = state.shape[-1]
    if width >= n:
        return state[..., :n]
    padded = np.zeros((*state.shape[:-1], n))
    padded[..., :width] = state
    return padded


def _positive_nonincreasing(values: np.ndarray, term: Callable[[int], float], j: int, name: str):
    """``values``, the read-only array ``term(1), term(2), ...`` so far,
    extended through ``term(j)``; every term must be positive and no larger
    than the one before."""
    if values.size >= j:
        return values
    values = np.append(values, [float(term(k)) for k in range(values.size + 1, j + 1)])
    if values.min() <= 0.0:
        raise ValueError(f"{name} must be positive")
    if np.any(np.diff(values) > 0.0):
        raise ValueError(f"{name} must be nonincreasing")
    values.flags.writeable = False
    return values


@dataclass
class ContractionFit:
    """Least-squares fit of ``log E d(X_k, Y_k)`` against ``k``."""

    slope: float
    intercept: float
    steps: np.ndarray
    mean_distances: np.ndarray

    @property
    def rate(self) -> float:
        """Per-step contraction factor ``exp(slope)``."""
        return math.exp(self.slope)


def estimate_contraction(
    coupling: CoupledKernel,
    distance: Callable[[object, object], float],
    pairs: Sequence[tuple],
    n_steps: int,
    replicates: int,
    stream: Stream,
) -> ContractionFit:
    """Fit the per-step log-contraction slope of a coupling.

    The replicates of each pair evolve jointly for ``n_steps`` steps as
    lanes on one generator per pair (``distance`` maps rows to values); a
    start is an array or a dataclass of arrays, such as a
    :class:`~ubmc.pcn.PcnState`, whose fields are tiled alike;
    distances are averaged per step and a line is fitted to ``log`` mean
    distance over the strictly positive prefix.
    The step-0 distance (the artificial initial gap) is discarded before
    fitting, and degenerate pairs ``x == y`` are rejected.
    """
    if n_steps < 2:
        raise ValueError("need at least two steps to fit a slope")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    totals = np.zeros(n_steps)
    for p, pair in enumerate(pairs):
        rng = stream.child(p).generator()
        x, y = (_tile(s, replicates) for s in pair)
        gap = distance(x, y)
        if np.shape(gap) != (replicates,) or np.any(gap == 0.0):
            raise ValueError(f"pair {p}: need d(x, y) > 0, one value per lane row")
        for k in range(n_steps):
            x, y = coupling.step((x, y), rng)
            totals[k] += np.sum(distance(x, y))
    means = totals / (len(pairs) * replicates)
    positive = means > 0.0
    cut = int(np.argmin(positive)) if not positive.all() else n_steps
    if cut < 2:
        raise ValueError("mean distance vanished too early to fit a slope")
    ks = np.arange(1, cut + 1, dtype=float)
    logs = np.log(means[:cut])
    slope, intercept = np.polyfit(ks, logs, 1)
    return ContractionFit(
        slope=float(slope),
        intercept=float(intercept),
        steps=ks,
        mean_distances=means[:cut],
    )


def _tile(state, lanes: int):
    """``lanes`` copies of ``state`` along a leading lane axis; the array
    fields of a dataclass state are tiled and ``None`` fields kept."""
    if is_dataclass(state):
        values = {f.name: getattr(state, f.name) for f in fields(state)}
        return replace(state, **{k: _tile(v, lanes) for k, v in values.items() if v is not None})
    return np.full((lanes, *np.shape(state)), state, dtype=float)
