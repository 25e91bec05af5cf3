"""Generic coupled-chain machinery.

The unbiased estimator needs level differences whose expectations
telescope to the equilibrium expectation of a Markov chain.  They are
produced here from a simulatable coupling: the level-``i`` difference runs
a "top" chain for ``a_i`` steps and a "bottom" chain for ``a_{i-1}`` steps,
evolving the pair jointly over the final ``a_{i-1}`` steps so that a
contracting coupling drives ``f(top) - f(bottom)`` to zero geometrically.

Also provided: the minorization split step used for uniformly recurrent
chains, a least-squares contraction-rate estimator, and schedule helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .estimator import LevelDifferenceGenerator, SurvivalDistribution
from .rng import Stream

__all__ = [
    "MarkovKernel",
    "CoupledKernel",
    "LevelSchedule",
    "DistanceLike",
    "contraction_delta_generator",
    "contraction_delta_batch",
    "strictly_increasing",
    "pad_to",
    "minorized_step",
    "estimate_contraction",
    "ContractionFit",
    "subgeometric_schedule",
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
    dim: int | None = None


@dataclass
class CoupledKernel:
    """Joint one-step transition ``(x, y) -> (x', y')``.

    Each marginal of one coupled step must be distributed as one step of
    ``marginal``; shared-randomness couplings on a fixed space should also
    be faithful (``x == y`` implies ``x' == y'``).
    """

    step: Callable[[tuple, np.random.Generator], tuple]
    marginal: MarkovKernel


@dataclass
class DistanceLike:
    """Symmetric, nonnegative function vanishing on the diagonal."""

    fn: Callable[[object, object], float]
    symmetric: bool = True
    vanishes_on_diagonal: bool = True

    def __call__(self, x, y) -> float:
        return self.fn(x, y)


class LevelSchedule:
    """Paired level sequences: steps ``a_i`` and dimensions ``j_i``.

    ``a`` must be strictly increasing with ``a_0 >= 1``; ``j`` must be
    nondecreasing and positive (constant for fixed-space problems).
    Both are supplied as callables or sequences and validated lazily on
    the queried prefix.
    """

    def __init__(self, steps, dims=None):
        self._steps_fn = steps if callable(steps) else lambda i, s=list(steps): s[i]
        if dims is None:
            self._dims_fn = lambda i: 1
        else:
            self._dims_fn = dims if callable(dims) else lambda i, d=list(dims): d[i]
        self._steps_cache: list[int] = []
        self._dims_cache: list[int] = []

    @classmethod
    def arithmetic(cls, m: int, dims=None) -> "LevelSchedule":
        """``a_i = m * (i + 1)`` for a positive integer ``m``."""
        if m < 1:
            raise ValueError("m must be a positive integer")
        return cls(lambda i: m * (i + 1), dims)

    def steps_at(self, i: int) -> int:
        return _checked_prefix(self._steps_cache, self._steps_fn, i, "a", strict=True)

    def dims_at(self, i: int) -> int:
        return _checked_prefix(self._dims_cache, self._dims_fn, i, "j", strict=False)


def _checked_prefix(cache: list, fn, i: int, name: str, strict: bool) -> int:
    """Extend ``cache`` with ``int(fn(k))`` up to ``i``, checking each term is
    positive and increasing (strictly or not); returns term ``i``."""
    if i < 0:
        raise ValueError("level index must be >= 0")
    while len(cache) <= i:
        k = len(cache)
        v = int(fn(k))
        if v < 1:
            raise ValueError(f"{name}_{k} = {v} must be >= 1")
        if cache and (v <= cache[-1] if strict else v < cache[-1]):
            order = "strictly increasing" if strict else "nondecreasing"
            raise ValueError(f"{name} must be {order}; {name}_{k} = {v}")
        cache.append(v)
    return cache[i]


def contraction_delta_generator(
    kernel: MarkovKernel,
    coupling: CoupledKernel,
    schedule: LevelSchedule,
    f: Callable[[object], float],
    x0,
) -> LevelDifferenceGenerator:
    """Coupled level differences of a fixed-space chain.

    Level 0 runs the chain ``a_0`` steps from ``x0`` and returns
    ``f(endpoint)``.  Level ``i >= 1`` runs the top chain alone for
    ``a_i - a_{i-1}`` steps from ``x0``, resets the bottom chain to ``x0``,
    then evolves the pair jointly for ``a_{i-1}`` steps and returns
    ``f(top) - f(bottom)``.  The whole level consumes one generator: the
    lone prefix draws first, the joint phase the rest, which reproduces
    the backward-composition law of the chain at times ``a_i`` and
    ``a_{i-1}``.  Work is ``a_i * kernel.work_per_step``.
    """

    def gen(level: int, rng: np.random.Generator):
        return _delta(kernel, coupling, schedule, level, x0, f, rng)

    return gen


def contraction_delta_batch(
    kernel: MarkovKernel,
    coupling: CoupledKernel,
    schedule: LevelSchedule,
    f: Callable[[np.ndarray], np.ndarray],
    x0,
) -> Callable[[int, int, np.random.Generator], tuple]:
    """The ``delta_batch`` of :func:`~ubmc.estimator.estimate_block`: all
    lanes of a level step as one array of states tiled from ``x0``, each
    lane with the law of one :func:`contraction_delta_generator` draw.
    The steps and ``f`` must act on a leading lane axis.
    """
    x0 = np.asarray(x0, dtype=float)
    # _delta is looked up at call time, as the benchmark's trace probe needs.
    return lambda level, lanes, rng: _delta(
        kernel, coupling, schedule, level, np.full((lanes, *x0.shape), x0), f, rng
    )


def _delta(kernel, coupling, schedule, level, x0, f, rng):
    # The kernel's own step functions are handed through unwrapped: the
    # inner loops are the hot path of every generic chain.
    return _level_difference(
        schedule, level, x0, f, rng,
        lambda j: kernel.step,
        lambda j_lo, j_hi: coupling.step,
        lambda x, j: x,
        lambda j: kernel.work_per_step,
    )


def _level_difference(schedule, level, x0, f, rng, lone, joint, embed, cost):
    """The lone and joint phases of one level, shared by every chain.

    ``lone(j)`` is the step ``(x, rng) -> x`` at dimension ``j``,
    ``joint(j_lo, j_hi)`` the step ``((top, bottom), rng) -> (top, bottom)``,
    ``embed(x, j)`` maps a state into dimension ``j`` and ``cost(j)`` is
    the work of one step there.  The top chain starts at ``embed(x0, j_i)``
    and the bottom chain at ``embed(x0, j_{i-1})``; ``f`` sees both
    embedded at ``j_i``.  Returns ``(delta, a_i * cost(j_i))``.
    """
    a_hi, j_hi = schedule.steps_at(level), schedule.dims_at(level)
    a_lo = schedule.steps_at(level - 1) if level > 0 else 0
    step = lone(j_hi)
    top = embed(x0, j_hi)
    for _ in range(a_hi - a_lo):
        top = step(top, rng)
    if level == 0:
        return f(top), a_hi * cost(j_hi)
    j_lo = schedule.dims_at(level - 1)
    step = joint(j_lo, j_hi)
    bottom = embed(x0, j_lo)
    for _ in range(a_lo):
        top, bottom = step((top, bottom), rng)
    return f(embed(top, j_hi)) - f(embed(bottom, j_hi)), a_hi * cost(j_hi)


def strictly_increasing(fn: Callable[[int], float]) -> Callable[[int], int]:
    """Cached integer sequence ``s_k = max(int(fn(k)), s_{k-1} + 1)``, ``s_{-1} = 0``.

    Rounding can make a growing formula stall (``ceil(k**q)`` repeats
    values for small ``q``); bumping each term past its predecessor keeps
    it usable as level steps or dimensions.
    """
    cache: list[int] = []

    def at(i: int) -> int:
        if i < 0:
            raise ValueError("level index must be >= 0")
        while len(cache) <= i:
            prev = cache[-1] if cache else 0
            cache.append(max(int(fn(len(cache))), prev + 1))
        return cache[i]

    return at


def pad_to(state, n: int) -> np.ndarray:
    """Embed a coefficient vector, or each row of a ``(lanes, j)`` array,
    into dimension ``n``: zero-pad or truncate."""
    state = np.atleast_1d(np.asarray(state, dtype=float))
    if state.shape[-1] >= n:
        return state[..., :n]
    return np.pad(state, [(0, 0)] * (state.ndim - 1) + [(0, n - state.shape[-1])])


def minorized_step(
    lam: float,
    minorizing_sampler: Callable[[np.random.Generator], object],
    residual_kernel: MarkovKernel,
    x,
    rng: np.random.Generator,
):
    """Split transition ``P = lam * nu + (1 - lam) * Q``.

    With probability ``lam`` the next state is a fresh draw from the
    minorizing measure (ignoring ``x``); otherwise one residual-kernel
    step is taken from ``x``.  Two chains driven by the same stream
    coalesce as soon as the constant branch fires, hence within ``n``
    steps with probability at least ``1 - (1 - lam)**n``.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    if rng.random() <= lam:
        return minorizing_sampler(rng)
    return residual_kernel.step(x, rng)


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
    distance: DistanceLike | Callable[[object, object], float],
    pairs: Sequence[tuple],
    n_steps: int,
    replicates: int,
    stream: Stream,
) -> ContractionFit:
    """Fit the per-step log-contraction slope of a coupling.

    The replicates of each pair evolve jointly for ``n_steps`` steps as
    lanes on one generator per pair (``distance`` maps rows to values);
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
        x, y = (np.full((replicates, *np.shape(s)), s, dtype=float) for s in pair)
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


def subgeometric_schedule(k: int, r: float, eps: float) -> tuple[LevelSchedule, SurvivalDistribution]:
    """Schedule for couplings contracting polynomially, ``E d_n <= C n^{-2r}``.

    Steps grow as ``a_i = (i + 1)**k`` and the survival decays as
    ``(i + 1)**(-(2rk - 2 - eps))``.  Requires ``r > 1/2``,
    ``k > 3 / (2r - 1)`` and ``0 < eps < (2r - 1) k - 3`` so that both the
    variance and the expected work of the estimator stay finite.  No
    concrete model in this package exercises it; validation is limited to
    the schedule arithmetic.
    """
    if r <= 0.5:
        raise ValueError("requires r > 1/2")
    if k <= 3.0 / (2.0 * r - 1.0):
        raise ValueError("requires k > 3 / (2r - 1)")
    ub = (2.0 * r - 1.0) * k - 3.0
    if not 0.0 < eps < ub:
        raise ValueError(f"requires 0 < eps < (2r - 1)k - 3 = {ub}")
    schedule = LevelSchedule(lambda i: (i + 1) ** k)
    survival = SurvivalDistribution.polynomial(2.0 * r * k - 2.0 - eps)
    return schedule, survival
