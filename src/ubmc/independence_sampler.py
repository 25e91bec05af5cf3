"""Coupled independence samplers over product-interval state spaces.

The target is a posterior on a box ``prod_k [-u*_k, u*_k]`` with bounded
forward map, so the acceptance probability of the independence sampler is
bounded below by a deterministic floor ``alpha_star > 0``.  Splitting the
kernel at that floor exposes a regeneration branch: with probability
``alpha_star`` a step jumps to a fresh prior draw regardless of the
current state.  Sharing the split's randomness between two chains in
different dimensions couples them across the discretization hierarchy:
the minorization branch resynchronizes the pair, and the residual branch
keeps them synchronized unless the two acceptance tests disagree, which
happens with probability vanishing in the lower dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, NamedTuple

import numpy as np

from .couplings import (
    LevelSchedule, MarkovKernel, _level_difference, _positive_nonincreasing, _run_batches, _tile, pad_to,
)
from .estimator import SurvivalDistribution

__all__ = [
    "UniformPriorModel",
    "Branch",
    "StepRandomness",
    "AcceptanceFloorError",
    "is_acceptance",
    "propose",
    "draw_randomness",
    "split_step",
    "sampler_step",
    "coupled_is_step",
    "delta_batch",
    "make_schedule",
]


class AcceptanceFloorError(RuntimeError):
    """An acceptance probability fell below the declared floor.

    The floor is a model property the coupling depends on; observing a
    smaller acceptance means the model's ``alpha_star`` is wrong.
    """

    def __init__(self, observed: float, floor: float):
        self.observed, self.floor = observed, floor
        super().__init__(f"acceptance probability {observed} below declared floor {floor}")


class Branch(IntEnum):
    """Which branch of the split kernel a step took (lanes: one code each)."""

    MINORIZE = 0
    RESIDUAL_ACCEPT = 1
    RESIDUAL_REJECT = 2


_ACCEPT, _REJECT = Branch.RESIDUAL_ACCEPT.value, Branch.RESIDUAL_REJECT.value


class StepRandomness(NamedTuple):
    """All randomness of one split step, shared across coupled chains."""

    u1: float | np.ndarray
    u2: float | np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray


@dataclass
class UniformPriorModel:
    """Inverse problem with uniform series prior and bounded forward map.

    ``half_widths(k)`` returns the box half-width ``u*_k`` (positive,
    nonincreasing, 1-indexed); ``forward(j, state)`` maps ``(..., j)``
    coefficient rows to ``(..., d)`` level-``j`` observations row-wise;
    ``alpha_star`` is the deterministic acceptance floor and
    ``work_exponent`` the cost exponent of one step at dimension ``j``.
    """

    half_widths: Callable[[int], float]
    forward: Callable[[int, np.ndarray], np.ndarray]
    y: np.ndarray
    alpha_star: float
    work_exponent: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha_star <= 1.0:
            raise ValueError("alpha_star must lie in (0, 1]")
        self.y = np.asarray(self.y, dtype=float)
        self._widths = np.empty(0)

    def widths(self, j: int) -> np.ndarray:
        """``u*_1 .. u*_j``, a read-only view of one cached array, checked
        positive and nonincreasing on first use."""
        self._widths = _positive_nonincreasing(self._widths, self.half_widths, j, "box half-widths")
        return self._widths[:j]

    def misfit(self, j: int, state: np.ndarray) -> np.ndarray:
        """``|y - G_j(state)|^2``, one value per row of ``state``."""
        g = np.asarray(self.forward(j, state), dtype=float)
        if not np.isfinite(g).all():
            raise ValueError(f"forward map returned non-finite values at j={j}")
        if g.shape[:-1] != np.shape(state)[:-1]:
            raise ValueError("forward map must give one observation row per state row")
        gap = self.y - g
        return np.add.reduce(np.multiply(gap, gap, out=gap), axis=-1)


def propose(model: UniformPriorModel, j: int, rng: np.random.Generator, lanes: tuple = ()):
    """Fresh prior draw on the level-``j`` box, one row per lane."""
    return (2.0 * rng.random((*lanes, j)) - 1.0) * model.widths(j)


def is_acceptance(model: UniformPriorModel, j: int, x: np.ndarray, xi: np.ndarray):
    """``1 ^ exp(|y - G_j(x)|^2 / 2 - |y - G_j(xi)|^2 / 2)``, one value per
    row; the rows of ``x`` and then of ``xi`` go through the forward map as
    one call."""
    x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
    alpha = _acceptance_rows(model, j, x.reshape(-1, x.shape[-1]), xi.reshape(-1, xi.shape[-1]))
    return alpha.reshape(x.shape[:-1])[()]


def _acceptance_rows(model: UniformPriorModel, j: int, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """:func:`is_acceptance` of ``(lanes, j)`` rows."""
    halves = 0.5 * model.misfit(j, np.concatenate([x, xi]))
    log_alpha = np.subtract(halves[: len(x)], halves[len(x) :])
    return np.exp(np.minimum(log_alpha, 0.0, out=log_alpha), out=log_alpha)


def draw_randomness(model: UniformPriorModel, j: int, rng: np.random.Generator, lanes: tuple = ()):
    """Draw the shared randomness of one split step at top dimension ``j``:
    ``u1``, ``u2``, then the proposal rows, each one per lane.  One
    ``rng.random`` call fills all four in that order, with the values that
    four calls in turn would give."""
    n = math.prod(lanes)
    draws = rng.random(2 * n * (j + 1))
    xi = draws[2 * n :].reshape(2, *lanes, j)
    xi *= 2.0  # (2 u - 1) * u*_k in place, as propose computes it
    xi -= 1.0
    xi *= model.widths(j)
    u = draws[: 2 * n].reshape(2, *lanes)
    return StepRandomness(u[0], u[1], xi[0], xi[1])


def split_step(model: UniformPriorModel, j: int, x: np.ndarray, w: StepRandomness):
    """One split-kernel step at dimension ``j`` driven by ``w``.

    With ``u1 <= alpha_star`` the chain jumps to the (projected) first
    proposal; otherwise the residual Metropolis test with corrected
    acceptance ``(alpha - alpha_star) / (1 - alpha_star)`` decides between
    the second proposal and staying put.  The marginal law is exactly one
    independence-sampler step.  ``x`` is one state, returned with its
    :class:`Branch`, or ``(lanes, j)`` rows stepping as 1-d states would
    under lane-shaped ``w``, returned with one branch code per lane; a
    residual acceptance below the floor on any lane raises.  Only the
    residual lanes go through the forward map.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:  # one state steps as a lane of one
        row = StepRandomness(np.reshape(w.u1, 1), np.reshape(w.u2, 1), w.xi1[None], w.xi2[None])
        new, code = split_step(model, j, x[None], row)
        return new[0], Branch(int(code[0]))
    floor = model.alpha_star
    xi2 = w.xi2[:, :j]
    rest = np.asarray(w.u1) > floor
    new = np.where(rest[:, None], x, w.xi1[:, :j])
    code = rest * _REJECT  # MINORIZE is 0
    lanes = rest.nonzero()[0]
    if lanes.size:
        alpha = _acceptance_rows(model, j, x.take(lanes, axis=0), xi2.take(lanes, axis=0))
        if alpha.min() < floor - 1e-12:
            raise AcceptanceFloorError(float(alpha.min()), floor)
        accepted = lanes[np.asarray(w.u2).take(lanes) <= (alpha - floor) / (1.0 - floor)]
        new[accepted] = xi2.take(accepted, axis=0)
        code[accepted] = _ACCEPT
    return new, code


def sampler_step(
    model: UniformPriorModel, j: int, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One plain independence-sampler step (propose, accept-or-stay)."""
    xi = propose(model, j, rng)
    if rng.random() <= is_acceptance(model, j, x, xi):
        return xi
    return x


def coupled_is_step(
    model: UniformPriorModel,
    dims: tuple[int, int],
    states: tuple[np.ndarray, np.ndarray],
    w: StepRandomness,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple]:
    """Joint step of the low- and high-dimensional chains under shared ``w``.

    The low chain sees the projections of both proposals and the same two
    uniforms, so the pair takes the minorization branch together and can
    only desynchronize when the residual acceptance tests disagree (lanes:
    one state row and branch code each).
    """
    j_lo, j_hi = dims
    if j_lo > j_hi:
        raise ValueError("need j_lo <= j_hi")
    x_lo, x_hi = states
    new_hi, b_hi = split_step(model, j_hi, x_hi, w)
    new_lo, b_lo = split_step(model, j_lo, x_lo, w)
    return (new_lo, new_hi), (b_lo, b_hi)


def delta_batch(model: UniformPriorModel, schedule: LevelSchedule, f: Callable, x0) -> Callable:
    """Coupled level differences of the independence-sampler hierarchy,
    as the ``delta_batch`` of :func:`~ubmc.estimator.estimate_block`:
    phases as in :func:`ubmc.couplings.contraction_delta_batch`, with split
    steps at dimensions ``j_i`` (top) and ``j_{i-1}`` (bottom), all step
    randomness drawn at the top dimension, and work ``a_i * j_i^theta``.
    Each run of levels steps as one zero-padded ``(pairs, j_i)`` split
    chain; ``f`` and the model's forward map act row-wise."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    # _delta is looked up at call time, as the benchmark's trace probe needs.
    return _run_batches(schedule, lambda first, counts, rng: _delta(
        model, schedule, first, counts, f, _tile(x0, sum(counts)), rng
    ))


def _delta(model, schedule, first, counts, f, x0, rng):
    def kernel(j):
        def step(x, rng):
            return split_step(model, j, x, draw_randomness(model, j, rng, x.shape[:-1]))[0]

        return MarkovKernel(step, float(j) ** model.work_exponent)

    def joint(j_lo, j_hi):
        def step(pair, rng):
            top, bottom = pair
            w = draw_randomness(model, j_hi, rng, top.shape[:-1])
            (bottom, top), _ = coupled_is_step(model, (j_lo, j_hi), (bottom, top), w)
            return top, bottom

        return step

    return _level_difference(schedule, first, counts, x0, f, rng, kernel, joint, pad_to)


def make_schedule(
    model: UniformPriorModel, q: float, beta: float, kappa: float, t: float | None = None
) -> tuple[LevelSchedule, SurvivalDistribution]:
    """Schedule with dimensions ``i^q``, logarithmic steps, polynomial law.

    ``beta`` is the forward-approximation decay and ``kappa`` the decay of
    the observable's dependence on high modes; the per-step cost exponent
    ``theta`` and the acceptance floor ``alpha_star`` are the model's.
    With ``r = min(beta, kappa)`` the admissible region is
    ``q > 3 / (r - theta)`` and ``t`` in ``(1 + theta q, r q - 2)``, its
    midpoint when ``t`` is not given; the step counts
    ``a_i = ceil((q beta / c*) log(i + 2))`` with
    ``c* = -log(1 - alpha_star)`` balance the synchronization-failure and
    discretization contributions to the level differences.
    """
    theta, alpha_star = model.work_exponent, model.alpha_star
    r = min(beta, kappa)
    if r <= 1.0:
        raise ValueError("requires min(beta, kappa) > 1")
    if theta >= r:
        raise ValueError("requires theta < min(beta, kappa)")
    if not q > 3.0 / (r - theta):
        raise ValueError(f"requires q > 3 / (r - theta) = {3.0 / (r - theta)}")
    t_lo, t_hi = 1.0 + theta * q, r * q - 2.0
    t = (t_lo + t_hi) / 2.0 if t is None else t
    if not t_lo < t < t_hi:
        raise ValueError(f"requires t in (1 + theta q, r q - 2) = ({t_lo}, {t_hi})")
    if not 0.0 < alpha_star < 1.0:
        raise ValueError("alpha_star must lie in (0, 1) for the log-step rule")
    c_star = -math.log1p(-alpha_star)
    rate = q * beta / c_star

    steps = lambda k: math.ceil(rate * math.log(k + 2.0))
    dims = lambda k: max(math.ceil(max(k, 1) ** q), k + 1)
    return LevelSchedule(steps, dims), SurvivalDistribution.polynomial(t)
