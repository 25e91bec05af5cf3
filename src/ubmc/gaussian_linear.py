"""Conjugate linear Gaussian inverse problem with spectral truncations.

The forward operator and the prior covariance commute, so the posterior
is Gaussian with explicit per-coordinate mean and variance

    m_l = l^-2p y_l / (l^2a + l^-4p),      c_l = 1 / (l^2a + l^-4p).

Level differences come from truncating the coordinate expansion of a
posterior draw at growing dimensions ``j_i``, sharing the standard
normals between the two truncations of one difference.  Two couplings are
provided: plain truncation (valid for Holder functions) and the variant
that completes the truncation with a prior draw on the remaining
coordinates, which decays faster and, for linear functions, needs only
the new coordinates of each level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .couplings import LevelSchedule
from .estimator import SurvivalDistribution

__all__ = [
    "GaussianLinearModel",
    "posterior_spectral",
    "truncation_delta",
    "prior_tail_delta",
    "truncation_gap_second_moment",
    "tail_gap_second_moment",
    "delta_batch",
    "make_schedule",
]

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _default_data(c_minus: float, c_plus: float) -> Callable[[int], float]:
    # Deterministic, reproducible coefficients equidistributed in
    # (c_minus, c_plus): the golden-ratio rotation never repeats.
    span = c_plus - c_minus
    return lambda l: c_minus + span * ((l * _GOLDEN) % 1.0)


@dataclass(frozen=True)
class GaussianLinearModel:
    """Spectral data of the inverse problem.

    ``p >= 0`` is the forward-operator decay (eigenvalues of the squared
    operator fall like ``l^-4p``), ``a > 1/2`` the prior decay
    (``l^-2a``), and ``data`` a deterministic accessor for the observed
    coefficients, bounded in ``(c_minus, c_plus)``.
    """

    p: float
    a: float
    data: Callable[[int], float] = None
    c_minus: float = 0.5
    c_plus: float = 1.5

    def __post_init__(self):
        if self.p < 0.0:
            raise ValueError("p must be >= 0")
        if self.a <= 0.5:
            raise ValueError("a must exceed 1/2")
        if not self.c_minus < self.c_plus:
            raise ValueError("need c_minus < c_plus")
        if self.data is None:
            object.__setattr__(
                self, "data", _default_data(self.c_minus, self.c_plus)
            )

    def observed(self, l: int) -> float:
        y = self.data(l)
        if not self.c_minus <= y <= self.c_plus:
            raise ValueError(f"data coefficient y_{l} = {y} outside bounds")
        return y


def posterior_spectral(model: GaussianLinearModel, l: int) -> tuple[float, float]:
    """Exact posterior law of coordinate ``l``: ``(mean, variance)``."""
    if l < 1:
        raise ValueError("coordinates are 1-indexed")
    precision = float(l) ** (2 * model.a) + float(l) ** (-4 * model.p)
    mean = float(l) ** (-2 * model.p) * model.observed(l) / precision
    return mean, 1.0 / precision


def _posterior_arrays(model: GaussianLinearModel, j: int):
    l = np.arange(1, j + 1, dtype=float)
    precision = l ** (2 * model.a) + l ** (-4 * model.p)
    y = np.array([model.observed(k) for k in range(1, j + 1)])
    mean = l ** (-2 * model.p) * y / precision
    return mean, 1.0 / precision


def truncation_delta(
    model: GaussianLinearModel,
    schedule: LevelSchedule,
    level: int,
    f: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
    lanes: tuple = (),
) -> tuple:
    """Level difference of ``f`` under the plain truncation coupling.

    One draw of the first ``j_level`` posterior coordinates (the
    schedule's dimensions) is shared by both truncations, so only
    coordinates in ``(j_{level-1}, j_level]`` differ; the bottom state is
    zero-padded to the top dimension before ``f`` is applied.  Returns
    ``(delta, work)`` with work counted as the number of Gaussian draws;
    one row per lane for ``lanes = (count,)``.
    """
    j_lo, j_hi = schedule.dims_at(level - 1) if level else 0, schedule.dims_at(level)
    mean, var = _posterior_arrays(model, j_hi)
    top = mean + np.sqrt(var) * rng.standard_normal((*lanes, j_hi))
    if level == 0:
        return f(top), float(j_hi)
    bottom = top.copy()
    bottom[..., j_lo:] = 0.0
    return f(top) - f(bottom), float(j_hi)


def prior_tail_delta(
    model: GaussianLinearModel,
    schedule: LevelSchedule,
    level: int,
    coefficients: Mapping[int, float],
    rng: np.random.Generator,
    lanes: tuple = (),
) -> tuple:
    """Level difference of a linear function under the prior-completed coupling.

    The truncation is completed by a prior draw on the remaining
    coordinates; because the function is linear and shares its normals
    across the two levels of one difference, everything outside
    ``(j_{level-1}, j_level]`` cancels and the difference reduces to

        sum_l f_l (m_l + (sqrt(c_l) - l^-a) zeta_l)

    over the new coordinates (level 0 additionally carries the prior-tail
    terms of the finitely many coefficients above ``j_0``).  No infinite
    tail is ever simulated; only linear functions, given by their
    coefficient map, are admissible.  The new coordinates, then the tail
    terms, draw their normals as one row per lane for ``lanes = (count,)``.
    """
    if not isinstance(coefficients, Mapping):
        raise TypeError(
            "prior-tail differences are only defined for linear functions; "
            "pass the coefficient map {coordinate: weight}"
        )
    j_lo, j_hi = schedule.dims_at(level - 1) if level else 0, schedule.dims_at(level)
    terms = sorted((l, w) for l, w in coefficients.items() if l > j_lo and w != 0.0)
    new = [(l, w) for l, w in terms if l <= j_hi]
    # Prior tail above j_0: only coefficients actually present matter.
    tail = [(l, w) for l, w in terms if l > j_hi] if level == 0 else []
    zeta = rng.standard_normal((*lanes, j_hi - j_lo + len(tail)))
    delta = np.zeros(lanes)
    for l, w in new:
        mean, var = posterior_spectral(model, l)
        # Above level 0 the lower level carries the prior draw on this
        # coordinate, leaving the shared zeta weighted by sqrt(c_l) - l^-a.
        prior = float(l) ** (-model.a) if level > 0 else 0.0
        delta += w * (mean + (math.sqrt(var) - prior) * zeta[..., l - j_lo - 1])
    for k, (l, w) in enumerate(tail):
        delta += w * float(l) ** (-model.a) * zeta[..., j_hi - j_lo + k]
    return delta, float(zeta.shape[-1])


def delta_batch(level_delta: Callable, model: GaussianLinearModel, schedule: LevelSchedule, f) -> Callable:
    """The ``delta_batch`` of :func:`~ubmc.estimator.estimate_block` for
    ``level_delta``, :func:`truncation_delta` (``f`` row-wise) or
    :func:`prior_tail_delta` (``f`` the coefficient map): one call per
    level on ``level_rng(i)``, with a row for each of its lanes."""
    return lambda counts, level_rng: [
        level_delta(model, schedule, i, f, level_rng(i), (count,)) for i, count in enumerate(counts)
    ]


def truncation_gap_second_moment(
    model: GaussianLinearModel, j_lo: int, j_hi: int
) -> float:
    """``E |u^hi - u^lo|^2`` for the plain truncation coupling (exact sum)."""
    total = 0.0
    for l in range(j_lo + 1, j_hi + 1):
        mean, var = posterior_spectral(model, l)
        total += mean**2 + var
    return total


def tail_gap_second_moment(model: GaussianLinearModel, j_lo: int, j_hi: int) -> float:
    """``E |u^hi - u^lo|^2`` for the prior-completed coupling (exact sum)."""
    total = 0.0
    for l in range(j_lo + 1, j_hi + 1):
        mean, var = posterior_spectral(model, l)
        total += mean**2 + (math.sqrt(var) - float(l) ** (-model.a)) ** 2
    return total


def make_schedule(
    variant: str,
    geometry: str,
    *,
    a: float,
    p: float = 0.0,
    s: float = 1.0,
    q: float | None = None,
    eps: float,
) -> tuple[LevelSchedule, SurvivalDistribution]:
    """Level schedule and truncation law with finite variance and work.

    Every level takes one exact draw (``a_i = 1``), so the schedule's
    dimensions ``j_i`` rise strictly; its work is counted in draws by the
    level differences, not from ``a_i``.

    ``variant`` selects the coupling the schedule is designed for:

    * ``"holder"``: plain truncation, any ``s``-Holder function; requires
      the stronger regularity ``a > (1 + s) / (2 s)``.
    * ``"linear-tail"``: prior-completed coupling, linear functions only;
      requires just ``a > 1/2``.

    ``geometry`` is ``"dyadic"`` (``j_i = 2^i``, geometric truncation law)
    or ``"polynomial"`` (``j_i ~ i^q``, polynomial law).  ``eps`` must lie
    in the variant's admissible interval; for the dyadic geometries the
    closed right endpoint is accepted even though the expected work is
    finite only strictly inside it.

    The polynomial geometry uses the same survival exponent
    ``-(s(q - 1 - 2 a q) + 2 + eps)`` for both variants (with ``s = 1`` for
    linear functions); for the prior-completed coupling this choice is
    conservative rather than rate-matched, and ``s`` enters only through
    it.  Its ``eps`` must keep the exponent above ``max(q, 1) + 1``: the
    dimensions ``max(ceil(i^q), i + 1)`` grow at least one per level.
    """
    if variant not in ("holder", "linear-tail"):
        raise ValueError("variant must be 'holder' or 'linear-tail'")
    if geometry not in ("dyadic", "polynomial"):
        raise ValueError("geometry must be 'dyadic' or 'polynomial'")
    if variant == "holder":
        if not 0.0 < s <= 1.0:
            raise ValueError("Holder exponent s must lie in (0, 1]")
        bound = (1.0 + s) / (2.0 * s)
        if not a > bound:
            raise ValueError(f"requires a > (1 + s) / (2 s) = {bound}")
    else:
        if not a > 0.5:
            raise ValueError("requires a > 1/2")
        s = 1.0  # linear functions are 1-Holder
    if p < 0.0:
        raise ValueError("p must be >= 0")

    if geometry == "dyadic":
        if variant == "holder":
            decay = s * (1.0 - 2.0 * a)  # log2 of the squared-difference rate
            eps_ub = (2.0 + 2.0 * s - 4.0 * a * s) / (s * (1.0 - 2.0 * a))
        else:
            decay = 1.0 - 4.0 * p - 4.0 * a
            eps_ub = (4.0 - 8.0 * p - 8.0 * a) / (1.0 - 4.0 * p - 4.0 * a)
        if not 0.0 < eps <= eps_ub:
            raise ValueError(f"requires 0 < eps <= {eps_ub}")
        rate = 2.0 ** ((2.0 - eps) * decay / 2.0)
        return LevelSchedule(lambda i: 1, lambda i: 2**i), SurvivalDistribution.geometric(rate)

    if q is None:
        raise ValueError("polynomial geometry needs the growth exponent q")
    q_lb = (s - 3.0) / (1.0 + s - 2.0 * a * s)
    if not q > q_lb:
        raise ValueError(f"requires q > (s - 3) / (1 + s - 2 a s) = {q_lb}")
    # Dims max(ceil(i^q), i + 1) make level i cost about i^g draws,
    # g = max(q, 1): E[work] is finite once the exponent passes g + 1.
    eps_ub = s - 3.0 - q * (1.0 + s - 2.0 * a * s) - (max(q, 1.0) - q)
    if not 0.0 < eps < eps_ub:
        raise ValueError(
            f"requires 0 < eps < s - 3 - q (1 + s - 2 a s) - (max(q, 1) - q) = {eps_ub}"
        )
    exponent = -(s * (q - 1.0 - 2.0 * a * q) + 2.0 + eps)
    dims = lambda i: max(math.ceil(max(i, 1) ** q), i + 1)
    return LevelSchedule(lambda i: 1, dims), SurvivalDistribution.polynomial(exponent)
