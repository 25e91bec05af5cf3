"""Efficiency tuning for the randomized-truncation estimator.

For an estimator averaged over independent draws, the variance shrinks
like 1/L while the expected work grows like L, so their product

    (sum_i nu_i / Fbar_i - (E Y)^2) * (sum_i Fbar_i t_i)

is the scale-free figure of merit.  This module evaluates it, builds the
truncation law that minimizes it (the square-root rule, also from
partially known level variances), and provides the closed-form optimum
and the step-multiplier ansatz for the contracting Gaussian
autoregression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimator import SurvivalDistribution

__all__ = [
    "MseWorkReport",
    "msework_report",
    "contracting_delta_variances",
    "msework_optimum",
    "contracting_optimal_survival",
    "ergodic_msework_limit",
    "polylog_minus_half",
    "unbiased_msework",
    "optimal_w",
    "step_multiplier",
    "partial_knowledge_optimize",
]

# Relative tolerance of the adaptive level-truncation rule: sums over
# levels stop once a term falls below this fraction of the running sum.
SERIES_RTOL = 1e-14
SERIES_CAP = 10**4

# optimal_w() at its default arguments, which a test reproduces bit for
# bit: the search sums 26 polylog series, too slow to repeat per process.
OPTIMAL_W = -1.6329583898965268


@dataclass
class MseWorkReport:
    """Variance term, expected work, and their product for one tuning.

    ``survival`` is the law evaluated; ``converged`` records whether both
    partial sums had decayed below the series tolerance at the truncation
    level, which an improper law (``survival.proper`` false: it never
    decays, so its expected work is infinite) never does.
    """

    variance_term: float
    expected_work: float
    product: float
    survival: SurvivalDistribution
    converged: bool


def msework_report(
    nus: Sequence[float],
    ts: Sequence[float],
    survival: SurvivalDistribution | None = None,
    mean: float = 0.0,
) -> MseWorkReport:
    """Evaluate the MSE-work product ``(sum nu/Fbar - mean^2)(sum Fbar t)``
    over the levels ``0..len(nus) - 1``.

    At ``mean = 0`` the variance term is the second moment
    ``E[Z^2] = sum_i nu_i / Fbar_i``, where ``nu_i`` are the level
    second-moment coefficients ``var(delta_i) + (EY - EY_{i-1})^2 -
    (EY - EY_i)^2``; the expected work is ``E[work] = sum_i t_i Fbar_i``.

    With no ``survival`` it builds and evaluates the square-root law
    ``Fbar_i = sqrt(nu_i / t_i) / sqrt(nu_0 / t_0)`` (:func:`_square_root_law`).
    """
    nus = np.asarray(nus, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if nus.size == 0 or nus.shape != ts.shape:
        raise ValueError("need equally sized, nonempty nu and t sequences")
    if not np.all(np.isfinite(nus)):
        raise ValueError("nu_i must be finite")
    if survival is None:
        survival = _square_root_law(nus, ts)
    fbar = survival.survival_array(nus.size)
    if np.any(fbar <= 0.0):
        raise ValueError("survival vanishes inside the summation range")
    var_terms = nus / fbar
    work_terms = ts * fbar
    variance = math.fsum(var_terms) - mean**2
    work = math.fsum(work_terms)
    converged = bool(
        survival.proper
        and var_terms[-1] <= SERIES_RTOL * max(math.fsum(var_terms), 1e-300)
        and work_terms[-1] <= SERIES_RTOL * max(work, 1e-300)
    )
    return MseWorkReport(variance, work, variance * work, survival, converged)


def _square_root_law(nus: np.ndarray, ts: np.ndarray, project: bool = False) -> SurvivalDistribution:
    """Square-root rule ``Fbar_i = sqrt(nu_i / t_i) / sqrt(nu_0 / t_0)``.

    Feasible (and optimal, by Cauchy-Schwarz) exactly when ``nu_i / t_i``
    is nonincreasing; the first offending index is reported otherwise,
    unless ``project`` asks for the rule capped at 1 and made
    nonincreasing instead.  The law is tabulated over the supplied levels
    and continued geometrically with the last observed ratio; a constant
    rule (``nu/t`` flat) yields an improper law, which callers must treat
    as an infeasibility warning.
    """
    if np.any(nus < 0.0) or np.any(ts <= 0.0):
        raise ValueError("nu_i and t_i must be positive")
    ratios = nus / ts
    zero = np.flatnonzero(ratios == 0.0)
    if zero.size:
        k = int(zero[0])
        raise ValueError(
            f"nu_i / t_i is 0 at level {k} (nu_{k} = {nus[k]!r}, t_{k} = {ts[k]!r}): "
            f"the square-root law cannot be tabulated that deep; keep fewer levels"
        )
    worse = np.nonzero(np.diff(ratios) > ratios[:-1] * 1e-12)[0]
    if worse.size and not project:
        raise ValueError(
            f"nu_i / t_i must be nonincreasing for the square-root rule; "
            f"first violation at index {int(worse[0]) + 1}"
        )
    fbar = np.sqrt(ratios / ratios[0])
    fbar[0] = 1.0
    if project:
        fbar = np.minimum(fbar, 1.0)
    # A rise of nu_i / t_i within rounding, let through above, makes the law flat.
    fbar = np.minimum.accumulate(fbar)
    tail = min(float(fbar[-1] / fbar[-2]), 1.0) if fbar.size > 1 else None
    return SurvivalDistribution.tabulated(fbar, tail_ratio=tail)


def contracting_delta_variances(rho: float, steps, levels: int) -> np.ndarray:
    """Level variances of the coupled autoregression started at zero.

    With the chain started at 0 the level differences are centred, so
    ``nu_0 = 1 - rho^(2 a_0)`` and
    ``nu_i = rho^(2 a_{i-1}) (1 - rho^(2 (a_i - a_{i-1})))`` exactly.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    out = np.empty(levels)
    for i in range(levels):
        a_prev = steps[i - 1] if i > 0 else 0
        out[i] = rho ** (2 * a_prev) * (1.0 - rho ** (2 * (steps[i] - a_prev)))
    return out


def msework_optimum(nus: Sequence[float], ts: Sequence[float]) -> float:
    """Lower bound ``(sum_i sqrt(nu_i t_i))^2`` attained by the square-root rule."""
    nus = np.asarray(nus, dtype=float)
    ts = np.asarray(ts, dtype=float)
    return math.fsum(np.sqrt(nus * ts)) ** 2


def _adaptive_levels(rho: float, m: int) -> int:
    # Stop once nu_i / Fbar_i = (1 - rho^2m) rho^(m i) sqrt(i + 1) is
    # negligible against the running sum.
    total = 0.0
    z = rho**m
    for i in range(SERIES_CAP):
        term = z**i * math.sqrt(i + 1.0)
        total += term
        if term < SERIES_RTOL * total and i >= 1:
            return i + 1
    return SERIES_CAP


def contracting_optimal_survival(
    rho: float, m: int, levels: int | None = None
) -> SurvivalDistribution:
    """Optimal truncation law for the autoregression with ``a_i = m(i+1)``.

    ``nu_i / t_i`` is decreasing for this schedule, so the square-root
    rule applies and reduces to ``Fbar_i = rho^(m i) / sqrt(i + 1)``.
    """
    if levels is None:
        levels = _adaptive_levels(rho, m)
    steps = [m * (i + 1) for i in range(levels)]
    nus = contracting_delta_variances(rho, steps, levels)
    return msework_report(nus, np.asarray(steps, dtype=float)).survival


def ergodic_msework_limit(rho: float) -> float:
    """Long-run MSE-work constant of the plain time average, ``(1+rho)/(1-rho)``."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    return (1.0 + rho) / (1.0 - rho)


def polylog_minus_half(z: float) -> float:
    """``Li_{-1/2}(z) = sum_{k>=1} sqrt(k) z^k`` for ``z`` in [0, 1 - 1e-6].

    The series is summed in blocks until both the current term and an
    explicit geometric remainder bound drop below ``1e-14`` of the partial
    sum; arguments closer to 1 than ``1e-6`` are outside the summation
    contract and rejected.
    """
    if not 0.0 <= z <= 1.0 - 1e-6:
        raise ValueError("z must lie in [0, 1 - 1e-6]")
    if z == 0.0:
        return 0.0
    total = 0.0
    block = 4096
    start = 1
    while True:
        k = np.arange(start, start + block, dtype=float)
        total += float(np.sum(np.sqrt(k) * z**k))
        last_k = start + block - 1
        term = math.sqrt(last_k) * z**last_k
        # sqrt(k) <= k / sqrt(last_k) for k >= last_k gives a closed-form
        # remainder bound via the arithmetico-geometric series.
        remainder = (
            z ** (last_k + 1)
            * ((last_k + 1) * (1 - z) + z)
            / ((1 - z) ** 2 * math.sqrt(last_k))
        )
        if term < 1e-14 * total and remainder < 1e-13 * total:
            return total
        start += block
        if start > 10**9:
            raise ValueError("series did not converge within the summation budget")


def unbiased_msework(rho: float, m: int) -> float:
    """Closed-form optimal MSE-work product for ``a_i = m(i+1)``.

    Equals ``(rho^-m sqrt(m (1 - rho^2m)) Li_{-1/2}(rho^m))^2`` in
    single-step work units, the square-root-rule optimum
    ``(sum_i sqrt(nu_i t_i))^2`` evaluated in closed form.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if m < 1:
        raise ValueError("m must be a positive integer")
    z = rho**m
    return (math.sqrt(m * (1.0 - z * z)) * polylog_minus_half(z) / z) ** 2


def _w_objective(w: float) -> float:
    z = math.exp(w)
    return (1.0 - z * z) * polylog_minus_half(z) ** 2 * abs(w) / (z * z)


def optimal_w(lo: float = -10.0, hi: float = -1e-3, tol: float = 1e-4) -> float:
    """Minimizer of the step-multiplier objective over ``w < 0``.

    Golden-section search of
    ``(e^-w sqrt(1 - e^2w) Li_{-1/2}(e^w) sqrt(|w|))^2``; the sign under
    the square root follows from ``m (1 - rho^2m) > 0``, so ``|w|`` is the
    correct reading of the continuous-``m`` substitution ``m = w / log rho``.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _w_objective(c), _w_objective(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _w_objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _w_objective(d)
    return 0.5 * (a + b)


def step_multiplier(rho: float, w: float = OPTIMAL_W) -> int:
    """Near-optimal step multiplier ``m = ceil(w / log rho)`` for a given rate."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    return max(1, math.ceil(w / math.log(rho)))


def partial_knowledge_optimize(
    nu_exact: Sequence[float], rho_bound: float, steps, horizon: int
) -> MseWorkReport:
    """Tune the truncation law from exact low-level variances plus a bound.

    The level variances ``nu_exact`` are taken as known; beyond them, up
    to ``horizon``, the autoregression's variances at the bounding rate
    ``rho_bound`` stand in.  The law is the square-root rule on these
    surrogate variances, capped at 1 and made nonincreasing (the bound can
    raise ``nu_i / t_i`` past the exact head), and the report evaluates it
    against the surrogate.
    """
    nu_head = np.asarray(nu_exact, dtype=float)
    if nu_head.size < 2:
        raise ValueError("need exact variances for at least levels 0 and 1")
    if horizon < nu_head.size:
        raise ValueError("horizon must exceed the exactly-known range")
    bound = contracting_delta_variances(rho_bound, steps, horizon + 1)
    nus = np.concatenate([nu_head, bound[nu_head.size :]])
    ts = np.asarray(steps[: horizon + 1], dtype=float)
    return msework_report(nus, ts, _square_root_law(nus, ts, project=True))
