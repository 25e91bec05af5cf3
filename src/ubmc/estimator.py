"""Randomized-truncation estimator for telescoping level expansions.

A quantity of interest is written as a sum of level differences
``sum_i delta_i`` whose expectations telescope to the target.  Drawing a
random truncation level ``N`` with survival probabilities
``Fbar_i = P(N >= i) > 0`` and returning

    Z = sum_{i<=N} delta_i / Fbar_i

gives an unbiased estimator whenever each level difference is generated
independently.  This module houses the truncation law, the block driver
that every draw runs through (one draw, a batch, or an experiment's
block of lanes), and the second-moment / expected-work identities used
to tune them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from .rng import Stream

__all__ = [
    "SurvivalDistribution",
    "UnbiasedDraw",
    "BatchResult",
    "LevelDifferenceGenerator",
    "EstimatorError",
    "NonFiniteDeltaError",
    "sample_truncation",
    "estimate_once",
    "estimate_block",
    "estimate_batch",
    "second_moment_formula",
    "expected_work",
]

# Iteration guard for truncation sampling: a survival function whose tail
# does not decay past the drawn uniform within this many levels is treated
# as malformed.
MAX_LEVEL = 10**9

# Replicates per execution block, and rows per chunk of the row-wise
# reference fit.  Fixed: results must not depend on the worker count, only
# on (seed, block, offset).
BLOCK_SIZE = 1024

# Sub-stream keys: the truncation draw and each level difference consume
# distinct children so deltas are mutually independent.
_KEY_TRUNCATION = 0
_KEY_LEVEL_BASE = 1


class EstimatorError(Exception):
    """Estimator-level failure (malformed truncation law, bad draw)."""


class NonFiniteDeltaError(EstimatorError):
    """A level difference came back NaN or infinite.

    Silently dropping such a draw would bias the estimator, so the level
    is reported and the draw aborted.
    """

    def __init__(self, level: int, value):
        self.level = level
        self.value = value
        super().__init__(f"non-finite level difference at level {level}: {value!r}")


class LevelDifferenceGenerator(Protocol):
    """Contract for one level difference.

    A generator is a callable ``(level, rng) -> (value, work)`` that draws
    its randomness from the ``numpy.random.Generator`` ``rng`` alone.  The
    levels of one draw receive independent streams, which is what makes
    its deltas mutually independent; the lanes of a block share one
    generator per level, each reading on where the last stopped.
    ``value`` is a float, or a fixed-length 1-d array for vector-valued
    targets.
    """

    def __call__(self, level: int, rng: np.random.Generator): ...


class SurvivalDistribution:
    """Truncation law ``Fbar_i = P(N >= i)`` with sampling and mass queries.

    Three families are supported:

    * ``geometric``: ``Fbar_i = rate**(exponent*i)`` for ``rate`` in (0,1);
    * ``polynomial``: ``Fbar_i = (i+1)**(-exponent)`` (so ``Fbar_0 = 1``);
    * ``tabulated``: an explicit nonincreasing table, optionally continued
      by a geometric tail with ratio ``tail_ratio``; a missing tail means
      the support ends at the last positive entry.

    All families satisfy ``Fbar_0 = 1`` and ``Fbar_{i+1} <= Fbar_i``.  A
    tabulated law with ``tail_ratio == 1`` is *improper* (it never decays);
    it can still be evaluated, but sampling it raises.
    """

    def __init__(self, kind, *, rate=None, exponent=None, table=None, tail_ratio=None):
        self.kind = kind
        self.rate = rate
        self.exponent = exponent
        self.tail_ratio = tail_ratio
        self.table = None
        if kind == "geometric":
            if not (rate is not None and 0.0 < rate < 1.0):
                raise ValueError("geometric survival needs rate in (0, 1)")
            if not (exponent is not None and exponent > 0.0):
                raise ValueError("geometric survival needs exponent > 0")
        elif kind == "polynomial":
            if not (exponent is not None and exponent > 0.0):
                raise ValueError("polynomial survival needs exponent > 0")
        elif kind == "tabulated":
            values = np.asarray(table, dtype=float)
            if values.ndim != 1 or values.size == 0:
                raise ValueError("table must be a nonempty 1-d sequence")
            if not math.isclose(values[0], 1.0, rel_tol=0, abs_tol=1e-12):
                raise ValueError("table must start at Fbar_0 = 1")
            if np.any(np.diff(values) > 1e-15):
                raise ValueError("table must be nonincreasing")
            if np.any(values < 0):
                raise ValueError("table entries must be nonnegative")
            positive = values > 0
            if not np.all(positive[: int(positive.sum())]):
                raise ValueError("table may not resurrect after reaching zero")
            if tail_ratio is not None:
                if not (0.0 < tail_ratio <= 1.0):
                    raise ValueError("tail_ratio must be in (0, 1]")
                if values[-1] == 0.0:
                    raise ValueError("geometric tail requires a positive last entry")
            # Rises within the tolerance would give a negative pmf and an
            # unsorted table to invert against.
            self.table = np.minimum.accumulate(values)
        else:
            raise ValueError(f"unknown survival family {kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def geometric(cls, rate: float, exponent: float = 1.0) -> "SurvivalDistribution":
        return cls("geometric", rate=float(rate), exponent=float(exponent))

    @classmethod
    def polynomial(cls, exponent: float) -> "SurvivalDistribution":
        return cls("polynomial", exponent=float(exponent))

    @classmethod
    def tabulated(cls, values, tail_ratio: float | None = None) -> "SurvivalDistribution":
        return cls("tabulated", table=values, tail_ratio=tail_ratio)

    # -- queries -----------------------------------------------------------

    @property
    def proper(self) -> bool:
        """Whether ``Fbar_i`` decays to zero, i.e. N is almost-surely finite."""
        if self.kind == "tabulated":
            return self.tail_ratio is None or self.tail_ratio < 1.0
        return True

    def survival(self, i: int) -> float:
        """``Fbar_i = P(N >= i)``."""
        if i < 0:
            return 1.0
        if self.kind == "geometric":
            return self.rate ** (self.exponent * i)
        if self.kind == "polynomial":
            return (i + 1.0) ** (-self.exponent)
        values = self.table
        if i < values.size:
            return float(values[i])
        if self.tail_ratio is None:
            return 0.0
        return float(values[-1] * self.tail_ratio ** (i - values.size + 1))

    def survival_array(self, n: int) -> np.ndarray:
        """``[Fbar_0, ..., Fbar_{n-1}]``, entry for entry :meth:`survival`."""
        return np.array([self.survival(i) for i in range(n)], dtype=float)

    def pmf(self, i: int) -> float:
        """``P(N = i)``."""
        return self.survival(i) - self.survival(i + 1)

    def quantile_level(self, u: float) -> int:
        """``max{ i : Fbar_i > u }`` for ``u`` in (0, 1).

        This is the inverse-survival transform used by :meth:`sample_many`;
        ties ``u == Fbar_i`` resolve by the strict inequality.
        """
        if not 0.0 < u < 1.0:
            raise ValueError("u must lie strictly in (0, 1)")
        table = self._sampling_table
        if u >= table[-1]:
            return int(_last_above(table, u))
        # Past the table: start from a closed form, then settle it against
        # the exact predicate (it can be off by one unit in floating point).
        last = table.size - 1
        if self.kind == "geometric":
            guess = math.log(u) / (self.exponent * math.log(self.rate))
        elif self.kind == "polynomial":
            guess = u ** (-1.0 / self.exponent) - 1.0
        elif u >= self.table[-1] or self.tail_ratio is None:
            return int(_last_above(self.table, u))
        elif self.tail_ratio == 1.0:
            raise EstimatorError("improper survival (constant tail) cannot be sampled")
        else:
            values = self.table
            guess = values.size - 1 + math.log(u / values[-1]) / math.log(self.tail_ratio)
        if guess > MAX_LEVEL:
            raise EstimatorError(
                f"truncation sample exceeded the {MAX_LEVEL} level cap; "
                "survival tail is too heavy"
            )
        n = max(last, int(math.ceil(guess)) - 1)
        while self.survival(n + 1) > u:
            n += 1
        while n > last and self.survival(n) <= u:
            n -= 1
        return n

    def sample_many(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` independent truncation levels (vectorized).

        Uniforms are inverted against :attr:`_sampling_table`, whose entries
        are the values :meth:`quantile_level` compares against, so both
        resolve ties ``u == Fbar_i`` alike; uniforms below the table's last
        entry (essentially never hit) take the scalar path.
        """
        u = rng.random(n)
        u[u <= 0.0] = 0.5  # measure-zero guard
        table = self._sampling_table
        out = _last_above(table, u)
        deep = u < table[-1]
        if np.any(deep):
            out[deep] = [self.quantile_level(ui) for ui in u[deep]]
        return out

    @functools.cached_property
    def _sampling_table(self) -> np.ndarray:
        """``Fbar_0, Fbar_1, ...`` down to negligible mass or ``2**12`` levels."""
        values = [self.survival(0)]
        while values[-1] > 1e-17 and len(values) < 2**12:
            values.append(self.survival(len(values)))
        return np.array(values)

    def __repr__(self) -> str:
        if self.kind == "geometric":
            return f"SurvivalDistribution.geometric(rate={self.rate}, exponent={self.exponent})"
        if self.kind == "polynomial":
            return f"SurvivalDistribution.polynomial(exponent={self.exponent})"
        return (
            f"SurvivalDistribution.tabulated(<{self.table.size} values>, "
            f"tail_ratio={self.tail_ratio})"
        )


def _last_above(table: np.ndarray, u):
    """``max{i : table[i] > u}``, or 0 when there is none, for a
    nonincreasing ``table``; ``u`` may be an array."""
    return np.maximum(np.searchsorted(-table, -u, side="left") - 1, 0)


@dataclass
class UnbiasedDraw:
    """One realization of the randomized-truncation estimator.

    ``work`` is the sum of the per-level work units reported by the
    generator, and equals the total effort of the draw by construction.
    """

    value: float | np.ndarray
    level: int
    work: float


@dataclass
class BatchResult:
    """Aggregate of independent draws; see :func:`estimate_batch`.

    ``z``, ``N`` and ``work`` hold the draws, one row per replicate.
    """

    mean: float | np.ndarray
    variance: float | np.ndarray
    total_work: float
    z: np.ndarray = field(repr=False)
    N: np.ndarray = field(repr=False)
    work: np.ndarray = field(repr=False)

    @property
    def std_error(self):
        return np.sqrt(self.variance / len(self.z))


def sample_truncation(survival: SurvivalDistribution, rng: np.random.Generator) -> int:
    """Draw the truncation level ``N`` with ``P(N = i) = Fbar_i - Fbar_{i+1}``."""
    return int(survival.sample_many(1, rng)[0])


def estimate_once(
    gen: LevelDifferenceGenerator,
    survival: SurvivalDistribution,
    stream: Stream,
) -> UnbiasedDraw:
    """Generate one unbiased draw ``Z = sum_{i<=N} delta_i / Fbar_i``.

    The draw is a one-lane :func:`estimate_block` on ``stream``.
    """
    out = estimate_block(_per_lane(gen), survival, stream, 1)
    value = out["z"][0]
    return UnbiasedDraw(
        value=value if value.ndim else float(value),
        level=int(out["N"][0]),
        work=float(out["work"][0]),
    )


def estimate_block(
    delta_batch: Callable[[int, int, np.random.Generator], tuple],
    survival: SurvivalDistribution,
    stream: Stream,
    count: int,
) -> dict:
    """``count`` independent draws of ``Z``, run as lanes sharing one stream.

    Every lane draws ``N`` from child 0 of ``stream``.  The lanes with
    ``N >= i`` then get their level-``i`` differences from one generator
    on child ``1 + i``, as ``delta_batch(i, lanes, rng) -> (deltas, works)``
    with ``lanes`` the number of such lanes, in lane order.  The children
    are disjoint, so the deltas are independent of ``N`` and of the other
    levels, and the block is a pure function of ``(stream, count)``.
    Returns the arrays ``N``, ``z`` and ``work``; ``z`` takes the shape of
    the level-0 deltas, which every lane reaches, so vector-valued
    targets give one row per lane.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not survival.proper:
        raise EstimatorError("cannot draw from an improper survival distribution")
    ns = survival.sample_many(count, stream.child(_KEY_TRUNCATION).generator())
    work = np.zeros(count)
    for i in range(int(ns.max()) + 1):
        reached = ns >= i
        rng_i = stream.child(_KEY_LEVEL_BASE + i).generator()
        deltas, works = delta_batch(i, int(reached.sum()), rng_i)
        finite = np.isfinite(deltas)
        if not finite.all():
            raise NonFiniteDeltaError(i, deltas[~finite][0])
        if i == 0:
            z = np.zeros(np.shape(deltas))
        z[reached] += deltas / survival.survival(i)
        work[reached] += works
    return {"N": ns, "z": z, "work": work}


def _per_lane(gen: LevelDifferenceGenerator):
    """Lift a scalar per-draw generator into a ``delta_batch``.

    The lanes run one after another on the level's one generator.  Each
    lane reads a fresh segment of an i.i.d. stream, independent of ``N``
    and of the other lanes, so the law of every draw is unchanged.
    """

    def delta_batch(level: int, lanes: int, rng: np.random.Generator):
        pairs = [gen(level, rng) for _ in range(lanes)]
        return (
            np.array([delta for delta, _ in pairs], dtype=float),
            np.array([t for _, t in pairs], dtype=float),
        )

    return delta_batch


def estimate_batch(
    gen: LevelDifferenceGenerator,
    survival: SurvivalDistribution,
    replicates: int,
    seed: int,
) -> BatchResult:
    """Average ``replicates`` independent draws of the estimator.

    The replicates are the lanes of one :func:`estimate_block` on
    ``Stream(seed)``, so a batch is reproducible draw-for-draw, and the
    aggregation below (``math.fsum``) is exact in any summation order.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    out = estimate_block(_per_lane(gen), survival, Stream(seed), replicates)
    mean, var = _mean_variance(out["z"])
    return BatchResult(
        mean=mean,
        variance=var,
        total_work=math.fsum(out["work"]),
        z=out["z"],
        N=out["N"],
        work=out["work"],
    )


def _mean_variance(values: np.ndarray):
    """``math.fsum`` mean and unbiased variance of draws along axis 0.

    Columns of a 2-d array are treated separately.  One draw has no
    sample variance, so it gets NaN rather than a spurious 0.
    """
    if values.ndim > 1:
        columns = [_mean_variance(col) for col in values.T]
        return np.array([m for m, _ in columns]), np.array([v for _, v in columns])
    n = values.size
    mean = math.fsum(values) / n
    if n == 1:
        return mean, math.nan
    # Square in slices: fsum is exact in any order, and a temporary the
    # size of the column would only raise the peak memory of large runs.
    squares = ((values[k : k + 8192] - mean) ** 2 for k in range(0, n, 8192))
    return mean, math.fsum(itertools.chain.from_iterable(squares)) / (n - 1)


def second_moment_formula(
    nus: Sequence[float],
    survival: SurvivalDistribution,
    truncation: int | None = None,
) -> float:
    """``E[Z^2] = sum_{i<=truncation} nu_i / Fbar_i``.

    ``nu_i`` are the level second-moment coefficients
    ``var(delta_i) + (EY - EY_{i-1})^2 - (EY - EY_i)^2``; computing them is
    the caller's (model's) business.
    """
    nus = np.asarray(nus, dtype=float)
    if truncation is None:
        truncation = nus.size - 1
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    if truncation >= nus.size:
        raise ValueError("need nu_i up to the requested truncation")
    if not np.all(np.isfinite(nus[: truncation + 1])):
        raise ValueError("nu_i must be finite")
    total = 0.0
    for i in range(truncation + 1):
        fbar = survival.survival(i)
        if fbar <= 0.0:
            raise EstimatorError(f"Fbar_{i} = 0 inside the summation range")
        total += nus[i] / fbar
    return total


def expected_work(
    ts: Sequence[float] | Callable[[int], float],
    survival: SurvivalDistribution,
    truncation: int,
) -> float:
    """``E[work] = sum_{i<=truncation} t_i Fbar_i``."""
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    get = ts if callable(ts) else ts.__getitem__
    return math.fsum(get(i) * survival.survival(i) for i in range(truncation + 1))
