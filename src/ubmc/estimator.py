"""Randomized-truncation estimator for telescoping level expansions.

A quantity of interest is written as a sum of level differences
``sum_i delta_i`` whose expectations telescope to the target.  Drawing a
random truncation level ``N`` with survival probabilities
``Fbar_i = P(N >= i) > 0`` and returning

    Z = sum_{i<=N} delta_i / Fbar_i

gives an unbiased estimator whenever each level difference is generated
independently.  This module houses the truncation law and the block
driver that every draw runs through (one draw, a batch, or an
experiment's blocks of lanes).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .rng import Stream, lane_rng

__all__ = [
    "SurvivalDistribution",
    "UnbiasedDraw",
    "BatchResult",
    "EstimatorError",
    "NonFiniteDeltaError",
    "sample_truncation",
    "estimate_once",
    "estimate_block",
    "estimate_batch",
    "draw_statistics",
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

# Exact sums (see _fsum): values per chunk, which bounds the temporaries,
# values per bucket sum, below which it is exact, and the IEEE-754 bit
# patterns that bound the values summed by exponent.
_SUM_CHUNK = 2**15
_BUCKET_LIMIT = 2**26
_ABS_BITS = np.uint64(2**63 - 1)
_TINY_BITS = 55 << 52  # |x| < 2^-968: a 26-bit half of x could be subnormal
_HUGE_BITS = 2019 << 52  # |x| >= 2^996: x (2^27 + 1) could overflow


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
        # Past the table, for every family: double while Fbar_hi > u, then
        # bisect, keeping Fbar_lo > u >= Fbar_hi.
        lo, hi = table.size - 1, 2 * table.size
        while self.survival(hi) > u:
            if hi >= MAX_LEVEL:
                raise EstimatorError(
                    f"truncation sample exceeded the {MAX_LEVEL} level cap; "
                    "survival tail is too heavy or never decays"
                )
            lo, hi = hi, min(2 * hi, MAX_LEVEL)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if self.survival(mid) > u else (lo, mid)
        return lo

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

    ``work`` is the total effort of the draw: its levels' work units summed.
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
    delta_batch: Callable[[list, Callable[[int], list]], list],
    survival: SurvivalDistribution,
    stream: Stream,
) -> UnbiasedDraw:
    """Generate one unbiased draw ``Z = sum_{i<=N} delta_i / Fbar_i``.

    The draw is a one-lane :func:`estimate_block` on ``stream``.
    """
    out = estimate_block(delta_batch, survival, [stream], [1])
    value = out["z"][0]
    return UnbiasedDraw(
        value=value if value.ndim else float(value),
        level=int(out["N"][0]),
        work=float(out["work"][0]),
    )


def estimate_block(
    delta_batch: Callable[[list, Callable[[int], list]], list],
    survival: SurvivalDistribution,
    streams: Sequence[Stream],
    counts: Sequence[int],
) -> dict:
    """Independent draws of ``Z`` for the blocks ``streams[b]`` of
    ``counts[b]`` lanes each, stepped as one lane array.

    Every lane of block ``b`` draws ``N`` from child 0 of ``streams[b]``.
    One call ``delta_batch(rows, level_rng)`` then gives every level's
    differences: ``rows[b][i]`` is the number of block ``b``'s lanes with
    ``N >= i``, for ``i`` up to the largest ``N`` of any block (zero past
    the block's own), and ``level_rng(i)`` lists the child-``1 + i``
    generators of the blocks with a lane at level ``i``, in block order.
    It returns one ``(deltas, works)`` per level, the deltas of the lanes
    with ``N >= i`` in lane order, block after block; too few levels, or
    deltas that do not lead with one row per such lane, raise
    :class:`EstimatorError`.  A chain's ``delta_batch`` steps each run of
    levels (see :func:`~ubmc.couplings.level_runs`) as one lane array on
    ``level_rng(<first level of the run>)``.

    Why the levels stay independent when a run shares one stream: every
    pair of chains gets fresh draws at every step, and which draws go to
    which pair depends only on ``N`` and on earlier states.  So the pairs'
    chains are independent of each other and of ``N``, each with the law
    of a level difference run on a stream of its own, as the lanes of one
    level already are; ``Z`` is Rhee and Glynn's independent-sum
    estimator.  Blocks share a lane array, never a generator: each block's
    rows draw from its own streams, in the order the block alone would
    draw them (:func:`~ubmc.rng.lane_rng`), so each block's draws are bit
    for bit those of the block run alone, and blocks stay independent of
    each other.  The result is a pure function of ``(streams, counts)``.
    Returns the arrays ``N``, ``z`` and ``work``, block after block; ``z``
    takes the shape of the level-0 deltas, which every lane reaches, so
    vector-valued targets give one row per lane.
    """
    if min(counts, default=0) < 1 or len(streams) != len(counts):
        raise ValueError("count must be >= 1, one per stream")
    if not survival.proper:
        raise EstimatorError("cannot draw from an improper survival distribution")
    truncation = [s.child(_KEY_TRUNCATION).generator() for s in streams]
    ns = survival.sample_many(sum(counts), lane_rng(truncation, counts))
    # rows[b][i]: block b's lanes with N >= i.
    depth = int(ns.max()) + 1
    block = np.repeat(np.arange(len(counts)), counts)
    rows = np.bincount(block * depth + ns, minlength=len(counts) * depth).reshape(-1, depth)
    rows = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1].tolist()
    levels = delta_batch(rows, lambda i: [
        s.child(_KEY_LEVEL_BASE + i).generator() for s, row in zip(streams, rows) if row[i]
    ])
    if len(levels) != depth:
        raise EstimatorError(f"delta_batch gave {len(levels)} levels; the deepest N needs {depth}")
    work = np.zeros(ns.size)
    reached, lanes = slice(None), ns.size  # every lane reaches level 0
    for i, (deltas, works) in enumerate(levels):
        if i:  # the lanes with N >= i, in order, narrowed level by level
            reached = np.flatnonzero(ns >= i) if i == 1 else reached[ns[reached] >= i]
            lanes = reached.size
        if np.shape(deltas)[:1] != (lanes,):
            raise EstimatorError(
                f"level {i}: need one delta row per lane that reached it ({lanes}), "
                f"got shape {np.shape(deltas)}"
            )
        finite = np.isfinite(deltas)
        if not finite.all():
            raise NonFiniteDeltaError(i, deltas[~finite][0])
        if i == 0:
            z = np.zeros(np.shape(deltas))
        z[reached] += deltas / survival.survival(i)
        work[reached] += works
    return {"N": ns, "z": z, "work": work}


def estimate_batch(
    delta_batch: Callable[[list, Callable[[int], list]], list],
    survival: SurvivalDistribution,
    replicates: int,
    seed: int,
) -> BatchResult:
    """Average ``replicates`` independent draws of the estimator.

    The replicates are the lanes of one :func:`estimate_block` on
    ``Stream(seed)``, so a batch is reproducible draw-for-draw, and its
    statistics are those of :func:`draw_statistics`.
    """
    out = estimate_block(delta_batch, survival, [Stream(seed)], [replicates])
    mean, var, total_work = draw_statistics(out["z"], out["work"])
    return BatchResult(
        mean=mean,
        variance=var,
        total_work=total_work,
        z=out["z"],
        N=out["N"],
        work=out["work"],
    )


def draw_statistics(z: np.ndarray, work: np.ndarray):
    """``(mean, variance, total_work)`` of draws ``z`` and their ``work``.

    The mean is ``math.fsum(z) / n``, the unbiased variance
    ``math.fsum((z - mean) ** 2) / (n - 1)`` and the total work
    ``math.fsum(work)``, all bit for bit: every sum is correctly rounded,
    so none depends on the order of the draws.  Columns of a 2-d ``z`` are
    treated separately.  One draw has no sample variance, so it gets NaN
    rather than a spurious 0.
    """
    return (*_mean_variance(np.asarray(z, dtype=float)), _fsum(_chunks(np.asarray(work, dtype=float))))


def _mean_variance(values: np.ndarray):
    if values.ndim > 1:
        columns = [_mean_variance(col) for col in values.T]
        return np.array([m for m, _ in columns]), np.array([v for _, v in columns])
    n = values.size
    mean = _fsum(_chunks(values)) / n
    if n == 1:
        return mean, math.nan
    return mean, _fsum(_chunks(values, center=mean)) / (n - 1)


def _chunks(values: np.ndarray, center: float | None = None) -> Callable[[], Iterator[np.ndarray]]:
    """Chunks of ``values``, or of ``(values - center) ** 2``, as
    :func:`_fsum` takes them: the squares are made one chunk at a time, so
    no temporary is the size of ``values``."""

    def chunks():
        for k in range(0, values.size, _SUM_CHUNK):
            chunk = values[k : k + _SUM_CHUNK]
            if center is not None:
                chunk = chunk - center
                np.multiply(chunk, chunk, out=chunk)
            yield chunk

    return chunks


def _fsum(chunks: Callable[[], Iterator[np.ndarray]]) -> float:
    """``math.fsum`` of the values of ``chunks()``, bit for bit, without
    one Python float per value.

    Each value ``x`` splits exactly into ``hi + lo``, halves of at most 26
    significant bits (Veltkamp: ``c = x (2^27 + 1)``, ``hi = c - (c - x)``,
    ``lo = x - hi``).  A half whose IEEE exponent field is ``e`` is an
    integer multiple of ``2^(e - 1048)`` below ``2^26`` in size, so
    ``np.bincount`` sums fewer than ``2^26`` halves per exponent field
    exactly.  ``math.fsum`` of those sums is the correctly rounded total,
    as ``math.fsum`` of the values is; chunks under 64 values add their
    values as they are.  Subnormal and non-finite values, and values that
    could make a half subnormal or overflow the split, send the whole sum
    to ``math.fsum`` in order: near overflow, its result depends on the
    order.
    """
    partials, sums, count = [], np.zeros((2, 2048)), 0
    for x in chunks():
        bits = x.view(np.uint64) & _ABS_BITS
        if bits.max() >= _HUGE_BITS or (bits - np.uint64(1)).min() < _TINY_BITS - 1:
            return math.fsum(itertools.chain.from_iterable(c.tolist() for c in chunks()))
        if x.size < 64:
            partials.append(x)
            continue
        if count + x.size >= _BUCKET_LIMIT:
            partials.append(sums[sums != 0.0])
            sums, count = np.zeros((2, 2048)), 0
        count += x.size
        hi = x * 134217729.0  # 2^27 + 1
        lo = hi - x
        np.subtract(hi, lo, out=hi)
        np.subtract(x, hi, out=lo)
        field = bits  # reused: the exponent field of each half
        for row, half in zip(sums, (hi, lo)):
            np.right_shift(half.view(np.uint64), 52, out=field)
            field &= np.uint64(0x7FF)
            row += np.bincount(field, weights=half, minlength=2048)
    partials.append(sums[sums != 0.0])
    return math.fsum(itertools.chain.from_iterable(partials))
