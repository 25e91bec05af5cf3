"""Summary statistics of a batch of draws: ``math.fsum`` results, vectorized."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubmc import estimator
from ubmc.estimator import draw_statistics

# Fixed example sequence and no example database: the suite stays
# reproducible and writes nothing to the working tree.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def outcome(fn):
    """``fn()``, or the type of the error it raises (``math.fsum`` raises on
    ``inf - inf`` and on intermediate overflow)."""
    try:
        return fn()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_same_float(got, expected):
    """Equal bit for bit: NaN matches NaN, and the sign of a zero counts."""
    if isinstance(expected, float) and math.isnan(expected):
        assert isinstance(got, float) and math.isnan(got)
    else:
        assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)


@np.errstate(over="ignore", invalid="ignore")  # squares of values near overflow
def assert_matches_fsum(values: np.ndarray):
    values = np.asarray(values, dtype=float)
    n = values.size
    got = outcome(lambda: draw_statistics(values, values))
    mean = outcome(lambda: math.fsum(values.tolist()) / n)
    total = outcome(lambda: math.fsum(values.tolist()))
    if isinstance(mean, type) or isinstance(total, type):
        assert got in (mean, total)
        return
    variance = math.nan if n == 1 else outcome(
        lambda: math.fsum(((values - mean) ** 2).tolist()) / (n - 1)
    )
    if isinstance(variance, type):
        assert got is variance
        return
    for g, e in zip(got, (mean, variance, total)):
        assert_same_float(g, e)


# Doubles from every binade (subnormals and the top binade included), values
# at the edges of the bucketed path (2^-968 and 2^996), signed zeros and a
# few non-finite values.
edges = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.0**-968, -np.nextafter(2.0**-968, 0.0), 2.0**-1022,
    np.nextafter(2.0**996, 0.0), -(2.0**996), 1.7976931348623157e308, math.inf, -math.inf, math.nan,
])
any_double = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023))
# Values the bucketed path sums itself: normal, far from overflow.
bucketed = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-960, 990))


@st.composite
def draws(draw):
    """Arrays of 1 to about 200 values, most on the bucketed path, with
    exact cancellations (``x`` next to ``-x``) and, in some, edge values."""
    element = st.one_of(bucketed, any_double, edges) if draw(st.booleans()) else bucketed
    values = draw(st.lists(element, min_size=1, max_size=130))
    cancel = draw(st.lists(st.sampled_from(values), max_size=70))
    mixed = values + [-v for v in cancel]
    order = draw(st.permutations(range(len(mixed))))
    return np.array(mixed)[list(order)]


@PROPERTY
@given(draws())
def test_statistics_equal_fsum_bit_for_bit(values):
    assert_matches_fsum(values)


@PROPERTY
@given(st.integers(56, 72), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_sizes_around_the_bucketed_threshold(n, scale, seed):
    rng = np.random.default_rng(seed)
    assert_matches_fsum(rng.standard_normal(n) * 2.0 ** rng.integers(-scale, scale + 1, n))


# Halves of x in [2^-996, 2^-995) round to 2^-996 and leave a subnormal
# low half near 2^-1023; a low half of 2^-1074 (from x just above 2^-1022)
# added after eight of them is lost in a bucket sum.  Below 2^-968 the sum
# therefore goes to math.fsum.
SUBNORMAL_HALVES = (
    [math.ldexp(1.0 + (2**25 - 1) * 2.0**-52, -996)] * 8 + [-(2.0**-996)] * 8
    + [math.ldexp(1.0 + 2.0**-52, -1022)] * 3 + [-(2.0**-1022)] * 3 + [0.0] * 50
)
# x (2^27 + 1) overflows from about 2^997 on: such sums go to math.fsum.
SPLIT_OVERFLOW = [1.7976931348623157e308, -1.7976931348623157e308] * 40 + [1.0]


@pytest.mark.parametrize("values", [SUBNORMAL_HALVES, SPLIT_OVERFLOW], ids=["subnormal-halves", "split-overflow"])
def test_values_the_buckets_cannot_sum(values):
    assert_matches_fsum(np.array(values))


@pytest.mark.parametrize("n", [2**15 - 1, 2**15, 2**15 + 1, 2**15 + 63, 3 * 2**15 + 5])
def test_chunk_boundaries(n):
    # Heavy tails and magnitudes over 600 binades, summed across chunks.
    rng = np.random.default_rng(n)
    assert_matches_fsum(rng.standard_cauchy(n) * 10.0 ** rng.integers(-300, 300, n))


def test_bucket_sums_restart_before_they_could_round(monkeypatch):
    # Past 2^26 values a bucket sum could round; the sums start over before
    # that.  A limit of two chunks exercises the restart on small input.
    monkeypatch.setattr(estimator, "_BUCKET_LIMIT", 2 * estimator._SUM_CHUNK + 1)
    rng = np.random.default_rng(6)
    assert_matches_fsum(rng.standard_cauchy(5 * 2**15 + 7) * 10.0 ** rng.integers(-30, 30, 5 * 2**15 + 7))


def test_one_bad_value_in_a_late_chunk():
    # A subnormal past the first chunk sends the whole sum to math.fsum.
    values = np.random.default_rng(3).standard_normal(3 * 2**15)
    values[-5] = 5e-324
    assert_matches_fsum(values)
    values[-5] = math.inf
    assert_matches_fsum(values)


def test_two_dimensional_draws_are_summarized_per_column():
    z = np.random.default_rng(4).standard_normal((500, 3))
    mean, variance, total = draw_statistics(z, np.ones(500))
    for k in range(3):
        m, v, _ = draw_statistics(np.ascontiguousarray(z[:, k]), np.ones(500))
        assert mean[k] == m and variance[k] == v
    assert total == 500.0


def test_million_draws_allocate_little():
    # The sums and the squares are made in bounded chunks: no temporary
    # is the size of the draws (8 MB each here).
    rng = np.random.default_rng(5)
    z, work = rng.standard_normal(10**6), rng.random(10**6)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        draw_statistics(z, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
