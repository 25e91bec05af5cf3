"""Property tests for inverse-survival sampling of the truncation laws."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from ubmc import EstimatorError, SurvivalDistribution
from ubmc.estimator import MAX_LEVEL

# Fixed example sequence and no example database: the suite stays
# reproducible and writes nothing to the working tree.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

ratios = st.lists(st.floats(0.05, 1.0), min_size=1, max_size=12)


def _table(rs, ends_at_zero=False):
    values = np.cumprod([1.0] + rs).tolist()
    return values + [0.0] if ends_at_zero else values


laws = st.one_of(
    st.builds(SurvivalDistribution.geometric, st.floats(0.05, 0.95), st.floats(0.5, 2.0)),
    st.builds(SurvivalDistribution.polynomial, st.floats(1.5, 6.0)),
    st.builds(
        lambda rs, zero: SurvivalDistribution.tabulated(_table(rs, zero)),
        ratios,
        st.booleans(),
    ),
    st.builds(
        lambda rs, tail: SurvivalDistribution.tabulated(_table(rs), tail),
        ratios,
        st.floats(0.05, 0.95),
    ),
)


@PROPERTY
@given(law=laws, data=st.data())
def test_quantile_level_is_the_largest_level_surviving_u(law, data):
    # Ties u == Fbar_k are drawn on purpose: they resolve by the strict
    # inequality of max{i : Fbar_i > u}.
    ties = [v for v in map(law.survival, range(1, 40)) if 0.0 < v < 1.0]
    u = data.draw(
        st.one_of(st.floats(1e-9, 1.0, exclude_max=True), st.sampled_from(ties or [0.5]))
    )
    n = law.quantile_level(u)
    assert n >= 0
    assert law.survival(n) > u
    assert all(law.survival(i) <= u for i in range(n + 1, n + 40))


class _ReplayUniforms:
    """Generator stand-in whose ``random(n)`` returns prepared uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


# Tiny uniforms reach past the table sample_many builds into its scalar
# fallback; exact ties u == Fbar_i are drawn on purpose.
uniforms = st.one_of(st.floats(1e-12, 1.0, exclude_max=True), st.floats(1e-12, 1e-6))


@PROPERTY
@given(law=laws, data=st.data())
def test_sample_many_agrees_with_quantile_level_on_the_same_uniforms(law, data):
    ties = [v for v in map(law.survival, range(1, 80)) if 0.0 < v < 1.0]
    u = data.draw(
        st.lists(st.one_of(uniforms, st.sampled_from(ties or [0.5])), min_size=1, max_size=200)
    )
    drawn = law.sample_many(len(u), _ReplayUniforms(u))
    assert drawn.tolist() == [law.quantile_level(v) for v in u]


def test_sample_many_resolves_an_exact_tie_like_quantile_level():
    # survival(41) of this law is one ulp below numpy's vectorized power
    # at the same level; both samplers must compare against survival(41).
    law = SurvivalDistribution.geometric(0.32499999999999996, 1.3)
    u = law.survival(41)
    assert law.quantile_level(u) == 40
    assert law.sample_many(1, _ReplayUniforms([u])).tolist() == [40]


def test_long_tabulated_law_past_the_sampling_table():
    # 6000 entries and a tail: uniforms below the cached table's last
    # entry continue through the rest of the table, then the tail.
    values = 0.998 ** np.arange(6000)
    law = SurvivalDistribution.tabulated(values, tail_ratio=0.5)
    u = [values[5000], 0.5 * (values[4500] + values[4501]), 0.3 * values[-1], values[-1] / 8]
    expected = [max(i for i in range(6010) if law.survival(i) > v) for v in u]
    assert [law.quantile_level(v) for v in u] == expected
    assert law.sample_many(len(u), _ReplayUniforms(u)).tolist() == expected


# Steep drops push many tables' last entry below the sampling table's
# 1e-17 floor, so the tail's closed-form inversion is reached as well.
tailed_tables = st.builds(
    lambda rs, tail: SurvivalDistribution.tabulated(_table(rs), tail),
    st.lists(st.one_of(st.floats(0.05, 1.0), st.floats(1e-9, 1e-5)), min_size=1, max_size=12),
    st.floats(0.05, 0.95),
)


@PROPERTY
@given(law=tailed_tables, data=st.data())
def test_tabulated_law_continues_into_its_tail(law, data):
    last = law.table.size - 1
    window = range(max(0, last - 2), last + 5)
    assert all(law.survival(i) >= law.survival(i + 1) for i in window)
    ties = [v for v in map(law.survival, window) if 0.0 < v < 1.0]
    near = [w for v in ties for w in np.nextafter(v, [0.0, 1.0]) if w < 1.0]
    high = min(law.survival(last - 2), np.nextafter(1.0, 0.0))
    u = data.draw(
        st.one_of(
            st.floats(law.survival(last + 3), high),
            st.sampled_from(ties),
            st.sampled_from(near),
        )
    )
    assert law.quantile_level(u) == max(i for i in range(last + 64) if law.survival(i) > u)


# Laws whose sampling tables end above the uniforms drawn for them, so every
# draw is inverted by doubling, then bisecting, on Fbar.
deep_laws = st.one_of(
    st.builds(SurvivalDistribution.polynomial, st.floats(2.05, 3.0)),
    st.builds(SurvivalDistribution.geometric, st.floats(0.99, 0.9999), st.floats(0.5, 2.0)),
    st.builds(
        lambda rs, tail: SurvivalDistribution.tabulated(_table(rs), tail), ratios, st.floats(0.99, 0.9999)
    ),
)


@PROPERTY
@given(law=deep_laws, data=st.data())
def test_deep_inversion_brackets_u(law, data):
    last = law._sampling_table.size - 1
    floor = law.survival(MAX_LEVEL)
    tie = data.draw(st.integers(last + 1, MAX_LEVEL).map(law.survival).filter(lambda v: v > floor))
    u = data.draw(
        st.one_of(st.floats(floor, law.survival(last), exclude_min=True, exclude_max=True), st.just(tie))
    )
    n = law.quantile_level(u)
    assert n >= last
    assert law.survival(n) > u >= law.survival(n + 1)
    assert law.sample_many(1, _ReplayUniforms([u])).tolist() == [n]


@pytest.mark.parametrize(
    "law, u",
    [
        (SurvivalDistribution.tabulated([1.0, 0.5], tail_ratio=1.0), 0.25),
        (SurvivalDistribution.polynomial(1.0), 1e-10),
        (SurvivalDistribution.geometric(1.0 - 1e-12), 0.5),
    ],
    ids=["improper", "polynomial-past-cap", "geometric-past-cap"],
)
def test_deep_inversion_raises_at_the_level_cap(law, u):
    assert u < law._sampling_table[-1]
    with pytest.raises(EstimatorError, match="level cap"):
        law.quantile_level(u)
    with pytest.raises(EstimatorError, match="level cap"):
        law.sample_many(1, _ReplayUniforms([u]))
