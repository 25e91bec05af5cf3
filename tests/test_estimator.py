"""Core randomized-truncation estimator: truncation laws, draws, identities."""

import math

import numpy as np
import pytest

from ubmc import (
    EstimatorError,
    NonFiniteDeltaError,
    LevelSchedule,
    Stream,
    SurvivalDistribution,
    estimate_batch,
    estimate_once,
    sample_truncation,
)
from ubmc.estimator import estimate_block
from ubmc.tuning import contracting_delta_variances, contracting_optimal_survival, msework_report

from conftest import ForcedTruncationStream, four_se, per_lane


def stub_generator(values):
    """Deterministic level-difference stub: delta_i = values(i), unit work."""

    def gen(level, rng):
        return values(level), 1.0
    return gen


GEOM_HALF = SurvivalDistribution.geometric(0.5)


class TestSurvivalDistribution:
    def test_inverse_survival_examples(self):
        # Fbar_1 = 0.5 > 0.3 >= Fbar_2 = 0.25, so u = 0.3 lands at level 1.
        assert GEOM_HALF.quantile_level(0.3) == 1
        assert GEOM_HALF.quantile_level(0.9) == 0

    def test_degenerate_table_always_zero(self):
        degenerate = SurvivalDistribution.tabulated([1.0, 0.0, 0.0])
        for u in (0.001, 0.25, 0.5, 0.999):
            assert degenerate.quantile_level(u) == 0

    def test_invariants_across_families(self):
        rng = np.random.default_rng(5)
        laws = [GEOM_HALF, SurvivalDistribution.polynomial(2.5)]
        for _ in range(20):
            rate = rng.uniform(0.05, 0.95)
            expo = rng.uniform(0.2, 3.0)
            laws.append(SurvivalDistribution.geometric(rate, expo))
            laws.append(SurvivalDistribution.polynomial(rng.uniform(0.3, 8.0)))
        for law in laws:
            fbar = law.survival_array(40)
            assert fbar[0] == 1.0
            assert np.all(np.diff(fbar) <= 1e-15)
            assert np.all(fbar > 0.0)

    def test_validation_rejections(self):
        with pytest.raises(ValueError):
            SurvivalDistribution.geometric(1.2)
        with pytest.raises(ValueError):
            SurvivalDistribution.polynomial(0.0)
        with pytest.raises(ValueError):
            SurvivalDistribution.tabulated([0.9, 0.5])
        with pytest.raises(ValueError):
            SurvivalDistribution.tabulated([1.0, 0.5, 0.7])
        with pytest.raises(ValueError):
            SurvivalDistribution.tabulated([1.0, 0.0, 0.3])

    def test_improper_tail_cannot_be_sampled(self):
        flat = SurvivalDistribution.tabulated([1.0, 1.0], tail_ratio=1.0)
        assert not flat.proper
        with pytest.raises(EstimatorError):
            flat.quantile_level(0.5)

    def test_ties_resolve_by_strict_inequality(self):
        # u equals Fbar_1 exactly: level 1 requires Fbar_1 > u, so N = 0.
        assert GEOM_HALF.quantile_level(0.5) == 0
        assert GEOM_HALF.quantile_level(0.25) == 1

    def test_level_cap_flags_malformed_tail(self):
        heavy = SurvivalDistribution.polynomial(0.05)
        with pytest.raises(EstimatorError, match="cap"):
            heavy.quantile_level(1e-3)  # level would be ~1e60

    @pytest.mark.parametrize(
        "law",
        [
            GEOM_HALF,
            SurvivalDistribution.geometric(0.8, 2.0),
            SurvivalDistribution.polynomial(3.0),
            SurvivalDistribution.tabulated(
                [1.0, 0.6, 0.35, 0.2], tail_ratio=0.5
            ),
        ],
        ids=["geometric", "geometric-exponent", "polynomial", "tabulated"],
    )
    def test_sampling_frequencies_match_pmf(self, law):
        n = 10**6
        draws = law.sample_many(n, Stream(77).generator())
        for i in range(11):
            p = law.pmf(i)
            if p < 5e-6:
                continue
            observed = np.mean(draws == i)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(observed - p) <= 4.0 * se + 1e-12

    def test_tabulated_rise_within_tolerance_is_flattened(self):
        # The table rises by one ulp, inside the validation tolerance; the
        # stored law must still be a proper nonincreasing survival.
        law = SurvivalDistribution.tabulated([1.0, 0.5, 0.5000000000000001])
        assert all(law.pmf(i) >= 0.0 for i in range(5))
        for u in (0.1, 0.4999999999999999, 0.5, 0.5000000000000001, 0.7):
            assert law.quantile_level(u) == max(i for i in range(5) if law.survival(i) > u)

    def test_vectorized_matches_scalar_path(self):
        law = SurvivalDistribution.polynomial(1.8)
        us = Stream(3).generator().random(2000)
        scalar = np.array([law.quantile_level(u) for u in us])
        # sample_many inverts the same uniforms through the table route
        vector = law.sample_many(2000, Stream(3).generator())
        assert np.array_equal(scalar, vector)


class TestEstimateOnce:
    def test_forced_level_hand_value(self):
        # u = 0.2 lies in [Fbar_3, Fbar_2) so N = 2 and
        # Z = 1/1 + 0.5/0.5 + 0.25/0.25 = 3 for delta_i = 2^-i.
        gen = stub_generator(lambda i: 2.0**-i)
        draw = estimate_once(per_lane(gen), GEOM_HALF, ForcedTruncationStream(0.2))
        assert draw.level == 2
        assert draw.value == pytest.approx(3.0)
        assert draw.work == pytest.approx(3.0)

    def test_telescoping_collapse(self):
        # delta_0 = 5 and all later levels zero: Z = 5 whatever N is.
        gen = stub_generator(lambda i: 5.0 if i == 0 else 0.0)
        for u in (0.9, 0.3, 0.07, 0.002):
            draw = estimate_once(per_lane(gen), GEOM_HALF, ForcedTruncationStream(u))
            assert draw.value == pytest.approx(5.0)

    def test_non_finite_delta_reports_level(self):
        gen = stub_generator(lambda i: math.nan if i == 2 else 1.0)
        with pytest.raises(NonFiniteDeltaError) as err:
            estimate_once(per_lane(gen), GEOM_HALF, ForcedTruncationStream(0.1))
        assert err.value.level == 2

    def test_work_ledger_counts_levels(self):
        calls = []

        def gen(level, rng):
            calls.append(level)
            return 0.0, 1.0

        draw = estimate_once(per_lane(gen), GEOM_HALF, ForcedTruncationStream(0.03))
        assert calls == list(range(draw.level + 1))
        assert draw.work == pytest.approx(draw.level + 1)

    def test_improper_survival_rejected(self):
        flat = SurvivalDistribution.tabulated([1.0, 1.0], tail_ratio=1.0)
        with pytest.raises(EstimatorError):
            estimate_once(per_lane(stub_generator(lambda i: 0.0)), flat, Stream(0))

    def test_equals_one_lane_block(self):
        def gen(level, rng):
            return rng.standard_normal() * 2.0**-level, float(level + 1)

        for seed in range(20):
            draw = estimate_once(per_lane(gen), GEOM_HALF, Stream(seed))
            out = estimate_block(per_lane(gen), GEOM_HALF, Stream(seed), 1)
            assert draw.value == out["z"][0]
            assert draw.level == out["N"][0]
            assert draw.work == out["work"][0]

    def test_truncation_inverts_the_first_uniform(self):
        laws = [GEOM_HALF, SurvivalDistribution.polynomial(1.8)]
        for law in laws:
            for seed in range(500):
                u = Stream(seed).generator().random()
                level = sample_truncation(law, Stream(seed).generator())
                assert level == law.quantile_level(u)


class TestEstimateBlock:
    def test_forced_level_hand_value(self):
        # Every lane draws N = 2 (see TestEstimateOnce): Z = 3, work = 3.
        delta_batch = per_lane(stub_generator(lambda i: 2.0**-i))
        out = estimate_block(delta_batch, GEOM_HALF, ForcedTruncationStream(0.2), 5)
        assert out["N"].tolist() == [2] * 5
        assert out["z"] == pytest.approx(np.full(5, 3.0))
        assert out["work"].tolist() == [3.0] * 5

    def test_lanes_run_in_order_on_one_stream_per_level(self):
        # Level i of the block reads child 1 + i, lane after lane.
        delta_batch = per_lane(lambda level, rng: (rng.random(), 1.0))
        out = estimate_block(delta_batch, GEOM_HALF, ForcedTruncationStream(0.2, seed=9), 4)
        expected = sum(
            Stream(9).child(1 + i).generator().random(4) / GEOM_HALF.survival(i)
            for i in range(3)
        )
        assert np.array_equal(out["z"], expected)

    def test_non_finite_lane_reports_level(self):
        def delta_batch(counts, level_rng):
            levels = []
            for level, lanes in enumerate(counts):
                deltas = np.ones(lanes)
                if level == 1:
                    deltas[lanes // 2] = math.nan
                levels.append((deltas, 1.0))
            return levels

        with pytest.raises(NonFiniteDeltaError) as err:
            estimate_block(delta_batch, GEOM_HALF, ForcedTruncationStream(0.1), 8)
        assert err.value.level == 1

    def test_improper_survival_rejected(self):
        flat = SurvivalDistribution.tabulated([1.0, 1.0], tail_ratio=1.0)
        with pytest.raises(EstimatorError):
            estimate_block(per_lane(stub_generator(lambda i: 0.0)), flat, Stream(0), 4)

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_block_rejected(self, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            estimate_block(per_lane(stub_generator(lambda i: 0.0)), GEOM_HALF, Stream(0), count)

    def test_vector_valued_lanes(self):
        # z takes the shape of the level-0 deltas: one row per lane.
        def delta_batch(counts, level_rng):
            return [(np.ones((lanes, 3)) * 2.0**-level, np.ones(lanes)) for level, lanes in enumerate(counts)]

        out = estimate_block(delta_batch, GEOM_HALF, ForcedTruncationStream(0.2), 6)
        assert out["z"].shape == (6, 3)
        assert out["z"] == pytest.approx(np.full((6, 3), 3.0))

    def test_too_few_levels_rejected(self):
        # Level 0 alone would cut every draw with N >= 1 short.
        def delta_batch(counts, level_rng):
            return [(np.ones(counts[0]), 1.0)]

        with pytest.raises(EstimatorError, match="levels"):
            estimate_batch(delta_batch, GEOM_HALF, 1000, seed=3)

    @pytest.mark.parametrize("shape", [(), (1,)], ids=["scalar", "one-row"])
    def test_one_delta_for_many_lanes_rejected(self, shape):
        # Every lane reaches levels 0..2; level 1 gives one delta for all 5.
        def delta_batch(counts, level_rng):
            return [
                (np.ones(shape) if level == 1 else np.ones(lanes), 1.0)
                for level, lanes in enumerate(counts)
            ]

        with pytest.raises(EstimatorError, match="level 1"):
            estimate_block(delta_batch, GEOM_HALF, ForcedTruncationStream(0.2), 5)


class TestEstimateBatch:
    @pytest.mark.parametrize(
        "law",
        [
            GEOM_HALF,
            SurvivalDistribution.polynomial(2.5),
            SurvivalDistribution.tabulated([1.0, 0.5, 0.25], tail_ratio=0.5),
        ],
        ids=["geometric", "polynomial", "tabulated"],
    )
    def test_batch_mean_hits_telescoped_sum(self, law):
        # A randomized stub whose levels sum to 2 in expectation.
        def gen(level, rng):
            return 2.0**-level * (1.0 + 0.3 * rng.standard_normal()), 1.0

        result = estimate_batch(per_lane(gen), law, 100_000, seed=13)
        values = result.z
        assert abs(result.mean - 2.0) <= four_se(values)

    def test_single_replicate_matches_estimate_once(self):
        gen = stub_generator(lambda i: 1.0 / (1 + i))
        single = estimate_batch(per_lane(gen), GEOM_HALF, 1, seed=4)
        direct = estimate_once(per_lane(gen), GEOM_HALF, Stream(4))
        assert single.mean == direct.value
        assert single.total_work == direct.work

    def test_variance_equals_exact_loop_reference(self):
        # fsum is exact, so the sliced array form must match a plain loop
        # of correctly rounded squares bit for bit, past one 8192 slice.
        def gen(level, rng):
            return rng.standard_cauchy(), 1.0

        result = estimate_batch(per_lane(gen), SurvivalDistribution.tabulated([1.0]), 10_000, seed=5)
        values = result.z.tolist()
        mean = math.fsum(values) / len(values)
        assert result.mean == mean
        loop = math.fsum((v - mean) * (v - mean) for v in values) / (len(values) - 1)
        assert result.variance == loop

    def test_single_replicate_has_no_variance(self):
        # One draw carries no spread information; 0 would read as exact.
        single = estimate_batch(per_lane(stub_generator(lambda i: 1.0)), GEOM_HALF, 1, seed=4)
        assert math.isnan(single.variance)
        assert math.isnan(single.std_error)

    def test_determinism(self):
        def gen(level, rng):
            return rng.standard_normal() * 2.0**-level, float(level + 1)

        a = estimate_batch(per_lane(gen), GEOM_HALF, 500, seed=9)
        b = estimate_batch(per_lane(gen), GEOM_HALF, 500, seed=9)
        assert a.z.tolist() == b.z.tolist()
        assert a.N.tolist() == b.N.tolist()

    def test_batch_is_one_block_on_the_seed_stream(self):
        def gen(level, rng):
            return rng.standard_normal() * 2.0**-level, float(level + 1)

        law = SurvivalDistribution.polynomial(2.5)
        batch = estimate_batch(per_lane(gen), law, 700, seed=23)
        out = estimate_block(per_lane(gen), law, Stream(23), 700)
        assert np.array_equal(batch.z, out["z"])
        assert np.array_equal(batch.N, out["N"])
        assert np.array_equal(batch.work, out["work"])

    def test_levels_draw_independent_streams(self):
        # The per-level streams are keyed by the level index, so deltas of
        # one draw are uncorrelated across levels.
        lifted = per_lane(lambda level, rng: (rng.standard_normal(), 1.0))
        recorded = {}

        def delta_batch(counts, level_rng):
            levels = lifted(counts, level_rng)
            recorded.update((level, deltas) for level, (deltas, _) in enumerate(levels))
            return levels

        survival = SurvivalDistribution.tabulated([1.0, 1.0, 0.5], tail_ratio=0.5)
        out = estimate_block(delta_batch, survival, Stream(19), 20_000)
        reached = out["N"] >= 1
        pairs = np.column_stack([recorded[0][reached], recorded[1]])
        corr = np.corrcoef(pairs.T)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(pairs.shape[0])

    def test_vector_valued_batch(self):
        # Fixed-arity vector payloads aggregate componentwise.
        def gen(level, rng):
            base = np.array([1.0, -2.0]) * 2.0**-level
            return base + 0.1 * rng.standard_normal(2), 1.0

        result = estimate_batch(per_lane(gen), GEOM_HALF, 30_000, seed=17)
        values = result.z
        assert values.shape == (30_000, 2)
        target = np.array([2.0, -4.0])  # componentwise telescoped sums
        for k in range(2):
            assert abs(result.mean[k] - target[k]) <= four_se(values[:, k])
        assert result.variance.shape == (2,)

    def test_unbiased_for_contracting_chain(self):
        # Invariant mean of the autoregression is 0.
        rho, m = 0.5, 2
        schedule = LevelSchedule.arithmetic(m)
        survival = contracting_optimal_survival(rho, m)
        from ubmc.models import ContractingNormalsModel
        from ubmc.couplings import contraction_delta_batch

        model = ContractingNormalsModel(rho)
        delta_batch = contraction_delta_batch(
            model.kernel(), model.coupling(), schedule, lambda x: x, 0.0
        )
        result = estimate_batch(delta_batch, survival, 20_000, seed=21)
        values = result.z
        assert abs(result.mean) <= four_se(values)


class TestMomentFormulas:
    """``msework_report`` at ``mean = 0``: the variance term is
    ``E[Z^2] = sum_i nu_i / Fbar_i`` and the work ``sum_i t_i Fbar_i``."""

    def test_single_level(self):
        point = SurvivalDistribution.tabulated([1.0])
        assert msework_report([1.0], [1.0], point).variance_term == pytest.approx(1.0)

    def test_contracting_levels_hand_value(self):
        nus = contracting_delta_variances(0.5, [1, 2], 2)
        law = SurvivalDistribution.tabulated([1.0, 0.5], tail_ratio=0.5)
        assert msework_report(nus, [1.0, 2.0], law).variance_term == pytest.approx(1.125)

    def test_zero_survival_inside_range_rejected(self):
        law = SurvivalDistribution.tabulated([1.0, 0.5, 0.0])
        with pytest.raises(ValueError, match="survival vanishes"):
            msework_report([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], law)

    def test_non_finite_nu_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            msework_report([1.0, math.inf], [1.0, 1.0], GEOM_HALF)

    @pytest.mark.parametrize("nus, ts", [([], []), ([1.0], [1.0, 1.0])], ids=["empty", "unequal"])
    def test_empty_or_unequal_series_rejected(self, nus, ts):
        with pytest.raises(ValueError, match="equally sized, nonempty"):
            msework_report(nus, ts, GEOM_HALF)

    def test_second_moment_matches_monte_carlo(self):
        # Coupled-simulation second moment against the formula, 3 SE.
        rho, m, levels = 0.5, 1, 30
        steps = [m * (i + 1) for i in range(levels)]
        nus = contracting_delta_variances(rho, steps, levels)
        survival = contracting_optimal_survival(rho, m, levels=levels)
        formula = msework_report(nus, np.asarray(steps, dtype=float), survival).variance_term
        schedule = LevelSchedule.arithmetic(m)
        from ubmc.models import contracting_unbiased_block

        out = contracting_unbiased_block(rho, schedule, survival, Stream(31), 200_000)
        zsq = out["z"] ** 2
        se = zsq.std(ddof=1) / math.sqrt(zsq.size)
        assert abs(zsq.mean() - formula) <= 3.0 * se

    def test_expected_work_examples(self):
        assert msework_report(np.zeros(61), np.ones(61), GEOM_HALF).expected_work == pytest.approx(2.0)
        point = SurvivalDistribution.tabulated([1.0])
        assert msework_report([0.0], [7.0], point).expected_work == pytest.approx(7.0)

    def test_expected_work_partial_sums_monotone_convergent(self):
        rho, m = 0.8, 4
        survival = contracting_optimal_survival(rho, m)
        steps = np.array([float(m * (i + 1)) for i in range(60)])
        partials = [msework_report(np.zeros(n + 1), steps[: n + 1], survival).expected_work for n in range(1, 60)]
        assert all(b >= a for a, b in zip(partials, partials[1:]))
        assert partials[-1] - partials[-10] < 1e-9  # converged tail
