"""Efficiency analysis: level variances, truncation-law optimization."""

import math

import numpy as np
import pytest

from ubmc import LevelSchedule, Stream
from ubmc.estimator import SurvivalDistribution
from ubmc.couplings import contraction_delta_batch, level_runs
from ubmc.models import ContractingNormalsModel, contracting_unbiased_block
from ubmc.tuning import (
    contracting_delta_variances,
    contracting_optimal_survival,
    ergodic_msework_limit,
    msework_optimum,
    msework_report,
    optimal_w,
    partial_knowledge_optimize,
    polylog_minus_half,
    step_multiplier,
    unbiased_msework,
)


class TestDeltaVariances:
    def test_hand_values(self):
        nus = contracting_delta_variances(0.5, [1, 2], 2)
        assert nus[0] == pytest.approx(0.75)
        assert nus[1] == pytest.approx(0.1875)

    def test_immediate_mixing_limit(self):
        nus = contracting_delta_variances(1e-9, [1, 2, 3], 3)
        assert nus[0] == pytest.approx(1.0)
        assert np.all(nus[1:] <= 1e-17)

    def test_matches_coupled_simulation(self, stream):
        # nu_i equals Var(delta_i) for the zero-started chain; check the
        # first levels by direct coupled simulation within 3 SE.
        rho, m = 0.6, 2
        schedule = LevelSchedule.arithmetic(m)
        steps = [m * (i + 1) for i in range(4)]
        nus = contracting_delta_variances(rho, steps, 4)
        model = ContractingNormalsModel(rho)
        delta_batch = contraction_delta_batch(
            model.kernel(), model.coupling(), schedule, lambda x: x, 0.0
        )
        # Levels 0..3 are one fused run: every pair steps on one stream.
        assert level_runs(schedule, 3) == [range(4)]
        levels = delta_batch([200_000] * 4, lambda i: stream.child(i).generator())
        for level, (draws, _) in enumerate(levels):
            if level == 0:
                draws = draws - 0.0  # delta_0 = f(endpoint), mean 0
            sq = draws**2
            se = sq.std(ddof=1) / math.sqrt(sq.size)
            assert abs(sq.mean() - nus[level]) <= 3.0 * se


class TestOptimalSurvival:
    def test_square_root_rule(self):
        nus = [4.0**-i for i in range(6)]
        ts = [1.0] * 6
        survival = msework_report(nus, ts).survival
        for i in range(6):
            assert survival.survival(i) == pytest.approx(2.0**-i)

    def test_constant_ratio_is_improper(self):
        survival = msework_report([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]).survival
        assert not survival.proper
        report = msework_report([1.0] * 3, [1.0] * 3, survival)
        assert not report.survival.proper
        assert not report.converged

    def test_rise_within_rounding_is_flat(self):
        # nu_1 / t_1 rises by 1e-13 relative, inside the rule's tolerance:
        # the law is flat, hence improper, not a rising table.
        report = msework_report([1.0, 1.0 + 1e-13], [1.0, 1.0])
        assert np.array_equal(report.survival.survival_array(2), [1.0, 1.0])
        assert not report.survival.proper

    def test_increasing_ratio_rejected(self):
        with pytest.raises(ValueError, match="index 1"):
            msework_report([1.0, 2.0], [1.0, 1.0])

    def test_underflowed_ratio_names_its_level(self):
        # Criterion 4's arrays: nu_i / t_i underflows to 0 before nu_i does.
        rho, m, levels = 0.5, 8, 400
        steps = np.array([m * (i + 1) for i in range(levels)], dtype=float)
        nus = contracting_delta_variances(rho, steps, levels)
        first = int(np.flatnonzero(nus / steps == 0.0)[0])
        assert nus[first] > 0.0
        with pytest.raises(ValueError, match=f"nu_i / t_i is 0 at level {first} "):
            msework_report(nus, steps)
        # The same through contracting_optimal_survival, whose nu_i also
        # reach 0 inside the kept levels.
        nus = contracting_delta_variances(rho, steps, 150)
        assert nus[-1] == 0.0
        first = int(np.flatnonzero(nus / steps[:150] == 0.0)[0])
        with pytest.raises(ValueError, match=f"nu_i / t_i is 0 at level {first} "):
            contracting_optimal_survival(rho, m, levels=150)

    def test_cauchy_schwarz_equality(self):
        # The rule attains (sum sqrt(nu t))^2 exactly.
        rho, m, levels = 0.8, 4, 60
        steps = np.array([m * (i + 1) for i in range(levels)], dtype=float)
        nus = contracting_delta_variances(rho, steps, levels)
        survival = msework_report(nus, steps).survival
        report = msework_report(nus, steps, survival)
        assert report.product == pytest.approx(
            msework_optimum(nus, steps), rel=1e-10
        )
        assert report.converged

    def test_report_consistency(self):
        nus = [1.0, 0.25]
        ts = [1.0, 2.0]
        survival = msework_report(nus, ts).survival
        report = msework_report(nus, ts, survival, mean=0.3)
        assert report.product == pytest.approx(
            report.variance_term * report.expected_work
        )
        fbar = [survival.survival(i) for i in range(2)]
        assert report.variance_term == pytest.approx(sum(nu / f for nu, f in zip(nus, fbar)) - 0.09)
        assert report.expected_work == pytest.approx(sum(t * f for t, f in zip(ts, fbar)))


class TestErgodicLimit:
    @pytest.mark.parametrize("rho,expected", [(0.0, 1.0), (0.8, 9.0), (0.5, 3.0)])
    def test_values(self, rho, expected):
        assert ergodic_msework_limit(rho) == pytest.approx(expected)


class TestPolylog:
    def test_zero(self):
        assert polylog_minus_half(0.0) == 0.0

    def test_half_against_brute_force(self):
        brute = sum(math.sqrt(k) * 0.5**k for k in range(1, 400))
        assert polylog_minus_half(0.5) == pytest.approx(brute, abs=1e-4)
        assert polylog_minus_half(0.5) == pytest.approx(1.3473, abs=1e-4)

    def test_monotone(self):
        grid = np.linspace(0.05, 0.95, 10)
        vals = [polylog_minus_half(z) for z in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            polylog_minus_half(1.0 - 1e-9)
        with pytest.raises(ValueError):
            polylog_minus_half(-0.1)


class TestClosedForm:
    @pytest.mark.parametrize("rho", [0.5, 0.8, 0.9])
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_matches_series_route(self, rho, m):
        # Independent route: square-root rule + partial sums of the moment
        # and work identities.
        closed = unbiased_msework(rho, m)
        levels = 5
        total = 0.0
        while True:  # adaptive truncation of the exact series
            levels *= 2
            steps = np.array([m * (i + 1) for i in range(levels)], dtype=float)
            nus = contracting_delta_variances(rho, steps, levels)
            keep = nus > 0
            series = msework_optimum(nus[keep], steps[keep])
            if abs(series - total) <= 1e-9 * series:
                break
            total = series
        assert closed == pytest.approx(series, rel=1e-6)

    def test_grows_with_large_m(self):
        values = [unbiased_msework(0.8, m) for m in (8, 32, 128, 512)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestStepMultiplierAnsatz:
    def test_optimal_w_value(self):
        w = optimal_w()
        assert w == pytest.approx(-1.632, abs=0.01)

    def test_stored_constant_is_the_search_result(self):
        # step_multiplier and the tune experiment read the stored value.
        from ubmc.tuning import OPTIMAL_W

        assert optimal_w() == OPTIMAL_W
        assert step_multiplier(0.8) == step_multiplier(0.8, optimal_w())

    def test_local_minimum_certificate(self):
        from ubmc.tuning import _w_objective

        w = optimal_w()
        assert _w_objective(w) <= _w_objective(w - 0.1)
        assert _w_objective(w) <= _w_objective(w + 0.1)

    @pytest.mark.parametrize("rho", [0.8, 0.9, 0.95])
    def test_marker_near_integer_argmin(self, rho):
        w = optimal_w()
        marker = step_multiplier(rho, w)
        values = {m: unbiased_msework(rho, m) for m in range(1, 61)}
        brute = min(values, key=values.get)
        assert abs(marker - brute) <= 1

    def test_ratio_grid_bounded(self):
        w = optimal_w()
        for rho in [round(0.5 + 0.05 * k, 2) for k in range(10)]:
            m = step_multiplier(rho, w)
            ratio = unbiased_msework(rho, m) / ergodic_msework_limit(rho)
            assert ratio <= 1.6


class TestEmpiricalProduct:
    def test_simulation_matches_analytic_product(self):
        # 10^5 tuned draws: empirical variance times mean work within 10%
        # of the closed form.
        rho, m = 0.8, 8
        schedule = LevelSchedule.arithmetic(m)
        survival = contracting_optimal_survival(rho, m)
        out = contracting_unbiased_block(rho, schedule, survival, Stream(3), 100_000)
        product = out["z"].var(ddof=1) * out["work"].mean()
        assert product == pytest.approx(unbiased_msework(rho, m), rel=0.10)


class TestPartialKnowledge:
    def setup_method(self):
        self.rho = 0.5
        self.m = 4
        self.steps = [self.m * (i + 1) for i in range(200)]
        self.nus = contracting_delta_variances(self.rho, self.steps, 200)

    def true_product(self, survival, levels=60):
        fbar = survival.survival_array(levels)
        variance = float(np.sum(self.nus[:levels] / fbar))
        work = float(np.sum(np.asarray(self.steps[:levels]) * fbar))
        return variance * work

    def test_exact_bound_consistency(self):
        # With the bound rate equal to the truth and many exact levels the
        # achieved product approaches the unconstrained optimum.
        result = partial_knowledge_optimize(
            self.nus[:13], self.rho, self.steps, horizon=60
        )
        optimum = unbiased_msework(self.rho, self.m)
        assert self.true_product(result.survival) <= 1.01 * optimum

    def test_sandwich_ordering(self):
        optimum = unbiased_msework(self.rho, self.m)
        previous = None
        for rho_bound in (0.8, 0.7, 0.6):
            result = partial_knowledge_optimize(
                self.nus[:4], rho_bound, self.steps, horizon=60
            )
            achieved = self.true_product(result.survival)
            # All-bound alternative: square-root rule computed from the
            # pessimistic variances, evaluated under the true ones.
            nus_bound = contracting_delta_variances(rho_bound, self.steps, 60)
            all_bound = self.true_product(
                msework_report(nus_bound, np.asarray(self.steps[:60], float)).survival
            )
            assert optimum <= achieved <= all_bound
            assert achieved < all_bound  # strict improvement from exact head
            if previous is not None:
                assert achieved <= previous * (1 + 1e-9)  # improves as bound tightens
            previous = achieved

    def test_requires_two_exact_levels(self):
        with pytest.raises(ValueError):
            partial_knowledge_optimize(self.nus[:1], 0.6, self.steps, horizon=20)

    def test_monotone_chain_respected(self):
        result = partial_knowledge_optimize(self.nus[:4], 0.7, self.steps, horizon=40)
        fbar = result.survival.survival_array(40)
        assert fbar[0] == 1.0
        assert np.all(np.diff(fbar) <= 1e-12)
        assert np.all(fbar > 0)

    def test_objective_not_worse_than_start(self):
        result = partial_knowledge_optimize(self.nus[:4], 0.7, self.steps, horizon=40)
        # The reported product is the surrogate's, whose tail variances
        # bound the true ones from above: it is at least the true optimum.
        assert result.product >= unbiased_msework(self.rho, self.m) * 0.99
