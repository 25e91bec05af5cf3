"""Spectral posterior, the two truncation couplings, and schedule design."""

import math

import numpy as np
import pytest

from ubmc import LevelSchedule, SurvivalDistribution, estimate_batch
from ubmc.gaussian_linear import (
    GaussianLinearModel,
    delta_batch,
    make_schedule,
    posterior_spectral,
    prior_tail_delta,
    tail_gap_second_moment,
    truncation_delta,
    truncation_gap_second_moment,
)
from ubmc.rng import Stream
from ubmc.tuning import msework_report

from conftest import ScriptedNormals, four_se


def one_draw_levels(dims) -> LevelSchedule:
    """Levels of one exact draw each at dimensions ``dims``, as
    :func:`make_schedule` builds them."""
    return LevelSchedule(lambda i: 1, dims)


class TestPosteriorSpectral:
    def test_first_coordinate_any_parameters(self):
        for p, a in [(0.0, 1.0), (0.5, 2.0), (1.3, 0.8)]:
            model = GaussianLinearModel(p=p, a=a)
            mean, var = posterior_spectral(model, 1)
            assert mean == pytest.approx(model.observed(1) / 2.0)
            assert var == pytest.approx(0.5)

    def test_second_coordinate_p0_a1(self):
        model = GaussianLinearModel(p=0.0, a=1.0)
        mean, var = posterior_spectral(model, 2)
        assert mean == pytest.approx(model.observed(2) / 5.0)
        assert var == pytest.approx(0.2)

    def test_zero_data_zero_mean(self):
        model = GaussianLinearModel(p=0.3, a=1.0, data=lambda l: 0.0, c_minus=-1.0, c_plus=1.0)
        for l in (1, 2, 7):
            assert posterior_spectral(model, l)[0] == 0.0

    def test_default_data_bounded(self):
        model = GaussianLinearModel(p=0.0, a=1.0)
        ys = [model.observed(l) for l in range(1, 200)]
        assert all(0.5 <= y <= 1.5 for y in ys)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GaussianLinearModel(p=-0.1, a=1.0)
        with pytest.raises(ValueError):
            GaussianLinearModel(p=0.0, a=0.5)


class TestTruncationDelta:
    def test_only_new_coordinates_contribute(self):
        # f linear in coordinate 2, dims (1, 2): the difference is the
        # weight times the fresh coordinate-2 draw.
        model = GaussianLinearModel(p=0.0, a=1.0)
        weight = 2.0
        f = lambda u: weight * u[1] if u.size >= 2 else 0.0
        rng = ScriptedNormals([0.4, 0.7])
        delta, work = truncation_delta(model, one_draw_levels([1, 2]), 1, f, rng)
        mean2, var2 = posterior_spectral(model, 2)
        assert delta == pytest.approx(weight * (mean2 + math.sqrt(var2) * 0.7))
        assert work == 2.0

    def test_degenerate_dims_rejected(self):
        model = GaussianLinearModel(p=0.0, a=1.0)
        with pytest.raises(ValueError):
            truncation_delta(model, one_draw_levels([2, 2]), 1, lambda u: 0.0, ScriptedNormals([0] * 4))

    def test_resolved_coordinate_gives_zero(self):
        # f depends only on coordinate 1, present at every level.
        model = GaussianLinearModel(p=0.0, a=2.0)
        f = lambda u: u[0]
        rng = Stream(3).generator()
        for level in (1, 2, 3):
            delta, _ = truncation_delta(model, one_draw_levels(lambda i: 2**i), level, f, rng)
            assert delta == 0.0


class TestPriorTailDelta:
    def test_zero_when_support_resolved(self):
        model = GaussianLinearModel(p=0.0, a=1.0)
        delta, _ = prior_tail_delta(
            model, one_draw_levels([2, 4]), 1, {1: 1.0, 2: 3.0}, Stream(0).generator()
        )
        assert delta == 0.0

    def test_coordinate_formula(self):
        # p = 0, a = 1, coordinate-2 projector, dims (1, 2):
        # delta = y_2 / 5 + (1/sqrt(5) - 1/2) zeta_2.
        model = GaussianLinearModel(p=0.0, a=1.0)
        zeta = 0.9
        delta, _ = prior_tail_delta(model, one_draw_levels([1, 2]), 1, {2: 1.0}, ScriptedNormals([zeta]))
        expected = model.observed(2) / 5.0 + (1 / math.sqrt(5) - 0.5) * zeta
        assert delta == pytest.approx(expected)

    def test_level_zero_includes_finite_tail(self):
        model = GaussianLinearModel(p=0.0, a=1.0)
        zetas = [0.3, -0.2, 0.5]
        delta, work = prior_tail_delta(
            model, one_draw_levels([2, 4]), 0, {1: 1.0, 4: 2.0}, ScriptedNormals(zetas)
        )
        m1, c1 = posterior_spectral(model, 1)
        expected = (
            1.0 * (m1 + math.sqrt(c1) * 0.3)
            + 2.0 * 4.0**-1.0 * 0.5  # prior tail coordinate 4
        )
        assert delta == pytest.approx(expected)
        assert work == 3.0  # two in-range draws plus one tail draw

    def test_nonlinear_function_rejected(self):
        model = GaussianLinearModel(p=0.0, a=1.0)
        with pytest.raises(TypeError):
            prior_tail_delta(model, one_draw_levels([1, 2]), 1, lambda u: u @ u, Stream(0).generator())


class TestGapRates:
    # Shallow decays keep the finite-j octave sums close to their
    # asymptotic order; steep ones need far larger j than desk scale.

    def test_plain_truncation_rate(self, stream):
        # log-log slope of E|u^i - u^{i-1}|^2 against j is 1 - 2a.
        model = GaussianLinearModel(p=0.25, a=0.75)
        dims = [2**i for i in range(9)]
        analytic, monte_carlo = [], []
        for i in range(2, 9):
            j_lo, j_hi = dims[i - 1], dims[i]
            analytic.append(truncation_gap_second_moment(model, j_lo, j_hi))
            rng = stream.child(i).generator()
            ls = np.arange(j_lo + 1, j_hi + 1)
            means = np.array([posterior_spectral(model, l)[0] for l in ls])
            sds = np.array(
                [math.sqrt(posterior_spectral(model, l)[1]) for l in ls]
            )
            draws = means + sds * rng.standard_normal((2000, ls.size))
            monte_carlo.append(float(np.mean(np.sum(draws**2, axis=1))))
        xs = np.log([dims[i] for i in range(2, 9)])
        slope_analytic = np.polyfit(xs, np.log(analytic), 1)[0]
        slope_mc = np.polyfit(xs, np.log(monte_carlo), 1)[0]
        assert slope_analytic == pytest.approx(1 - 2 * model.a, abs=0.3)
        assert slope_mc == pytest.approx(1 - 2 * model.a, abs=0.3)

    def test_prior_completed_rate_and_comparison(self, stream):
        # The prior-completed coupling decays like j^(1 - 4p - 4a), strictly
        # steeper than plain truncation whenever p > 0.
        model = GaussianLinearModel(p=0.25, a=0.75)
        dims = [2**i for i in range(9)]
        analytic, monte_carlo = [], []
        for i in range(2, 9):
            j_lo, j_hi = dims[i - 1], dims[i]
            analytic.append(tail_gap_second_moment(model, j_lo, j_hi))
            rng = stream.child(100 + i).generator()
            ls = np.arange(j_lo + 1, j_hi + 1)
            stats_ = [posterior_spectral(model, l) for l in ls]
            means = np.array([s[0] for s in stats_])
            gaps = np.array(
                [math.sqrt(v) - float(l) ** -model.a for (_, v), l in zip(stats_, ls)]
            )
            draws = means + gaps * rng.standard_normal((2000, ls.size))
            monte_carlo.append(float(np.mean(np.sum(draws**2, axis=1))))
        xs = np.log([dims[i] for i in range(2, 9)])
        target = 1 - 4 * model.p - 4 * model.a
        slope_analytic = np.polyfit(xs, np.log(analytic), 1)[0]
        slope_mc = np.polyfit(xs, np.log(monte_carlo), 1)[0]
        assert slope_analytic == pytest.approx(target, abs=0.3)
        assert slope_mc == pytest.approx(target, abs=0.3)

        plain = [
            truncation_gap_second_moment(model, dims[i - 1], dims[i])
            for i in range(2, 9)
        ]
        slope_plain = np.polyfit(xs, np.log(plain), 1)[0]
        assert slope_mc < slope_plain  # strictly steeper when p > 0


class TestUnbiasedness:
    def test_both_pipelines_recover_posterior_mean(self):
        model = GaussianLinearModel(p=0.25, a=1.5)
        coord = 3
        target, _ = posterior_spectral(model, coord)

        schedule, survival = make_schedule("holder", "dyadic", a=1.5, s=1.0, eps=0.5)
        f = lambda u: u[:, coord - 1] if u.shape[1] >= coord else np.zeros(len(u))
        batch = estimate_batch(delta_batch(truncation_delta, model, schedule, f), survival, 20_000, seed=5)
        values = batch.z
        assert abs(batch.mean - target) <= four_se(values)

        schedule2, survival2 = make_schedule("linear-tail", "dyadic", a=1.5, p=0.25, eps=0.8)
        batch2 = estimate_batch(
            delta_batch(prior_tail_delta, model, schedule2, {coord: 1.0}), survival2, 20_000, seed=6
        )
        values2 = batch2.z
        assert abs(batch2.mean - target) <= four_se(values2)

    def test_second_moment_matches_formula(self):
        # Coordinate projector: only one level carries mass, so nu_i is
        # exactly Var(delta) + m_k^2 there and zero elsewhere.
        model = GaussianLinearModel(p=0.25, a=1.5)
        coord, level_star = 3, 2  # coordinate 3 enters at level 2 (dims 2^i)
        schedule, survival = make_schedule("holder", "dyadic", a=1.5, s=1.0, eps=0.5)
        mean_k, var_k = posterior_spectral(model, coord)
        nus = np.zeros(6)
        nus[level_star] = var_k + mean_k**2
        formula = msework_report(nus, np.ones(6), survival).variance_term
        f = lambda u: u[:, coord - 1] if u.shape[1] >= coord else np.zeros(len(u))
        batch = estimate_batch(delta_batch(truncation_delta, model, schedule, f), survival, 50_000, seed=8)
        zsq = batch.z ** 2
        se = zsq.std(ddof=1) / math.sqrt(zsq.size)
        assert abs(zsq.mean() - formula) <= 3.0 * se


class TestMakeSchedule:
    def test_holder_dyadic_example(self):
        schedule, survival = make_schedule("holder", "dyadic", a=2.0, s=1.0, eps=0.5)
        assert [schedule.dims_at(i) for i in range(4)] == [1, 2, 4, 8]
        assert [schedule.steps_at(i) for i in range(4)] == [1, 1, 1, 1]  # one exact draw per level
        assert survival.rate == pytest.approx(2.0 ** (1.5 * -3.0 / 2.0))

    def test_holder_regularity_guard(self):
        with pytest.raises(ValueError, match="a >"):
            make_schedule("holder", "dyadic", a=0.6, s=1.0, eps=0.5)

    def test_linear_tail_dyadic_example(self):
        _, survival = make_schedule("linear-tail", "dyadic", a=0.75, p=0.0, eps=1.0)
        assert survival.rate == pytest.approx(0.5)

    def test_eps_interval_enforced(self):
        with pytest.raises(ValueError, match="eps"):
            make_schedule("linear-tail", "dyadic", a=0.75, p=0.0, eps=1.5)
        with pytest.raises(ValueError, match="eps"):
            make_schedule("holder", "dyadic", a=2.0, s=1.0, eps=0.0)

    def test_polynomial_geometry(self):
        schedule, survival = make_schedule(
            "holder", "polynomial", a=2.0, s=1.0, q=2.0, eps=1.0
        )
        assert survival.kind == "polynomial"
        seq = [schedule.dims_at(i) for i in range(5)]
        assert all(b > a for a, b in zip(seq, seq[1:]))
        # survival exponent -(s (q - 1 - 2 a q) + 2 + eps)
        assert survival.exponent == pytest.approx(-(1 * (2 - 1 - 8) + 2 + 1.0))

    def test_polynomial_constraints(self):
        with pytest.raises(ValueError, match="q >"):
            make_schedule("holder", "polynomial", a=2.0, s=1.0, q=0.5, eps=0.1)

    def test_polynomial_eps_bounded_by_bumped_growth(self):
        # Dims max(ceil(i^0.5), i + 1) are i + 1, so holder levels cost about
        # i draws and E[work] needs a survival exponent above 2.  eps = 1.8
        # passes the q = 0.5 bound but gives exponent 1.7.
        with pytest.raises(ValueError, match="eps"):
            make_schedule("holder", "polynomial", a=5.0, s=1.0, q=0.5, eps=1.8)
        schedule, survival = make_schedule("holder", "polynomial", a=5.0, s=1.0, q=0.5, eps=1.4)
        assert [schedule.dims_at(i) for i in range(4)] == [1, 2, 3, 4]
        assert survival.exponent > 2.0
