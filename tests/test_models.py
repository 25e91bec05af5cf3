"""Model-level oracles: couplings, stationary laws, forward maps."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from ubmc import Stream
from ubmc.models import (
    CircleChainModel,
    ContractingNormalsModel,
    EllipticModel,
    LogisticModel,
    TWO_PI,
    _zeta,
    circle_maximal_coupling,
    contracting_normals_coupling,
    elliptic_forward,
    logistic_posterior_logdensity,
    logistic_reference_fit,
)
from conftest import (
    circle_arc,
    coefficient_bounds,
    coefficient_values,
    elliptic_observation_gap,
    four_se,
    per_lane,
)


def arc_length(x):
    return math.fsum(hi - lo for lo, hi in circle_arc(x))


def on_arc(y, x):
    return any(lo <= y < hi for lo, hi in circle_arc(x))


def arc_cdf(x):
    """CDF of the uniform law on the one-step arc from ``x``."""
    intervals = sorted(circle_arc(x))
    total = arc_length(x)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for lo, hi in intervals:
            out = out + np.clip(t - lo, 0.0, hi - lo)
        return out / total

    return cdf


def check_meets(start, draws):
    """Meets happen with probability |A_x1 ∩ A_x2| / 4 = max(4 - d, 8 - 2 pi) / 4
    at circular distance d, on both arcs; otherwise each chain lands on
    its own arc off the other's."""
    x1, x2 = start
    d = min(abs(x1 - x2), TWO_PI - abs(x1 - x2))
    p = max(4.0 - d, 8.0 - TWO_PI) / 4.0
    n = len(draws)
    met = 0
    for y1, y2 in draws:
        if y1 == y2:
            met += 1
            assert on_arc(y1, x1) and on_arc(y1, x2)
        else:
            assert on_arc(y1, x1) and not on_arc(y1, x2)
            assert on_arc(y2, x2) and not on_arc(y2, x1)
    assert abs(met / n - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


class TestContractingNormals:
    def test_coupling_arithmetic(self):
        assert contracting_normals_coupling((2.0, 0.0), 0.0, 0.5) == (1.0, 0.0)
        x, y = contracting_normals_coupling((1.0, 1.0), 0.37, 0.5)
        assert x == y

    def test_gap_contracts_exactly_along_any_path(self, stream):
        rho, x, y = 0.43, 2.0, -1.5
        rng = stream.generator()
        gap0 = abs(x - y)
        for n in range(1, 25):
            x, y = contracting_normals_coupling((x, y), rng.standard_normal(), rho)
            assert abs(x - y) == pytest.approx(rho**n * gap0)

    def test_stationary_moments(self, stream):
        # 10^4 chains for 100 steps = 10^6 total steps; endpoints are
        # (nearly) independent N(0, 1) samples after the burn-in.
        step = ContractingNormalsModel(0.8).kernel().step
        rng = stream.generator()
        states = np.zeros(10_000)
        for _ in range(100):
            states = step(states, rng)
        assert abs(states.mean()) <= four_se(states)
        var = states.var(ddof=1)
        se_var = math.sqrt(2.0 / (states.size - 1))
        assert abs(var - 1.0) <= 4.0 * se_var

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            ContractingNormalsModel(1.0)

    def test_lanes_csv_block_pinned(self):
        # Block 0 of the benchmark's contracting-normals run at seed 11
        # (rho 0.8, ansatz m, optimal law, 1024 lanes), pinned bit for bit:
        # any change to how these lanes use the stream or round fails here.
        # Every level is one fused run on the stream of level 0.
        from ubmc import LevelSchedule, tuning
        from ubmc.models import contracting_unbiased_block

        m = tuning.step_multiplier(0.8)
        out = contracting_unbiased_block(
            0.8, LevelSchedule.arithmetic(m), tuning.contracting_optimal_survival(0.8, m),
            [Stream(11).child(0)], [1024],
        )
        digests = {
            "z": "266d3dc000aa1a06afa78fd60de3f264b3d0b2a1dd4c7a081d3839fc7ea1b4b1",
            "N": "822c4bffd7a85d396289205dc61143599754b8a5d62c6acdd61951c810e4c94e",
            "work": "4b18967a32ee4d80846dc63aec61aaf1eb8a7b05ad18fdebf2298b9fa36576c5",
        }
        assert (out["z"].dtype, out["N"].dtype, out["work"].dtype) == (float, np.int64, float)
        for name, digest in digests.items():
            assert hashlib.sha256(out[name].tobytes()).hexdigest() == digest, name

    def test_vectorized_batch_agrees_with_generic_driver(self):
        # The block-vectorized executor is the same coupling as the generic
        # scalar driver, batched; their first two moments must agree.
        from ubmc import LevelSchedule, couplings, estimate_batch
        from ubmc.models import contracting_unbiased_block
        from ubmc.tuning import contracting_optimal_survival

        rho, m, n = 0.6, 2, 30_000
        schedule = LevelSchedule.arithmetic(m)
        survival = contracting_optimal_survival(rho, m)
        vector = contracting_unbiased_block(rho, schedule, survival, [Stream(51)], [n])
        model = ContractingNormalsModel(rho)
        kernel, coupling = model.kernel(), model.coupling()
        gen = lambda level, rng: couplings._delta(
            kernel, coupling, schedule, level, [[1]], 0.0, lambda x: x, [rng]
        )[0]
        scalar = estimate_batch(per_lane(gen), survival, n, seed=52)
        zs = scalar.z
        zv = vector["z"]
        se_mean = math.hypot(zs.std(ddof=1), zv.std(ddof=1)) / math.sqrt(n)
        assert abs(zs.mean() - zv.mean()) <= 4.0 * se_mean
        se_sq = math.hypot((zs**2).std(ddof=1), (zv**2).std(ddof=1)) / math.sqrt(n)
        assert abs(np.mean(zs**2) - np.mean(zv**2)) <= 4.0 * se_sq
        works = scalar.work
        assert abs(works.mean() - vector["work"].mean()) <= 4.0 * math.hypot(
            works.std(ddof=1), vector["work"].std(ddof=1)
        ) / math.sqrt(n)


class TestCircleChain:
    def test_arc_measure_is_four(self):
        for x in np.linspace(0, TWO_PI, 37):
            assert arc_length(x) == pytest.approx(4.0)

    STARTS = [(0.0, math.pi), (1.0, 2.5), (2.5, 1.0), (6.0, 0.5), (0.9, 4.0)]

    @pytest.mark.parametrize("start", STARTS)
    def test_meet_rate_and_supports(self, stream, start):
        rng = stream.generator()
        check_meets(start, [circle_maximal_coupling(start, rng) for _ in range(20_000)])

    @pytest.mark.parametrize("start", STARTS)
    def test_meet_rate_and_supports_lanes(self, stream, start):
        # One call steps 20k copies of each start as lanes.
        lanes = tuple(np.full(20_000, x) for x in start)
        y1, y2 = circle_maximal_coupling(lanes, stream.generator())
        assert y1.shape == y2.shape == (20_000,)
        check_meets(start, list(zip(y1, y2)))

    def test_equal_states_always_meet(self, stream):
        rng = stream.generator()
        for _ in range(300):
            y1, y2 = circle_maximal_coupling((1.0, 1.0), rng)
            assert y1 == y2

    def test_meet_frequency_bound(self, stream):
        # Worst case (antipodal states): meet probability (8 - 2 pi) / 4.
        rng = stream.generator()
        n = 100_000
        met = sum(
            1
            for _ in range(n)
            if (pair := circle_maximal_coupling((0.0, math.pi), rng))[0] == pair[1]
        )
        bound = (8.0 - TWO_PI) / 4.0
        se = math.sqrt(bound * (1 - bound) / n)
        assert met / n >= bound - 4.0 * se

    @pytest.mark.parametrize("start", [(0.9, 4.0), (2.5, 1.0), (6.0, 0.5)])
    def test_marginals_uniform_on_arcs(self, stream, start):
        rng = stream.generator()
        n = 10_000
        draws = np.array([circle_maximal_coupling(start, rng) for _ in range(n)])
        for component, x in enumerate(start):
            p = stats.kstest(draws[:, component], arc_cdf(x)).pvalue
            assert p > 1e-3

    def test_long_run_law_uniform(self, stream):
        step = CircleChainModel().kernel().step
        rng = stream.generator()
        x = 0.0
        for _ in range(1000):  # burn-in
            x = step(x, rng)
        samples = []
        for _ in range(2000):
            for _ in range(10):  # thin to near-independence
                x = step(x, rng)
            samples.append(x)
        p = stats.kstest(np.array(samples), lambda t: np.asarray(t) / TWO_PI).pvalue
        assert p > 1e-3


class TestLogistic:
    def test_logdensity_at_zero(self):
        model = LogisticModel.synthetic(n_obs=100, seed=7)
        assert logistic_posterior_logdensity(model, np.zeros(3)) == pytest.approx(
            -100.0 * math.log(2.0)
        )

    def test_saturation_limit(self):
        model = LogisticModel.synthetic(n_obs=1, seed=3)
        direction = model.labels[0] * model.design[0]
        beta = 50.0 * direction / np.linalg.norm(direction) ** 2 * np.linalg.norm(direction)
        # y1 * beta . T1 -> +inf, so the likelihood factor saturates at 1.
        value = logistic_posterior_logdensity(model, beta)
        assert value == pytest.approx(-0.5 * float(beta @ beta), abs=1e-8)

    def test_logdensity_rows_equal_one_dimensional_calls(self, stream):
        model = LogisticModel.synthetic()
        # Rows at beta scales from 0 near the posterior mass out to 300,
        # where margins reach |z| ~ 1e3 and the log-sigmoid saturates on
        # both sides.  The row sums are BLAS products, whose rounding
        # depends on the batch, so rows and 1-d calls each agree with the
        # textbook sum of log h(y_i beta . T_i) to rounding, not bit for bit.
        scales = np.concatenate([[0.0], np.geomspace(1e-3, 300.0, 63)])
        betas = stream.generator().standard_normal((64, 3)) * scales[:, None]
        rows = logistic_posterior_logdensity(model, betas)
        assert rows.shape == (64,)
        single = [logistic_posterior_logdensity(model, beta) for beta in betas]
        np.testing.assert_allclose(rows, single, rtol=1e-12, atol=0.0)
        textbook = [
            -0.5 * beta @ beta + special.log_expit(model.labels * (model.design @ beta)).sum()
            for beta in betas
        ]
        np.testing.assert_allclose(rows, textbook, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(single, textbook, rtol=1e-12, atol=0.0)

    def test_gradient_matches_finite_differences(self, stream):
        model = LogisticModel.synthetic()
        rng = stream.generator()
        for _ in range(5):
            beta = rng.standard_normal(3)
            grad = model.grad_log_density(beta)
            fd = np.empty(3)
            h = 1e-5
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd[k] = (
                    logistic_posterior_logdensity(model, beta + e)
                    - logistic_posterior_logdensity(model, beta - e)
                ) / (2 * h)
            assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_concavity_along_segments(self, stream):
        model = LogisticModel.synthetic()
        rng = stream.generator()
        for _ in range(10):
            b0 = rng.standard_normal(3)
            direction = rng.standard_normal(3)
            ts = np.linspace(-1.0, 1.0, 9)
            vals = np.array(
                [logistic_posterior_logdensity(model, b0 + t * direction) for t in ts]
            )
            second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
            assert np.all(second <= 1e-8)

    def test_reference_fit_no_data_recovers_prior(self):
        model = LogisticModel.synthetic(n_obs=0, seed=1)
        center, cov = logistic_reference_fit(model, 40_000, seed=5)
        # Posterior without data is the standard normal prior.
        n_eff = 40_000 / 50.0  # generous autocorrelation discount
        assert np.all(np.abs(center) <= 4.0 / math.sqrt(n_eff))
        assert np.all(np.abs(np.diag(cov) - 1.0) <= 4.0 * math.sqrt(2.0 / n_eff))
        np.linalg.cholesky(cov)

    def test_reference_fit_requires_enough_steps(self):
        model = LogisticModel.synthetic()
        with pytest.raises(ValueError):
            logistic_reference_fit(model, 100, seed=0)

    def test_reference_fit_newton_mode_is_stationary(self):
        model = LogisticModel.synthetic()
        fit = logistic_reference_fit(model, 10_000, seed=3)
        assert np.max(np.abs(model.grad_log_density(fit.mode))) <= 1e-8

    def test_reference_fit_matches_grid_moments(self):
        # Posterior mean and variances by a 57^3 grid over +-7 deviations:
        # the weighted draws agree within 4 se, the Laplace mode does not.
        model = LogisticModel.synthetic()
        fit = logistic_reference_fit(model, 40_000, seed=3)
        sd = np.sqrt(np.diag(fit.cov))
        axes = [np.linspace(c - 7 * s, c + 7 * s, 57) for c, s in zip(fit.mode, sd)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        logp = np.concatenate(
            [logistic_posterior_logdensity(model, grid[lo : lo + 8192]) for lo in range(0, len(grid), 8192)]
        )
        w = np.exp(logp - logp.max())
        w /= w.sum()
        mean = w @ grid
        var = w @ (grid - mean) ** 2
        assert np.all(np.abs(fit.center - mean) <= 4.0 * sd / math.sqrt(fit.ess))
        assert np.any(np.abs(fit.mode - mean) > 4.0 * sd / math.sqrt(fit.ess))
        assert np.all(np.abs(np.diag(fit.cov) / var - 1.0) <= 4.0 * math.sqrt(2.0 / fit.ess))

    def test_recentred_chain_accepts_more(self):
        import ubmc.pcn as pcn

        model = LogisticModel.synthetic()
        center, cov = logistic_reference_fit(model, 40_000, seed=9)
        rho = 0.7

        def acceptance_rate(chain_model, start, seed):
            rng = Stream(seed).generator()
            x = np.asarray(start, dtype=float)
            moved = 0
            for _ in range(3000):
                nxt = pcn.sampler_step(chain_model, x.size, x, rng)
                moved += not np.array_equal(nxt, x)
                x = nxt
            return moved / 3000

        fitted = pcn.PcnModel.gaussian_reference(
            rho, model.neg_log_density, center, cov
        )
        naive = pcn.PcnModel.gaussian_reference(
            rho, model.neg_log_density, np.zeros(3), np.eye(3)
        )
        assert acceptance_rate(fitted, center, 17) > acceptance_rate(naive, center, 17)


def _reference_trapezoid(y, x):
    return float(0.5 * np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1])))


def _reference_u(model, coeffs, points):
    k = np.arange(1, len(coeffs) + 1)
    return model.m0 + math.sqrt(2.0) * np.sin(np.outer(points, k) * math.pi) @ coeffs


def _reference_forward(model, j, coeffs, n_points=None):
    """The forward map as a loop over observation points, one trapezoid each."""
    coeffs = np.asarray(coeffs, dtype=float)[:j]
    if coeffs.size < j:
        coeffs = np.pad(coeffs, (0, j - coeffs.size))
    n = model.quad_points(j) if n_points is None else int(n_points)
    grid = np.linspace(0.0, 1.0, n)
    u_vals = _reference_u(model, coeffs, grid)
    if np.any(u_vals <= 0.0):
        raise ValueError("diffusion coefficient is not positive on the grid")
    h_anti = model.source_antiderivative(grid)
    inv_u = 1.0 / u_vals
    c_u = -_reference_trapezoid(h_anti * inv_u, grid) / _reference_trapezoid(inv_u, grid)
    integrand = (h_anti + c_u) * inv_u
    out = np.empty(len(model.obs_points))
    for idx, x_k in enumerate(model.obs_points):
        cut = int(np.searchsorted(grid, x_k, side="right"))
        xs = grid[:cut]
        ys = integrand[:cut]
        if xs[-1] < x_k:
            u_at = _reference_u(model, coeffs, np.array([x_k]))[0]
            if u_at <= 0.0:
                raise ValueError("diffusion coefficient is not positive on the grid")
            y_at = (float(model.source_antiderivative(np.array([x_k]))[0]) + c_u) / u_at
            xs = np.append(xs, x_k)
            ys = np.append(ys, y_at)
        out[idx] = -_reference_trapezoid(ys, xs)
    return out


def _sin3(s):
    return np.sin(3.0 * s)


class TestElliptic:
    def test_zero_source_gives_zero_solution(self):
        model = EllipticModel(gamma=4.0, source_antiderivative=lambda s: 0.0 * s)
        out = model.forward(4, np.zeros(4), n_points=200)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_constant_coefficient_closed_form(self):
        # u = 1, H(s) = s: C_u = -1/2 and p(x) = x/2 - x^2/2.
        model = EllipticModel(gamma=4.0, m0=1.0, obs_points=(0.25, 0.5, 0.75))
        out = model.forward(3, np.zeros(3), n_points=4001)
        expected = np.array([x / 2 - x**2 / 2 for x in (0.25, 0.5, 0.75)])
        assert np.allclose(out, expected, atol=1e-7)
        assert out[1] == pytest.approx(0.125, abs=1e-7)

    def test_trapezoid_order(self, stream):
        # Error against a fine-grid reference decays like N^-2.
        model = EllipticModel(gamma=3.5)
        coeffs = model.prior_sample(6, stream.generator())
        reference = model.forward(6, coeffs, n_points=200_001)
        ns = [25, 50, 100, 200, 400]
        errors = [
            np.linalg.norm(model.forward(6, coeffs, n_points=n) - reference)
            for n in ns
        ]
        slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.2)

    def test_positivity_guard(self):
        model = EllipticModel(gamma=4.0, m0=1.0)
        bad = np.zeros(3)
        bad[0] = -5.0  # forces u <= 0 somewhere
        with pytest.raises(ValueError):
            model.forward(3, bad, n_points=101)

    def test_off_grid_positivity_guard(self):
        # u = m0 = 1 at both grid points {0, 1}, but u(0.25) = 1 - 2 < 0:
        # only the off-grid observation point sees the sign change.
        model = EllipticModel(gamma=4.0, m0=1.0)
        with pytest.raises(ValueError):
            model.forward(1, [-2.0], n_points=2)

    def test_lane_rows_equal_one_dimensional_calls(self, stream):
        model = EllipticModel(gamma=3.2)
        rng = stream.generator()
        for j, size in ((1, 1), (7, 7), (7, 4), (7, 12), (18, 18)):
            coeffs = np.stack([model.prior_sample(size, rng) for _ in range(25)])
            lanes = model.forward(j, coeffs)
            assert lanes.shape == (25, len(model.obs_points))
            for row, c in zip(lanes, coeffs):
                np.testing.assert_allclose(row, model.forward(j, c), rtol=1e-13, atol=0.0)

    def test_lane_positivity_guard(self):
        # One lane of four forces u <= 0: the whole call fails.
        model = EllipticModel(gamma=4.0, m0=1.0)
        coeffs = np.zeros((4, 3))
        coeffs[2, 0] = -5.0
        model.forward(3, coeffs[[0, 1, 3]], n_points=101)
        with pytest.raises(ValueError, match="not positive"):
            model.forward(3, coeffs, n_points=101)

    @pytest.mark.parametrize(
        "kwargs, j, n_points, size",
        [
            ({}, 6, 2, 6),
            ({}, 6, 3, 6),
            ({}, 6, 14, 6),
            ({}, 6, 50, 6),
            ({}, 6, 108, 6),
            ({}, 6, 5, 6),  # 0.25, 0.5, 0.75 are grid nodes
            ({}, 6, 9, 6),
            ({"source_antiderivative": _sin3}, 6, 14, 6),
            ({"obs_points": (0.1, 0.5, 0.9)}, 6, 14, 6),
            ({}, 7, None, 4),  # coeffs shorter than j: zero-padded
            ({}, 7, None, 12),  # coeffs longer than j: truncated
            ({}, 32, None, 32),
        ],
    )
    def test_operator_matches_reference_loop(self, stream, kwargs, j, n_points, size):
        model = EllipticModel(gamma=3.2, **kwargs)
        for r in range(20):
            coeffs = model.prior_sample(size, stream.child(r).generator())
            got = model.forward(j, coeffs, n_points=n_points)
            expected = _reference_forward(model, j, coeffs, n_points)
            assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_replaced_model_builds_its_own_operator(self, stream):
        model = EllipticModel(gamma=4.0)
        coeffs = model.prior_sample(8, stream.generator())
        model.forward(8, coeffs)
        replaced = dataclasses.replace(model, source_antiderivative=_sin3)
        fresh = EllipticModel(gamma=4.0, source_antiderivative=_sin3)
        assert np.array_equal(replaced.forward(8, coeffs), fresh.forward(8, coeffs))
        assert not np.allclose(replaced.forward(8, coeffs), model.forward(8, coeffs))

    def test_observation_gap_decay_slope(self, stream):
        # The gap between consecutive truncations falls like j^(1/2 - gamma)
        # (coefficient tail plus matched quadrature refinement).
        model = EllipticModel(gamma=4.0)
        js = [8, 16, 32]
        gaps = [elliptic_observation_gap(model, j, 30, stream.child(j)) for j in js]
        slope = np.polyfit(np.log(js), np.log(gaps), 1)[0]
        assert slope <= -(model.gamma - 0.5) + 0.4

    def test_gap_bounded_by_tail_envelope(self, stream):
        # The truncation gap is controlled by the prior's coefficient tail
        # sqrt(sum_{i>j} u*_i^2); calibrate the constant at j = 8 and check
        # it transfers to j = 16.
        model = EllipticModel(gamma=4.0)
        j = 8
        gap = elliptic_observation_gap(model, j, 20, stream.child(0))
        tail = math.sqrt(sum(model.half_width(i) ** 2 for i in range(j + 1, 400)))
        k16 = elliptic_observation_gap(model, 16, 20, stream.child(1))
        tail16 = math.sqrt(sum(model.half_width(i) ** 2 for i in range(17, 400)))
        constant = gap / tail
        assert k16 <= 2.0 * constant * tail16

    def test_quadrature_subdominant_to_truncation(self, stream):
        model = EllipticModel(gamma=4.0)
        j = 8
        coeffs = model.prior_sample(2 * j, stream.generator())
        n_model = model.quad_points(j)
        gap_model = np.linalg.norm(
            model.forward(j, coeffs[:j], n_points=n_model)
            - model.forward(2 * j, coeffs, n_points=model.quad_points(2 * j))
        )
        gap_fine = np.linalg.norm(
            model.forward(j, coeffs[:j], n_points=2 * n_model)
            - model.forward(2 * j, coeffs, n_points=2 * model.quad_points(2 * j))
        )
        assert abs(gap_fine - gap_model) < gap_model

    def test_uniform_inflation_shrinks_solution(self, stream):
        model = EllipticModel(gamma=4.0)
        for r in range(5):
            coeffs = model.prior_sample(8, stream.child(r).generator())
            base = model.forward(8, coeffs, n_points=801)
            inflated_model = EllipticModel(gamma=4.0, m0=model.m0 * 1.5)
            inflated = inflated_model.forward(8, coeffs * 1.5, n_points=801)
            assert np.all(base > 0.0)
            assert np.all(inflated < base)

    def test_prior_draw_bounds(self, stream):
        model = EllipticModel(gamma=4.0)
        lower, upper = coefficient_bounds(model)
        assert lower > 0.0
        grid = np.linspace(0, 1, 501)
        for r in range(5):
            coeffs = model.prior_sample(64, stream.child(r).generator())
            u_vals = coefficient_values(model, coeffs, grid)
            assert np.all(u_vals >= lower - 1e-12)
            assert np.all(u_vals <= upper + 1e-12)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            EllipticModel(gamma=2.5)

    def test_zeta_port_matches_scipy_bit_for_bit(self):
        grid = np.linspace(3.0, 12.0, 4001)[1:]
        for x in [*grid.tolist(), 3.2]:
            assert _zeta(x) == float(special.zeta(x, 1)), x
        assert EllipticModel(gamma=3.2).m0 == 1.0 + float(special.zeta(3.2, 1))


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # Each plan imports its own modules, so starting the CLI loads none of them.
    plans = ["gaussian_linear", "independence_sampler", "models", "pcn", "tuning"]
    code = (
        "import sys, ubmc.cli; assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
        f"loaded = [m for m in {plans!r} if 'ubmc.' + m in sys.modules]; assert not loaded, loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
