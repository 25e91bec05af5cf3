"""pCN chain, its fixed- and cross-dimension couplings, distances, schedules."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import ubmc.pcn as pcn
from ubmc import LevelSchedule, Stream, SurvivalDistribution, estimate_batch
from ubmc.couplings import estimate_contraction

from conftest import four_se


def norm_model(rho=0.7, a=2.0):
    return pcn.PcnModel.diagonal(
        rho,
        lambda x: float(np.linalg.norm(x)),
        lambda l: float(l) ** (-2 * a),
        regularity=a,
        lipschitz=1.0,
    )


def flat_model(rho=0.7, a=2.0):
    return pcn.PcnModel.diagonal(
        rho, lambda x: 0.0, lambda l: float(l) ** (-2 * a), regularity=a
    )


class TestStep:
    def test_flat_density_always_accepts(self, stream):
        model = flat_model(rho=0.6)
        rng = stream.generator()
        x = np.array([0.3, -0.1])
        for _ in range(100):
            xi = pcn.propose_noise(model, 2, rng)
            u = rng.random()
            out = pcn.pcn_step(model, 2, x, (xi, u))
            expected = 0.6 * x + math.sqrt(1 - 0.36) * xi
            assert np.allclose(out, expected)
            x = out

    def test_scalar_acceptance_hand_value(self):
        model = pcn.PcnModel.diagonal(
            0.6, lambda x: float(np.abs(x).sum()), lambda l: 1.0, regularity=2.0
        )
        proposal = 0.6 * 0.0 + math.sqrt(1 - 0.36) * 1.0
        assert proposal == pytest.approx(0.8)
        alpha = pcn.pcn_acceptance(model, np.array([0.0]), np.array([proposal]))
        assert alpha == pytest.approx(math.exp(-0.8))
        # u above the acceptance probability rejects, below accepts
        assert pcn.pcn_step(model, 1, np.array([0.0]), (np.array([1.0]), 0.9))[0] == 0.0
        assert pcn.pcn_step(model, 1, np.array([0.0]), (np.array([1.0]), 0.2))[
            0
        ] == pytest.approx(0.8)

    def test_degenerate_rho_keeps_state(self, stream):
        model = pcn.PcnModel.diagonal(
            1.0 - 1e-12, lambda x: 0.0, lambda l: 1.0, regularity=2.0
        )
        rng = stream.generator()
        x = np.array([1.7])
        out = pcn.pcn_step(model, 1, x, (pcn.propose_noise(model, 1, rng), 0.5))
        assert out[0] == pytest.approx(1.7, abs=1e-5)

    def test_non_finite_log_change_raises(self):
        model = pcn.PcnModel.diagonal(
            0.5, lambda x: math.inf, lambda l: 1.0, regularity=2.0
        )
        with pytest.raises(ValueError):
            pcn.pcn_step(model, 1, np.zeros(1), (np.ones(1), 0.5))

    def test_underflowing_acceptance_rejects(self, stream):
        # exp(-1000) underflows to 0: the step must reject, not take log(0).
        model = pcn.PcnModel.diagonal(
            0.5, lambda x: 0.0 if x[0] < 0 else 1000.0, lambda l: 1.0, regularity=2.0
        )
        x = np.array([-1.0, 0.0])
        uphill = (np.array([2.0, 0.0]), 0.5)
        assert pcn.pcn_acceptance(model, x, pcn.pcn_step(model, 2, x, (uphill[0], 0.0))) == 0.0
        assert np.array_equal(pcn.pcn_step(model, 2, x, uphill), x)
        rng = stream.generator()
        for _ in range(50):
            assert pcn.sampler_step(model, 2, x, rng)[0] < 0.0


    @pytest.mark.parametrize(
        "eigenvalues, message",
        [(lambda l: float(l), "nonincreasing"), (lambda l: 1.0 - 0.5 * l, "positive")],
        ids=["rising", "nonpositive"],
    )
    def test_scales_reject_bad_eigenvalues(self, eigenvalues, message):
        model = pcn.PcnModel.diagonal(0.5, lambda x: 0.0, eigenvalues, regularity=2.0)
        with pytest.raises(ValueError, match=message):
            model.scales(3)

    def test_replaced_model_builds_its_own_scales_and_factor(self):
        model = pcn.PcnModel.diagonal(0.5, lambda x: 0.0, lambda l: l**-4.0, regularity=2.0)
        np.testing.assert_allclose(model.scales(3), [1.0, 0.25, 1.0 / 9.0])
        wider = dataclasses.replace(model, eigenvalues=lambda l: l**-2.0)
        np.testing.assert_allclose(wider.scales(3), [1.0, 0.5, 1.0 / 3.0])
        np.testing.assert_allclose(model.scales(3), [1.0, 0.25, 1.0 / 9.0])
        recentred = pcn.PcnModel.gaussian_reference(0.5, lambda x: 0.0, np.zeros(2), np.eye(2))
        doubled = dataclasses.replace(recentred, covariance=4.0 * np.eye(2))
        np.testing.assert_array_equal(doubled._chol, 2.0 * np.eye(2))


def logistic_chain():
    from ubmc.models import LogisticModel

    model = LogisticModel.synthetic()
    center = np.array([1.0, -1.0, 0.5])
    cov = np.array([[0.09, 0.01, 0.0], [0.01, 0.08, 0.005], [0.0, 0.005, 0.06]])
    return pcn.PcnModel.gaussian_reference(0.5, model.neg_log_density, center, cov)


def row_norm_model(rho=0.7, a=2.0):
    # norm_model's log-change, applied to each row of a (lanes, j) array.
    return pcn.PcnModel.diagonal(
        rho,
        lambda x: np.linalg.norm(x, axis=-1),
        lambda l: float(l) ** (-2 * a),
        regularity=a,
        lipschitz=1.0,
    )


class TestLaneStep:
    """A ``(lanes, j)`` step is the 1-d step applied to each row."""

    @staticmethod
    def assert_rows_match(lanes, rows):
        for row, expected in zip(lanes, rows):
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["recentred", "diagonal"])
    def test_rows_equal_one_dimensional_steps(self, stream, kind):
        model, j = (logistic_chain(), 3) if kind == "recentred" else (row_norm_model(), 5)
        rng = stream.generator()
        # Starts spread so that some rows accept and some reject; u = 0 on
        # two rows, which must accept whatever the acceptance.
        x = (model.center if kind == "recentred" else 0.0) + 0.6 * rng.standard_normal((40, j))
        xi, u = pcn.propose_noise(model, j, rng, (40,)), rng.random(40)
        u[[3, 17]] = 0.0
        moved = pcn.pcn_step(model, j, x, (xi, u))
        rows = [pcn.pcn_step(model, j, x[k], (xi[k], u[k])) for k in range(40)]
        self.assert_rows_match(moved, rows)
        accepted = np.any(moved != x, axis=1)
        assert accepted[[3, 17]].all() and accepted.any() and not accepted.all()
        # A carried state steps the same way and carries g of its new state.
        state = pcn.pcn_step(model, j, pcn.PcnState(x), (xi, u))
        self.assert_rows_match(state.x, rows)
        np.testing.assert_allclose(state.g, model.log_change(moved), rtol=1e-12)
        carried = pcn.pcn_step(model, j, state, (xi, u))
        self.assert_rows_match(carried.x, pcn.pcn_step(model, j, moved, (xi, u)))

    def test_coupled_rows_equal_one_dimensional_steps(self, stream):
        model, rng = row_norm_model(), stream.generator()
        lo, hi = rng.standard_normal((30, 2)), rng.standard_normal((30, 4))
        w = (pcn.propose_noise(model, 4, rng, (30,)), rng.random(30))
        new_lo, new_hi = pcn.coupled_pcn_step(model, (2, 4), (lo, hi), w)
        for k in range(30):
            row_lo, row_hi = pcn.coupled_pcn_step(model, (2, 4), (lo[k], hi[k]), (w[0][k], w[1][k]))
            self.assert_rows_match([new_lo[k], new_hi[k]], [row_lo, row_hi])

    def test_underflowing_acceptance_rejects_and_zero_uniform_accepts(self):
        # Rows stepping into x[0] > 0 face a log-change rise of 1000, whose
        # acceptance underflows to 0: they reject unless u == 0.
        model = pcn.PcnModel.diagonal(
            0.5, lambda x: np.where(x[..., 0] < 0, 0.0, 1000.0), lambda l: 1.0, regularity=2.0
        )
        x = np.array([[-1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        xi, u = np.array([[2.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]), np.array([0.5, 0.0, 0.5])
        moved = pcn.pcn_step(model, 2, x, (xi, u))
        np.testing.assert_array_equal(moved[0], x[0])
        assert moved[1, 0] > 0.0 and moved[2, 0] < -1.0
        self.assert_rows_match(moved, [pcn.pcn_step(model, 2, x[k], (xi[k], u[k])) for k in range(3)])

    def test_non_finite_log_change_raises(self):
        model = pcn.PcnModel.diagonal(
            0.5, lambda x: np.where(x[..., 0] > 5.0, np.nan, 0.0), lambda l: 1.0, regularity=2.0
        )
        x, u = np.zeros((4, 1)), np.full(4, 0.5)
        xi = np.array([[1.0], [20.0], [0.0], [1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            pcn.pcn_step(model, 1, x, (xi, u))
        with pytest.raises(ValueError, match="non-finite"):
            pcn.pcn_step(model, 1, x[1], (xi[1], u[1]))
        with pytest.raises(ValueError, match="non-finite"):
            pcn.pcn_step(model, 1, pcn.PcnState(x), (xi, u))


class TestCoupledStep:
    def test_faithfulness_exact(self, stream):
        model = norm_model()
        rng = stream.generator()
        x = pcn.propose_noise(model, 4, rng)
        y = x.copy()
        for _ in range(60):
            w = (pcn.propose_noise(model, 4, rng), rng.random())
            x, y = pcn.coupled_pcn_step(model, (4, 4), (x, y), w)
            assert np.array_equal(x, y)

    def test_flat_density_gap_moments(self, stream):
        # With g = 0 both chains always accept, so the gap obeys the exact
        # Gaussian recursion E|gap'|^2 = rho^2 |(I-P)x|^2 + (1-rho^2) tail.
        a = 2.0
        model = flat_model(rho=0.7, a=a)
        j_lo, j_hi = 3, 8
        lam = np.array([float(l) ** (-2 * a) for l in range(1, j_hi + 1)])
        x_hi = np.zeros(j_hi)
        x_hi[j_lo:] = 0.5
        x_lo = x_hi[:j_lo].copy()
        expected = 0.49 * float(np.sum(x_hi[j_lo:] ** 2)) + (1 - 0.49) * float(
            lam[j_lo:].sum()
        )
        rng = stream.generator()
        sq = np.empty(4000)
        for r in range(sq.size):
            w = (pcn.propose_noise(model, j_hi, rng), rng.random())
            lo, hi = pcn.coupled_pcn_step(model, (j_lo, j_hi), (x_lo, x_hi), w)
            sq[r] = float(np.sum((hi - np.pad(lo, (0, j_hi - j_lo))) ** 2))
        assert abs(sq.mean() - expected) <= four_se(sq)

    def test_mean_distance_decays_then_plateaus(self):
        # Transdimensional coupling from a projection-synchronized start:
        # the mean gap falls geometrically, then floors near the reference
        # tail mass sqrt(sum lambda) of the uncoupled coordinates.
        a = 2.0
        model = norm_model(rho=0.7, a=a)
        j_lo, j_hi = 5, 15
        lam = np.array([float(l) ** (-2 * a) for l in range(1, j_hi + 1)])
        floor = math.sqrt(float(lam[j_lo:].sum()))
        reps, n_steps = 400, 60
        dists = np.zeros(n_steps)
        root = Stream(5)
        for r in range(reps):
            rng = root.child(r).generator()
            x_hi = np.zeros(j_hi)
            x_hi[j_lo:] = 3.0 * np.sqrt(lam[j_lo:])
            x_lo = x_hi[:j_lo].copy()
            for k in range(n_steps):
                w = (pcn.propose_noise(model, j_hi, rng), rng.random())
                x_lo, x_hi = pcn.coupled_pcn_step(model, (j_lo, j_hi), (x_lo, x_hi), w)
                dists[k] += np.linalg.norm(x_hi - np.pad(x_lo, (0, j_hi - j_lo)))
        dists /= reps
        plateau = dists[-20:].mean()
        assert dists[0] > 1.5 * plateau  # visible decay phase
        assert plateau <= 3.0 * floor
        assert plateau >= floor / 3.0


class TestUnbiasedDelta:
    def test_constant_observable_gives_zero(self, stream):
        model = norm_model()
        sched = LevelSchedule.arithmetic(2, dims=lambda i: i + 1)
        for level in (1, 2, 3):
            delta, _ = pcn.delta_generator(model, sched, lambda x: 4.5, np.zeros(1))(
                level, stream.child(level).generator()
            )
            assert delta == 0.0

    def test_flat_density_first_coordinate_centred(self, stream):
        # g = 0: both marginals are exact Gaussian autoregressions, so the
        # first-coordinate difference has mean zero at every level.
        model = flat_model()
        sched = LevelSchedule.arithmetic(2, dims=lambda i: i + 1)
        deltas = np.array(
            [
                pcn.delta_generator(model, sched, lambda x: float(x[0]), np.zeros(1))(
                    2, stream.child(r).generator()
                )[0]
                for r in range(4000)
            ]
        )
        assert abs(deltas.mean()) <= four_se(deltas)

    def test_rms_decay_matches_pilot_rate(self):
        # ||delta_i||_2^2 <= const * r^(a_{i-1}) with r from a pilot fit.
        model = row_norm_model(rho=0.7, a=2.0)
        pilot = estimate_contraction(
            pcn.coupling(model, 8),
            pcn.PcnDistance("capped", 1.0),
            pairs=[(np.full(8, 0.5), np.full(8, -0.5))],
            n_steps=12,
            replicates=300,
            stream=Stream(9),
        )
        r = pilot.rate
        assert r < 1.0
        sched, _ = pcn.make_schedule(model, "bounded", m=2, r=r, theta=1.0, eps=0.2)
        f = lambda x: min(1.0, float(np.linalg.norm(x)))
        rms = []
        for i in range(1, 7):
            deltas = np.array(
                [
                    pcn.delta_generator(model, sched, f, np.zeros(1))(
                        i, Stream(100 + i).child(rep).generator()
                    )[0]
                    for rep in range(400)
                ]
            )
            rms.append(math.sqrt(float(np.mean(deltas**2))))
        a_prev = [sched.steps_at(i - 1) for i in range(1, 7)]
        slope = np.polyfit(a_prev, np.log(rms), 1)[0]
        assert slope <= 0.5 * math.log(r) + 0.05

    def test_work_units(self, stream):
        model = norm_model()
        model.work_exponent = 1.5
        sched = LevelSchedule([2, 5], [2, 3])
        _, work = pcn.delta_generator(model, sched, lambda x: 0.0, np.zeros(2))(
            1, stream.generator()
        )
        assert work == pytest.approx(5 * 3.0**1.5)


class TestDistances:
    def test_examples(self):
        assert pcn.pcn_distance("capped", 1.0, np.zeros(3), np.zeros(3)) == 0.0
        x, y = np.array([2.0]), np.array([0.0])
        assert pcn.pcn_distance("capped", 1.0, x, y) == 1.0  # |x-y| = 2 tau
        assert pcn.pcn_distance("weighted", 1.0, np.zeros(2), np.zeros(2)) == 0.0

    def test_weighted_combines_energy(self):
        x, y = np.array([0.3]), np.array([0.1])
        capped = pcn.pcn_distance("capped", 1.0, x, y)
        expected = math.sqrt(capped * (1 + math.e**0.3 + math.e**0.1))
        assert pcn.pcn_distance("weighted", 1.0, x, y) == pytest.approx(expected)

    def test_unequal_dimensions_padded(self):
        x, y = np.array([0.5, 0.2]), np.array([0.5])
        assert pcn.pcn_distance("capped", 1.0, x, y) == pytest.approx(0.2)

    @pytest.mark.parametrize("variant", ["capped", "weighted"])
    def test_rows_equal_one_dimensional_calls(self, stream, variant):
        rng = stream.generator()
        x, y = 0.6 * rng.standard_normal((2, 50, 4))
        for x_rows in (x, x[:, :2]):  # unequal dimensions pad each row
            rows = pcn.pcn_distance(variant, 1.5, x_rows, y)
            assert rows.shape == (50,)
            expected = [pcn.pcn_distance(variant, 1.5, a, b) for a, b in zip(x_rows, y)]
            np.testing.assert_array_equal(rows, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            pcn.pcn_distance("capped", 0.0, np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            pcn.PcnDistance("other", 1.0)


class TestMakeSchedule:
    def test_dimension_sequence_example(self):
        model = flat_model(a=2.0)
        sched, survival = pcn.make_schedule(model, "bounded", m=2, r=0.5, theta=1.0, eps=0.5)
        assert [sched.dims_at(i) for i in range(4)] == [1, 3, 7, 16]
        assert [sched.steps_at(i) for i in range(4)] == [2, 4, 6, 8]
        assert survival.rate == pytest.approx(0.5 ** (2 - 0.5))

    def test_regularity_split_between_variants(self):
        model = flat_model(a=2.0)
        pcn.make_schedule(model, "bounded", m=2, r=0.5, theta=1.0, eps=0.5)
        with pytest.raises(ValueError, match="2 theta"):
            pcn.make_schedule(model, "unbounded", m=2, r=0.5, theta=1.0, eps=0.1)
        rich = flat_model(a=3.0)
        sched, _ = pcn.make_schedule(rich, "unbounded", m=2, r=0.5, theta=1.0, eps=0.2)
        dims = [sched.dims_at(i) for i in range(4)]
        assert all(b > a for a, b in zip(dims, dims[1:]))

    def test_eps_interval(self):
        model = flat_model(a=2.0)
        ub = 2 - 2 * 1.0 * 2 / (2 * 2.0 - 1)
        with pytest.raises(ValueError, match="eps"):
            pcn.make_schedule(model, "bounded", m=2, r=0.5, theta=1.0, eps=ub)
        with pytest.raises(ValueError, match="eps"):
            pcn.make_schedule(model, "bounded", m=2, r=0.5, theta=1.0, eps=2 + 4 / 3)


class TestStationarity:
    def test_flat_density_moments_per_coordinate(self):
        # g = 0 makes the truncated reference exactly invariant.
        a, rho, j = 1.0, 0.7, 6
        model = flat_model(rho=rho, a=a)
        lam = np.array([float(l) ** (-2 * a) for l in range(1, j + 1)])
        rng = Stream(12).generator()
        x = np.zeros(j)
        for _ in range(int(10 / (1 - rho)) + 10):
            x = pcn.sampler_step(model, j, x, rng)
        thin, n_samples = 12, 3000
        samples = np.empty((n_samples, j))
        for s in range(n_samples):
            for _ in range(thin):
                x = pcn.sampler_step(model, j, x, rng)
            samples[s] = x
        for l in range(j):
            se_mean = math.sqrt(lam[l] / n_samples)
            assert abs(samples[:, l].mean()) <= 4.0 * se_mean
            sq = samples[:, l] ** 2
            assert abs(sq.mean() - lam[l]) <= 4.0 * sq.std(ddof=1) / math.sqrt(n_samples)

    @pytest.mark.parametrize("j", [1, 4, 16])
    def test_lane_pilot_rate_below_shipped_r(self, j):
        # The schedule of configs/pcn.json (and the harness default) needs r
        # above the capped-distance contraction rate of the chain it runs.
        config = json.loads((Path(__file__).parents[1] / "configs" / "pcn.json").read_text())
        fit = estimate_contraction(
            pcn.coupling(row_norm_model(rho=0.7, a=2.0), j),
            pcn.PcnDistance("capped", 1.0),
            [(np.full(j, -1.0), np.full(j, 1.0))],
            n_steps=20,
            replicates=4000,
            stream=Stream(60 + j),
        )
        assert fit.rate < config["schedule"]["r"]

    def test_shipped_law_second_moments_fall_over_levels(self):
        # The property r is chosen for: E[delta_i^2] / Fbar_i must fall over
        # the levels so that sum_i nu_i / Fbar_i stays finite.  At r = 0.6
        # the deep ratios are 3.5-4.5 times the level-1 ratio; at r = 0.85
        # about a third of it.
        config = json.loads((Path(__file__).parents[1] / "configs" / "pcn.json").read_text())
        params, sched = config["params"], config["schedule"]
        model = pcn.PcnModel.diagonal(
            params["rho"], lambda x: np.linalg.norm(x, axis=-1),
            lambda l: float(l) ** (-2.0 * params["a"]),
            regularity=params["a"], lipschitz=1.0,
        )
        schedule, law = pcn.make_schedule(
            model, sched["variant"], m=sched["m"], r=sched["r"],
            theta=sched["theta"], eps=sched["eps"],
        )
        delta_batch = pcn.delta_batch(
            model, schedule, lambda x: np.minimum(1.0, np.linalg.norm(x, axis=-1)),
            np.zeros(schedule.dims_at(0)),
        )
        ratios = []
        for i in range(7):
            delta, _ = delta_batch(i, 2000, Stream(70).child(i).generator())
            ratios.append(np.mean(delta**2) / law.survival(i))
        assert max(ratios[3:]) < ratios[1] / 2, ratios

    def test_contraction_dimension_stable(self):
        # Fixed-dimension capped-distance slope is strictly negative and
        # does not blow up or vanish with the dimension.
        model = row_norm_model(rho=0.7, a=2.0)
        slopes = []
        for j in (5, 15, 45):
            lam_sqrt = model.scales(j)
            pair = (3.0 * lam_sqrt, -3.0 * lam_sqrt)
            fit = estimate_contraction(
                pcn.coupling(model, j),
                pcn.PcnDistance("capped", 1.0),
                [pair],
                n_steps=10,
                replicates=300,
                stream=Stream(40 + j),
            )
            slopes.append(fit.slope)
        assert all(s < 0 for s in slopes)
        assert max(slopes) / min(slopes) >= 0.5  # within a factor two of each other
        assert min(slopes) / max(slopes) <= 2.0

    def test_unbiased_matches_long_run_average(self):
        # Scalar target with g = |x|: the estimator and a long chain agree
        # within combined Monte Carlo error.
        model = pcn.PcnModel.diagonal(
            0.6, lambda x: float(np.abs(x).sum()), lambda l: 1.0,
            regularity=2.0, lipschitz=1.0,
        )
        f = lambda x: min(1.0, float(np.abs(x).sum()))
        rng = Stream(3).generator()
        x = np.zeros(1)
        for _ in range(200):
            x = pcn.sampler_step(model, 1, x, rng)
        n = 120_000
        vals = np.empty(n)
        for k in range(n):
            x = pcn.sampler_step(model, 1, x, rng)
            vals[k] = f(x)
        batch_means = vals.reshape(50, -1).mean(axis=1)
        chain_mean = vals.mean()
        chain_se = batch_means.std(ddof=1) / math.sqrt(batch_means.size)

        sched = LevelSchedule.arithmetic(3, dims=lambda i: 1)
        survival = SurvivalDistribution.geometric(0.6**3)
        gen = pcn.delta_generator(model, sched, f, np.zeros(1))
        batch = estimate_batch(gen, survival, 20_000, seed=7)
        z = batch.z
        se_z = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(chain_mean - batch.mean) <= 4.0 * math.hypot(chain_se, se_z)


class TestRecentred:
    def test_preserves_reference_when_target_is_reference(self):
        center = np.array([1.0, -2.0])
        cov = np.array([[0.8, 0.3], [0.3, 1.2]])
        cov_inv = np.linalg.inv(cov)

        def neg_log_target(x):
            r = x - center
            return 0.5 * float(r @ cov_inv @ r)

        model = pcn.PcnModel.gaussian_reference(0.5, neg_log_target, center, cov)
        rng = Stream(8).generator()
        x = center.copy()
        samples = np.empty((4000, 2))
        for _ in range(100):
            x = pcn.sampler_step(model, 2, x, rng)
        for s in range(samples.shape[0]):
            for _ in range(8):
                x = pcn.sampler_step(model, 2, x, rng)
            samples[s] = x
        assert np.allclose(samples.mean(axis=0), center, atol=4 * math.sqrt(1.2 / 4000) * 3)
        assert np.allclose(np.cov(samples.T), cov, atol=0.15)

    def test_acceptance_corrects_to_target(self):
        # Reference N(c, C) far from the target N(0, I): the acceptance
        # built from the recentred log-density must still produce the
        # target law (detailed balance check through the mean).
        center = np.array([1.5, -1.0])
        cov = np.diag([2.0, 0.5])
        model = pcn.PcnModel.gaussian_reference(
            0.5, lambda x: 0.5 * float(x @ x), center, cov
        )
        rng = Stream(9).generator()
        x = center.copy()
        for _ in range(300):
            x = pcn.sampler_step(model, 2, x, rng)
        total = np.zeros(2)
        n = 30_000
        for k in range(n):
            x = pcn.sampler_step(model, 2, x, rng)
            total += x
        mean = total / n
        assert np.all(np.abs(mean) <= 0.05)

    def test_truncation_machinery_rejected(self):
        model = pcn.PcnModel.gaussian_reference(
            0.5, lambda x: 0.0, np.zeros(2), np.eye(2)
        )
        sched = LevelSchedule.arithmetic(1, dims=lambda i: i + 1)
        with pytest.raises(ValueError):
            pcn.delta_generator(model, sched, lambda x: 0.0, np.zeros(1))(
                1, Stream(0).generator()
            )
