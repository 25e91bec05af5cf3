"""pCN chain, its fixed- and cross-dimension couplings, schedules."""

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
    )


def capped_distance(x, y, tau=1.0):
    """``1 ^ |x - y| / tau`` per row of same-dimension ``(lanes, j)`` states."""
    return np.minimum(1.0, np.linalg.norm(x - y, axis=-1) / tau)


def flat_model(rho=0.7, a=2.0):
    return pcn.PcnModel.diagonal(
        rho, lambda x: np.zeros(np.shape(x)[:-1]), lambda l: float(l) ** (-2 * a), regularity=a
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
        g = model.log_change
        alpha = min(1.0, math.exp(g(np.array([0.0])) - g(np.array([proposal]))))
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
        g, proposal = model.log_change, pcn.pcn_step(model, 2, x, (uphill[0], 0.0))
        assert min(1.0, math.exp(g(x) - g(proposal))) == 0.0
        assert np.array_equal(pcn.pcn_step(model, 2, x, uphill), x)
        rng = stream.generator()
        for _ in range(50):
            assert pcn.sampler_step(model, 2, x, rng)[0] < 0.0


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

    def test_log_change_not_row_wise_raises(self, stream):
        # norm_model's log-change is the Frobenius norm of the whole
        # (lanes, j) array: one scalar that would give every lane one
        # shared acceptance ratio.
        model, rng = norm_model(), stream.generator()
        x = rng.standard_normal((6, 3))
        xi, u = pcn.propose_noise(model, 3, rng, (6,)), rng.random(6)
        with pytest.raises(ValueError, match="one value per state row"):
            pcn.pcn_step(model, 3, x, (xi, u))
        pcn.pcn_step(model, 3, x[0], (xi[0], u[0]))  # one 1-d state still steps

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
    @pytest.mark.parametrize("lanes", [(37,), ()], ids=["lanes", "one-d"])
    @pytest.mark.parametrize("start", ["states-with-g", "states", "first-carries-g", "arrays"])
    @pytest.mark.parametrize("kind", ["recentred", "diagonal"])
    def test_fixed_space_coupling_is_two_steps_bit_for_bit(self, stream, kind, start, lanes):
        # coupling() steps both chains as one (2, lanes, j) array: x and g
        # must be the bits two pcn_step calls on the shared (noise, uniform)
        # give, whether g is carried by both chains, by one or by neither.
        # At 37 lanes, BLAS would round some rows of one (74, j) array
        # differently from those of two (37, j) arrays.  The starts are
        # spread so that some rows accept and some reject.
        model, j = (logistic_chain(), 3) if kind == "recentred" else (row_norm_model(), 5)
        center, spread = (model.center, 0.6) if kind == "recentred" else (0.0, 0.05)
        rng = stream.generator()
        x, y = (center + spread * rng.standard_normal((*lanes, j)) for _ in range(2))
        if start != "arrays":
            x, y = pcn.PcnState(x), pcn.PcnState(y)
        if start in ("states-with-g", "first-carries-g"):
            x = pcn.PcnState(x.x, model.log_change(x.x))
        if start == "states-with-g":
            y = pcn.PcnState(y.x, model.log_change(y.x))
        seed = int(rng.integers(2**32))
        joint = pcn.coupling(model, j).step((x, y), np.random.default_rng(seed))
        shared_rng = np.random.default_rng(seed)
        w = (pcn.propose_noise(model, j, shared_rng, lanes), shared_rng.random(lanes or None))
        for new, old in zip(joint, (x, y)):
            expected = pcn.pcn_step(model, j, old, w)
            assert type(new) is type(expected)
            if start == "arrays":
                np.testing.assert_array_equal(new, expected)
                continue
            assert np.shape(new.x) == np.shape(old.x) and np.shape(new.g) == lanes
            np.testing.assert_array_equal(new.x, expected.x)
            np.testing.assert_array_equal(new.g, expected.g)
        if lanes:
            moved = np.any(getattr(joint[0], "x", joint[0]) != getattr(x, "x", x), axis=-1)
            assert moved.any() and not moved.all()

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
        model = row_norm_model()
        sched = LevelSchedule.arithmetic(2, dims=lambda i: i + 1)
        f = lambda x: np.full(len(x), 4.5)
        levels = pcn.delta_batch(model, sched, f, np.zeros(1))(
            [1] * 4, lambda level: stream.child(level).generator()
        )
        for level in (1, 2, 3):
            delta, _ = levels[level]
            assert delta.tolist() == [0.0]

    def test_flat_density_first_coordinate_centred(self, stream):
        # g = 0: both marginals are exact Gaussian autoregressions, so the
        # first-coordinate difference has mean zero at every level.
        model = flat_model()
        sched = LevelSchedule.arithmetic(2, dims=lambda i: i + 1)
        deltas, _ = pcn.delta_batch(model, sched, lambda x: x[:, 0], np.zeros(1))(
            [4000] * 3, lambda level: stream.child(level).generator()
        )[2]
        assert abs(deltas.mean()) <= four_se(deltas)

    def test_rms_decay_matches_pilot_rate(self):
        # ||delta_i||_2^2 <= const * r^(a_{i-1}) with r from a pilot fit.
        model = row_norm_model(rho=0.7, a=2.0)
        pilot = estimate_contraction(
            pcn.coupling(model, 8),
            capped_distance,
            pair=(np.full(8, 0.5), np.full(8, -0.5)),
            n_steps=12,
            replicates=300,
            stream=Stream(9),
        )
        r = pilot.rate
        assert r < 1.0
        sched, _ = pcn.make_schedule(model, "bounded", m=2, r=r, eps=0.2)
        f = lambda x: np.minimum(1.0, np.linalg.norm(x, axis=-1))
        levels = pcn.delta_batch(model, sched, f, np.zeros(1))(
            [400] * 7, lambda i: Stream(100 + i).generator()
        )
        rms = []
        for i in range(1, 7):
            deltas = levels[i][0]
            rms.append(math.sqrt(float(np.mean(deltas**2))))
        a_prev = [sched.steps_at(i - 1) for i in range(1, 7)]
        slope = np.polyfit(a_prev, np.log(rms), 1)[0]
        assert slope <= 0.5 * math.log(r) + 0.05

    def test_work_units(self, stream):
        model = row_norm_model()
        model.work_exponent = 1.5
        sched = LevelSchedule([2, 5], [2, 3])
        _, (_, work) = pcn.delta_batch(model, sched, lambda x: np.zeros(len(x)), np.zeros(2))(
            [1, 1], lambda level: stream.child(level).generator()
        )
        assert work == pytest.approx(5 * 3.0**1.5)


class TestMakeSchedule:
    def test_dimension_sequence_example(self):
        model = flat_model(a=2.0)
        sched, survival = pcn.make_schedule(model, "bounded", m=2, r=0.5, eps=0.5)
        assert [sched.dims_at(i) for i in range(4)] == [1, 3, 7, 16]
        assert [sched.steps_at(i) for i in range(4)] == [2, 4, 6, 8]
        assert survival.rate == pytest.approx(0.5 ** (2 - 0.5))

    def test_regularity_split_between_variants(self):
        model = flat_model(a=2.0)
        pcn.make_schedule(model, "bounded", m=2, r=0.5, eps=0.5)
        with pytest.raises(ValueError, match="2 theta"):
            pcn.make_schedule(model, "unbounded", m=2, r=0.5, eps=0.1)
        rich = flat_model(a=3.0)
        sched, _ = pcn.make_schedule(rich, "unbounded", m=2, r=0.5, eps=0.2)
        dims = [sched.dims_at(i) for i in range(4)]
        assert all(b > a for a, b in zip(dims, dims[1:]))

    def test_eps_interval(self):
        model = flat_model(a=2.0)
        ub = 2 - 2 * 1.0 * 2 / (2 * 2.0 - 1)
        with pytest.raises(ValueError, match="eps"):
            pcn.make_schedule(model, "bounded", m=2, r=0.5, eps=ub)
        with pytest.raises(ValueError, match="eps"):
            pcn.make_schedule(model, "bounded", m=2, r=0.5, eps=2 + 4 / 3)

    def test_theta_is_the_models_work_exponent(self):
        # At a = 3, m = 2 the bounded eps limit is 2 - 4 theta / 5: 1.2 at
        # theta = 1, 0.4 at theta = 2, so eps = 0.8 passes only at theta = 1.
        model = flat_model(a=3.0)
        pcn.make_schedule(model, "bounded", m=2, r=0.5, eps=0.8)
        model.work_exponent = 2.0
        with pytest.raises(ValueError, match="eps"):
            pcn.make_schedule(model, "bounded", m=2, r=0.5, eps=0.8)
        pcn.make_schedule(model, "bounded", m=2, r=0.5, eps=0.3)


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
            capped_distance,
            (np.full(j, -1.0), np.full(j, 1.0)),
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
            regularity=params["a"], work_exponent=sched["theta"],
        )
        schedule, law = pcn.make_schedule(model, sched["variant"], m=sched["m"], r=sched["r"], eps=sched["eps"])
        delta_batch = pcn.delta_batch(
            model, schedule, lambda x: np.minimum(1.0, np.linalg.norm(x, axis=-1)),
            np.zeros(schedule.dims_at(0)),
        )
        ratios = []
        levels = delta_batch([2000] * 7, lambda i: Stream(70).child(i).generator())
        for i, (delta, _) in enumerate(levels):
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
                capped_distance,
                pair,
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
            0.6, lambda x: np.abs(x).sum(axis=-1), lambda l: 1.0,
            regularity=2.0,
        )
        f = lambda x: np.minimum(1.0, np.abs(x).sum(axis=-1))
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
        batch = estimate_batch(pcn.delta_batch(model, sched, f, np.zeros(1)), survival, 20_000, seed=7)
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
        # A recentred chain has no truncation hierarchy: its dimension is
        # the reference's, so no schedule of growing dimensions is built.
        model = pcn.PcnModel.gaussian_reference(
            0.5, lambda x: 0.0, np.zeros(2), np.eye(2)
        )
        with pytest.raises(ValueError, match="diagonal model"):
            pcn.make_schedule(model, "bounded", m=2, r=0.5, eps=0.5)

    def test_pilot_on_states_evaluates_proposals_only(self):
        # Pairs given as PcnStates carry g(x) from step to step: the same
        # fit as on raw arrays, with the log-density evaluated once at the
        # start and then only at each step's proposals.  Both chains step
        # as one array, so each evaluation covers the pair.
        center, cov = np.array([0.5, -1.0]), np.diag([0.6, 0.3])
        calls = []

        def neg_log_target(x):
            calls.append(1)
            return 0.5 * np.sum(x * x, axis=-1) + 0.1 * np.sum(x**4, axis=-1)

        model = pcn.PcnModel.gaussian_reference(0.5, neg_log_target, center, cov)
        spread = 2.0 * np.sqrt(np.diag(cov))
        fits, evaluations = [], []
        for wrap in (lambda x: x, pcn.PcnState):
            calls.clear()
            fits.append(estimate_contraction(
                pcn.coupling(model),
                lambda s, t: np.linalg.norm(getattr(s, "x", s) - getattr(t, "x", t), axis=-1),
                pair=(wrap(center + spread), wrap(center - spread)),
                n_steps=12, replicates=50, stream=Stream(55),
            ))
            evaluations.append(len(calls))
        raw, states = fits
        assert states.slope == raw.slope
        np.testing.assert_array_equal(states.mean_distances, raw.mean_distances)
        assert evaluations == [2 * 12, 12 + 1]

    def test_delta_batch_evaluates_the_start_once(self):
        # Every chain of the level runs starts at x0 carrying g(x0): the
        # log-density sees the start once, as one 1-d state, and never as
        # rows that all equal it.
        center, cov = np.array([0.5, -1.0]), np.diag([0.6, 0.3])
        starts = []

        def neg_log_target(x):
            if np.all(x == center):
                starts.append(np.shape(x))
            return 0.5 * np.sum(x * x, axis=-1) + 0.1 * np.sum(x**4, axis=-1)

        model = pcn.PcnModel.gaussian_reference(0.5, neg_log_target, center, cov)
        delta_batch = pcn.delta_batch(model, LevelSchedule.arithmetic(2), lambda b: b[:, 0], center)
        stream = Stream(3)
        levels = delta_batch([50, 20, 5], lambda i: stream.child(i).generator())
        assert [np.shape(deltas) for deltas, _ in levels] == [(50,), (20,), (5,)]
        assert starts == [(2,)]
