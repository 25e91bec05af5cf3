"""Split independence sampler: acceptance floor, coupling, unbiasedness."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ubmc import LevelSchedule, Stream, SurvivalDistribution, harness
from ubmc import independence_sampler
from ubmc.couplings import pad_to
from ubmc.estimator import estimate_block
from ubmc.tuning import msework_report
from ubmc.independence_sampler import (
    AcceptanceFloorError,
    Branch,
    StepRandomness,
    UniformPriorModel,
    coupled_is_step,
    delta_batch,
    draw_randomness,
    is_acceptance,
    make_schedule,
    propose,
    sampler_step,
    split_step,
)
from ubmc.models import EllipticModel

from conftest import four_se


def misfit_lookup_model(misfits: dict, alpha_star: float = 0.01) -> UniformPriorModel:
    """Model whose forward map realizes prescribed misfits |y - G(x)|^2,
    keyed by the first coordinate of each state row."""

    def forward(j, x):
        keys = np.asarray(x)[..., 0]
        g = [math.sqrt(misfits[float(k)]) for k in keys.ravel()]
        return np.reshape(g, (*keys.shape, 1))

    return UniformPriorModel(
        half_widths=lambda k: 10.0 / k,
        forward=forward,
        y=np.array([0.0]),
        alpha_star=alpha_star,
    )


def linear_model(alpha_star=None) -> UniformPriorModel:
    matrix = np.array([[0.8, 0.3], [-0.2, 0.5]])
    widths = [1.0, 0.5]
    y = np.array([0.3, -0.1])
    if alpha_star is None:
        sup_g = float(np.linalg.norm(np.abs(matrix) @ np.array(widths)))
        alpha_star = math.exp(-0.5 * (np.linalg.norm(y) + sup_g) ** 2)
    return UniformPriorModel(
        half_widths=lambda k: widths[k - 1],
        forward=lambda j, x: x[..., :j] @ matrix[:, :j].T,
        y=y,
        alpha_star=alpha_star,
    )


def constant_forward_model(alpha_star=1.0) -> UniformPriorModel:
    return UniformPriorModel(
        half_widths=lambda k: 1.0 / k,
        forward=lambda j, x: np.zeros((*np.shape(x)[:-1], 1)),
        y=np.zeros(1),
        alpha_star=alpha_star,
    )


class TestAcceptance:
    def test_constant_forward_always_one(self, stream):
        model = constant_forward_model(alpha_star=0.5)
        rng = stream.generator()
        for j in (1, 3):
            x, xi = propose(model, j, rng), propose(model, j, rng)
            assert is_acceptance(model, j, x, xi) == 1.0

    def test_misfit_arithmetic(self):
        model = misfit_lookup_model({1.0: 4.0, 2.0: 2.0})
        assert is_acceptance(model, 1, np.array([1.0]), np.array([2.0])) == 1.0
        value = is_acceptance(model, 1, np.array([2.0]), np.array([1.0]))
        assert value == pytest.approx(math.exp(-1.0))

    def test_non_finite_forward_rejected(self):
        model = UniformPriorModel(
            half_widths=lambda k: 1.0,
            forward=lambda j, x: np.array([math.inf]),
            y=np.zeros(1),
            alpha_star=0.5,
        )
        with pytest.raises(ValueError):
            is_acceptance(model, 1, np.zeros(1), np.zeros(1))

    def test_floor_respected_over_many_proposals(self, stream):
        # Rigorous worst-case floor: every acceptance stays above it.
        model = linear_model()
        rng = stream.generator()
        n = 100_000
        worst = 1.0
        for _ in range(n):
            x = propose(model, 2, rng)
            xi = propose(model, 2, rng)
            worst = min(worst, is_acceptance(model, 2, x, xi))
        assert worst >= model.alpha_star


class TestCoupledStep:
    def test_minorize_branch_synchronizes(self, stream):
        model = linear_model()
        rng = stream.generator()
        w = StepRandomness(0.0, 0.7, propose(model, 2, rng), propose(model, 2, rng))
        states = (np.array([0.3]), np.array([-0.2, 0.1]))
        (lo, hi), (b_lo, b_hi) = coupled_is_step(model, (1, 2), states, w)
        assert b_lo is Branch.MINORIZE and b_hi is Branch.MINORIZE
        assert np.array_equal(lo, hi[:1])

    def test_shared_residual_accept_synchronizes(self, stream):
        model = constant_forward_model(alpha_star=0.5)
        rng = stream.generator()
        w = StepRandomness(0.9, 0.0, propose(model, 2, rng), propose(model, 2, rng))
        states = (np.array([0.3]), np.array([-0.2, 0.1]))
        (lo, hi), branches = coupled_is_step(model, (1, 2), states, w)
        assert branches == (Branch.RESIDUAL_ACCEPT, Branch.RESIDUAL_ACCEPT)
        assert np.array_equal(lo, w.xi2[:1])
        assert np.array_equal(hi, w.xi2)

    def test_floor_violation_raises(self, stream):
        # Declared floor far above the worst acceptance: the residual test
        # must observe it and fail loudly.
        model = misfit_lookup_model({1.0: 0.0, 2.0: 8.0}, alpha_star=0.9)
        w = StepRandomness(0.95, 0.5, np.array([1.0]), np.array([2.0]))
        with pytest.raises(AcceptanceFloorError):
            split_step(model, 1, np.array([1.0]), w)

    def test_branch_mismatch_rate_decays(self):
        # Mismatch probability from projected-synchronized pairs falls like
        # j^-beta; calibrate the constant at j = 4 and validate at 8.
        from conftest import scaled_elliptic_is_model

        elliptic, model = scaled_elliptic_is_model()
        beta = elliptic.gamma - 0.5

        def mismatch_rate(j, steps, seed):
            rng = Stream(seed).generator()
            top = pad_to(propose(model, 2 * j, rng), 2 * j)
            mismatches = 0
            for _ in range(steps):
                lo = top[:j].copy()
                w = draw_randomness(model, 2 * j, rng)
                (lo, top), (b_lo, b_hi) = coupled_is_step(model, (j, 2 * j), (lo, top), w)
                mismatches += b_lo is not b_hi
            return mismatches / steps

        rate4 = mismatch_rate(4, 20_000, 1)
        rate8 = mismatch_rate(8, 20_000, 2)
        constant = rate4 / 4.0 ** (-beta)
        assert rate4 > 0.0  # the calibration point is statistically live
        assert rate8 <= 2.0 * constant * 8.0 ** (-beta)

    def test_marginal_correctness_two_sample(self, stream):
        # High component of the coupled step vs a plain sampler step.
        model = linear_model()
        x_hi = np.array([0.4, -0.3])
        x_lo = x_hi[:1].copy()
        rng_joint = stream.child(0).generator()
        rng_plain = stream.child(1).generator()
        n = 10_000
        joint = np.empty(n)
        plain = np.empty(n)
        for k in range(n):
            w = draw_randomness(model, 2, rng_joint)
            (_, hi), _ = coupled_is_step(model, (1, 2), (x_lo, x_hi), w)
            joint[k] = hi.sum()
            plain[k] = sampler_step(model, 2, x_hi, rng_plain).sum()
        assert stats.ks_2samp(joint, plain).pvalue > 1e-3


class TestLaneSteps:
    """A ``(lanes, j)`` split step is the 1-d step applied to each row."""

    @staticmethod
    def row(w: StepRandomness, k: int) -> StepRandomness:
        return StepRandomness(w.u1[k], w.u2[k], w.xi1[k], w.xi2[k])

    def assert_rows_match(self, model, j, x, w, new, codes):
        assert codes.shape == (len(x),)
        for k in range(len(x)):
            state, branch = split_step(model, j, x[k], self.row(w, k))
            assert np.array_equal(new[k], state), k
            assert codes[k] == branch and isinstance(branch, Branch), k

    def test_draw_randomness_gives_one_draw_per_lane(self, stream):
        model = linear_model()
        w = draw_randomness(model, 2, stream.generator(), (30,))
        assert np.shape(w.u1) == np.shape(w.u2) == (30,)
        assert w.xi1.shape == w.xi2.shape == (30, 2)
        assert np.all(np.abs(w.xi1) <= model.widths(2))

    @pytest.mark.parametrize("lanes", [(), (1,), (7,), (3, 2)])
    def test_draw_randomness_is_four_draws_in_turn(self, lanes):
        # One rng.random call gives the values of u1, u2 and two proposals
        # drawn one after another from the same generator.
        model = linear_model()
        one_call = Stream(9).generator()
        w = draw_randomness(model, 2, one_call, lanes)
        rng = Stream(9).generator()
        expected = (
            rng.random(lanes or None), rng.random(lanes or None),
            propose(model, 2, rng, lanes), propose(model, 2, rng, lanes),
        )
        for got, want in zip(w, expected):
            assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
        assert one_call.random() == rng.random()  # and leaves the generator where they do

    def test_split_rows_equal_one_dimensional_steps(self, stream):
        model = linear_model()
        rng = stream.generator()
        x = propose(model, 2, rng, (60,))
        w = draw_randomness(model, 2, rng, (60,))
        w.u1[:20] = 0.5 * model.alpha_star
        w.u2[40:] = 0.999  # rejects wherever alpha < 1
        new, codes = split_step(model, 2, x, w)
        assert set(codes.tolist()) == set(Branch)
        self.assert_rows_match(model, 2, x, w, new, codes)

    def test_threshold_ties_accept(self):
        # Lane 0: alpha equals the floor, so the residual threshold is 0 and
        # u2 = 0 ties and accepts; lane 1 rejects on the smallest u2 > 0.
        # Lane 2: alpha = 1, threshold 1, accepts.  Lane 3 minorizes on
        # u1 == alpha_star.
        misfits = {1.0: 4.0, 2.0: 2.0}
        floor = float(is_acceptance(misfit_lookup_model(misfits), 1, np.array([2.0]), np.array([1.0])))
        model = misfit_lookup_model(misfits, alpha_star=floor)
        x = np.array([[2.0], [2.0], [1.0], [2.0]])
        w = StepRandomness(
            np.array([0.9, 0.9, 0.9, floor]), np.array([0.0, 5e-324, 1.0, 0.5]),
            np.full((4, 1), 1.0), np.full((4, 1), 1.0),
        )
        new, codes = split_step(model, 1, x, w)
        assert list(codes) == [
            Branch.RESIDUAL_ACCEPT, Branch.RESIDUAL_REJECT, Branch.RESIDUAL_ACCEPT, Branch.MINORIZE
        ]
        self.assert_rows_match(model, 1, x, w, new, codes)

    def test_floor_violation_in_one_lane_raises(self):
        # Only lane 1 tests a proposal whose acceptance e^-4 is below the
        # floor; lane 3 would too, but minorizes.
        model = misfit_lookup_model({1.0: 0.0, 2.0: 8.0}, alpha_star=0.9)
        x = np.array([[1.0], [1.0], [2.0], [1.0]])
        xi2 = np.array([[1.0], [2.0], [1.0], [2.0]])
        w = StepRandomness(np.array([0.95, 0.95, 0.95, 0.5]), np.full(4, 0.5), xi2, xi2)
        with pytest.raises(AcceptanceFloorError) as err:
            split_step(model, 1, x, w)
        assert err.value.observed == pytest.approx(math.exp(-4.0))
        for k in (0, 2, 3):
            split_step(model, 1, x[k], self.row(w, k))
        with pytest.raises(AcceptanceFloorError):
            split_step(model, 1, x[1], self.row(w, 1))

    def test_coupled_rows_equal_one_dimensional_steps(self):
        from conftest import scaled_elliptic_is_model

        _, model = scaled_elliptic_is_model()
        rng = Stream(5).generator()
        hi = propose(model, 8, rng, (40,))
        lo = hi[:, :4].copy()
        lo[::3] = propose(model, 4, rng, (14,))  # some pairs not synchronized
        w = draw_randomness(model, 8, rng, (40,))
        (new_lo, new_hi), (b_lo, b_hi) = coupled_is_step(model, (4, 8), (lo, hi), w)
        for k in range(40):
            (row_lo, row_hi), branches = coupled_is_step(
                model, (4, 8), (lo[k], hi[k]), self.row(w, k)
            )
            assert np.array_equal(new_lo[k], row_lo) and np.array_equal(new_hi[k], row_hi)
            assert (b_lo[k], b_hi[k]) == branches
        assert len(set(b_hi.tolist())) > 1


class TestSynchronization:
    def test_uniform_ergodicity_coincidence(self, stream):
        # Two fixed-dimension chains under shared randomness coincide after
        # n steps with probability at least 1 - (1 - alpha_star)^n.  The
        # replicates step as lanes: one row per replicate.
        model = linear_model()
        n_steps, reps = 6, 20_000
        bound = 1.0 - (1.0 - model.alpha_star) ** n_steps
        rng = stream.generator()
        x = np.tile([0.9, -0.45], (reps, 1))
        y = np.tile([-0.7, 0.2], (reps, 1))
        for _ in range(n_steps):
            w = draw_randomness(model, 2, rng, (reps,))
            x, _ = split_step(model, 2, x, w)
            y, _ = split_step(model, 2, y, w)
        met = int(np.count_nonzero(np.all(x == y, axis=1)))
        se = math.sqrt(bound * (1.0 - bound) / reps)
        assert met / reps >= bound - 4.0 * se

    def test_faithful_once_met(self, stream):
        model = linear_model()
        rng = stream.generator()
        x = propose(model, 2, rng)
        y = x.copy()
        for _ in range(50):
            w = draw_randomness(model, 2, rng)
            x, _ = split_step(model, 2, x, w)
            y, _ = split_step(model, 2, y, w)
            assert np.array_equal(x, y)


class TestUnbiasedDelta:
    def test_permanent_minorization_pins_deltas_to_high_modes(self, stream):
        # alpha_star = 1 (trivial target): every joint step couples, so the
        # bottom chain is exactly the projection of the top one and the
        # delta is bounded by the high-mode envelope of the observable.
        model = constant_forward_model(alpha_star=1.0)
        schedule = LevelSchedule([2, 4, 6], [1, 2, 3])
        levels = delta_batch(model, schedule, lambda u: np.sum(u, axis=-1), np.zeros(1))(
            [[50] * 3], lambda level: [stream.child(level).generator()]
        )
        for level in (1, 2):
            j_lo, j_hi = schedule.dims_at(level - 1), schedule.dims_at(level)
            envelope = sum(1.0 / k for k in range(j_lo + 1, j_hi + 1))
            deltas, _ = levels[level]
            assert np.all(np.abs(deltas) <= envelope + 1e-12)

    def test_coordinate_one_synchronized_gives_zero(self, stream):
        model = constant_forward_model(alpha_star=1.0)
        schedule = LevelSchedule([1, 3], [1, 2])
        _, (delta, work) = delta_batch(model, schedule, lambda u: u[:, 0], np.zeros(1))(
            [[1, 1]], lambda level: [stream.child(level).generator()]
        )
        assert delta.tolist() == [0.0]
        assert work == pytest.approx(3 * 2.0)  # a_1 * j_1^theta, theta = 1

    def test_unbiased_against_quadrature(self):
        # 2-d analytically tractable target: posterior expectation of u_1
        # by fine-grid quadrature.
        model = linear_model()
        matrix = np.array([[0.8, 0.3], [-0.2, 0.5]])
        grid1 = np.linspace(-1.0, 1.0, 401)
        grid2 = np.linspace(-0.5, 0.5, 401)
        u1, u2 = np.meshgrid(grid1, grid2, indexing="ij")
        g1 = matrix[0, 0] * u1 + matrix[0, 1] * u2
        g2 = matrix[1, 0] * u1 + matrix[1, 1] * u2
        density = np.exp(
            -0.5 * ((model.y[0] - g1) ** 2 + (model.y[1] - g2) ** 2)
        )
        target = float(np.sum(u1 * density) / np.sum(density))

        schedule = LevelSchedule(lambda i: 2 * (i + 1), lambda i: min(i + 1, 2))
        survival = SurvivalDistribution.geometric(0.6)
        # The replicates run as the lanes of one block.
        lanes = delta_batch(model, schedule, lambda u: u[..., 0], np.zeros(1))
        values = estimate_block(lanes, survival, [Stream(3)], [20_000])["z"]
        assert abs(values.mean() - target) <= four_se(values)


class TestLaneDelta:
    def test_lane_deltas_match_per_draw_generator(self):
        # Two-sample check of the lane binding against the per-draw one on
        # the elliptic problem: mean deltas at levels 1 and 2 within 4 SE.
        from conftest import scaled_elliptic_is_model

        _, model = scaled_elliptic_is_model()
        schedule = LevelSchedule([4, 8, 12], [2, 4, 8])
        x0 = np.zeros(2)
        lanes = delta_batch(model, schedule, lambda u: np.sum(u, axis=-1), x0)
        f = lambda u: float(np.sum(u))
        gen = lambda level, rng: independence_sampler._delta(model, schedule, level, [[1]], f, x0, [rng])[0]
        n = 1000
        levels = lanes([[4 * n] * 3], lambda i: [Stream(11).child(i).generator()])
        for level in (1, 2):
            lane_deltas, lane_work = levels[level]
            draws = [gen(level, Stream(12).child(level, k).generator()) for k in range(n)]
            deltas = np.array([d for d, _ in draws])
            assert lane_deltas.shape == (4 * n,) and np.any(lane_deltas != 0.0)
            assert lane_work == draws[0][1]
            se = math.hypot(
                lane_deltas.std(ddof=1) / math.sqrt(4 * n), deltas.std(ddof=1) / math.sqrt(n)
            )
            assert abs(lane_deltas.mean() - deltas.mean()) <= 4.0 * se


    def test_saturating_run_from_level_2_matches_one_level_runs(self):
        # Dimensions 1, 2, 2, ...: levels 0 and 1 run alone on their own
        # streams, levels 2.. as one fused run on level 2's stream.  Each
        # fused level's mean and E[delta_i^2] match the level run alone.
        # A low floor and one step per level keep deltas up to level 4.
        from conftest import moments_agree, recording_level_rng

        model = linear_model(alpha_star=0.01)
        schedule = LevelSchedule(lambda i: i + 1, lambda i: min(i + 1, 2))
        f = lambda u: u[..., 0]
        n, asked = 20_000, []
        fused = delta_batch(model, schedule, f, np.zeros(1))([[n] * 5], recording_level_rng(41, asked))
        assert asked == [0, 1, 2]
        for level in range(2, 5):
            (single, work), = independence_sampler._delta(
                model, schedule, level, [[n]], f, np.zeros((n, 1)), [Stream(42).child(level).generator()]
            )
            assert fused[level][1] == work
            assert np.any(fused[level][0] != 0.0)
            moments_agree(fused[level][0], single)


class TestMakeSchedule:
    # theta = 1 (the default work_exponent) and alpha_star = 1/2.
    HALF_FLOOR = misfit_lookup_model({}, alpha_star=0.5)

    def test_t_interval(self):
        with pytest.raises(ValueError, match="t in"):
            make_schedule(self.HALF_FLOOR, q=4, beta=2, kappa=2, t=6.0)
        schedule, survival = make_schedule(self.HALF_FLOOR, q=4, beta=2, kappa=2, t=5.5)
        assert survival.exponent == pytest.approx(5.5)
        dims = [schedule.dims_at(i) for i in range(5)]
        assert all(b > a for a, b in zip(dims, dims[1:]))
        steps = [schedule.steps_at(i) for i in range(5)]
        assert all(b > a for a, b in zip(steps, steps[1:]))

    def test_q_constraint(self):
        with pytest.raises(ValueError, match="q >"):
            make_schedule(self.HALF_FLOOR, q=2.9, beta=2, kappa=2, t=5.5)

    def test_step_rate_uses_log_floor(self):
        # c* = -log(1 - alpha_star); for alpha_star = 1/2 this is log 2.
        schedule, _ = make_schedule(self.HALF_FLOOR, q=4, beta=2, kappa=2, t=5.5)
        rate = 4 * 2 / math.log(2.0)
        assert schedule.steps_at(0) == max(1, math.ceil(rate * math.log(2.0)))

    def test_t_defaults_to_the_interval_midpoint_at_the_models_theta(self):
        # q = 2.6 and r = min(2.7, 4.4): t lies in (1 + 2.6 theta, 5.02).
        for theta in (1.0, 1.35):
            model = misfit_lookup_model({}, alpha_star=0.5)
            model.work_exponent = theta
            _, law = make_schedule(model, q=2.6, beta=2.7, kappa=4.4)
            t_lo, t_hi = 1.0 + theta * 2.6, 2.7 * 2.6 - 2.0
            assert law.kind == "polynomial" and law.exponent == (t_lo + t_hi) / 2

    @pytest.fixture(scope="class")
    def shipped(self):
        """``configs/indep-sampler.json``'s schedule and law, with the
        harness's defaults for every key the config leaves out."""
        config = json.loads((Path(__file__).parents[1] / "configs" / "indep-sampler.json").read_text())
        elliptic, model = harness._elliptic_is_model(harness._Section(config["params"], "params", "indep-sampler"))
        q, beta, kappa = config["schedule"]["q"], elliptic.gamma - 0.5, 2.0 * (elliptic.gamma - 1.0)
        schedule, law = make_schedule(model, q, beta, kappa)
        return schedule, law, q * beta / -math.log1p(-model.alpha_star), elliptic.work_exponent

    def test_shipped_steps_are_logarithmic(self, shipped):
        # a_i = ceil(rate log(i + 2)) plateaus from level 11 on; raising
        # each step past the one before would make them linear there.
        schedule, _, rate, _ = shipped
        steps = [schedule.steps_at(i) for i in range(40)]
        assert steps == [math.ceil(rate * math.log(i + 2.0)) for i in range(40)]
        assert steps[11] == steps[12] == 27

    def test_shipped_law_has_finite_work(self, shipped):
        # t_i = a_i j_i^theta grows like i^(2.6 theta) log i against the
        # law's i^-t: the partial sums settle near 100, where linear steps
        # would give 1311 at 10^4 levels and keep growing.
        schedule, law, _, theta = shipped
        cost = [schedule.steps_at(i) * schedule.dims_at(i) ** theta for i in range(10_001)]
        assert msework_report(np.zeros(10_001), cost, law).expected_work < 150.0
