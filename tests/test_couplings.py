"""Coupled-chain machinery: schedules, the coupled driver, minorization."""

import math

import numpy as np
import pytest
from scipy import stats

from ubmc import (
    CoupledKernel,
    LevelSchedule,
    MarkovKernel,
    Stream,
    contraction_delta_generator,
    estimate_contraction,
    minorized_step,
)
from ubmc.couplings import contraction_delta_batch, strictly_increasing, subgeometric_schedule
from ubmc.models import CircleChainModel, ContractingNormalsModel

from conftest import ConstantStreamDouble, ScriptedNormals, four_se


class TestLevelSchedule:
    def test_arithmetic(self):
        sched = LevelSchedule.arithmetic(4)
        assert [sched.steps_at(i) for i in range(3)] == [4, 8, 12]

    def test_strict_increase_required(self):
        sched = LevelSchedule([2, 2, 3])
        sched.steps_at(0)
        with pytest.raises(ValueError):
            sched.steps_at(1)

    def test_first_step_positive(self):
        with pytest.raises(ValueError):
            LevelSchedule([0, 1]).steps_at(0)

    def test_dims_nondecreasing(self):
        sched = LevelSchedule([1, 2, 3], [2, 2, 1])
        assert sched.dims_at(1) == 2
        with pytest.raises(ValueError):
            sched.dims_at(2)

    def test_negative_index_rejected(self):
        # Neither an empty nor a filled cache may be indexed from the end.
        empty, filled = LevelSchedule([1, 2], [1, 2]), LevelSchedule([1, 2], [1, 2])
        assert (filled.steps_at(1), filled.dims_at(1)) == (2, 2)
        for sched in (empty, filled):
            with pytest.raises(ValueError):
                sched.steps_at(-1)
            with pytest.raises(ValueError):
                sched.dims_at(-1)

    def test_strictly_increasing_bumps_stalled_terms(self):
        seq = strictly_increasing(lambda k: math.ceil(max(k, 1) ** 0.5))
        assert [seq(i) for i in range(5)] == [1, 2, 3, 4, 5]
        assert [strictly_increasing(lambda k: 2**k)(i) for i in range(4)] == [1, 2, 4, 8]
        assert strictly_increasing(lambda k: -3)(0) == 1
        with pytest.raises(ValueError):
            seq(-1)


class TestCoupledDriver:
    def test_scripted_hand_value(self):
        # rho = 0.5, steps (1, 2), level 1, all noises scripted to 1:
        # lone step gives sqrt(0.75); the joint step moves the pair with a
        # shared noise, so the difference is 0.5 * sqrt(0.75).
        model = ContractingNormalsModel(0.5)
        sched = LevelSchedule([1, 2])
        stream = ConstantStreamDouble(ScriptedNormals([1.0, 1.0]))
        delta, work = contraction_delta_generator(
            model.kernel(), model.coupling(), sched, lambda x: x, 0.0
        )(1, stream.generator())
        assert delta == pytest.approx(0.5 * math.sqrt(0.75))
        assert work == pytest.approx(2.0)

    def test_negative_level_rejected(self):
        model = ContractingNormalsModel(0.5)
        gen = contraction_delta_generator(
            model.kernel(), model.coupling(), LevelSchedule([1, 2]), lambda x: x, 0.0
        )
        with pytest.raises(ValueError):
            gen(-1, Stream(0).generator())

    def test_zero_noise_gives_zero_delta(self):
        model = ContractingNormalsModel(0.5)
        sched = LevelSchedule([1, 2, 4])
        for level in (1, 2):
            stream = ConstantStreamDouble(ScriptedNormals([0.0] * 10))
            delta, _ = contraction_delta_generator(
                model.kernel(), model.coupling(), sched, lambda x: x, 0.0
            )(level, stream.generator())
            assert delta == 0.0

    def test_stream_consumption_audit(self):
        # The level consumes exactly a_i noises: the lone prefix takes
        # a_i - a_{i-1}, the joint phase one shared draw per step.
        model = ContractingNormalsModel(0.7)
        sched = LevelSchedule([3, 7, 11])
        for level, expected in [(0, 3), (1, 7), (2, 11)]:
            script = ScriptedNormals([0.1] * expected)
            contraction_delta_generator(
                model.kernel(), model.coupling(), sched, lambda x: x, 0.0
            )(level, ConstantStreamDouble(script).generator())
            assert script.calls == expected
            assert script.values == []

    def test_replay_determinism(self, stream):
        model = ContractingNormalsModel(0.6)
        sched = LevelSchedule.arithmetic(3)
        gen = contraction_delta_generator(
            model.kernel(), model.coupling(), sched, lambda x: x, 0.0
        )
        first = gen(2, stream.child(1).generator())
        second = gen(2, stream.child(1).generator())
        assert first == second

    def test_rms_decay_against_pilot(self, stream):
        # ||delta_i||_2 decays like rho^(a_{i-1}); calibrate the constant
        # at level 1 and check level 2 under it (Monte Carlo slack only).
        rho = 0.8
        sched = LevelSchedule.arithmetic(4)
        model = ContractingNormalsModel(rho)
        delta_batch = contraction_delta_batch(
            model.kernel(), model.coupling(), sched, lambda x: x, 0.0
        )
        d1, _ = delta_batch(1, 100_000, stream.child(1).generator())
        d2, _ = delta_batch(2, 100_000, stream.child(2).generator())
        c_pilot = np.sqrt(np.mean(d1**2)) / rho ** sched.steps_at(0)
        rms2 = np.sqrt(np.mean(d2**2))
        assert rms2 <= 1.05 * c_pilot * rho ** sched.steps_at(1)


class TestMinorizedStep:
    def test_constant_branch_dominates(self, stream):
        rng = stream.generator()
        identity = MarkovKernel(step=lambda x, r: x)
        out = [
            minorized_step(1.0 - 1e-12, lambda r: 7.0, identity, 3.0, rng)
            for _ in range(2000)
        ]
        assert all(v == 7.0 for v in out)

    def test_bernoulli_mixture_frequencies(self, stream):
        rng = stream.generator()
        identity = MarkovKernel(step=lambda x, r: x)
        n = 100_000
        hits = sum(
            minorized_step(0.5, lambda r: 7.0, identity, 3.0, rng) == 7.0
            for _ in range(n)
        )
        se = math.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) <= 4.0 * se

    def test_coalescence_probability(self, stream):
        # Shared stream, distinct starts, identity residual: the chains
        # coincide iff the constant branch ever fired.
        lam, n_steps, reps = 0.3, 6, 20_000
        identity = MarkovKernel(step=lambda x, r: x)
        bound = 1.0 - (1.0 - lam) ** n_steps
        met = 0
        for r in range(reps):
            x, y = 3.0, -2.0
            for k in range(n_steps):
                shared = stream.child(r, k)
                x = minorized_step(lam, lambda g: 7.0, identity, x, shared.generator())
                y = minorized_step(lam, lambda g: 7.0, identity, y, shared.generator())
            met += x == y
        se = math.sqrt(bound * (1.0 - bound) / reps)
        assert met / reps >= bound - 4.0 * se

    def test_lambda_bounds(self):
        identity = MarkovKernel(step=lambda x, r: x)
        with pytest.raises(ValueError):
            minorized_step(0.0, lambda r: 0.0, identity, 1.0, Stream(0).generator())


class TestEstimateContraction:
    def test_exact_geometric_contraction(self, stream):
        model = ContractingNormalsModel(0.5)
        fit = estimate_contraction(
            model.coupling(),
            lambda x, y: abs(x - y),
            pairs=[(2.0, -1.0)],
            n_steps=12,
            replicates=50,
            stream=stream,
        )
        assert fit.slope == pytest.approx(math.log(0.5), abs=0.05)

    def test_identity_coupling_zero_slope(self, stream):
        frozen = CoupledKernel(
            step=lambda pair, rng: pair, marginal=MarkovKernel(step=lambda x, r: x)
        )
        fit = estimate_contraction(
            frozen, lambda x, y: abs(x - y), [(1.0, 0.0)], 8, 5, stream
        )
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_pair_rejected(self, stream):
        model = ContractingNormalsModel(0.5)
        with pytest.raises(ValueError):
            estimate_contraction(
                model.coupling(), lambda x, y: abs(x - y), [(1.0, 1.0)], 5, 5, stream
            )

    def test_positive_prefix_only(self, stream):
        # Coupling that collapses the pair exactly at step 4.
        state = {"k": 0}

        def step(pair, rng):
            state["k"] += 1
            if state["k"] >= 4:
                return (0.0, 0.0)
            x, y = pair
            return (0.5 * x, 0.5 * y)

        frozen = CoupledKernel(step=step, marginal=MarkovKernel(step=lambda x, r: x))
        fit = estimate_contraction(
            frozen, lambda x, y: abs(x - y), [(1.0, 0.0)], 8, 1, stream
        )
        assert fit.slope == pytest.approx(math.log(0.5), abs=1e-9)
        assert len(fit.steps) == 3

    def test_pilot_bound_validates_on_fresh_seeds(self, stream):
        # Fit (c, r) on a pilot horizon, then check mean distance at twice
        # the horizon under fresh randomness.
        model = ContractingNormalsModel(0.7)
        d = lambda x, y: abs(x - y)
        pilot = estimate_contraction(
            model.coupling(), d, [(3.0, -1.0)], 10, 200, stream.child(0)
        )
        c, r = math.exp(pilot.intercept), math.exp(pilot.slope)
        n = 20
        totals = 0.0
        reps = 400
        for rep in range(reps):
            rng = stream.child(1, rep).generator()
            x, y = 3.0, -1.0
            for _ in range(n):
                x, y = model.coupling().step((x, y), rng)
            totals += d(x, y)
        assert totals / reps <= 1.5 * c * r**n


class TestMarginalsAndFaithfulness:
    def test_shared_noise_faithful(self, stream):
        model = ContractingNormalsModel(0.8)
        rng = stream.generator()
        x, y = model.coupling().step((1.3, 1.3), rng)
        assert x == y

    def test_circle_faithful(self, stream):
        from ubmc.models import circle_maximal_coupling

        rng = stream.generator()
        for _ in range(200):
            x, y = circle_maximal_coupling((2.2, 2.2), rng)
            assert x == y

    def test_kernel_stationarity_contract(self, stream):
        # The output law of one step depends only on the input state:
        # two independent batches from the same state are exchangeable.
        step = ContractingNormalsModel(0.6).kernel().step
        a = np.array(
            [step(1.3, stream.child(0).generator()) for _ in range(1)]
        )
        rng1, rng2 = stream.child(1).generator(), stream.child(2).generator()
        first = np.array([step(1.3, rng1) for _ in range(5000)])
        second = np.array([step(1.3, rng2) for _ in range(5000)])
        assert stats.ks_2samp(first, second).pvalue > 1e-3

    def test_distance_like_wrapper(self):
        from ubmc import DistanceLike

        d = DistanceLike(fn=lambda x, y: abs(x - y))
        assert d(2.0, 2.0) == 0.0
        assert d(1.0, 3.0) == d(3.0, 1.0) == 2.0
        assert d.symmetric and d.vanishes_on_diagonal

    @pytest.mark.parametrize(
        "model", [ContractingNormalsModel(0.6), CircleChainModel()],
        ids=["contracting", "circle"],
    )
    def test_marginal_correctness_two_sample(self, model, stream):
        # First component of one coupled step vs one lone kernel step.
        start = (0.7, 2.9)
        rng_joint = stream.child(0).generator()
        rng_lone = stream.child(1).generator()
        n = 10_000
        joint = np.array(
            [model.coupling().step(start, rng_joint)[0] for _ in range(n)]
        )
        lone = np.array([model.kernel().step(start[0], rng_lone) for _ in range(n)])
        assert stats.ks_2samp(joint, lone).pvalue > 1e-3


class TestSubgeometricSchedule:
    def test_valid_choice(self):
        sched, survival = subgeometric_schedule(k=4, r=1.0, eps=0.5)
        assert [sched.steps_at(i) for i in range(3)] == [1, 16, 81]
        # survival exponent 2rk - 2 - eps
        assert survival.exponent == pytest.approx(2 * 1.0 * 4 - 2 - 0.5)

    def test_constraints_enforced(self):
        with pytest.raises(ValueError):
            subgeometric_schedule(k=4, r=0.4, eps=0.1)
        with pytest.raises(ValueError):
            subgeometric_schedule(k=2, r=1.0, eps=0.1)  # k <= 3/(2r-1)
        with pytest.raises(ValueError):
            subgeometric_schedule(k=4, r=1.0, eps=1.1)  # eps >= (2r-1)k-3
