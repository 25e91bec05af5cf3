"""Coupled-chain machinery: schedules, the coupled driver, contraction fits."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from ubmc import (
    CoupledKernel,
    LevelSchedule,
    Stream,
    estimate_contraction,
)
from ubmc import couplings, gaussian_linear, independence_sampler, pcn
from ubmc.couplings import contraction_delta_batch, level_runs
from ubmc.models import CircleChainModel, ContractingNormalsModel

from conftest import ConstantStreamDouble, ScriptedNormals, four_se, moments_agree, recording_level_rng


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

    def test_fractional_terms_rejected(self):
        # int() would cut 2.5 (i + 1) to 2, 5, 7, ... without a word.
        with pytest.raises(ValueError, match=r"a_0 = 2\.5, j_0 = 1 at level 0"):
            LevelSchedule.arithmetic(2.5).steps_at(0)
        sched = LevelSchedule([1.0, 2, 3], [1, 1.5, 2])
        assert sched.steps_at(0) == 1
        with pytest.raises(ValueError, match=r"a_1 = 2, j_1 = 1\.5 at level 1"):
            sched.dims_at(1)
        with pytest.raises(ValueError, match="at level 0"):
            LevelSchedule([1.5, 2.5, 3.9]).steps_at(2)

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

    def test_every_level_raises_steps_or_dims(self):
        # A step plateau is fine while the dimension rises.
        sched = LevelSchedule([2, 2, 3], [1, 2, 3])
        assert [(sched.steps_at(i), sched.dims_at(i)) for i in range(3)] == [(2, 1), (2, 2), (3, 3)]
        for steps, dims in [([2, 2], [2, 2]), ([3, 2], [1, 2])]:
            sched = LevelSchedule(steps, dims)
            sched.steps_at(0)
            with pytest.raises(ValueError):
                sched.steps_at(1)

    @pytest.mark.parametrize(
        "case",
        [
            ("pcn", 2.0, "bounded", 0.5), ("pcn", 3.0, "unbounded", 0.5),
            ("pcn", 2.0, "bounded", 0.6), ("pcn", 2.0, "bounded", 0.85),
            ("indep-sampler", 2.6), ("indep-sampler", 4.0),
            ("linear-gaussian", 0.5), ("linear-gaussian", 2.5),
        ],
        ids=lambda case: "-".join(map(str, case)),
    )
    def test_floored_formulas_match_recursive_bump(self, case):
        # Each schedule floors its formula f at k + 1, which equals raising
        # every term to one past the one before: f(k) - k peaks at an end of
        # every prefix for these convex ceilings and for k^q with q < 1.
        kind, *args = case
        if kind == "pcn":
            a, variant, r = args
            model = pcn.PcnModel.diagonal(
                0.7, lambda x: np.zeros(np.shape(x)[:-1]), lambda l: float(l) ** (-2 * a), regularity=a
            )
            exponent = pcn._dims_exponent(model, variant, 2)
            raw = lambda k: math.ceil(r ** (exponent * k))
            sched, _ = pcn.make_schedule(model, variant, m=2, r=r, eps=0.2)
            dims = sched.dims_at
        else:
            (q,) = args
            raw = lambda k: math.ceil(max(k, 1) ** q)
            if kind == "indep-sampler":
                beta, kappa, theta, t = (2.7, 4.4, 1.35, 4.8) if q < 3 else (2.0, 2.0, 1.0, 5.5)
                model = independence_sampler.UniformPriorModel(
                    half_widths=lambda k: 1.0, forward=None, y=[0.0], alpha_star=0.5, work_exponent=theta
                )
                sched, _ = independence_sampler.make_schedule(model, q=q, beta=beta, kappa=kappa, t=t)
            else:
                sched, _ = gaussian_linear.make_schedule(
                    "holder", "polynomial", a=5.0, s=1.0, q=q, eps=1.4 if q < 1 else 0.5
                )
            dims = sched.dims_at
        bumped = []
        for k in range(2000):
            try:
                term = raw(k)
            except OverflowError:  # r^(exponent k) left the float range
                break
            bumped.append(max(term, bumped[-1] + 1 if bumped else 1))
        assert len(bumped) >= 600
        assert [dims(k) for k in range(len(bumped))] == bumped


class TestPositiveNonincreasing:
    """pCN's reference eigenvalues and the uniform prior's box half-widths
    are one checked, cached sequence."""

    READERS = {
        "pcn": lambda term: pcn.PcnModel.diagonal(0.5, lambda x: 0.0, term, regularity=2.0).scales,
        "uniform-prior": lambda term: independence_sampler.UniformPriorModel(
            half_widths=term, forward=lambda j, x: np.zeros(1), y=np.zeros(1), alpha_star=1.0
        ).widths,
    }

    @pytest.mark.parametrize("model", READERS)
    @pytest.mark.parametrize(
        "term, message",
        [
            (lambda k: float(k), "nonincreasing"),
            (lambda k: 1.0 - 0.5 * k, "positive"),
            (lambda k: 1.0 if k < 3 else math.nextafter(1.0, 2.0), "nonincreasing"),
        ],
        ids=["rising", "nonpositive", "rising-one-ulp"],
    )
    def test_rejects_bad_terms(self, model, term, message):
        with pytest.raises(ValueError, match=message):
            self.READERS[model](term)(3)

    def test_terms_are_read_once_into_one_read_only_array(self):
        read = []
        term = lambda k: read.append(k) or 1.0 / k
        two = couplings._positive_nonincreasing(np.empty(0), term, 2, "terms")
        four = couplings._positive_nonincreasing(two, term, 4, "terms")
        assert couplings._positive_nonincreasing(four, term, 3, "terms") is four
        assert read == [1, 2, 3, 4]
        np.testing.assert_array_equal(four, [1.0, 0.5, 1.0 / 3.0, 0.25])
        assert not two.flags.writeable and not four.flags.writeable

    def test_replaced_uniform_prior_builds_its_own_widths(self):
        model = independence_sampler.UniformPriorModel(
            half_widths=lambda k: 1.0 / k, forward=lambda j, x: np.zeros(1), y=np.zeros(1), alpha_star=1.0
        )
        widths = model.widths(3)
        assert not widths.flags.writeable
        wider = dataclasses.replace(model, half_widths=lambda k: 2.0 / k)
        np.testing.assert_array_equal(wider.widths(3), [2.0, 1.0, 2.0 / 3.0])
        np.testing.assert_array_equal(model.widths(3), [1.0, 0.5, 1.0 / 3.0])


def one_draw(model, sched, level, rng):
    """One level difference of the 1-d chain from 0: the per-draw reference."""
    return couplings._delta(model.kernel(), model.coupling(), sched, level, [1], 0.0, lambda x: x, rng)[0]


class TestCoupledDriver:
    def test_scripted_hand_value(self):
        # rho = 0.5, steps (1, 2), level 1, all noises scripted to 1:
        # lone step gives sqrt(0.75); the joint step moves the pair with a
        # shared noise, so the difference is 0.5 * sqrt(0.75).
        model = ContractingNormalsModel(0.5)
        sched = LevelSchedule([1, 2])
        stream = ConstantStreamDouble(ScriptedNormals([1.0, 1.0]))
        delta, work = one_draw(model, sched, 1, stream.generator())
        assert delta == pytest.approx(0.5 * math.sqrt(0.75))
        assert work == pytest.approx(2.0)

    def test_negative_level_rejected(self):
        model = ContractingNormalsModel(0.5)
        with pytest.raises(ValueError):
            one_draw(model, LevelSchedule([1, 2]), -1, Stream(0).generator())

    def test_zero_noise_gives_zero_delta(self):
        model = ContractingNormalsModel(0.5)
        sched = LevelSchedule([1, 2, 4])
        for level in (1, 2):
            stream = ConstantStreamDouble(ScriptedNormals([0.0] * 10))
            delta, _ = one_draw(model, sched, level, stream.generator())
            assert delta == 0.0

    def test_stream_consumption_audit(self):
        # The level consumes exactly a_i noises: the lone prefix takes
        # a_i - a_{i-1}, the joint phase one shared draw per step.
        model = ContractingNormalsModel(0.7)
        sched = LevelSchedule([3, 7, 11])
        for level, expected in [(0, 3), (1, 7), (2, 11)]:
            script = ScriptedNormals([0.1] * expected)
            one_draw(model, sched, level, ConstantStreamDouble(script).generator())
            assert script.calls == expected
            assert script.values == []

    def test_replay_determinism(self, stream):
        model = ContractingNormalsModel(0.6)
        sched = LevelSchedule.arithmetic(3)
        first = one_draw(model, sched, 2, stream.child(1).generator())
        second = one_draw(model, sched, 2, stream.child(1).generator())
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
        levels = delta_batch([100_000] * 3, lambda i: stream.child(i).generator())
        (d1, _), (d2, _) = levels[1], levels[2]
        c_pilot = np.sqrt(np.mean(d1**2)) / rho ** sched.steps_at(0)
        rms2 = np.sqrt(np.mean(d2**2))
        assert rms2 <= 1.05 * c_pilot * rho ** sched.steps_at(1)


class TestLevelRuns:
    def test_arithmetic_schedule_is_one_run(self):
        assert level_runs(LevelSchedule.arithmetic(3), 5) == [range(6)]

    def test_growing_dimensions_run_level_by_level(self):
        schedule = LevelSchedule(lambda i: 2 * (i + 1), lambda i: i + 1)
        assert level_runs(schedule, 3) == [range(1), range(1, 2), range(2, 3), range(3, 4)]

    def test_saturating_dimensions_start_a_run_at_level_2(self):
        # j = 1, 2, 2, 2, ...: level 1 moves from dimension 1 to 2.
        schedule = LevelSchedule(lambda i: 2 * (i + 1), lambda i: min(i + 1, 2))
        assert level_runs(schedule, 5) == [range(1), range(1, 2), range(2, 6)]

    def test_level_0_joins_only_an_equal_lone_phase(self):
        # a = 2, 3, 4: level 0 runs 2 lone steps, the others 1.
        assert level_runs(LevelSchedule([2, 3, 4]), 2) == [range(1), range(1, 3)]

    def test_run_reads_its_first_level_stream(self):
        # The fused run of a block asks for one generator, its first level's.
        model = ContractingNormalsModel(0.8)
        delta_batch = contraction_delta_batch(
            model.kernel(), model.coupling(), LevelSchedule.arithmetic(2), lambda x: x, 0.0
        )
        asked = []
        levels = delta_batch([8, 5, 3, 1], recording_level_rng(3, asked))
        assert asked == [0]
        assert [np.shape(d) for d, _ in levels] == [(8,), (5,), (3,), (1,)]
        assert [w for _, w in levels] == [2.0, 4.0, 6.0, 8.0]

    def test_fused_circle_run_matches_one_level_runs(self):
        # Per-level mean and E[delta_i^2] of the fused run against levels run alone.
        model = CircleChainModel()
        schedule, n = LevelSchedule.arithmetic(1), 20_000
        fused = contraction_delta_batch(
            model.kernel(), model.coupling(), schedule, np.cos, 0.0
        )([n] * 6, lambda i: Stream(31).child(i).generator())
        for level in range(6):
            (single, _), = couplings._delta(
                model.kernel(), model.coupling(), schedule, level, [n], np.zeros(n),
                np.cos, Stream(32).child(level).generator(),
            )
            assert fused[level][0].shape == (n,)
            moments_agree(fused[level][0], single)


class TestEstimateContraction:
    def test_exact_geometric_contraction(self, stream):
        model = ContractingNormalsModel(0.5)
        fit = estimate_contraction(
            model.coupling(),
            lambda x, y: abs(x - y),
            pair=(2.0, -1.0),
            n_steps=12,
            replicates=50,
            stream=stream,
        )
        assert fit.slope == pytest.approx(math.log(0.5), abs=0.05)

    def test_identity_coupling_zero_slope(self, stream):
        frozen = CoupledKernel(step=lambda pair, rng: pair)
        fit = estimate_contraction(
            frozen, lambda x, y: abs(x - y), (1.0, 0.0), 8, 5, stream
        )
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_pair_rejected(self, stream):
        model = ContractingNormalsModel(0.5)
        with pytest.raises(ValueError):
            estimate_contraction(
                model.coupling(), lambda x, y: abs(x - y), (1.0, 1.0), 5, 5, stream
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

        frozen = CoupledKernel(step=step)
        fit = estimate_contraction(
            frozen, lambda x, y: abs(x - y), (1.0, 0.0), 8, 1, stream
        )
        assert fit.slope == pytest.approx(math.log(0.5), abs=1e-9)
        assert len(fit.steps) == 3

    def test_pilot_bound_validates_on_fresh_seeds(self, stream):
        # Fit (c, r) on a pilot horizon, then check mean distance at twice
        # the horizon under fresh randomness.
        model = ContractingNormalsModel(0.7)
        d = lambda x, y: abs(x - y)
        pilot = estimate_contraction(
            model.coupling(), d, (3.0, -1.0), 10, 200, stream.child(0)
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

