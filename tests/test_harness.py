"""Experiment harness: determinism, file formats, baseline, comparisons."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ubmc import harness
from ubmc.cli import main as cli_main
from ubmc.harness import (
    BaselineResult,
    ConfigError,
    ExperimentConfig,
    compare_msework,
    ergodic_baseline,
    run_experiment,
)
from ubmc.models import ContractingNormalsModel

from conftest import four_se


def contracting_config(**overrides) -> ExperimentConfig:
    base = dict(
        experiment="contracting-normals",
        params={"rho": 0.8},
        schedule={"kind": "arithmetic", "m": 4},
        survival={"kind": "optimal"},
        replicates=10_000,
        seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_summary_mean_unbiased(self, tmp_path):
        summary = run_experiment(contracting_config(out=str(tmp_path)))
        assert abs(summary["mean"]) <= 4.0 * summary["se"]
        assert summary["target_mean"] == 0.0

    def test_work_ledger_matches_csv(self, tmp_path):
        config = contracting_config(replicates=500, out=str(tmp_path))
        summary = run_experiment(config)
        rows = Path(summary["csv_path"]).read_text().strip().splitlines()
        header = rows[0].split(",")
        work_col = header.index("work")
        works = [float(r.split(",")[work_col]) for r in rows[1:]]
        assert summary["expected_work"] == math.fsum(works) / len(works)
        assert len(works) == 500

    def test_byte_identical_reruns(self, tmp_path):
        config = contracting_config(replicates=300)
        a = run_experiment(contracting_config(replicates=300, out=str(tmp_path / "a")))
        b = run_experiment(contracting_config(replicates=300, out=str(tmp_path / "b")))
        csv_a = Path(a["csv_path"]).read_bytes()
        csv_b = Path(b["csv_path"]).read_bytes()
        assert csv_a == csv_b

    def test_parallel_degree_invariance(self, tmp_path):
        serial = run_experiment(
            contracting_config(replicates=2100, out=str(tmp_path / "p1"), parallel=1)
        )
        parallel = run_experiment(
            contracting_config(replicates=2100, out=str(tmp_path / "p2"), parallel=2)
        )
        assert Path(serial["csv_path"]).read_bytes() == Path(
            parallel["csv_path"]
        ).read_bytes()
        # The lane-stepped chains, over two blocks (the second of one lane).
        for experiment, params in [("logistic", {"rwm_steps": 10_000}), ("pcn", {})]:
            runs = [
                run_experiment(
                    ExperimentConfig(
                        experiment=experiment, params=params, replicates=1025, seed=11,
                        out=str(tmp_path / f"{experiment}{p}"), parallel=p,
                    )
                )
                for p in (1, 2)
            ]
            serial, parallel = (Path(run["csv_path"]).read_bytes() for run in runs)
            assert serial == parallel, experiment

    def test_float_format_17_digits(self, tmp_path):
        summary = run_experiment(contracting_config(replicates=64, out=str(tmp_path)))
        row = Path(summary["csv_path"]).read_text().splitlines()[1]
        z_cell = row.split(",")[2]
        assert float(z_cell) == float(format(float(z_cell), ".17g"))

    def test_single_replicate_reports_null_spread(self, tmp_path):
        summary = run_experiment(contracting_config(replicates=1, out=str(tmp_path)))
        text = (tmp_path / "contracting-normals-summary.json").read_text()
        written = json.loads(text)
        for key in ("variance", "se", "msework_product"):
            assert summary[key] is None
            assert written[key] is None
        assert "NaN" not in text
        assert math.isfinite(written["mean"])

    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049])
    def test_csv_bytes_equal_per_cell_format(self, tmp_path, rows):
        hard = [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e17, 0.1, 1 / 3,
                math.nan, math.inf, -math.inf]
        info = np.iinfo(np.int64)
        ints = [info.min, info.max, 0, -1]
        records = {
            "N": np.resize(np.array(ints, dtype=np.int64), rows),
            "z": np.resize(np.array(hard), rows),
            "work": np.resize(np.array([3.0, -0.0, 1e16, 2.0**60]), rows),
            "level_max_dim": np.arange(rows, dtype=np.int64)[::-1].copy(),
        }
        summary = {"rows": rows}
        config = contracting_config(out=str(tmp_path))
        harness._write_outputs(config, records, summary)
        lines = ["replicate,N,z,work,level_max_dim"]
        for r in range(rows):
            cells = [str(r), str(int(records["N"][r]))]
            cells += [format(float(records[c][r]), ".17g") for c in ("z", "work")]
            cells.append(str(int(records["level_max_dim"][r])))
            lines.append(",".join(cells))
        expected = "\n".join(lines) + "\n"
        assert Path(summary["csv_path"]).read_bytes() == expected.encode("utf-8")
        written = Path(summary["json_path"]).read_bytes()
        assert written == (json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n").encode()

    def test_config_round_trip(self, tmp_path):
        config = contracting_config(replicates=64, out=str(tmp_path))
        summary = run_experiment(config)
        with open(summary["json_path"], encoding="utf-8") as fh:
            echoed = json.load(fh)["config"]
        assert ExperimentConfig.from_dict(echoed) == config

    def test_validation_before_sampling(self):
        with pytest.raises(ConfigError):
            run_experiment(contracting_config(params={"rho": 1.5}))
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(experiment="nope"))

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "circle", "bogus": 1})

    def test_linear_gaussian_recovers_posterior_coordinate(self):
        summary = run_experiment(
            ExperimentConfig(
                experiment="linear-gaussian",
                params={
                    "a": 1.5, "p": 0.25, "variant": "linear-tail",
                    "coordinate": 3, "eps": 0.8,
                },
                replicates=20_000,
                seed=33,
            )
        )
        assert abs(summary["mean"] - summary["target_mean"]) <= 4.0 * summary["se"]

    def test_logistic_reports_reference_ess(self):
        summary = run_experiment(
            ExperimentConfig(
                experiment="logistic", params={"reference_draws": 10_000}, replicates=16
            )
        )
        assert 1_000 <= summary["reference_ess"] <= 10_000
        assert summary["config"]["params"] == {"reference_draws": 10_000}

    def test_logistic_low_reference_ess_is_config_error(self, monkeypatch):
        # Weights toward a target 40 times sharper than the Laplace fit's.
        exact = harness.models.logistic_posterior_logdensity
        monkeypatch.setattr(
            harness.models, "logistic_posterior_logdensity",
            lambda m, beta: 40.0 * exact(m, beta),
        )
        # fit_seed 4: no other test prepares this plan, so no cached plan skips the fit.
        config = ExperimentConfig(
            experiment="logistic", params={"reference_draws": 10_000, "fit_seed": 4}, replicates=16
        )
        with pytest.raises(ConfigError, match="ESS"):
            run_experiment(config)

    def test_tune_experiment_reports_grid(self):
        summary = run_experiment(
            ExperimentConfig(experiment="tune", params={"rho_grid": [0.5, 0.8]})
        )
        assert summary["replicates"] == 2
        assert summary["max_ratio"] <= 1.6
        assert summary["w"] == pytest.approx(-1.632, abs=0.01)


def assert_same_law(z_lanes, z_reference):
    """Mean and variance agree within 4 combined standard errors, and
    neighbouring lanes, which share each level's generator, are
    uncorrelated within 4 standard errors."""
    lag1 = np.corrcoef(z_lanes[:-1], z_lanes[1:])[0, 1]
    assert abs(lag1) <= 4.0 / math.sqrt(len(z_lanes)), lag1
    stats = []
    for z in (np.asarray(z_lanes), np.asarray(z_reference)):
        var = z.var(ddof=1)
        fourth = np.mean((z - z.mean()) ** 4)
        stats.append((z.mean(), var, var / z.size, (fourth - var**2) / z.size))
    (m1, v1, se_m1, se_v1), (m2, v2, se_m2, se_v2) = stats
    assert abs(m1 - m2) <= 4.0 * math.sqrt(se_m1 + se_m2), (m1, m2)
    assert abs(v1 - v2) <= 4.0 * math.sqrt(se_v1 + se_v2), (v1, v2)


class TestLanePathLaw:
    """The harness steps all lanes of a pCN or circle level together; each
    draw must keep the law of the scalar per-draw reference on the same plan."""

    # Four levels and no tail: the default laws reach deep levels weighted
    # by up to 1/Fbar_i ~ 10^3, whose rare draws make the sample variance
    # and its standard error unreliable at these sizes.
    SHORT_LAW = {"kind": "tabulated", "values": [1.0, 0.5, 0.25, 0.125]}

    def test_pcn_matches_scalar_generator(self):
        import ubmc.pcn as pcn
        from ubmc import SurvivalDistribution, estimate_batch
        from ubmc.harness import _run_blocks

        config = ExperimentConfig(
            experiment="pcn", survival=self.SHORT_LAW, replicates=20_000, seed=3,
            schedule={"r": 0.6},
        )
        _, records = _run_blocks(config)
        # The scalar reference with log-change and observable that only
        # take one 1-d state.
        model = pcn.PcnModel.diagonal(
            0.7, lambda x: float(np.linalg.norm(x)), lambda l: float(l) ** -4.0,
            regularity=2.0, lipschitz=1.0,
        )
        schedule, _ = pcn.make_schedule(model, "bounded", m=2, r=0.6, theta=1.0, eps=0.25)
        gen = pcn.delta_generator(
            model, schedule, lambda x: min(1.0, float(np.linalg.norm(x))),
            np.zeros(schedule.dims_at(0)),
        )
        law = SurvivalDistribution.tabulated(self.SHORT_LAW["values"])
        reference = estimate_batch(gen, law, replicates=6000, seed=4)
        assert_same_law(records["z"], reference.z)

    def test_circle_matches_scalar_generator(self):
        from ubmc import LevelSchedule, SurvivalDistribution, estimate_batch
        from ubmc.couplings import contraction_delta_generator
        from ubmc.harness import _run_blocks
        from ubmc.models import CircleChainModel

        config = ExperimentConfig(
            experiment="circle", survival=self.SHORT_LAW, replicates=20_000, seed=3
        )
        _, records = _run_blocks(config)
        model = CircleChainModel()
        gen = contraction_delta_generator(
            model.kernel(), model.coupling(), LevelSchedule.arithmetic(1), math.cos, 0.0
        )
        law = SurvivalDistribution.tabulated(self.SHORT_LAW["values"])
        reference = estimate_batch(gen, law, replicates=6000, seed=4)
        assert_same_law(records["z"], reference.z)

    def test_logistic_matches_scalar_generator(self):
        import ubmc.pcn as pcn
        from ubmc import LevelSchedule, SurvivalDistribution, estimate_batch
        from ubmc.couplings import contraction_delta_generator
        from ubmc.harness import _run_blocks
        from ubmc.models import LogisticModel, logistic_reference_fit

        config = ExperimentConfig(
            experiment="logistic", params={"rwm_steps": 10_000}, survival=self.SHORT_LAW,
            replicates=20_000, seed=5,
        )
        plan, records = _run_blocks(config)
        meta = plan["meta"]
        model = LogisticModel.synthetic()
        center, cov = logistic_reference_fit(model, 10_000, seed=101)
        assert list(center) == meta["reference_center"]
        chain = pcn.PcnModel.gaussian_reference(0.5, model.neg_log_density, center, cov)
        gen = contraction_delta_generator(
            pcn.kernel(chain), pcn.coupling(chain),
            LevelSchedule.arithmetic(meta["step_multiplier"]),
            lambda beta: float(beta[0]), center,
        )
        law = SurvivalDistribution.tabulated(self.SHORT_LAW["values"])
        reference = estimate_batch(gen, law, replicates=4000, seed=6)
        assert_same_law(records["z"], reference.z)

    def test_indep_sampler_matches_scalar_generator(self):
        from ubmc import LevelSchedule, SurvivalDistribution, estimate_batch
        from ubmc import independence_sampler as isamp
        from ubmc.harness import _run_blocks

        config = ExperimentConfig(
            experiment="indep-sampler", params={"model": "linear2d", "f": "coord1"},
            survival=self.SHORT_LAW, replicates=20_000, seed=3,
        )
        plan, records = _run_blocks(config)
        # The scalar reference: one 1-d chain per draw, with an observable
        # that only takes one 1-d state.
        matrix = np.array([[0.8, 0.3], [-0.2, 0.5]])
        model = isamp.UniformPriorModel(
            half_widths=lambda k: [1.0, 0.5][k - 1],
            forward=lambda j, x: x[..., :j] @ matrix[:, :j].T,
            y=[0.3, -0.1],
            alpha_star=plan["meta"]["alpha_star"],
        )
        schedule = LevelSchedule(lambda i: 2 * (i + 1), lambda i: min(i + 1, 2))
        gen = isamp.delta_generator(model, schedule, lambda u: float(u[0]), np.zeros(1))
        law = SurvivalDistribution.tabulated(self.SHORT_LAW["values"])
        reference = estimate_batch(gen, law, replicates=6000, seed=4)
        assert_same_law(records["z"], reference.z)


class TestEllipticIsPlan:
    """The benchmark's elliptic plan: pilot floor and level schedule."""

    CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "elliptic-is.json"

    def test_pilot_floor_matches_per_proposal_loop(self):
        from ubmc import Stream
        from ubmc import independence_sampler as isamp
        from ubmc.harness import _elliptic_is_model

        _, model = _elliptic_is_model(ExperimentConfig.from_json(self.CONFIG).params)
        rng = Stream(2024).child(2).generator()
        worst = 1.0
        for _ in range(512):
            x = isamp.propose(model, 32, rng)
            xi = isamp.propose(model, 32, rng)
            worst = min(worst, float(isamp.is_acceptance(model, 32, x, xi)))
        assert model.alpha_star == pytest.approx(0.5 * worst, rel=1e-12, abs=0.0)

    def test_schedule_levels_pinned(self):
        from ubmc.harness import _run_blocks
        from ubmc.models import EllipticModel

        _, records = _run_blocks(ExperimentConfig.from_json(self.CONFIG))
        theta = EllipticModel(gamma=3.2).work_exponent
        levels = [(8, 1), (12, 2), (15, 7), (17, 18)]  # (a_i, j_i)
        for n, (_, j) in enumerate(levels):
            at_n = records["N"] == n
            assert at_n.any(), n
            assert np.all(records["level_max_dim"][at_n] == j)
            work = sum(a * float(k) ** theta for a, k in levels[: n + 1])
            np.testing.assert_allclose(records["work"][at_n], work, rtol=1e-12)


class TestErgodicBaseline:
    def test_constant_observable(self):
        model = ContractingNormalsModel(0.5)
        result = ergodic_baseline(
            model.kernel(), lambda x: np.full_like(np.asarray(x), 7.0),
            steps=25, restarts=8, seed=0, x0=0.0, target_mean=7.0,
        )
        assert np.allclose(result.averages, 7.0)
        assert result.mse == 0.0
        assert result.work == 25.0

    def test_single_step_variance(self):
        # One step from zero: the average is X_1 ~ N(0, 1 - rho^2).
        rho = 0.6
        model = ContractingNormalsModel(rho)
        result = ergodic_baseline(
            model.kernel(), lambda x: x, steps=1, restarts=4000, seed=1,
            x0=0.0, target_mean=0.0,
        )
        sq = result.averages**2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - (1 - rho**2)) <= 4.0 * se

    def test_msework_near_asymptotic_constant(self):
        rho = 0.5
        model = ContractingNormalsModel(rho)
        result = ergodic_baseline(
            model.kernel(), lambda x: x, steps=30_000, restarts=300, seed=2,
            x0=0.0, target_mean=0.0,
        )
        constant = (1 + rho) / (1 - rho)
        assert result.msework_product == pytest.approx(constant, rel=0.25)

    def test_vector_states_restart_as_lanes(self):
        from ubmc.couplings import MarkovKernel

        # A kernel on 3-vectors: the restarts are the rows of one array.
        kernel = MarkovKernel(
            step=lambda x, rng: 0.5 * x + rng.standard_normal(np.shape(x))
        )
        result = ergodic_baseline(
            kernel, lambda x: x.sum(axis=-1), steps=50, restarts=20, seed=3,
            x0=np.zeros(3), target_mean=0.0,
        )
        assert result.averages.shape == (20,)

    def test_scalar_observable_rejected(self):
        # One value for all restarts would be broadcast over every lane.
        model = ContractingNormalsModel(0.5)
        with pytest.raises(ValueError, match="one value per restart"):
            ergodic_baseline(
                model.kernel(), lambda x: float(np.asarray(x)[0]),
                steps=5, restarts=8, seed=0, x0=0.0,
            )


class TestCompareMsework:
    def test_identical_estimators_ci_contains_one(self):
        config_a = contracting_config(replicates=4000, seed=11).to_dict()
        config_b = contracting_config(replicates=4000, seed=12).to_dict()
        out = compare_msework(
            {"config": config_a}, _baseline_from_config(config_b), seed=5
        )
        lo, hi = out["ratio_ci"]
        assert lo <= 1.0 <= hi

    def test_constant_baseline(self):
        config = contracting_config(replicates=4000, seed=11).to_dict()
        out = compare_msework({"config": config}, {"product": 9.0}, seed=6)
        assert out["baseline_product"] == 9.0
        assert out["ratio"] == pytest.approx(out["unbiased_product"] / 9.0)

    def test_degenerate_sides_rejected(self):
        with pytest.raises(ValueError):
            compare_msework(
                {"values": [1.0, 1.0, 1.0], "work": [1.0, 1.0, 1.0]},
                {"product": 1.0},
            )

    def test_tuned_vs_asymptotic_baseline_ratio(self):
        # Ansatz-tuned estimator at rho = 0.8 against the analytic
        # long-run constant of the time average.
        from ubmc.tuning import ergodic_msework_limit

        config = contracting_config(
            replicates=20_000, seed=77, schedule={"kind": "multiplier-ansatz"}
        ).to_dict()
        out = compare_msework(
            {"config": config}, {"product": ergodic_msework_limit(0.8)}, seed=8
        )
        assert out["ratio"] <= 1.6

    def test_logistic_ratio_reported_not_asserted(self):
        # Data-realization dependent: the ratio and its CI are emitted for
        # inspection, with only finiteness checked.
        import ubmc.pcn as pcn
        from ubmc.models import LogisticModel, logistic_reference_fit

        config = ExperimentConfig(
            experiment="logistic",
            params={"rwm_steps": 20_000, "pilot_steps": 25, "pilot_replicates": 60},
            replicates=600,
            seed=31,
        ).to_dict()
        model = LogisticModel.synthetic()
        center, cov = logistic_reference_fit(model, 20_000, seed=31)
        chain = pcn.PcnModel.gaussian_reference(0.5, model.neg_log_density, center, cov)
        baseline = ergodic_baseline(
            pcn.kernel(chain), lambda b: b[:, 0], steps=400,
            restarts=120, seed=32, x0=center, target_mean=float(center[0]),
        )
        out = compare_msework(
            {"config": config},
            {"squared_errors": (baseline.averages - center[0]) ** 2,
             "work": baseline.work},
            seed=9,
        )
        assert math.isfinite(out["ratio"]) and out["ratio"] > 0
        lo, hi = out["ratio_ci"]
        assert math.isfinite(lo) and math.isfinite(hi)


def _baseline_from_config(config_dict):
    # Reuse the other unbiased run as a "baseline" side by converting its
    # draws into squared errors around the known mean 0 with work = mean.
    from ubmc.harness import _side_unbiased

    z, work = _side_unbiased({"config": config_dict})
    return {"squared_errors": (z - 0.0) ** 2, "work": float(np.mean(work))}


class TestCli:
    def test_happy_path(self, tmp_path, capsys):
        config = contracting_config(replicates=128).to_dict()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = cli_main(
            ["contracting-normals", "--config", str(path), "--out", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["replicates"] == 128
        assert (tmp_path / "contracting-normals-draws.csv").exists()

    def test_flag_overrides(self, tmp_path, capsys):
        config = contracting_config(replicates=128, seed=1).to_dict()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = cli_main(
            ["contracting-normals", "--config", str(path), "--seed", "9",
             "--replicates", "64"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 9
        assert summary["replicates"] == 64

    def test_validation_error_exit_2(self, tmp_path, capsys):
        config = contracting_config().to_dict()
        config["params"] = {"rho": 2.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert cli_main(["contracting-normals", "--config", str(path)]) == 2

    def test_experiment_mismatch_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(contracting_config().to_dict()))
        assert cli_main(["circle", "--config", str(path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert cli_main(["circle", "--config", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"survival": {"kind": "geometric"}},
            {"survival": {"kind": "geometric", "rate": 1.5}},
            {"replicates": "10"},
            {"parallel": "2"},
            {"seed": True},
            {"params": [0.8]},
            {"params": {"rho": "0.8"}},
            {"schedule": {"kind": "arithmetic", "m": "four"}},
            {"survival": {"kind": "polynomial", "exponent": 0.9}},
            {"survival": {"kind": "polynomial", "exponent": 1.0}},
            {"survival": {"kind": "tabulated", "values": [1.0, 1.0], "tail_ratio": 1.0}},
            {"wall_clock": True},
        ],
        ids=[
            "survival-missing-rate",
            "survival-invalid-rate",
            "replicates-string",
            "parallel-string",
            "seed-bool",
            "params-not-object",
            "rho-string",
            "steps-not-a-number",
            "survival-mean-level-diverges",
            "survival-harmonic-tail",
            "survival-constant-tail",
            "unknown-field",
        ],
    )
    def test_config_type_and_value_errors_exit_2(self, tmp_path, capsys, change):
        config = contracting_config(replicates=16).to_dict()
        config.update(change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert cli_main(["contracting-normals", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "steps, dims, survival, code",
        [
            ([1, 2], [1, 2], {"kind": "geometric", "rate": 0.5}, 2),
            ([2, 1, 3], [1, 2, 2], {"kind": "tabulated", "values": [1, 0.5, 0.25]}, 2),
            ([1, 2, 3], [1, 2], {"kind": "tabulated", "values": [1, 0.5, 0.25]}, 2),
            ([1, 2, 3], [1, 2, 2], {"kind": "tabulated", "values": [1, 0.5, 0.25]}, 0),
        ],
        ids=["untabulated-law", "steps-not-increasing", "length-mismatch", "valid"],
    )
    def test_sequence_schedule_checked_before_sampling(
        self, tmp_path, capsys, steps, dims, survival, code
    ):
        config = {
            "experiment": "indep-sampler",
            "params": {"model": "linear2d"},
            "schedule": {"kind": "sequence", "steps": steps, "dims": dims},
            "survival": survival,
            "replicates": 16,
        }
        path = tmp_path / "sequence.json"
        path.write_text(json.dumps(config))
        assert cli_main(["indep-sampler", "--config", str(path)]) == code
        if code == 2:
            assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "schedule, survival",
        [
            ({"kind": "saturating", "max_dim": 3}, {}),
            (
                {"kind": "sequence", "steps": [1, 2, 3], "dims": [1, 2, 3]},
                {"kind": "tabulated", "values": [1, 0.5, 0.25]},
            ),
        ],
        ids=["saturating", "sequence"],
    )
    def test_linear2d_dims_past_half_widths_exit_2(self, tmp_path, capsys, schedule, survival):
        # Two half-widths make a two-coordinate state: dimension 3 would
        # index past them while sampling.
        config = {
            "experiment": "indep-sampler",
            "params": {"model": "linear2d"},
            "schedule": schedule,
            "survival": survival,
            "replicates": 16,
        }
        path = tmp_path / "linear2d.json"
        path.write_text(json.dumps(config))
        assert cli_main(["indep-sampler", "--config", str(path)]) == 2
        assert "past 2 half_widths" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment",
        ["contracting-normals", "circle", "linear-gaussian", "indep-sampler", "pcn", "logistic", "tune"],
    )
    def test_unknown_param_exit_2(self, tmp_path, capsys, experiment):
        # A misspelled key would otherwise run on the default it was meant to replace.
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"experiment": experiment, "params": {"bogus_knob": 3}}))
        assert cli_main([experiment, "--config", str(path)]) == 2
        assert f"unknown {experiment} params: ['bogus_knob']" in capsys.readouterr().err

    def test_reference_draws_with_alias_exit_2(self, tmp_path, capsys):
        path = tmp_path / "logistic.json"
        params = {"reference_draws": 10_000, "rwm_steps": 20_000}
        path.write_text(json.dumps({"experiment": "logistic", "params": params}))
        assert cli_main(["logistic", "--config", str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, params",
        [
            ("contracting-normals", {"rho": 0.8}),
            ("circle", {}),
            ("logistic", {"reference_draws": 10_000}),
        ],
    )
    @pytest.mark.parametrize("exponent", [1.5, 2.0])
    def test_polynomial_law_on_arithmetic_steps_exit_2(
        self, tmp_path, capsys, monkeypatch, experiment, params, exponent
    ):
        # a_i = m (i + 1) steps at level i: E[work] >= m sum_i (i + 1)^(1 - p)
        # diverges for p <= 2, though sum_i Fbar_i is finite for p > 1.
        def no_sampling(*args):
            raise AssertionError("sampled before the law was checked")

        monkeypatch.setattr(harness, "_run_block_task", no_sampling)
        config = {
            "experiment": experiment,
            "params": params,
            "schedule": {"kind": "arithmetic", "m": 4},
            "survival": {"kind": "polynomial", "exponent": exponent},
        }
        path = tmp_path / "polynomial.json"
        path.write_text(json.dumps(config))
        assert cli_main([experiment, "--config", str(path)]) == 2
        assert "diverges" in capsys.readouterr().err

    def test_polynomial_law_past_two_on_arithmetic_steps_runs(self, tmp_path):
        config = contracting_config(
            survival={"kind": "polynomial", "exponent": 2.5}, replicates=2000
        )
        summary = run_experiment(config)
        assert abs(summary["mean"]) <= 4.0 * summary["se"]

    def test_rejected_model_parameter_exit_2(self, tmp_path, capsys):
        path = tmp_path / "pcn.json"
        path.write_text(json.dumps({"experiment": "pcn", "params": {"rho": 1.5}}))
        assert cli_main(["pcn", "--config", str(path)]) == 2
        assert "rho must lie in (0, 1)" in capsys.readouterr().err

    def test_unusable_out_exit_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")

        def no_sampling(*args):
            raise AssertionError("sampled before the output path was checked")

        monkeypatch.setattr(harness, "_run_block_task", no_sampling)
        code = cli_main(
            ["contracting-normals", "--replicates", "200000", "--out", str(blocker / "sub")]
        )
        assert code == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_runtime_error_exit_3(self, tmp_path, capsys):
        # The declared acceptance floor passes static validation, but the
        # split sampler sees acceptances below it while sampling.
        config = {
            "experiment": "indep-sampler",
            "params": {"model": "linear2d", "f": "coord1", "alpha_star": 0.9},
            "replicates": 16,
        }
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(config))
        assert cli_main(["indep-sampler", "--config", str(path)]) == 3
        assert "below declared floor" in capsys.readouterr().err

    def test_non_finite_lane_draw_exit_3(self, tmp_path, capsys):
        # A chain started at infinity yields NaN differences; the block
        # driver must fail the run rather than average them away.
        config = contracting_config(replicates=16).to_dict()
        config["params"] = {"rho": 0.8, "x0": math.inf}
        config["survival"] = {"kind": "geometric", "rate": 0.5}
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps(config))
        assert cli_main(["contracting-normals", "--config", str(path)]) == 3
        assert "non-finite level difference" in capsys.readouterr().err
