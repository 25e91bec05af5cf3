"""Experiment harness: determinism, file formats, ergodic baseline."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import ubmc.models
from ubmc import harness
from ubmc.cli import main as cli_main
from ubmc.harness import (
    BaselineResult,
    ConfigError,
    ExperimentConfig,
    ergodic_baseline,
    run_experiment,
)
from ubmc.models import ContractingNormalsModel

from conftest import four_se, per_lane


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


def _edge_records(rows: int) -> dict:
    hard = [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e17, 0.1, 1 / 3,
            math.nan, math.inf, -math.inf]
    info = np.iinfo(np.int64)
    ints = [info.min, info.max, 0, -1]
    return {
        "N": np.resize(np.array(ints, dtype=np.int64), rows),
        "z": np.resize(np.array(hard), rows),
        "work": np.resize(np.array([3.0, -0.0, 1e16, 2.0**60]), rows),
        "level_max_dim": np.arange(rows, dtype=np.int64)[::-1].copy(),
    }


def _random_float_bits(rng, rows: int) -> np.ndarray:
    """Random float64 bit patterns: every exponent (subnormals and NaN
    included), both signs, and an infinity of each sign."""
    every = np.resize(np.arange(2048, dtype=np.uint64), rows - 2)
    # Two more all-ones exponents, made the infinities below.
    exponent = rng.permutation(np.concatenate([every, np.array([2047, 2047], dtype=np.uint64)]))
    mantissa = rng.integers(0, 2**52, size=rows, dtype=np.uint64)
    sign = rng.integers(0, 2, size=rows, dtype=np.uint64)
    top = np.flatnonzero(exponent == 2047)
    mantissa[top[:2]] = 0
    sign[top[:2]] = [0, 1]
    values = ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)
    assert np.isnan(values).any() and np.isposinf(values).any() and np.isneginf(values).any()
    assert ((values != 0) & (np.abs(values) < np.finfo(np.float64).tiny)).any()
    return values


def _random_bit_records(rows: int) -> dict:
    rng = np.random.default_rng(20_241)
    info = np.iinfo(np.int64)
    return {
        "N": rng.integers(info.min, info.max, size=rows, dtype=np.int64, endpoint=True),
        "z": _random_float_bits(rng, rows),
        "work": _random_float_bits(rng, rows),
        "level_max_dim": rng.integers(info.min, info.max, size=rows, dtype=np.int64, endpoint=True),
    }


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

    @pytest.mark.parametrize(
        "rows,make",
        [pytest.param(rows, _edge_records, id=str(rows)) for rows in (1, 1023, 1024, 1025, 2049)]
        + [pytest.param(4096, _random_bit_records, id="random-bits")],
    )
    def test_csv_bytes_equal_per_cell_format(self, tmp_path, rows, make):
        records = make(rows)
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
        exact = ubmc.models.logistic_posterior_logdensity
        monkeypatch.setattr(
            ubmc.models, "logistic_posterior_logdensity",
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
        assert summary["rows"] == 2
        assert summary["max_ratio"] <= 1.6
        assert summary["w"] == pytest.approx(-1.632, abs=0.01)

    def test_tune_writes_a_table_not_draws(self, tmp_path):
        # The grid is analytic: its table and its summary, less the config
        # echo, depend on no seed, replicate count or worker count, and the
        # summary carries no estimator figures.
        outputs = []
        for seed, replicates, parallel in [(0, 1000, 1), (11, 3000, 2), (7, 1, 1)]:
            out = tmp_path / f"seed{seed}"
            summary = run_experiment(ExperimentConfig(
                experiment="tune", params={"rho_grid": [0.5, 0.7, 0.9]},
                seed=seed, replicates=replicates, parallel=parallel, out=str(out),
            ))
            assert Path(summary["csv_path"]) == out / "tune-table.csv"
            assert not (out / "tune-draws.csv").exists()
            written = json.loads(Path(summary["json_path"]).read_text())
            del written["config"]
            outputs.append((Path(summary["csv_path"]).read_text(), written))
        assert outputs[0] == outputs[1] == outputs[2]
        table, written = outputs[0]
        columns = ["rho", "m", "product", "ergodic", "ratio"]
        assert written["rows"] == 3 and written["columns"] == columns
        estimator = {"mean", "se", "variance", "expected_work", "msework_product", "max_level", "replicates"}
        assert not estimator & set(written)
        lines = table.splitlines()
        assert lines[0] == ",".join(columns) and len(lines) == 4
        for line, rho in zip(lines[1:], [0.5, 0.7, 0.9]):
            cells = dict(zip(columns, line.split(",")))
            assert float(cells["rho"]) == rho
            assert int(cells["m"]) == ubmc.tuning.step_multiplier(rho)
            assert float(cells["ratio"]) == float(cells["product"]) / float(cells["ergodic"])


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
            regularity=2.0,
        )
        schedule, _ = pcn.make_schedule(model, "bounded", m=2, r=0.6, eps=0.25)
        f, x0 = lambda x: min(1.0, float(np.linalg.norm(x))), np.zeros(schedule.dims_at(0))
        gen = lambda level, rng: pcn._delta(model, schedule, level, [1], f, x0, rng)[0]
        law = SurvivalDistribution.tabulated(self.SHORT_LAW["values"])
        reference = estimate_batch(per_lane(gen), law, replicates=6000, seed=4)
        assert_same_law(records["z"], reference.z)

    def test_circle_matches_scalar_generator(self):
        from ubmc import LevelSchedule, SurvivalDistribution, couplings, estimate_batch
        from ubmc.harness import _run_blocks
        from ubmc.models import CircleChainModel

        config = ExperimentConfig(
            experiment="circle", survival=self.SHORT_LAW, replicates=20_000, seed=3
        )
        _, records = _run_blocks(config)
        model = CircleChainModel()
        kernel, coupling, schedule = model.kernel(), model.coupling(), LevelSchedule.arithmetic(1)
        gen = lambda level, rng: couplings._delta(
            kernel, coupling, schedule, level, [1], 0.0, math.cos, rng
        )[0]
        law = SurvivalDistribution.tabulated(self.SHORT_LAW["values"])
        reference = estimate_batch(per_lane(gen), law, replicates=6000, seed=4)
        assert_same_law(records["z"], reference.z)

    def test_logistic_matches_scalar_generator(self):
        import ubmc.pcn as pcn
        from ubmc import LevelSchedule, SurvivalDistribution, couplings, estimate_batch
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
        kernel, coupling = pcn.kernel(chain), pcn.coupling(chain)
        schedule = LevelSchedule.arithmetic(meta["step_multiplier"])
        gen = lambda level, rng: couplings._delta(
            kernel, coupling, schedule, level, [1], center, lambda beta: float(beta[0]), rng
        )[0]
        law = SurvivalDistribution.tabulated(self.SHORT_LAW["values"])
        reference = estimate_batch(per_lane(gen), law, replicates=4000, seed=6)
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
        f = lambda u: float(u[0])
        gen = lambda level, rng: isamp._delta(model, schedule, level, [1], f, np.zeros(1), rng)[0]
        law = SurvivalDistribution.tabulated(self.SHORT_LAW["values"])
        reference = estimate_batch(per_lane(gen), law, replicates=6000, seed=4)
        assert_same_law(records["z"], reference.z)


class TestEllipticIsPlan:
    """The benchmark's elliptic plan: pilot floor and level schedule."""

    CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "elliptic-is.json"

    def test_pilot_floor_matches_per_proposal_loop(self):
        from ubmc import Stream
        from ubmc import independence_sampler as isamp
        from ubmc.harness import _elliptic_is_model

        params = ExperimentConfig.from_json(self.CONFIG).params
        _, model = _elliptic_is_model(harness._Section(params, "params", "indep-sampler"))
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

    def test_block_pinned(self):
        # Block 0 at the config's seed, bit for bit.  Its dimensions grow
        # at every level, so every level is a run of its own on its own
        # stream: fusing the runs of fixed-space chains leaves it as it was.
        import hashlib

        config = ExperimentConfig.from_json(self.CONFIG)
        out = harness._run_block_task(harness._config_key(config), 0, 1024, config.seed)[1]
        digests = {
            "z": "0c20f6ca6fc623e949af117ba7466dfea8dae25f157291c90601dc27e1762e2b",
            "N": "929f1103a179d9e7cec97300ea7ec3b856e1f8eb819d7ab1dba976e0f1fe130b",
            "work": "0ed8927c0a84b5e02b9194cf3390632d4a781f7e2d554267e06036fcc5ba8d95",
        }
        for name, digest in digests.items():
            assert hashlib.sha256(out[name].tobytes()).hexdigest() == digest, name


class TestLinearGaussianPlan:
    """Both linear-gaussian variants step every lane of a level as one
    ``(lanes, j_i)`` block, reading the level's stream lane after lane."""

    CONFIG = Path(__file__).resolve().parents[1] / "configs" / "linear-gaussian.json"

    @pytest.mark.parametrize(
        "variant, params, digests",
        [
            ("linear-tail", {}, {
                "z": "6c37f5643197f9ef105f807e490d4e631a3d384a44c232d4205e2c98deef24c5",
                "N": "20a6995d3bacaf2f69ca2465485cec1a27bfc4eb6a9619537a2ffb8668ef1c70",
                "work": "46c80bbe2a69ef6ba1529ff4d95f5e18ac0a459459d76ba745c0cce9e1c08903",
            }),
            ("holder", {"variant": "holder", "coordinate": 2, "eps": 0.5}, {
                "z": "1e0b40928ae24867507a8b1c8331969d6c55066418b2c2567f4080adeab895dd",
                "N": "f1b2422566e87ca5c663d89abe585053e5364a614ecd8f0f7169794681f8e36a",
                "work": "3c10554d68aa4b82272ce6ca274c9f1601fecc2dabb9d5c3675551b999813861",
            }),
        ],
        ids=["linear-tail", "holder"],
    )
    def test_block_pinned(self, variant, params, digests):
        # Block 0 at the config's seed, bit for bit, as the draws were when
        # each lane drew its normals on its own.
        import hashlib

        raw = json.loads(self.CONFIG.read_text())
        raw["params"].update(params)
        config = ExperimentConfig.from_dict(raw)
        assert config.params["variant"] == variant
        out = harness._run_block_task(harness._config_key(config), 0, 1024, config.seed)[1]
        for name, digest in digests.items():
            assert hashlib.sha256(out[name].tobytes()).hexdigest() == digest, name


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

    def test_tuned_vs_asymptotic_baseline_ratio(self):
        # Ansatz-tuned estimator at rho = 0.8 against the analytic
        # long-run constant of the time average.
        from ubmc.tuning import ergodic_msework_limit

        config = contracting_config(
            replicates=20_000, seed=77, schedule={"kind": "multiplier-ansatz"}
        )
        ratio = run_experiment(config)["msework_product"] / ergodic_msework_limit(0.8)
        assert ratio <= 1.6


# The elliptic model's default log-growth q of 2 is too small for its
# gamma of 3.2; the shipped configs run q = 2.6.
ELLIPTIC_SCHEDULE = {"kind": "log-growth", "q": 2.6}

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "path",
    sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("perfbench/configs/*.json")),
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_shipped_config_prepares(path):
    # Every key of every config we ship is one its plan reads, and every
    # plan samples (its draws and level dimensions) or gives a table.
    plan = harness._prepare_cached(harness._config_key(ExperimentConfig.from_json(path)))
    if "table" in plan:
        assert set(plan) == {"table", "meta"}
    else:
        assert set(plan) == {"draws", "dims", "meta"}
        assert callable(plan["draws"]) and callable(plan["dims"])


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

    def test_default_indep_sampler_runs(self, tmp_path, capsys):
        # Every indep-sampler default, the elliptic log-growth q and its t included.
        path = tmp_path / "default.json"
        path.write_text(json.dumps({"experiment": "indep-sampler"}))
        assert cli_main(["indep-sampler", "--config", str(path), "--replicates", "64"]) == 0
        assert json.loads(capsys.readouterr().out)["replicates"] == 64

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
            {"survival": {"kind": "geometric", "rate": 0.7, "tail_ratio": 0.5}},
            {"survival": {"kind": "polynomial", "exponent": 3, "rate": 0.2}},
            {"survival": {"kind": "optimal", "rate": 0.5}},
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
            "geometric-survival-tail-ratio",
            "polynomial-survival-rate",
            "optimal-survival-rate",
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
        "experiment, params, unknown",
        [(experiment, {"bogus_knob": 3}, ["bogus_knob"]) for experiment in harness.EXPERIMENTS]
        + [
            # Keys that only another model, variant or observable reads.
            ("indep-sampler", {"model": "linear2d", "gamma": 3.2}, ["gamma"]),
            ("indep-sampler", {"model": "linear2d", "pilot_dim": 8}, ["pilot_dim"]),
            ("indep-sampler", {"theta": 2.0}, ["theta"]),
            ("indep-sampler", {"matrix": [[1.0]], "half_widths": [1.0]}, ["half_widths", "matrix"]),
            ("indep-sampler", {"alpha_star": 0.01, "pilot_proposals": 64}, ["pilot_proposals"]),
            ("linear-gaussian", {"a": 1.5, "variant": "linear-tail", "s": 0.5}, ["s"]),
            ("pcn", {"f": "coord1", "tau": 2.0}, ["tau"]),
        ],
        ids=list(harness.EXPERIMENTS) + [
            "linear2d-gamma", "linear2d-pilot-dim", "elliptic-theta", "elliptic-matrix",
            "elliptic-given-alpha-star-pilot", "linear-tail-s", "pcn-coord1-tau",
        ],
    )
    def test_unknown_param_exit_2(self, tmp_path, capsys, monkeypatch, experiment, params, unknown):
        # A misspelled key would otherwise run on the default it was meant to replace.
        def no_sampling(*args):
            raise AssertionError("sampled before the params were checked")

        monkeypatch.setattr(harness, "_run_block_task", no_sampling)
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"experiment": experiment, "params": params}))
        assert cli_main([experiment, "--config", str(path)]) == 2
        assert f"unknown {experiment} params: {unknown}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, params, schedule",
        [
            ("contracting-normals", {"rho": 0.8}, {"kind": "arithmetic", "m": 4, "bogus": 1}),
            ("contracting-normals", {"rho": 0.8}, {"kind": "multiplier-ansatz", "m": 4}),
            ("circle", {}, {"m": 1, "bogus": 1}),
            ("circle", {}, {"kind": "multiplier-ansatz"}),
            ("linear-gaussian", {"a": 1.5}, {"kind": "dyadic", "bogus": 1}),
            ("linear-gaussian", {"a": 1.5, "eps": 0.5}, {"kind": "dyadic", "eps": 0.4}),
            ("indep-sampler", {"model": "linear2d"}, {"kind": "saturating", "q": 2.6}),
            ("pcn", {}, {"variant": "bounded", "bogus": 1}),
            ("logistic", {"reference_draws": 10_000}, {"kind": "arithmetic", "m": 4}),
            ("tune", {}, {"m": 4}),
            ("linear-gaussian", {"a": 1.5}, {"kind": "dyadic", "q": 2.0}),
            ("indep-sampler", {"alpha_star": 0.01}, {"kind": "log-growth", "theta": 1.0}),
        ],
        ids=[
            "contracting-normals", "contracting-ansatz-m", "circle", "circle-kind",
            "linear-gaussian", "linear-gaussian-eps", "indep-sampler", "pcn", "logistic", "tune",
            "linear-gaussian-dyadic-q", "indep-sampler-log-growth-theta",
        ],
    )
    def test_unread_schedule_exit_2(self, tmp_path, capsys, monkeypatch, experiment, params, schedule):
        # A schedule key the plan does not read would otherwise run silently
        # on its default; logistic's schedule comes from its pilot.
        def no_sampling(*args):
            raise AssertionError("sampled before the schedule was checked")

        monkeypatch.setattr(harness, "_run_block_task", no_sampling)
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"experiment": experiment, "params": params, "schedule": schedule}))
        assert cli_main([experiment, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "schedule" in err, err

    @pytest.mark.parametrize(
        "experiment, change, message",
        [
            ("logistic", {"params": {"coordinate": 0}}, "coordinate must lie in 1..3"),
            ("logistic", {"params": {"coordinate": 9}}, "coordinate must lie in 1..3"),
            ("pcn", {"params": {"tau": 0}}, "tau must be positive"),
            ("pcn", {"params": {"tau": -1}}, "tau must be positive"),
            ("indep-sampler", {"params": {"data": 5}}, "params.data must be an object"),
            ("indep-sampler", {"params": {"data": {"sead": 3}}}, "params.data must be an object"),
            ("tune", {"params": {"rho_grid": []}}, "rho_grid must be a nonempty list"),
            ("tune", {"survival": {"kind": "geometric", "rate": 0.5}}, "unknown tune survival"),
            ("circle", {"schedule": {"m": 2.9}}, "schedule.m must be an integer"),
            ("logistic", {"params": {"coordinate": 1.7}}, "params.coordinate must be an integer"),
            ("pcn", {"schedule": {"m": True}}, "schedule.m must be an integer"),
            ("indep-sampler", {"params": {"data": {"dim": "64"}}}, "params.data.dim must be an integer"),
            (
                "indep-sampler",
                {"params": {"model": "linear2d"}, "schedule": {"kind": "sequence", "steps": [1, 2.5], "dims": [1, 2]}},
                "schedule.steps must be an integer",
            ),
            ("pcn", {"params": {"tau": True}}, "params.tau must be a real number"),
            ("pcn", {"params": {"rho": "0.7"}}, "params.rho must be a real number"),
            ("pcn", {"schedule": {"theta": True}}, "schedule.theta must be a real number"),
            ("circle", {"params": {"x0": "1.5"}}, "params.x0 must be a real number"),
            (
                "indep-sampler", {"params": {"model": "linear2d", "theta": True}},
                "params.theta must be a real number",
            ),
            (
                "contracting-normals",
                {"params": {"rho": 0.8, "x0": True}, "survival": {"kind": "geometric", "rate": 0.5}},
                "params.x0 must be a real number",
            ),
            # List-valued reals: each element is a real number, never a bool or a string.
            (
                "indep-sampler", {"params": {"model": "linear2d", "half_widths": [True, 0.5]}},
                "params.half_widths must be a real number",
            ),
            ("indep-sampler", {"params": {"model": "linear2d", "y": ["0.3", False]}}, "params.y must be a real number"),
            (
                "indep-sampler", {"params": {"model": "linear2d", "matrix": [[True, 0.3], ["-0.2", 0.5]]}},
                "params.matrix must be a real number",
            ),
            (
                "indep-sampler",
                {"params": {"y": ["0.1", "0.2", True], "alpha_star": 0.001}, "schedule": ELLIPTIC_SCHEDULE},
                "params.y must be a real number",
            ),
            (
                "circle", {"survival": {"kind": "tabulated", "values": [1, True, "0.5"]}},
                "survival.values must be a real number",
            ),
            # A missing required key names itself.
            ("contracting-normals", {"params": {}}, "configuration error: params.rho is required"),
            ("circle", {"survival": {"kind": "geometric"}}, "configuration error: survival.rate is required"),
            ("circle", {"survival": {"rate": 0.5}}, "configuration error: survival.kind is required"),
            (
                "indep-sampler",
                {"params": {"model": "linear2d"}, "schedule": {"kind": "sequence", "steps": [1, 2], "dims": [1, 2]}},
                "survival.kind is required: a sequence schedule of L = 2 levels needs a tabulated survival law",
            ),
        ],
        ids=[
            "logistic-coordinate-0", "logistic-coordinate-9", "pcn-tau-0", "pcn-tau-negative",
            "indep-sampler-data-int", "indep-sampler-data-key", "tune-empty-grid", "tune-survival",
            "circle-fractional-m", "logistic-fractional-coordinate", "pcn-bool-m",
            "indep-sampler-string-dim", "indep-sampler-fractional-steps",
            "pcn-bool-tau", "pcn-string-rho", "pcn-bool-theta", "circle-string-x0",
            "linear2d-bool-theta", "contracting-bool-x0",
            "linear2d-bool-half-width", "linear2d-string-y", "linear2d-bool-matrix", "elliptic-string-y",
            "circle-bool-survival-value", "contracting-missing-rho", "geometric-missing-rate",
            "survival-missing-kind", "sequence-missing-survival",
        ],
    )
    def test_bad_value_exit_2_before_sampling(self, tmp_path, capsys, monkeypatch, experiment, change, message):
        # Each ran to a wrong answer, or failed while sampling with exit 3.
        def no_sampling(*args):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(harness, "_run_block_task", no_sampling)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict({"experiment": experiment, "replicates": 50}, **change)))
        assert cli_main([experiment, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err, err

    def run_unsampled(self, tmp_path, capsys, monkeypatch, config) -> tuple[int, str]:
        """The CLI's exit code and stderr for ``config``, failing if any block runs."""
        def no_sampling(*args):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(harness, "_run_block_task", no_sampling)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict({"replicates": 50}, **config)))
        code = cli_main([config["experiment"], "--config", str(path)])
        return code, capsys.readouterr().err

    def test_data_unread_once_y_and_alpha_star_are_given_exit_2(self, tmp_path, capsys, monkeypatch):
        # Given observations and floor: no synthetic data and no pilot, so data seeds nothing.
        params = {"y": [0.1, 0.2, 0.3], "alpha_star": 0.001, "data": {"seed": 5}}
        config = {"experiment": "indep-sampler", "params": params, "schedule": ELLIPTIC_SCHEDULE}
        code, err = self.run_unsampled(tmp_path, capsys, monkeypatch, config)
        assert code == 2 and "unknown indep-sampler params: ['data']" in err, err

    def test_data_noise_unread_once_y_is_given_exit_2(self, tmp_path, capsys, monkeypatch):
        # Given observations: only the pilot reads data, and only its seed.
        params = {"y": [0.1, 0.2, 0.3], "data": {"noise": 0.5}}
        config = {"experiment": "indep-sampler", "params": params, "schedule": ELLIPTIC_SCHEDULE}
        code, err = self.run_unsampled(tmp_path, capsys, monkeypatch, config)
        assert code == 2 and "unknown indep-sampler params.data: ['noise']" in err, err

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"y": [0.1, 0.2, 0.3, 0.4, 0.5], "alpha_star": 0.001}, "params.y needs one value per observation point"),
            ({"model": "linear2d", "y": [0.3, -0.1, 0.2]}, "params.matrix must be len(y) x len(half_widths) = (3, 2)"),
            ({"model": "linear2d", "matrix": [[0.8, 0.3]]}, "= (2, 2), got (1, 2)"),
            ({"model": "linear2d", "half_widths": [0.5, 1.0]}, "box half-widths must be nonincreasing"),
            ({"model": "linear2d", "half_widths": [1.0, -0.5]}, "box half-widths must be positive"),
        ],
        ids=["elliptic-five-y", "linear2d-three-y", "linear2d-one-row", "rising-widths", "negative-width"],
    )
    def test_observation_shape_and_box_checked_before_sampling(self, tmp_path, capsys, monkeypatch, params, message):
        # Each failed while sampling with exit 3 (or broadcast one matrix row and tripped the floor).
        schedule = {} if params.get("model") == "linear2d" else ELLIPTIC_SCHEDULE
        config = {"experiment": "indep-sampler", "params": params, "schedule": schedule}
        code, err = self.run_unsampled(tmp_path, capsys, monkeypatch, config)
        assert code == 2 and message in err, err

    @pytest.mark.parametrize(
        "experiment, params, key",
        [
            ("logistic", {"pilot_replicates": 0}, "params.pilot_replicates must be >= 1"),
            ("logistic", {"fit_seed": -1}, "params.fit_seed must be a nonnegative integer"),
            ("logistic", {"data_seed": -1}, "params.data_seed must be a nonnegative integer"),
            ("logistic", {"pilot_seed": -1}, "params.pilot_seed must be a nonnegative integer"),
            ("logistic", {"n_obs": -3}, "params.n_obs must be >= 0"),
            ("logistic", {"pilot_steps": 1}, "params.pilot_steps must be >= 2"),
            ("indep-sampler", {"pilot_proposals": 0}, "params.pilot_proposals must be >= 1"),
            ("indep-sampler", {"pilot_dim": 0}, "params.pilot_dim must be >= 1"),
            ("indep-sampler", {"data": {"seed": -1}}, "params.data.seed must be a nonnegative integer"),
            ("indep-sampler", {"data": {"noise": -1}}, "params.data.noise must be >= 0"),
            ("indep-sampler", {"data": {"dim": -3}}, "params.data.dim must be >= 0"),
        ],
        ids=[
            "logistic-pilot-replicates", "logistic-fit-seed", "logistic-data-seed", "logistic-pilot-seed",
            "logistic-n-obs", "logistic-pilot-steps", "elliptic-pilot-proposals", "elliptic-pilot-dim",
            "elliptic-data-seed", "elliptic-data-noise", "elliptic-data-dim",
        ],
    )
    def test_plan_value_names_its_key_exit_2(self, tmp_path, capsys, monkeypatch, experiment, params, key):
        # Each exited 2 with another key's message or numpy's text; a negative noise ran.
        schedule = ELLIPTIC_SCHEDULE if experiment == "indep-sampler" else {}
        config = {"experiment": experiment, "params": params, "schedule": schedule}
        code, err = self.run_unsampled(tmp_path, capsys, monkeypatch, config)
        assert code == 2 and f"configuration error: {key}" in err, err

    def test_integral_float_count_runs(self):
        # Some JSON writers emit 10000.0 for a count: an integral float reads as the int.
        params = {"reference_draws": 10_000.0, "fit_seed": 6, "coordinate": 2.0}
        summary = run_experiment(ExperimentConfig(experiment="logistic", params=params, replicates=8))
        exact = dict(params, reference_draws=10_000, coordinate=2)
        assert summary["mean"] == run_experiment(
            ExperimentConfig(experiment="logistic", params=exact, replicates=8)
        )["mean"]

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

    @pytest.mark.parametrize(
        "params, schedule, survival",
        [
            ({"variant": "holder"}, {}, {"kind": "geometric", "rate": 0.6}),
            ({"variant": "linear-tail"}, {}, {"kind": "geometric", "rate": 0.8, "exponent": 3.0}),
            ({"variant": "holder"}, {}, {"kind": "polynomial", "exponent": 6.0}),
            (
                {"variant": "linear-tail"}, {},
                {"kind": "tabulated", "values": [1.0, 0.4], "tail_ratio": 0.5},
            ),
            ({"variant": "holder"}, {"kind": "polynomial", "q": 3.0}, {"kind": "polynomial", "exponent": 4.0}),
            (
                {"variant": "linear-tail"}, {"kind": "polynomial", "q": 3.0},
                {"kind": "polynomial", "exponent": 3.0},
            ),
            # Dims max(ceil(i^q), i + 1) grow like i for q < 1, so q < 1 costs like q = 1.
            (
                {"variant": "holder", "a": 5.0}, {"kind": "polynomial", "q": 0.5},
                {"kind": "polynomial", "exponent": 1.8},
            ),
            # The schedule's own law at the closed endpoint: rate exactly 1/2.
            ({"variant": "linear-tail", "a": 0.75, "p": 0.0, "eps": 1.0}, {}, {}),
        ],
        ids=[
            "holder-dyadic-geometric", "tail-dyadic-geometric-exponent", "holder-dyadic-polynomial",
            "tail-dyadic-tabulated", "holder-polynomial", "tail-polynomial",
            "holder-polynomial-q-below-1", "tail-dyadic-endpoint-default",
        ],
    )
    def test_linear_gaussian_infinite_work_law_exit_2(
        self, tmp_path, capsys, monkeypatch, params, schedule, survival
    ):
        # Level i costs t_i = j_i draws (holder) or j_i - j_{i-1}
        # (linear-tail): E[work] = sum_i t_i Fbar_i must be finite.
        def no_sampling(*args):
            raise AssertionError("sampled before the law was checked")

        monkeypatch.setattr(harness, "_run_block_task", no_sampling)
        config = {
            "experiment": "linear-gaussian",
            "params": {"a": 1.5, "p": 0.25, "eps": 0.5, **params},
            "schedule": schedule,
            "survival": survival,
        }
        path = tmp_path / "linear-gaussian.json"
        path.write_text(json.dumps(config))
        assert cli_main(["linear-gaussian", "--config", str(path)]) == 2
        assert "E[work] = sum_i t_i Fbar_i diverges" in capsys.readouterr().err

    def test_linear_gaussian_law_override_with_finite_work_runs(self):
        config = ExperimentConfig(
            experiment="linear-gaussian",
            params={"a": 1.5, "p": 0.25, "variant": "holder", "coordinate": 2},
            survival={"kind": "geometric", "rate": 0.4},
            replicates=4000,
            seed=8,
        )
        summary = run_experiment(config)
        assert abs(summary["mean"] - summary["target_mean"]) <= 4.0 * summary["se"]

    @pytest.mark.parametrize(
        "survival",
        [
            {"kind": "geometric", "rate": 0.95},
            {"kind": "polynomial", "exponent": 6.0},
            {"kind": "tabulated", "values": [1.0, 0.5], "tail_ratio": 0.9},
        ],
        ids=["geometric", "polynomial", "tabulated-tail"],
    )
    def test_pcn_infinite_work_law_exit_2(self, tmp_path, capsys, monkeypatch, survival):
        # configs/pcn.json levels cost t_i = m (i + 1) j_i with j_i ~ 1.24^i,
        # so a law needs Fbar_{i+1} / Fbar_i < 1 / 1.24; no polynomial law has it.
        def no_sampling(*args):
            raise AssertionError("sampled before the law was checked")

        monkeypatch.setattr(harness, "_run_block_task", no_sampling)
        config = json.loads((Path(__file__).parents[1] / "configs" / "pcn.json").read_text())
        path = tmp_path / "pcn.json"
        path.write_text(json.dumps(dict(config, survival=survival)))
        assert cli_main(["pcn", "--config", str(path)]) == 2
        assert "E[work] = sum_i t_i Fbar_i diverges: pcn levels" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            # t_i ~ i^(2.6 theta) log i with theta = 1.35: a polynomial law
            # needs an exponent above 1 + 2.6 theta = 4.51.
            dict(
                json.loads((Path(__file__).parents[1] / "configs" / "indep-sampler.json").read_text()),
                survival={"kind": "polynomial", "exponent": 4.4},
            ),
            # t_i = m (i + 1) j_i^theta with j_i <= max_dim: exponent above 2.
            {
                "experiment": "indep-sampler",
                "params": {"model": "linear2d"},
                "schedule": {"kind": "saturating"},
                "survival": {"kind": "polynomial", "exponent": 1.8},
            },
        ],
        ids=["log-growth", "saturating"],
    )
    def test_indep_sampler_infinite_work_law_exit_2(self, tmp_path, capsys, monkeypatch, config):
        def no_sampling(*args):
            raise AssertionError("sampled before the law was checked")

        monkeypatch.setattr(harness, "_run_block_task", no_sampling)
        path = tmp_path / "indep-sampler.json"
        path.write_text(json.dumps(config))
        assert cli_main(["indep-sampler", "--config", str(path)]) == 2
        kind = config["schedule"]["kind"]
        assert f"E[work] = sum_i t_i Fbar_i diverges: {kind} indep-sampler levels" in capsys.readouterr().err

    def test_shipped_indep_sampler_config_runs(self):
        config = json.loads((Path(__file__).parents[1] / "configs" / "indep-sampler.json").read_text())
        summary = run_experiment(ExperimentConfig.from_dict(dict(config, replicates=500)))
        assert summary["replicates"] == 500 and math.isfinite(summary["expected_work"])

    def test_pcn_law_override_with_finite_work_runs(self):
        config = json.loads((Path(__file__).parents[1] / "configs" / "pcn.json").read_text())
        config.update(survival={"kind": "geometric", "rate": 0.7}, replicates=500)
        summary = run_experiment(ExperimentConfig.from_dict(config))
        assert summary["replicates"] == 500 and math.isfinite(summary["expected_work"])

    def test_pcn_work_counts_theta(self):
        # Level k costs a_k j_k^theta: theta is the chain's cost exponent, not
        # only a bound on the schedule's eps.
        from ubmc import pcn
        from ubmc.harness import _run_blocks

        config = ExperimentConfig(
            experiment="pcn", params={"a": 3.0}, schedule={"theta": 2.0}, replicates=2000, seed=3
        )
        _, records = _run_blocks(config)
        model = pcn.PcnModel.diagonal(0.7, None, lambda l: float(l) ** -6.0, regularity=3.0, work_exponent=2.0)
        schedule, _ = pcn.make_schedule(model, "bounded", m=2, r=0.85, eps=0.25)
        for n in np.unique(records["N"]):
            work = sum(schedule.steps_at(k) * float(schedule.dims_at(k)) ** 2 for k in range(n + 1))
            np.testing.assert_allclose(records["work"][records["N"] == n], work, rtol=1e-12)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


def test_cli_import_leaves_out_the_process_pool():
    # Only a parallel run needs multiprocessing; importing it costs every
    # serial run about 20 ms of startup.
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, ubmc.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr
