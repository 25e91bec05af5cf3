"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import ubmc.pcn as pcn
from ubmc import LevelSchedule, Stream, SurvivalDistribution, estimate_batch
from ubmc.couplings import estimate_contraction
from ubmc.gaussian_linear import (
    GaussianLinearModel,
    delta_batch as gl_delta_batch,
    make_schedule as gl_schedule,
    posterior_spectral,
    prior_tail_delta,
    truncation_delta,
    truncation_gap_second_moment,
    tail_gap_second_moment,
)
from ubmc.harness import ExperimentConfig, ergodic_baseline, run_experiment
from ubmc.independence_sampler import (
    UniformPriorModel,
    delta_batch as is_delta_batch,
    draw_randomness,
    is_acceptance,
    make_schedule as is_schedule,
    split_step,
)
from ubmc.models import (
    ContractingNormalsModel,
    EllipticModel,
    LogisticModel,
    TWO_PI,
    circle_maximal_coupling,
    contracting_unbiased_block,
    logistic_reference_fit,
)
from ubmc.tuning import (
    contracting_delta_variances,
    contracting_optimal_survival,
    ergodic_msework_limit,
    msework_optimum,
    msework_report,
    optimal_w,
    step_multiplier,
    unbiased_msework,
)

from conftest import circle_arc, elliptic_observation_gap, scaled_elliptic_is_model
from test_models import arc_cdf


def report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def tuned_batch(replicates: int, seed: int):
    rho, m = 0.8, 4
    schedule = LevelSchedule.arithmetic(m)
    survival = contracting_optimal_survival(rho, m)
    out = contracting_unbiased_block(rho, schedule, survival, Stream(seed), replicates)
    return out, survival


def test_criterion_01_unbiasedness_contracting():
    out, _ = tuned_batch(100_000, seed=101)
    z = out["z"]
    se = z.std(ddof=1) / math.sqrt(z.size)
    report(
        1,
        abs(z.mean()) <= 4.0 * se,
        f"|mean Z| = {abs(z.mean()):.5f} <= 4 SE = {4 * se:.5f} "
        f"(rho=0.8, steps 4(i+1), optimal truncation law, L=1e5)",
    )


def test_criterion_02_second_moment_identity():
    out, survival = tuned_batch(1_000_000, seed=102)
    levels = survival.table.size
    steps = [4 * (i + 1) for i in range(levels)]
    nus = contracting_delta_variances(0.8, steps, levels)
    formula = msework_report(nus, np.asarray(steps, dtype=float), survival).variance_term
    zsq = out["z"] ** 2
    se = zsq.std(ddof=1) / math.sqrt(zsq.size)
    report(
        2,
        abs(zsq.mean() - formula) <= 3.0 * se,
        f"E[Z^2] = {zsq.mean():.5f} vs formula {formula:.5f} "
        f"(diff {abs(zsq.mean() - formula):.5f} <= 3 SE = {3 * se:.5f}, 1e6 draws)",
    )


def test_criterion_03_ergodic_baseline_constant():
    details = []
    ok = True
    for rho in (0.5, 0.8):
        model = ContractingNormalsModel(rho)
        result = ergodic_baseline(
            model.kernel(), lambda x: x, steps=100_000, restarts=200, seed=5,
            x0=0.0, target_mean=0.0,
        )
        constant = ergodic_msework_limit(rho)
        rel = result.msework_product / constant - 1.0
        ok = ok and abs(rel) <= 0.10
        details.append(f"rho={rho}: MSE*n = {result.msework_product:.3f} "
                       f"vs {constant:.0f} ({rel:+.2%})")
    report(3, ok, "; ".join(details) + " (n=1e5, 200 restarts, 10% band)")


def test_criterion_04_closed_form_vs_series():
    worst = 0.0
    for rho in (0.5, 0.8, 0.9):
        for m in (1, 2, 4, 8):
            closed = unbiased_msework(rho, m)
            levels = 400
            steps = np.array([m * (i + 1) for i in range(levels)], dtype=float)
            nus = contracting_delta_variances(rho, steps, levels)
            keep = nus > 0
            series = msework_optimum(nus[keep], steps[keep])
            worst = max(worst, abs(closed - series) / closed)
    report(
        4,
        worst <= 1e-6,
        f"max relative gap closed-form vs square-root-rule series = {worst:.2e} "
        "over (rho, m) in {0.5,0.8,0.9} x {1,2,4,8}",
    )


def test_criterion_05_step_multiplier_ansatz():
    w = optimal_w()
    ok = abs(w + 1.632) <= 0.01
    details = [f"w* = {w:.4f} (target -1.632 +- 0.01)"]
    for rho in (0.8, 0.9, 0.95):
        marker = step_multiplier(rho, w)
        values = {m: unbiased_msework(rho, m) for m in range(1, 61)}
        brute = min(values, key=values.get)
        ok = ok and abs(marker - brute) <= 1
        details.append(f"rho={rho}: marker m={marker}, argmin m={brute}")
    report(5, ok, "; ".join(details))


def test_criterion_06_ratio_bound_on_grid():
    w = optimal_w()
    worst_rho, worst = None, -1.0
    for rho in [round(0.50 + 0.05 * k, 2) for k in range(10)]:
        ratio = unbiased_msework(rho, step_multiplier(rho, w)) / ergodic_msework_limit(rho)
        if ratio > worst:
            worst_rho, worst = rho, ratio
    report(
        6,
        worst <= 1.6,
        f"max tuned/ergodic MSE-work ratio = {worst:.4f} at rho={worst_rho} "
        "(grid 0.50..0.95, bound 1.6)",
    )


def test_criterion_07_linear_gaussian():
    model = GaussianLinearModel(p=0.25, a=1.5)
    coord = 3
    target, _ = posterior_spectral(model, coord)
    details, ok = [], True

    schedule, survival = gl_schedule("holder", "dyadic", a=1.5, s=1.0, eps=0.5)
    f = lambda u: u[:, coord - 1] if u.shape[1] >= coord else np.zeros(len(u))
    batch = estimate_batch(gl_delta_batch(truncation_delta, model, schedule, f), survival, 100_000, seed=71)
    vals = batch.z
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    ok &= abs(batch.mean - target) <= 4 * se
    details.append(f"truncation pipeline mean {batch.mean:.5f} vs m_3 {target:.5f} (4SE {4*se:.5f})")

    schedule2, survival2 = gl_schedule("linear-tail", "dyadic", a=1.5, p=0.25, eps=0.8)
    lanes2 = gl_delta_batch(prior_tail_delta, model, schedule2, {coord: 1.0})
    batch2 = estimate_batch(lanes2, survival2, 100_000, seed=72)
    vals2 = batch2.z
    se2 = vals2.std(ddof=1) / math.sqrt(vals2.size)
    ok &= abs(batch2.mean - target) <= 4 * se2
    details.append(f"prior-tail pipeline mean {batch2.mean:.5f} (4SE {4*se2:.5f})")

    # Gap-rate slopes, Monte Carlo, shallow-decay model at desk scale.
    slope_model = GaussianLinearModel(p=0.25, a=0.75)
    dims_list = [2**i for i in range(9)]
    rng_root = Stream(73)
    mc_plain, mc_tail = [], []
    for i in range(2, 9):
        j_lo, j_hi = dims_list[i - 1], dims_list[i]
        ls = np.arange(j_lo + 1, j_hi + 1)
        spectral = [posterior_spectral(slope_model, l) for l in ls]
        means = np.array([s[0] for s in spectral])
        sds = np.array([math.sqrt(s[1]) for s in spectral])
        tails = np.array(
            [math.sqrt(v) - float(l) ** -slope_model.a for (_, v), l in zip(spectral, ls)]
        )
        zetas = rng_root.child(i).generator().standard_normal((2000, ls.size))
        mc_plain.append(float(np.mean(np.sum((means + sds * zetas) ** 2, axis=1))))
        mc_tail.append(float(np.mean(np.sum((means + tails * zetas) ** 2, axis=1))))
    xs = np.log([dims_list[i] for i in range(2, 9)])
    slope_plain = np.polyfit(xs, np.log(mc_plain), 1)[0]
    slope_tail = np.polyfit(xs, np.log(mc_tail), 1)[0]
    t_plain = 1 - 2 * slope_model.a
    t_tail = 1 - 4 * slope_model.p - 4 * slope_model.a
    ok &= abs(slope_plain - t_plain) <= 0.3 and abs(slope_tail - t_tail) <= 0.3
    details.append(
        f"gap slopes {slope_plain:.2f} (target {t_plain}) / {slope_tail:.2f} (target {t_tail})"
    )
    report(7, ok, "; ".join(details))


def test_criterion_08_circle_chain():
    rng = Stream(81).generator()
    n = 100_000
    met = 0
    for _ in range(n):
        y1, y2 = circle_maximal_coupling((0.0, math.pi), rng)
        met += y1 == y2
    bound = (8.0 - TWO_PI) / 4.0
    se = math.sqrt(bound * (1 - bound) / n)
    ok = met / n >= bound - 4 * se

    start = (0.9, 4.0)
    draws = np.array([circle_maximal_coupling(start, rng) for _ in range(10_000)])
    p1 = stats.kstest(draws[:, 0], arc_cdf(start[0])).pvalue
    p2 = stats.kstest(draws[:, 1], arc_cdf(start[1])).pvalue
    ok = ok and p1 > 1e-3 and p2 > 1e-3
    report(
        8,
        ok,
        f"meet frequency {met / n:.4f} >= {bound:.4f} - 4SE; "
        f"marginal KS p-values {p1:.3f}, {p2:.3f} > 1e-3",
    )


def _linear2d_model():
    matrix = np.array([[0.8, 0.3], [-0.2, 0.5]])
    widths = np.array([1.0, 0.5])
    y = np.array([0.3, -0.1])
    sup_g = float(np.linalg.norm(np.abs(matrix) @ widths))
    alpha_star = math.exp(-0.5 * (np.linalg.norm(y) + sup_g) ** 2)
    model = UniformPriorModel(
        half_widths=lambda k: widths[k - 1],
        forward=lambda j, x: x[..., :j] @ matrix[:, :j].T,
        y=y,
        alpha_star=alpha_star,
    )
    return model, matrix, widths


def test_criterion_09_independence_sampler():
    details, ok = [], True
    # Acceptance floor over 1e6 proposals (vectorized through the same
    # acceptance arithmetic).
    model, matrix, widths = _linear2d_model()
    rng = Stream(91).generator()
    n = 1_000_000
    xs = (2 * rng.random((n, 2)) - 1) * widths
    xis = (2 * rng.random((n, 2)) - 1) * widths
    mis_x = np.sum((model.y - xs @ matrix.T) ** 2, axis=1)
    mis_xi = np.sum((model.y - xis @ matrix.T) ** 2, axis=1)
    alphas = np.minimum(1.0, np.exp(0.5 * mis_x - 0.5 * mis_xi))
    ok &= float(alphas.min()) >= model.alpha_star
    details.append(f"min acceptance {alphas.min():.4f} >= floor {model.alpha_star:.4f}")

    # Synchronization of same-dimension chains under shared randomness,
    # one lane (row) per replicate.
    n_steps, reps = 6, 20_000
    bound = 1.0 - (1.0 - model.alpha_star) ** n_steps
    gen = Stream(92).generator()
    x = np.tile([0.9, -0.45], (reps, 1))
    yv = np.tile([-0.7, 0.2], (reps, 1))
    for _ in range(n_steps):
        w = draw_randomness(model, 2, gen, (reps,))
        x, _ = split_step(model, 2, x, w)
        yv, _ = split_step(model, 2, yv, w)
    met = int(np.count_nonzero(np.all(x == yv, axis=1)))
    se = math.sqrt(bound * (1 - bound) / reps)
    ok &= met / reps >= bound - 4 * se
    details.append(f"sync {met / reps:.4f} >= {bound:.4f} - 4SE")

    # Level-difference decay on the elliptic model.
    elliptic, is_model = scaled_elliptic_is_model(scale=20.0)
    beta = elliptic.gamma - 0.5
    kappa = 2.0 * (elliptic.gamma - 1.0)
    r = min(beta, kappa)
    schedule, _ = is_schedule(is_model, q=2.6, beta=beta, kappa=kappa)  # t: the interval's midpoint
    f = lambda u: np.sum(u, axis=-1)
    levels = is_delta_batch(is_model, schedule, f, np.zeros(1))(
        [250] * 7, lambda level: Stream(93 + level).generator()
    )
    rms, j_prev = [], []
    for level in range(2, 7):
        deltas = levels[level][0]
        rms.append(math.sqrt(float(np.mean(deltas**2))))
        j_prev.append(schedule.dims_at(level - 1))
    slope = np.polyfit(np.log(j_prev), np.log(rms), 1)[0]
    ok &= slope <= -r / 2 + 0.3
    details.append(f"delta RMS slope {slope:.2f} <= -(beta^kappa)/2 + 0.3 = {-r/2 + 0.3:.2f}")
    report(9, ok, "; ".join(details))


def test_criterion_10_pcn():
    details, ok = [], True
    # Exact Gaussian stationary moments with flat log-density.
    a, rho, j = 1.0, 0.7, 6
    model = pcn.PcnModel.diagonal(rho, lambda x: 0.0, lambda l: float(l) ** (-2 * a), regularity=a)
    lam = np.array([float(l) ** (-2 * a) for l in range(1, j + 1)])
    rng = Stream(15).generator()
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
        ok &= abs(samples[:, l].mean()) <= 4.0 * math.sqrt(lam[l] / n_samples)
        sq = samples[:, l] ** 2
        ok &= abs(sq.mean() - lam[l]) <= 4.0 * sq.std(ddof=1) / math.sqrt(n_samples)
    details.append("stationary moments (0, lambda_l) within 4 SE for all coordinates")

    # Transdimensional gap: decay then plateau near the tail mass.
    norm_model = pcn.PcnModel.diagonal(
        0.7, lambda v: float(np.linalg.norm(v)), lambda l: float(l) ** -4.0,
        regularity=2.0,
    )
    j_lo, j_hi = 5, 15
    lam_hi = np.array([float(l) ** -4.0 for l in range(1, j_hi + 1)])
    floor = math.sqrt(float(lam_hi[j_lo:].sum()))
    reps, n_steps = 400, 60
    dists = np.zeros(n_steps)
    root = Stream(16)
    for rcount in range(reps):
        gen = root.child(rcount).generator()
        x_hi = np.zeros(j_hi)
        x_hi[j_lo:] = 3.0 * np.sqrt(lam_hi[j_lo:])
        x_lo = x_hi[:j_lo].copy()
        for k in range(n_steps):
            w = (pcn.propose_noise(norm_model, j_hi, gen), gen.random())
            x_lo, x_hi = pcn.coupled_pcn_step(norm_model, (j_lo, j_hi), (x_lo, x_hi), w)
            dists[k] += np.linalg.norm(x_hi - np.pad(x_lo, (0, j_hi - j_lo)))
    dists /= reps
    plateau = dists[-20:].mean()
    ok &= dists[0] > 1.5 * plateau
    ok &= floor / 3.0 <= plateau <= 3.0 * floor
    details.append(
        f"gap decays {dists[0]:.4f} -> plateau {plateau:.4f}, floor {floor:.4f} (factor 3)"
    )

    # Faithfulness is exact.
    gen = Stream(17).generator()
    xf = pcn.propose_noise(norm_model, 4, gen)
    yf = xf.copy()
    faithful = True
    for _ in range(50):
        w = (pcn.propose_noise(norm_model, 4, gen), gen.random())
        xf, yf = pcn.coupled_pcn_step(norm_model, (4, 4), (xf, yf), w)
        faithful &= bool(np.array_equal(xf, yf))
    ok &= faithful
    details.append("faithfulness exact over 50 shared steps")
    report(10, ok, "; ".join(details))


def test_criterion_11_elliptic_appendix():
    details, ok = [], True
    model = EllipticModel(gamma=4.0)
    # Trapezoid order against a fine-grid reference.
    coeffs = model.prior_sample(6, Stream(111).generator())
    reference = model.forward(6, coeffs, n_points=200_001)
    ns = [25, 50, 100, 200, 400]
    errors = [np.linalg.norm(model.forward(6, coeffs, n_points=n) - reference) for n in ns]
    slope_quad = np.polyfit(np.log(ns), np.log(errors), 1)[0]
    ok &= abs(slope_quad + 2.0) <= 0.2
    details.append(f"trapezoid order {slope_quad:.2f} (target -2 +- 0.2)")

    js = [8, 16, 32]
    gaps = [elliptic_observation_gap(model, j, 30, Stream(112).child(j)) for j in js]
    slope_gap = np.polyfit(np.log(js), np.log(gaps), 1)[0]
    ok &= slope_gap <= -(model.gamma - 0.5) + 0.4
    details.append(
        f"observation gap slope {slope_gap:.2f} <= -(gamma - 1/2) + 0.4 = "
        f"{-(model.gamma - 0.5) + 0.4:.2f}"
    )
    report(11, ok, "; ".join(details))


def test_criterion_12_logistic():
    details, ok = [], True
    model = LogisticModel.synthetic()
    rng = Stream(121).generator()
    worst = 0.0
    for _ in range(5):
        beta = rng.standard_normal(3)
        grad = model.grad_log_density(beta)
        h = 1e-5
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (model.log_density(beta + e) - model.log_density(beta - e)) / (2 * h)
            worst = max(worst, abs(fd - grad[k]) / max(abs(grad[k]), 1e-12))
    ok &= worst <= 1e-6
    details.append(f"gradient vs central differences: max rel err {worst:.2e} <= 1e-6")

    center, cov = logistic_reference_fit(model, 50_000, seed=122)
    chain = pcn.PcnModel.gaussian_reference(0.5, model.neg_log_density, center, cov)
    spread = 2.0 * np.sqrt(np.diag(cov))
    fit = estimate_contraction(
        pcn.coupling(chain),
        lambda x, y: np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1),
        pair=(center + spread, center - spread),
        n_steps=30,
        replicates=150,
        stream=Stream(123),
    )
    ok &= fit.slope < 0.0
    details.append(f"recentred-coupling mean-distance slope {fit.slope:.3f} < 0")
    report(12, ok, "; ".join(details))


@pytest.mark.parametrize(
    "experiment,params,schedule",
    [
        ("contracting-normals", {"rho": 0.8}, {"kind": "arithmetic", "m": 4}),
        ("circle", {}, {}),
        (
            "linear-gaussian",
            {"a": 1.5, "p": 0.25, "variant": "holder", "coordinate": 2, "eps": 0.5},
            {},
        ),
        ("indep-sampler", {"model": "linear2d", "f": "coord1"}, {}),
        ("pcn", {"rho": 0.7, "a": 2.0}, {}),
        (
            "logistic",
            {"rwm_steps": 20_000, "pilot_steps": 25, "pilot_replicates": 60},
            {},
        ),
        ("tune", {"rho_grid": [0.5, 0.7, 0.9]}, {}),
    ],
)
def test_criterion_13_determinism(experiment, params, schedule, tmp_path):
    replicates = 1100  # spans two execution blocks
    outputs = []
    for parallel in (1, 2):
        config = ExperimentConfig(
            experiment=experiment,
            params=params,
            schedule=schedule,
            replicates=replicates,
            seed=7,
            parallel=parallel,
            out=str(tmp_path / f"p{parallel}"),
        )
        summary = run_experiment(config)
        outputs.append(
            (
                Path(summary["csv_path"]).read_bytes(),
                summary.get("mean"),
            )
        )
    identical = outputs[0][0] == outputs[1][0]
    report(
        13,
        identical,
        f"{experiment}: CSV byte-identical across parallel degrees 1 and 2",
    )
