"""Reproduction harness: config-driven experiments with deterministic output.

Replicates are processed in fixed-size blocks; block ``b`` of an
experiment consumes the stream ``(seed, b)`` regardless of how blocks are
distributed over workers, and records are concatenated in block order, so
the emitted files are byte-identical across parallelism degrees.  Work is
measured in model-declared units (kernel steps times dimension cost), not
wall-clock.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from .couplings import LevelSchedule, MarkovKernel, _tile, contraction_delta_batch, estimate_contraction
from .estimator import BLOCK_SIZE, SurvivalDistribution, draw_statistics, estimate_block
from .estimator import estimate_once  # noqa: F401 - name the benchmark's trace probe wraps
from .rng import Stream

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "run_experiment",
    "ergodic_baseline",
    "BaselineResult",
    "compare_msework",
    "EXPERIMENTS",
    "BLOCK_SIZE",
]


class ConfigError(ValueError):
    """Invalid experiment configuration (reported before any sampling)."""


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    experiment: str
    params: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    survival: dict = field(default_factory=dict)
    replicates: int = 1000
    seed: int = 0
    out: str | None = None
    parallel: int = 1

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        extra = set(raw) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        if "experiment" not in raw:
            raise ConfigError("config needs the 'experiment' field")
        for name, kind in get_type_hints(cls).items():
            value = raw.get(name)
            # bool is an int subclass, but true/false is never a count or seed.
            if name in raw and (
                not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
            ):
                kind = getattr(kind, "__name__", kind)
                raise ConfigError(f"{name} must be of type {kind}, got {value!r}")
        return cls(**raw)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


# The keys each survival kind reads besides ``kind``.
_SURVIVAL_KEYS = {
    "geometric": ("rate", "exponent"),
    "polynomial": ("exponent",),
    "tabulated": ("values", "tail_ratio"),
}


def _survival_from_config(
    spec: dict, default: SurvivalDistribution | None
) -> SurvivalDistribution:
    """The config's truncation law, or ``default`` when none is given."""
    if not spec and default is not None:
        return default
    kind = spec.get("kind")
    if kind not in _SURVIVAL_KEYS:
        raise ConfigError(f"unknown survival spec {spec!r}")
    unknown = sorted(set(spec) - {"kind", *_SURVIVAL_KEYS[kind]})
    _require(not unknown, f"unknown {kind} survival keys: {unknown}")
    try:
        if kind == "geometric":
            law = SurvivalDistribution.geometric(
                _real(spec["rate"], "survival.rate"), _real(spec.get("exponent", 1.0), "survival.exponent")
            )
        elif kind == "polynomial":
            law = SurvivalDistribution.polynomial(_real(spec["exponent"], "survival.exponent"))
        else:
            law = SurvivalDistribution.tabulated(spec["values"], spec.get("tail_ratio"))
    except KeyError as exc:
        raise ConfigError(f"{kind} survival needs survival.{exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid survival spec {spec!r}: {exc}") from exc
    return law


def _finite_work_survival(
    spec: dict, default: SurvivalDistribution | None, base: float, power: float, levels: str
) -> SurvivalDistribution:
    """:func:`_survival_from_config` for ``levels`` whose work grows like
    ``t_i ~ base^i i^power`` (``base >= 1``, ``power >= 0``):
    ``E[work] = sum_i t_i Fbar_i`` must be finite.  Every level costs at
    least one work unit, so this also rules out a law whose mean level
    ``sum_i Fbar_i`` diverges, such as a tail ratio of 1."""
    law = _survival_from_config(spec, default)
    if law.kind == "polynomial":
        finite = base == 1.0 and law.exponent > power + 1.0
    else:  # a table with no tail ends, so its sum is finite
        ratio = law.rate**law.exponent if law.kind == "geometric" else law.tail_ratio or 0.0
        finite = base * ratio < 1.0
    growth = " ".join(([f"{base:.6g}^i"] if base != 1.0 else []) + ([f"i^{power:g}"] if power else []))
    _require(finite, (
        f"E[work] = sum_i t_i Fbar_i diverges: {levels} cost t_i ~ {growth or 1}, "
        f"and {law!r} does not decay fast enough"
    ))
    return law


def _integer(value, name: str) -> int:
    """A count or index param, given as an int or an integral float.
    ``int()`` would truncate a fractional value and read ``true`` as 1, so
    both, like any other value, are rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    _require(
        isinstance(value, (int, np.integer)) and not isinstance(value, bool),
        f"{name} must be an integer, got {value!r}",
    )
    return int(value)


def _real(value, name: str) -> float:
    """A real param, given as an int or a float.  ``float()`` would read
    ``true`` as 1.0 and parse a string, so both are rejected."""
    _require(
        isinstance(value, (int, float, np.integer)) and not isinstance(value, bool),
        f"{name} must be a real number, got {value!r}",
    )
    return float(value)


def _params(config: ExperimentConfig, *known: str) -> dict:
    """``config.params``, checked to name only ``known`` keys: a misspelled
    key would otherwise run silently on its default."""
    return _known_keys(config, "params", known)


def _schedule(config: ExperimentConfig, *known: str) -> dict:
    """``config.schedule``, checked like :func:`_params`; a plan that reads
    no schedule passes no keys, so any schedule it is given is rejected."""
    return _known_keys(config, "schedule", known)


def _known_keys(config: ExperimentConfig, section: str, known: tuple) -> dict:
    values = getattr(config, section)
    unknown = sorted(set(values) - set(known))
    _require(not unknown, f"unknown {config.experiment} {section}: {unknown}")
    return values


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------
#
# prepare_* validates a config and returns a "plan": a dict with
#   run_block(stream, count, offset) -> dict of per-draw arrays
#   meta: summary extras
#   replicates_override (optional): fixed row count
# Plans are cached per process keyed by the config JSON, so worker
# processes validate once.  Each plan checks its truncation law, default
# or override, with _finite_work_survival before any block runs.

# Level i of a_i = m (i + 1) steps in a fixed dimension costs t_i ~ i.
_ARITHMETIC_WORK = (1.0, 1.0, "arithmetic levels")


def _lane_block(delta_batch, survival, dim_of_level):
    def run_block(stream: Stream, count: int, offset: int):
        out = estimate_block(delta_batch, survival, stream, count)
        dims = [dim_of_level(i) for i in range(int(out["N"].max()) + 1)]
        out["level_max_dim"] = np.array(dims, dtype=np.int64)[out["N"]]
        return out

    return run_block


def _prepare_contracting(config: ExperimentConfig) -> dict:
    from . import models, tuning

    params = _params(config, "rho", "x0")
    rho = _real(params.get("rho"), "params.rho")
    _require(0.0 < rho < 1.0, "params.rho must lie in (0, 1)")
    x0 = _real(params.get("x0", 0.0), "params.x0")
    sched_kind = config.schedule.get("kind", "arithmetic")
    if sched_kind == "arithmetic":
        m = _integer(_schedule(config, "kind", "m").get("m", 1), "schedule.m")
        _require(m >= 1, "schedule.m must be a positive integer")
    elif sched_kind == "multiplier-ansatz":
        _schedule(config, "kind")
        m = tuning.step_multiplier(rho)
    else:
        raise ConfigError(f"unknown schedule kind {sched_kind!r}")
    schedule = LevelSchedule.arithmetic(m)
    if config.survival.get("kind", "optimal") == "optimal":
        _known_keys(config, "survival", ("kind",))
        _require(
            x0 == 0.0, "the optimal survival rule assumes the chain starts at 0"
        )
        spec, default = {}, tuning.contracting_optimal_survival(rho, m)
    else:
        spec, default = config.survival, None
    survival = _finite_work_survival(spec, default, *_ARITHMETIC_WORK)

    def run_block(stream: Stream, count: int, offset: int):
        out = models.contracting_unbiased_block(
            rho, schedule, survival, stream, count, x0=x0
        )
        out["level_max_dim"] = np.ones(count, dtype=np.int64)
        return out

    return {
        "run_block": run_block,
        "meta": {"target_mean": 0.0, "step_multiplier": m},
    }


def _prepare_circle(config: ExperimentConfig) -> dict:
    from . import models

    params = _params(config, "x0")
    sched = _schedule(config, "kind", "m")
    _require(sched.get("kind", "arithmetic") == "arithmetic", "circle runs an arithmetic schedule only")
    m = _integer(sched.get("m", 1), "schedule.m")
    _require(m >= 1, "schedule.m must be a positive integer")
    # Default truncation law: geometric at 0.7, comfortably above the
    # discrete-metric contraction rate 1 - (8 - 2 pi)/4 of the coupling.
    survival = _finite_work_survival(
        config.survival, SurvivalDistribution.geometric(0.7), *_ARITHMETIC_WORK
    )
    x0 = _real(params.get("x0", 0.0), "params.x0")
    model = models.CircleChainModel()
    schedule = LevelSchedule.arithmetic(m)
    delta_batch = contraction_delta_batch(
        model.kernel(), model.coupling(), schedule, np.cos, x0
    )
    return {
        "run_block": _lane_block(delta_batch, survival, schedule.dims_at),
        "meta": {"target_mean": 0.0},
    }


def _prepare_linear_gaussian(config: ExperimentConfig) -> dict:
    from . import gaussian_linear

    variant = config.params.get("variant", "holder")  # make_schedule checks it
    # Only the Holder variant reads s, and only polynomial dims read q.
    holder = ["s"] if variant == "holder" else []
    params = _params(config, "variant", "a", "p", "coordinate", "eps", *holder)
    _require("a" in params, "params.a is required")
    a = _real(params["a"], "params.a")
    p = _real(params.get("p", 0.0), "params.p")
    s = _real(params.get("s", 1.0), "params.s")
    coord = _integer(params.get("coordinate", 1), "params.coordinate")
    _require(coord >= 1, "params.coordinate must be >= 1")
    geometry = config.schedule.get("kind", "dyadic")
    sched = _schedule(config, "kind", *(["q"] if geometry == "polynomial" else []))
    q = None if sched.get("q") is None else _real(sched["q"], "schedule.q")
    dims, survival = gaussian_linear.make_schedule(
        variant, geometry, a=a, p=p, s=s, q=q, eps=_real(params.get("eps", 0.5), "params.eps")
    )
    # Level i costs t_i = j_i draws (holder) or j_i - j_{i-1} (linear-tail):
    # t_i grows like 2^i on dims 2^i, and like i^g, g = max(q, 1), or
    # i^(g - 1) on dims max(ceil(i^q), i + 1).
    base = 2.0 if geometry == "dyadic" else 1.0
    power = 0.0 if geometry == "dyadic" else max(q, 1.0) - (variant == "linear-tail")
    survival = _finite_work_survival(
        config.survival, survival, base, power, f"{variant} levels on {geometry} dims"
    )
    model = gaussian_linear.GaussianLinearModel(p=p, a=a)
    if variant == "holder":
        level_delta = gaussian_linear.truncation_delta
        f = lambda u: u[..., coord - 1] if u.shape[-1] >= coord else np.zeros(u.shape[:-1])
    else:
        level_delta, f = gaussian_linear.prior_tail_delta, {coord: 1.0}
    target, _ = gaussian_linear.posterior_spectral(model, coord)
    return {
        "run_block": _lane_block(gaussian_linear.delta_batch(level_delta, model, dims, f), survival, dims),
        "meta": {"target_mean": target, "coordinate": coord},
    }


def _elliptic_is_model(params: dict) -> tuple:
    from . import independence_sampler, models

    gamma = _real(params.get("gamma", 3.2), "params.gamma")
    model = models.EllipticModel(gamma=gamma)
    data_spec = params.get("data", {"seed": 2024, "noise": 0.02, "dim": 64})
    _require(
        isinstance(data_spec, dict) and set(data_spec) <= {"seed", "noise", "dim"},
        f"params.data must be an object with keys among seed, noise and dim, got {data_spec!r}",
    )
    data_seed = _integer(data_spec.get("seed", 2024), "params.data.seed")
    if "y" in params:
        y = np.asarray(params["y"], dtype=float)
    else:
        stream = Stream(data_seed)
        dim = _integer(data_spec.get("dim", 64), "params.data.dim")
        y = model.forward(dim, model.prior_sample(dim, stream.generator()))
        noise = _real(data_spec.get("noise", 0.02), "params.data.noise")
        y = y + noise * stream.child(1).generator().standard_normal(y.size)
    alpha_star = params.get("alpha_star")
    is_model = independence_sampler.UniformPriorModel(
        half_widths=model.half_width,
        forward=lambda j, x: model.forward(j, x),
        y=y,
        alpha_star=1e-12 if alpha_star is None else _real(alpha_star, "params.alpha_star"),
        work_exponent=model.work_exponent,
    )
    if alpha_star is None:
        # Pilot-calibrated floor, runtime-checked: half the smallest acceptance
        # over lanes of prior (x, xi) pairs, drawn pair by pair.  The model's
        # worst-case bound is far too small to schedule against.
        rng = Stream(data_seed).child(2).generator()
        j_pilot = _integer(params.get("pilot_dim", 32), "params.pilot_dim")
        pairs = (_integer(params.get("pilot_proposals", 512), "params.pilot_proposals"), 2)
        x, xi = independence_sampler.propose(is_model, j_pilot, rng, pairs).transpose(1, 0, 2)
        alphas = independence_sampler.is_acceptance(is_model, j_pilot, x, xi)
        is_model = replace(is_model, alpha_star=0.5 * float(np.min(alphas, initial=1.0)))
    return model, is_model


def _prepare_indep_sampler(config: ExperimentConfig) -> dict:
    from . import independence_sampler

    kind = config.params.get("model", "elliptic")
    if kind == "elliptic":
        # The pilot that calibrates alpha_star runs only when none is given.
        pilot = ["pilot_dim", "pilot_proposals"] if config.params.get("alpha_star") is None else []
        params = _params(config, "model", "f", "alpha_star", "gamma", "data", "y", *pilot)
        elliptic, is_model = _elliptic_is_model(params)
        beta = elliptic.gamma - 0.5
        kappa = 2.0 * (elliptic.gamma - 1.0)
    elif kind == "linear2d":
        params = _params(config, "model", "f", "theta", "alpha_star", "matrix", "y", "half_widths")
        matrix = np.asarray(params.get("matrix", [[0.8, 0.3], [-0.2, 0.5]]), float)
        y = np.asarray(params.get("y", [0.3, -0.1]), float)
        widths = list(params.get("half_widths", [1.0, 0.5]))
        sup_g = float(np.linalg.norm(np.abs(matrix) @ np.asarray(widths)))
        alpha_star = params.get(
            "alpha_star", math.exp(-0.5 * (np.linalg.norm(y) + sup_g) ** 2)
        )
        is_model = independence_sampler.UniformPriorModel(
            half_widths=lambda k, w=widths: w[k - 1],
            forward=lambda j, x, A=matrix: x[..., :j] @ A[:, :j].T,
            y=y,
            alpha_star=_real(alpha_star, "params.alpha_star"),
            work_exponent=_real(params.get("theta", 1.0), "params.theta"),
        )
        beta, kappa = 2.0, 2.0
    else:
        raise ConfigError(f"unknown indep-sampler model {kind!r}")

    sched = config.schedule
    default_kind = "log-growth" if kind == "elliptic" else "saturating"
    sched_kind = sched.get("kind", default_kind)
    if sched_kind == "log-growth":
        # The cost exponent is the model's: work and the finite-work check use it.
        _schedule(config, "kind", "q", "beta", "kappa", "t")
        q = _real(sched.get("q", 2.0), "schedule.q")
        b_eff = _real(sched.get("beta", beta), "schedule.beta")
        k_eff = _real(sched.get("kappa", kappa), "schedule.kappa")
        theta = is_model.work_exponent
        if "t" in sched:
            t = _real(sched["t"], "schedule.t")
        else:
            t = 0.5 * ((1.0 + theta * q) + (min(b_eff, k_eff) * q - 2.0))
        top_dim = math.inf  # the dimensions grow without bound
        schedule, survival = independence_sampler.make_schedule(
            q=q, beta=b_eff, kappa=k_eff, theta=theta,
            alpha_star=is_model.alpha_star, t=t,
        )
        # t_i = a_i j_i^theta with j_i ~ i^max(q, 1) and a_i ~ log i; the log
        # factor does not move the strict bound on a polynomial exponent.
        power = max(q, 1.0) * theta
    elif sched_kind == "saturating":
        # Dimensions climb one per level up to the model's state size; the
        # remaining levels refine only the time direction.
        _schedule(config, "kind", "m", "max_dim", "rate")
        m = _integer(sched.get("m", 2), "schedule.m")
        dmax = _integer(
            sched.get("max_dim", len(widths) if kind == "linear2d" else 2), "schedule.max_dim"
        )
        _require(m >= 1 and dmax >= 1, "saturating schedule needs m, max_dim >= 1")
        top_dim = dmax
        schedule = LevelSchedule.arithmetic(m, lambda i: min(i + 1, dmax))
        survival = SurvivalDistribution.geometric(_real(sched.get("rate", 0.6), "schedule.rate"))
        power = 1.0  # t_i = m (i + 1) j_i^theta with j_i <= max_dim
    elif sched_kind == "sequence":
        _schedule(config, "kind", "steps", "dims")
        steps, dims = sched["steps"], sched["dims"]
        levels = len(steps) if isinstance(steps, list) else 0
        _require(
            levels >= 1 and isinstance(dims, list) and len(dims) == levels,
            "sequence schedule needs steps and dims as lists of one length L >= 1",
        )
        schedule = LevelSchedule(
            [_integer(a, "schedule.steps") for a in steps], [_integer(j, "schedule.dims") for j in dims]
        )
        # Check every term now: the lists are otherwise read while sampling.
        schedule.steps_at(levels - 1)
        top_dim = schedule.dims_at(levels - 1)
        survival = None  # the config must supply the law
        power = 0.0  # finite support: the law must end within the L levels
    else:
        raise ConfigError(f"unknown schedule kind {sched_kind!r}")
    if kind == "linear2d":  # one state coordinate per half-width
        message = f"schedule dims reach {top_dim}, past {len(widths)} half_widths"
        _require(top_dim <= len(widths), message)
    survival = _finite_work_survival(
        config.survival, survival, 1.0, power, f"{sched_kind} indep-sampler levels"
    )
    if sched_kind == "sequence":
        _require(
            survival.kind == "tabulated"
            and survival.tail_ratio is None
            and survival.table.size <= levels,
            f"a sequence schedule of L = {levels} levels needs a tabulated survival "
            f"law with at most {levels} values and no tail_ratio",
        )

    # Observables act row-wise on (lanes, j) states.
    fname = params.get("f", "sum")
    f = {"sum": lambda u: np.sum(u, axis=-1), "coord1": lambda u: u[..., 0]}.get(fname)
    _require(f is not None, f"unknown observable {fname!r}")
    x0 = np.zeros(schedule.dims_at(0))
    delta_batch = independence_sampler.delta_batch(is_model, schedule, f, x0)
    return {
        "run_block": _lane_block(delta_batch, survival, schedule.dims_at),
        "meta": {"alpha_star": is_model.alpha_star},
    }


def _prepare_pcn(config: ExperimentConfig) -> dict:
    from . import pcn

    fname = config.params.get("f", "capped-norm")
    # Only the capped norm reads tau.
    params = _params(config, "rho", "a", "g", "f", *(["tau"] if fname == "capped-norm" else []))
    rho = _real(params.get("rho", 0.7), "params.rho")
    a = _real(params.get("a", 2.0), "params.a")
    gname = params.get("g", "norm")
    # Log-changes and observables act row-wise on (lanes, j) states.
    if gname == "norm":
        g = lambda x: np.linalg.norm(x, axis=-1)
    elif gname == "zero":
        g = lambda x: np.zeros(np.shape(x)[:-1])
    else:
        raise ConfigError(f"unknown log-change {gname!r}")
    sched = _schedule(config, "variant", "m", "r", "theta", "eps")
    theta = _real(sched.get("theta", 1.0), "schedule.theta")
    model = pcn.PcnModel.diagonal(
        rho, g, lambda l: float(l) ** (-2.0 * a), regularity=a, work_exponent=theta
    )
    meta = {}
    if fname == "capped-norm":
        tau = _real(params.get("tau", 1.0), "params.tau")
        _require(tau > 0.0, "params.tau must be positive")
        f = lambda x: np.minimum(1.0, np.linalg.norm(x, axis=-1) / tau)
        meta = {"tau": tau}
    elif fname == "coord1":
        f = lambda x: x[..., 0]
    else:
        raise ConfigError(f"unknown observable {fname!r}")
    variant, r = sched.get("variant", "bounded"), _real(sched.get("r", 0.85), "schedule.r")
    m = _integer(sched.get("m", 2), "schedule.m")
    schedule, survival = pcn.make_schedule(
        model, variant, m=m, r=r, theta=theta, eps=_real(sched.get("eps", 0.25), "schedule.eps")
    )
    # Level i costs t_i = m (i + 1) j_i^theta, and j_i grows like g^i.
    cost_growth = pcn.dimension_growth(model, variant, m, r) ** model.work_exponent
    survival = _finite_work_survival(config.survival, survival, cost_growth, 1.0, "pcn levels")
    x0 = np.zeros(schedule.dims_at(0))
    return {
        "run_block": _lane_block(pcn.delta_batch(model, schedule, f, x0), survival, schedule.dims_at),
        "meta": meta,
    }


def _prepare_logistic(config: ExperimentConfig) -> dict:
    from . import models, pcn, tuning

    params = _params(
        config, "rho", "coordinate", "n_obs", "data_seed", "reference_draws", "rwm_steps",
        "fit_seed", "pilot_steps", "pilot_replicates", "pilot_seed",
    )
    # The config's own law is checked before the fit and the pilot, whose
    # contraction rate fixes the schedule: the config gives none.
    law = _finite_work_survival(config.survival, None, *_ARITHMETIC_WORK) if config.survival else None
    _schedule(config)
    model = models.LogisticModel.synthetic(
        n_obs=_integer(params.get("n_obs", 100), "params.n_obs"),
        seed=_integer(params.get("data_seed", 7), "params.data_seed"),
    )
    coord = _integer(params.get("coordinate", 1), "params.coordinate")
    _require(1 <= coord <= model.dim, f"params.coordinate must lie in 1..{model.dim}")
    rho = _real(params.get("rho", 0.5), "params.rho")
    # rwm_steps: the key's name from when a random-walk chain made the fit.
    _require(
        not {"reference_draws", "rwm_steps"} <= set(params),
        "give params.reference_draws or its alias rwm_steps, not both",
    )
    key = "rwm_steps" if "rwm_steps" in params else "reference_draws"
    draws = _integer(params.get(key, 200_000), f"params.{key}")
    fit = models.logistic_reference_fit(
        model, draws, seed=_integer(params.get("fit_seed", 101), "params.fit_seed")
    )
    center, cov = fit
    chain = pcn.PcnModel.gaussian_reference(
        rho, model.neg_log_density, center, cov
    )
    # Pilot contraction estimate of the recentred coupling; the schedule
    # uses the conservative square-root of the fitted per-step factor.
    # Pairs start two posterior deviations apart: the recentred reference
    # has lighter tails than the target, so chains released far outside
    # the posterior mass reject recentering moves and the fit would stall.
    # The pairs are PcnStates, so each chain evaluates the log-density at
    # its proposals only.
    spread = 2.0 * np.sqrt(np.diag(cov))
    pilot = estimate_contraction(
        pcn.coupling(chain),
        lambda s, t: np.linalg.norm(s.x - t.x, axis=-1),
        pairs=[(pcn.PcnState(center + spread), pcn.PcnState(center - spread))],
        n_steps=_integer(params.get("pilot_steps", 40), "params.pilot_steps"),
        replicates=_integer(params.get("pilot_replicates", 200), "params.pilot_replicates"),
        stream=Stream(_integer(params.get("pilot_seed", 55), "params.pilot_seed")),
    )
    r = math.exp(0.5 * pilot.slope)
    m = tuning.step_multiplier(r)
    schedule = LevelSchedule.arithmetic(m, lambda i: model.dim)
    if law is None:
        law = _finite_work_survival({}, SurvivalDistribution.geometric(r**m), *_ARITHMETIC_WORK)
    delta_batch = pcn.delta_batch(chain, schedule, lambda beta: beta[:, coord - 1], center)
    return {
        "run_block": _lane_block(delta_batch, law, schedule.dims_at),
        "meta": {
            "contraction_slope": pilot.slope,
            "contraction_rate": r,
            "step_multiplier": m,
            "reference_center": [float(c) for c in center],
            "reference_ess": fit.ess,
        },
    }


def _prepare_tune(config: ExperimentConfig) -> dict:
    from . import tuning

    # No sampling: one CSV row per grid point, reusing the draw schema
    # (N = step multiplier, z = tuned/ergodic ratio, work = tuned product).
    params = _params(config, "rho_grid")
    _schedule(config)
    _known_keys(config, "survival", ())
    grid = params.get("rho_grid")
    if grid is None:
        grid = [round(0.50 + 0.05 * k, 2) for k in range(10)]
    _require(isinstance(grid, list) and grid, "params.rho_grid must be a nonempty list")
    w = tuning.OPTIMAL_W
    rows = []
    for rho in grid:
        m = tuning.step_multiplier(rho, w)
        product = tuning.unbiased_msework(rho, m)
        ergodic = tuning.ergodic_msework_limit(rho)
        rows.append((rho, m, product, ergodic, product / ergodic))
    arr = np.asarray(rows, dtype=float)

    def run_block(stream: Stream, count: int, offset: int):
        sl = arr[offset : offset + count]
        return {
            "N": sl[:, 1].astype(np.int64),
            "z": sl[:, 4],
            "work": sl[:, 2],
            "level_max_dim": np.ones(len(sl), dtype=np.int64),
        }

    return {
        "run_block": run_block,
        "meta": {
            "w": w,
            "rho_grid": [float(r) for r in grid],
            "max_ratio": float(arr[:, 4].max()),
        },
        "replicates_override": len(rows),
    }


EXPERIMENTS: dict[str, Callable[[ExperimentConfig], dict]] = {
    "contracting-normals": _prepare_contracting,
    "circle": _prepare_circle,
    "linear-gaussian": _prepare_linear_gaussian,
    "indep-sampler": _prepare_indep_sampler,
    "pcn": _prepare_pcn,
    "logistic": _prepare_logistic,
    "tune": _prepare_tune,
}


@functools.lru_cache(maxsize=8)
def _prepare_cached(plan_json: str) -> dict:
    config = ExperimentConfig.from_dict(json.loads(plan_json))
    prepare = EXPERIMENTS.get(config.experiment)
    if prepare is None:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    # A plan is built from the config alone (pilot fits included), so a
    # value it rejects, a missing key or a wrong type is a config error;
    # failures while sampling stay runtime errors.
    try:
        return prepare(config)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{config.experiment} config needs {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{config.experiment}: {exc}") from exc


def _config_key(config: ExperimentConfig) -> str:
    # Only the fields the plan depends on: runs differing in seed, output
    # path or parallelism share one (possibly expensive) preparation.
    plan_fields = {
        "experiment": config.experiment,
        "params": config.params,
        "schedule": config.schedule,
        "survival": config.survival,
    }
    return json.dumps(plan_fields, sort_keys=True)


def _run_block_task(config_json: str, block: int, count: int, seed: int):
    plan = _prepare_cached(config_json)
    return block, plan["run_block"](Stream(seed).child(block), count, block * BLOCK_SIZE)


def _run_blocks(config: ExperimentConfig) -> tuple[dict, dict]:
    """Prepare the plan and run every block; returns ``(plan, records)``.

    Records are the per-draw columns concatenated in block order, so they
    do not depend on ``config.parallel``.
    """
    if config.replicates < 1:
        raise ConfigError("replicates must be >= 1")
    if config.parallel < 1:
        raise ConfigError("parallel must be >= 1")
    if config.seed < 0:
        raise ConfigError("seed must be >= 0")
    key = _config_key(config)
    plan = _prepare_cached(key)
    replicates = plan.get("replicates_override", config.replicates)
    blocks = [
        (b, min(BLOCK_SIZE, replicates - b * BLOCK_SIZE))
        for b in range((replicates + BLOCK_SIZE - 1) // BLOCK_SIZE)
    ]
    tasks = [(key, b, count, config.seed) for b, count in blocks]
    if config.parallel == 1 or len(blocks) == 1:
        results = [_run_block_task(*t) for t in tasks]
    else:
        # Imported here: multiprocessing costs every serial run ~20 ms of startup.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.parallel) as pool:
            results = list(pool.map(_run_block_task, *zip(*tasks)))
    results.sort(key=lambda item: item[0])
    records = {
        name: np.concatenate([out[name] for _, out in results])
        for name in results[0][1]
    }
    return plan, records


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one experiment; returns the summary and optionally writes files.

    Emits a per-draw CSV (``replicate, N, z, work, level_max_dim``) and a
    JSON summary carrying the batch statistics and the config echo.  With
    a fixed seed the bytes are identical for every parallelism degree.
    A single draw has no sample variance: ``variance``, ``se`` and
    ``msework_product`` are then ``None`` (JSON ``null``).
    """
    if config.out is not None:  # an unusable output path fails before sampling
        try:
            Path(config.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {config.out!r}: {exc}") from exc
    plan, records = _run_blocks(config)
    z = records["z"]
    n = z.size
    mean, variance, total_work = draw_statistics(z, records["work"])
    expected_work = total_work / n
    if n == 1:
        variance = None
    summary = {
        "experiment": config.experiment,
        "replicates": n,
        "seed": config.seed,
        "mean": mean,
        "variance": variance,
        "se": None if variance is None else math.sqrt(variance / n),
        "expected_work": expected_work,
        "msework_product": None if variance is None else variance * expected_work,
        "max_level": int(records["N"].max()),
        "columns": ["replicate"] + list(records.keys()),
        "config": config.to_dict(),
    }
    summary.update(plan.get("meta", {}))
    if config.out is not None:
        _write_outputs(config, records, summary)
    return summary


def _write_outputs(config: ExperimentConfig, records: dict, summary: dict):
    columns = list(records.keys())
    csv_path = Path(config.out) / f"{config.experiment}-draws.csv"
    # Integer columns as %d, the rest as %.17g: the routine of format(x, ".17g").
    kinds = ["%d" if records[c].dtype.kind in "iu" else "%.17g" for c in columns]
    template = ",".join(["%d"] + kinds) + "\n"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["replicate"] + columns) + "\n")
        for lo in range(0, records[columns[0]].size, BLOCK_SIZE):
            chunk = [records[c][lo : lo + BLOCK_SIZE].tolist() for c in columns]
            rows = zip(itertools.count(lo), *chunk)
            fh.write((template * len(chunk[0])) % tuple(itertools.chain.from_iterable(rows)))
    json_path = Path(config.out) / f"{config.experiment}-summary.json"
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    summary["csv_path"] = str(csv_path)
    summary["json_path"] = str(json_path)


# ---------------------------------------------------------------------------
# Ergodic baseline and MSE-work comparison
# ---------------------------------------------------------------------------


@dataclass
class BaselineResult:
    """Time-average baseline over independent restarts."""

    averages: np.ndarray
    mse: float
    work: float

    @property
    def msework_product(self) -> float:
        return self.mse * self.work


def ergodic_baseline(
    kernel: MarkovKernel,
    f: Callable,
    steps: int,
    restarts: int,
    seed: int,
    x0,
    target_mean: float | None = None,
) -> BaselineResult:
    """Plain time-average of ``f`` along the chain, restarted independently.

    Each restart runs ``steps`` steps from ``x0`` and averages
    ``f(X_1) .. f(X_steps)``; the squared errors use ``target_mean`` when
    known (otherwise the grand mean over restarts, a slightly optimistic
    substitute).  Work per restart is ``steps * work_per_step``.  The
    restarts are lanes of ``kernel.step`` on one generator; ``f`` maps
    the lanes' states to one value per restart.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = Stream(seed).generator()
    states = _tile(x0, restarts)
    sums = np.zeros(restarts)
    for _ in range(steps):
        states = kernel.step(states, rng)
        values = f(states)
        if np.shape(values) != (restarts,):
            raise ValueError("f must give one value per restart row")
        sums += values
    averages = sums / steps
    center = target_mean if target_mean is not None else averages.mean()
    mse = float(np.mean((averages - center) ** 2))
    return BaselineResult(
        averages=averages, mse=mse, work=steps * kernel.work_per_step
    )


def compare_msework(
    unbiased: dict,
    baseline: dict,
    bootstrap: int = 1000,
    seed: int = 0,
) -> dict:
    """MSE-work products of the two estimators and their ratio with a CI.

    ``unbiased`` carries per-draw values and works (or a config to run);
    ``baseline`` either per-restart squared errors plus the per-restart
    work, or an analytic constant.  The confidence interval is the 95%
    pivotal bootstrap over ``bootstrap`` resamples of both sides.
    """
    z, work = _side_unbiased(unbiased)
    if z.size < 2 or float(np.var(z)) == 0.0:
        raise ValueError("unbiased side is degenerate (zero variance)")
    sq_err, base_work, base_const = _side_baseline(baseline)

    def products(zv, wv, sq):
        pu = float(np.var(zv, ddof=1)) * float(np.mean(wv))
        pb = base_const if sq is None else float(np.mean(sq)) * base_work
        return pu, pb

    p_unbiased, p_baseline = products(z, work, sq_err)
    if p_baseline == 0.0:
        raise ValueError("baseline side is degenerate (zero MSE)")
    ratio = p_unbiased / p_baseline
    rng = Stream(seed).generator()
    stats = np.empty(bootstrap)
    n = z.size
    m = sq_err.size if sq_err is not None else 0
    for b in range(bootstrap):
        idx = rng.integers(0, n, n)
        sq_b = sq_err[rng.integers(0, m, m)] if sq_err is not None else None
        pu, pb = products(z[idx], work[idx], sq_b)
        stats[b] = pu / pb if pb > 0 else np.nan
    stats = stats[np.isfinite(stats)]
    lo, hi = np.quantile(stats, [0.025, 0.975])
    return {
        "unbiased_product": p_unbiased,
        "baseline_product": p_baseline,
        "ratio": ratio,
        "ratio_ci": (2.0 * ratio - float(hi), 2.0 * ratio - float(lo)),
        "bootstrap": bootstrap,
    }


def _side_unbiased(spec: dict):
    if "values" in spec:
        return (
            np.asarray(spec["values"], dtype=float),
            np.asarray(spec["work"], dtype=float),
        )
    if "config" in spec:
        config = spec["config"]
        if isinstance(config, dict):
            config = ExperimentConfig.from_dict(config)
        _, records = _run_blocks(config)
        return records["z"], records["work"]
    raise ValueError("unbiased side needs 'values'/'work' or 'config'")


def _side_baseline(spec: dict):
    if "product" in spec:
        return None, None, float(spec["product"])
    if "squared_errors" in spec:
        sq = np.asarray(spec["squared_errors"], dtype=float)
        return sq, float(spec["work"]), None
    raise ValueError("baseline side needs 'product' or 'squared_errors'/'work'")
