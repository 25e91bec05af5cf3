"""Reproduction harness: config-driven experiments with deterministic output.

Replicates are processed in worker tasks of ``SUPER_BLOCK * BLOCK_SIZE``
replicates (the last task takes the rest), a fixed size that never
depends on the worker count.  Task ``t`` of an experiment consumes the
stream ``(seed, t)`` regardless of how tasks are distributed over
workers, its chains step as one lane array, and records are concatenated
in task order, so the emitted files are byte-identical across
parallelism degrees.  A run of at most one task's replicates is one
task, which ``parallel`` cannot split.  Work is measured in
model-declared units (kernel steps times dimension cost), not
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


def _survival_from_config(
    spec: _Section | None, default: SurvivalDistribution | None
) -> SurvivalDistribution:
    """The config's truncation law, or ``default`` when none is given."""
    if spec is None or (not spec.values and default is not None):
        return default
    kind = spec.get("kind")
    if kind == "geometric":
        args = spec.real("rate"), spec.real("exponent", 1.0)
    elif kind == "polynomial":
        args = (spec.real("exponent"),)
    elif kind == "tabulated":
        args = spec.reals("values"), spec.real("tail_ratio", None)
    else:
        spec.check(kind is not None, "kind", "is required")
        raise ConfigError(f"unknown survival spec {spec.values!r}")
    spec.close()
    try:
        return getattr(SurvivalDistribution, kind)(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid survival spec {spec.values!r}: {exc}") from exc


def _finite_work_survival(
    spec: _Section | None, default: SurvivalDistribution | None, base: float, power: float, levels: str
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


def _listed(value, name: str, each=_real) -> list:
    """A list of ``each`` values: real numbers unless told."""
    _require(isinstance(value, list), f"{name} must be a list, got {value!r}")
    return [each(v, name) for v in value]


_REQUIRED = object()  # the default of a key that must be given


class _Section:
    """One config object (``params``, ``schedule``, ``survival`` or one
    nested in them, such as ``params.data``) read key by key.  Each read
    records its key and names it ``<section>.<key>``; one with no default
    reads a required key.  :meth:`close` rejects each given key no read
    asked for, then reports the first missing key or mistyped value."""

    def __init__(self, values, name: str, experiment: str):
        _require(isinstance(values, dict), f"{name} must be an object, got {values!r}")
        self.values, self.name, self.experiment = values, name, experiment
        self.read, self.errors, self.nested = set(), [], []

    def get(self, key: str, default=_REQUIRED):
        """The raw value of ``key``, or ``default`` when it is absent."""
        self.read.add(key)
        if key not in self.values and default is _REQUIRED:
            self.errors.append(f"{self.name}.{key} is required")
        return self.values.get(key, None if default is _REQUIRED else default)

    def _typed(self, check, key: str, default=_REQUIRED):
        value = self.get(key, default)
        try:
            return check(value, f"{self.name}.{key}") if key in self.values else value
        except ConfigError as exc:  # reads as None; close() reports it after any unknown key
            self.errors.append(str(exc))

    integer = functools.partialmethod(_typed, _integer)
    real = functools.partialmethod(_typed, _real)
    integers = functools.partialmethod(_typed, functools.partial(_listed, each=_integer))
    reals = functools.partialmethod(_typed, _listed)
    rows = functools.partialmethod(_typed, functools.partial(_listed, each=_listed))

    def section(self, key: str) -> "_Section":
        """The object nested under ``key`` (empty when absent), closed with this one."""
        nested = _Section(self.get(key, {}), f"{self.name}.{key}", self.experiment)
        self.nested.append(nested)
        return nested

    def check(self, condition: bool, key: str, problem: str):
        _require(condition, f"{self.name}.{key} {problem}")

    def close(self):
        unknown, read = sorted(set(self.values) - self.read), sorted(self.read)
        message = f"unknown {self.experiment} {self.name}: {unknown}; {self.name} must be an object"
        _require(not unknown, f"{message} with keys among {read}")
        for nested in self.nested:
            nested.close()
        if self.errors:
            raise ConfigError(self.errors[0])


def _close(*sections: _Section):
    for section in sections:
        section.close()


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------
#
# prepare_*(params, schedule, survival) reads the config's sections into
# locals, closes them, then validates and returns a "plan", a dict of
#   draws(stream, count) -> arrays N, z, work of count replicates on stream,
#     and dims(i), level i's dimension, from which _run_block_task derives
#     each draw's level_max_dim; or instead
#   table: columns written as they stand, with no sampling (tune's grid);
#   meta: summary extras.
# Plans are cached per process keyed by the config JSON, so worker
# processes validate once.  Each sampling plan checks its truncation law,
# default or override, with _finite_work_survival before any task runs.

# Level i of a_i = m (i + 1) steps in a fixed dimension costs t_i ~ i.
_ARITHMETIC_WORK = (1.0, 1.0, "arithmetic levels")

# Blocks of BLOCK_SIZE replicates per worker task.  Fixed, never derived
# from --parallel: results depend only on (seed, task), and a task's
# replicates step as one lane array on the task's stream.
SUPER_BLOCK = 8


def _prepare_contracting(params: _Section, sched: _Section, spec: _Section) -> dict:
    from . import models, tuning

    rho, x0 = params.real("rho"), params.real("x0", 0.0)
    sched_kind = sched.get("kind", "arithmetic")
    _require(sched_kind in ("arithmetic", "multiplier-ansatz"), f"unknown schedule kind {sched_kind!r}")
    m = sched.integer("m", 1) if sched_kind == "arithmetic" else None
    optimal = spec.get("kind", "optimal") == "optimal"
    _close(params, sched)
    params.check(0.0 < rho < 1.0, "rho", "must lie in (0, 1)")
    if m is None:
        m = tuning.step_multiplier(rho)
    sched.check(m >= 1, "m", "must be a positive integer")
    schedule = LevelSchedule.arithmetic(m)
    if optimal:
        spec.close()
        _require(x0 == 0.0, "the optimal survival rule assumes the chain starts at 0")
    default = tuning.contracting_optimal_survival(rho, m) if optimal else None
    survival = _finite_work_survival(None if optimal else spec, default, *_ARITHMETIC_WORK)

    return {
        # Looked up at call time, so a wrapper of the name sees every task.
        "draws": lambda stream, count: models.contracting_unbiased_block(
            rho, schedule, survival, stream, count, x0=x0
        ),
        "dims": schedule.dims_at,
        "meta": {"target_mean": 0.0, "step_multiplier": m},
    }


def _prepare_circle(params: _Section, sched: _Section, spec: _Section) -> dict:
    from . import models

    x0 = params.real("x0", 0.0)
    sched_kind = sched.get("kind", "arithmetic")
    m = sched.integer("m", 1)
    _close(params, sched)
    _require(sched_kind == "arithmetic", "circle runs an arithmetic schedule only")
    sched.check(m >= 1, "m", "must be a positive integer")
    # Default truncation law: geometric at 0.7, comfortably above the
    # discrete-metric contraction rate 1 - (8 - 2 pi)/4 of the coupling.
    survival = _finite_work_survival(spec, SurvivalDistribution.geometric(0.7), *_ARITHMETIC_WORK)
    model = models.CircleChainModel()
    schedule = LevelSchedule.arithmetic(m)
    delta_batch = contraction_delta_batch(
        model.kernel(), model.coupling(), schedule, np.cos, x0
    )
    return {
        "draws": functools.partial(estimate_block, delta_batch, survival),
        "dims": schedule.dims_at,
        "meta": {"target_mean": 0.0},
    }


def _prepare_linear_gaussian(params: _Section, sched: _Section, spec: _Section) -> dict:
    from . import gaussian_linear

    variant = params.get("variant", "holder")  # make_schedule checks it
    a, p, eps = params.real("a"), params.real("p", 0.0), params.real("eps", 0.5)
    # Only the Holder variant reads s, and only polynomial dims read q.
    s = params.real("s", 1.0) if variant == "holder" else 1.0
    coord = params.integer("coordinate", 1)
    geometry = sched.get("kind", "dyadic")
    q = sched.real("q", None) if geometry == "polynomial" else None
    _close(params, sched)
    params.check(coord >= 1, "coordinate", "must be >= 1")
    schedule, survival = gaussian_linear.make_schedule(variant, geometry, a=a, p=p, s=s, q=q, eps=eps)
    # Level i costs t_i = j_i draws (holder) or j_i - j_{i-1} (linear-tail):
    # t_i grows like 2^i on dims 2^i, and like i^g, g = max(q, 1), or
    # i^(g - 1) on dims max(ceil(i^q), i + 1).
    base = 2.0 if geometry == "dyadic" else 1.0
    power = 0.0 if geometry == "dyadic" else max(q, 1.0) - (variant == "linear-tail")
    survival = _finite_work_survival(spec, survival, base, power, f"{variant} levels on {geometry} dims")
    model = gaussian_linear.GaussianLinearModel(p=p, a=a)
    if variant == "holder":
        level_delta = gaussian_linear.truncation_delta
        f = lambda u: u[..., coord - 1] if u.shape[-1] >= coord else np.zeros(u.shape[:-1])
    else:
        level_delta, f = gaussian_linear.prior_tail_delta, {coord: 1.0}
    target, _ = gaussian_linear.posterior_spectral(model, coord)
    delta_batch = gaussian_linear.delta_batch(level_delta, model, schedule, f)
    return {
        "draws": functools.partial(estimate_block, delta_batch, survival),
        "dims": schedule.dims_at,
        "meta": {"target_mean": target, "coordinate": coord},
    }


def _elliptic_is_model(params: _Section, ready: Callable[[], None] = lambda: None) -> tuple:
    """The elliptic problem and its sampler model; ``ready()`` runs once
    their keys are read, before the model, the data and the pilot."""
    from . import independence_sampler, models

    gamma = params.real("gamma", 3.2)
    y = params.reals("y", None)
    alpha_star = params.real("alpha_star", None)
    # data seeds the synthetic observations and the pilot: only they read it.
    if y is None or alpha_star is None:
        data = params.section("data")
        data_seed = data.integer("seed", 2024)
        if y is None:
            dim, noise = data.integer("dim", 64), data.real("noise", 0.02)
    if alpha_star is None:  # the pilot calibrates the floor
        j_pilot, proposals = params.integer("pilot_dim", 32), params.integer("pilot_proposals", 512)
    ready()
    model = models.EllipticModel(gamma=gamma)
    if y is None:
        stream = Stream(data_seed)
        y = model.forward(dim, model.prior_sample(dim, stream.generator()))
        y = y + noise * stream.child(1).generator().standard_normal(y.size)
    else:
        params.check(len(y) == len(model.obs_points), "y", "needs one value per observation point")
    is_model = independence_sampler.UniformPriorModel(
        half_widths=model.half_width,
        forward=lambda j, x: model.forward(j, x),
        y=y,
        alpha_star=1e-12 if alpha_star is None else alpha_star,
        work_exponent=model.work_exponent,
    )
    if alpha_star is None:
        # Pilot-calibrated floor, runtime-checked: half the smallest acceptance
        # over lanes of prior (x, xi) pairs, drawn pair by pair.  The model's
        # worst-case bound is far too small to schedule against.
        rng = Stream(data_seed).child(2).generator()
        x, xi = independence_sampler.propose(is_model, j_pilot, rng, (proposals, 2)).transpose(1, 0, 2)
        alphas = independence_sampler.is_acceptance(is_model, j_pilot, x, xi)
        is_model = replace(is_model, alpha_star=0.5 * float(np.min(alphas, initial=1.0)))
    return model, is_model


def _prepare_indep_sampler(params: _Section, sched: _Section, spec: _Section) -> dict:
    from . import independence_sampler

    kind = params.get("model", "elliptic")
    fname = params.get("f", "sum")
    # The schedule is read first, so the elliptic model closes both
    # sections before its pilot; a default that is the model's reads as None.
    sched_kind = sched.get("kind", "log-growth" if kind == "elliptic" else "saturating")
    if sched_kind == "log-growth":
        q, b_eff, k_eff = sched.real("q", 2.6), sched.real("beta", None), sched.real("kappa", None)
        t = sched.real("t", None)
    elif sched_kind == "saturating":
        m, dmax, rate = sched.integer("m", 2), sched.integer("max_dim", None), sched.real("rate", 0.6)
    elif sched_kind == "sequence":
        steps, dims = sched.integers("steps"), sched.integers("dims")
    else:
        raise ConfigError(f"unknown schedule kind {sched_kind!r}")

    if kind == "elliptic":
        elliptic, is_model = _elliptic_is_model(params, lambda: _close(params, sched))
        beta, kappa = elliptic.gamma - 0.5, 2.0 * (elliptic.gamma - 1.0)
    elif kind == "linear2d":
        matrix = np.asarray(params.rows("matrix", [[0.8, 0.3], [-0.2, 0.5]]), float)
        y = np.asarray(params.reals("y", [0.3, -0.1]), float)
        widths = params.reals("half_widths", [1.0, 0.5])
        alpha_star, theta = params.real("alpha_star", None), params.real("theta", 1.0)
        _close(params, sched)
        shape = (y.size, len(widths))  # a row per observation, a column per coordinate
        message = f"must be len(y) x len(half_widths) = {shape}, got {matrix.shape}"
        params.check(matrix.shape == shape, "matrix", message)
        sup_g = float(np.linalg.norm(np.abs(matrix) @ np.asarray(widths)))
        floor = math.exp(-0.5 * (np.linalg.norm(y) + sup_g) ** 2)
        is_model = independence_sampler.UniformPriorModel(
            half_widths=lambda k, w=widths: w[k - 1],
            forward=lambda j, x, A=matrix: x[..., :j] @ A[:, :j].T,
            y=y,
            alpha_star=floor if alpha_star is None else alpha_star,
            work_exponent=theta,
        )
        is_model.widths(len(widths))  # positive and nonincreasing, checked now
        beta, kappa = 2.0, 2.0
    else:
        raise ConfigError(f"unknown indep-sampler model {kind!r}")

    if sched_kind == "log-growth":
        top_dim = math.inf  # the dimensions grow without bound
        schedule, survival = independence_sampler.make_schedule(
            is_model, q, beta if b_eff is None else b_eff, kappa if k_eff is None else k_eff, t
        )
        # t_i = a_i j_i^theta with j_i ~ i^max(q, 1) and a_i ~ log i; the log
        # factor does not move the strict bound on a polynomial exponent.
        power = max(q, 1.0) * is_model.work_exponent
    elif sched_kind == "saturating":
        # Dimensions climb one per level up to the model's state size; the
        # remaining levels refine only the time direction.
        if dmax is None:
            dmax = len(widths) if kind == "linear2d" else 2
        _require(m >= 1 and dmax >= 1, "saturating schedule needs m, max_dim >= 1")
        top_dim = dmax
        schedule = LevelSchedule.arithmetic(m, lambda i: min(i + 1, dmax))
        survival = SurvivalDistribution.geometric(rate)
        power = 1.0  # t_i = m (i + 1) j_i^theta with j_i <= max_dim
    else:  # sequence
        levels = len(steps)
        _require(
            levels >= 1 and len(dims) == levels,
            "sequence schedule needs steps and dims as lists of one length L >= 1",
        )
        schedule = LevelSchedule(steps, dims)
        # Check every term now: the lists are otherwise read while sampling.
        schedule.steps_at(levels - 1)
        top_dim = schedule.dims_at(levels - 1)
        # The config must supply the law: it must end within the L levels.
        need = (
            f"a sequence schedule of L = {levels} levels needs a tabulated survival "
            f"law with at most {levels} values and no tail_ratio"
        )
        spec.check("kind" in spec.values, "kind", f"is required: {need}")
        survival, power = None, 0.0
    if kind == "linear2d":  # one state coordinate per half-width
        message = f"schedule dims reach {top_dim}, past {len(widths)} half_widths"
        _require(top_dim <= len(widths), message)
    survival = _finite_work_survival(spec, survival, 1.0, power, f"{sched_kind} indep-sampler levels")
    if sched_kind == "sequence":
        tabulated = survival.kind == "tabulated" and survival.tail_ratio is None
        _require(tabulated and survival.table.size <= levels, need)

    # Observables act row-wise on (lanes, j) states.
    f = {"sum": lambda u: np.sum(u, axis=-1), "coord1": lambda u: u[..., 0]}.get(fname)
    _require(f is not None, f"unknown observable {fname!r}")
    x0 = np.zeros(schedule.dims_at(0))
    delta_batch = independence_sampler.delta_batch(is_model, schedule, f, x0)
    return {
        "draws": functools.partial(estimate_block, delta_batch, survival),
        "dims": schedule.dims_at,
        "meta": {"alpha_star": is_model.alpha_star},
    }


def _prepare_pcn(params: _Section, sched: _Section, spec: _Section) -> dict:
    from . import pcn

    rho, a = params.real("rho", 0.7), params.real("a", 2.0)
    gname, fname = params.get("g", "norm"), params.get("f", "capped-norm")
    # Only the capped norm reads tau.
    tau = params.real("tau", 1.0) if fname == "capped-norm" else None
    variant, m, r = sched.get("variant", "bounded"), sched.integer("m", 2), sched.real("r", 0.85)
    theta, eps = sched.real("theta", 1.0), sched.real("eps", 0.25)
    _close(params, sched)
    # Log-changes and observables act row-wise on (lanes, j) states.
    if gname == "norm":
        g = lambda x: np.linalg.norm(x, axis=-1)
    elif gname == "zero":
        g = lambda x: np.zeros(np.shape(x)[:-1])
    else:
        raise ConfigError(f"unknown log-change {gname!r}")
    model = pcn.PcnModel.diagonal(
        rho, g, lambda l: float(l) ** (-2.0 * a), regularity=a, work_exponent=theta
    )
    meta = {}
    if fname == "capped-norm":
        params.check(tau > 0.0, "tau", "must be positive")
        f = lambda x: np.minimum(1.0, np.linalg.norm(x, axis=-1) / tau)
        meta = {"tau": tau}
    elif fname == "coord1":
        f = lambda x: x[..., 0]
    else:
        raise ConfigError(f"unknown observable {fname!r}")
    schedule, survival = pcn.make_schedule(model, variant, m=m, r=r, eps=eps)
    # Level i costs t_i = m (i + 1) j_i^theta, and j_i grows like g^i.
    cost_growth = pcn.dimension_growth(model, variant, m, r) ** model.work_exponent
    survival = _finite_work_survival(spec, survival, cost_growth, 1.0, "pcn levels")
    delta_batch = pcn.delta_batch(model, schedule, f, np.zeros(schedule.dims_at(0)))
    return {
        "draws": functools.partial(estimate_block, delta_batch, survival),
        "dims": schedule.dims_at,
        "meta": meta,
    }


def _prepare_logistic(params: _Section, sched: _Section, spec: _Section) -> dict:
    from . import models, pcn, tuning

    rho, coord = params.real("rho", 0.5), params.integer("coordinate", 1)
    n_obs, data_seed = params.integer("n_obs", 100), params.integer("data_seed", 7)
    # rwm_steps: the key's name from when a random-walk chain made the fit.
    alias = params.integer("rwm_steps", None)
    draws = params.integer("reference_draws", 200_000 if alias is None else alias)
    fit_seed, pilot_seed = params.integer("fit_seed", 101), params.integer("pilot_seed", 55)
    pilot_steps, pilot_reps = params.integer("pilot_steps", 40), params.integer("pilot_replicates", 200)
    params.close()
    # The config's own law is checked before the fit and the pilot, whose
    # contraction rate fixes the schedule: the config gives none.
    law = _finite_work_survival(spec, None, *_ARITHMETIC_WORK) if spec.values else None
    sched.close()
    given_both = alias is not None and "reference_draws" in params.values
    params.check(not given_both, "reference_draws", "or its alias rwm_steps: give one, not both")
    model = models.LogisticModel.synthetic(n_obs=n_obs, seed=data_seed)
    params.check(1 <= coord <= model.dim, "coordinate", f"must lie in 1..{model.dim}")
    fit = models.logistic_reference_fit(model, draws, seed=fit_seed)
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
        pair=(pcn.PcnState(center + spread), pcn.PcnState(center - spread)),
        n_steps=pilot_steps,
        replicates=pilot_reps,
        stream=Stream(pilot_seed),
    )
    r = math.exp(0.5 * pilot.slope)
    m = tuning.step_multiplier(r)
    schedule = LevelSchedule.arithmetic(m, lambda i: model.dim)
    if law is None:
        law = _finite_work_survival(None, SurvivalDistribution.geometric(r**m), *_ARITHMETIC_WORK)
    delta_batch = pcn.delta_batch(chain, schedule, lambda beta: beta[:, coord - 1], center)
    return {
        "draws": functools.partial(estimate_block, delta_batch, law),
        "dims": schedule.dims_at,
        "meta": {
            "contraction_slope": pilot.slope,
            "contraction_rate": r,
            "step_multiplier": m,
            "reference_center": [float(c) for c in center],
            "reference_ess": fit.ess,
        },
    }


def _prepare_tune(params: _Section, sched: _Section, spec: _Section) -> dict:
    from . import tuning

    # No sampling: one row per grid point, the ansatz-tuned step multiplier
    # and MSE-work product against the ergodic average's limit.
    grid = params.reals("rho_grid", [round(0.50 + 0.05 * k, 2) for k in range(10)])
    _close(params, sched, spec)
    params.check(len(grid) > 0, "rho_grid", "must be a nonempty list")
    w = tuning.OPTIMAL_W
    m = [tuning.step_multiplier(rho, w) for rho in grid]
    product = np.array([tuning.unbiased_msework(rho, k) for rho, k in zip(grid, m)])
    ergodic = np.array([tuning.ergodic_msework_limit(rho) for rho in grid])
    table = {"rho": np.array(grid), "m": np.array(m, dtype=np.int64), "product": product, "ergodic": ergodic}
    table["ratio"] = product / ergodic
    return {"table": table, "meta": {"w": w, "rho_grid": grid, "max_ratio": float(table["ratio"].max())}}


EXPERIMENTS: dict[str, Callable[[_Section, _Section, _Section], dict]] = {
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
    names = ("params", "schedule", "survival")
    sections = [_Section(getattr(config, name), name, config.experiment) for name in names]
    # A plan is built from the config alone (pilot fits included), so a
    # value it rejects or a wrong type is a config error; failures while
    # sampling stay runtime errors.
    try:
        plan = prepare(*sections)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{config.experiment}: {exc}") from exc
    # Each plan closes its sections before it builds; closing them again
    # makes any key that no branch read an error, whichever branch ran.
    _close(*sections)
    return plan


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


def _run_block_task(config_json: str, task: int, count: int, seed: int):
    """Task ``task``: ``count`` replicates on the stream ``(seed, task)``;
    returns ``(task, records)``."""
    plan = _prepare_cached(config_json)
    out = plan["draws"](Stream(seed).child(task), count)
    dims = [plan["dims"](i) for i in range(int(out["N"].max()) + 1)]
    out["level_max_dim"] = np.array(dims, dtype=np.int64)[out["N"]]
    return task, out


def _run_blocks(config: ExperimentConfig) -> tuple[dict, dict]:
    """Prepare the plan and run every task; returns ``(plan, records)``.

    Records are the per-draw columns concatenated in task order, so they
    do not depend on ``config.parallel``; a table plan's are its table.
    """
    if config.replicates < 1:
        raise ConfigError("replicates must be >= 1")
    if config.parallel < 1:
        raise ConfigError("parallel must be >= 1")
    if config.seed < 0:
        raise ConfigError("seed must be >= 0")
    key = _config_key(config)
    plan = _prepare_cached(key)
    if "table" in plan:
        return plan, plan["table"]
    size = SUPER_BLOCK * BLOCK_SIZE
    tasks = [
        (key, t, min(size, config.replicates - lo), config.seed)
        for t, lo in enumerate(range(0, config.replicates, size))
    ]
    # Never more workers than tasks: a fork start launches every worker at once.
    workers = min(config.parallel, len(tasks))
    if workers == 1:
        results = [_run_block_task(*t) for t in tasks]
    else:
        # Imported here: multiprocessing costs every serial run ~20 ms of startup.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    ``msework_product`` are then ``None`` (JSON ``null``).  A table plan
    draws nothing: it emits its table (``<experiment>-table.csv``) and a
    summary of its ``rows`` and ``columns``, with no estimator figures.
    """
    if config.out is not None:  # an unusable output path fails before sampling
        try:
            Path(config.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {config.out!r}: {exc}") from exc
    plan, records = _run_blocks(config)
    if "table" in plan:
        summary = {"rows": len(next(iter(records.values()))), "columns": list(records)}
    else:
        z = records["z"]
        n = z.size
        mean, variance, total_work = draw_statistics(z, records["work"])
        expected_work = total_work / n
        if n == 1:
            variance = None
        summary = {
            "replicates": n,
            "seed": config.seed,
            "mean": mean,
            "variance": variance,
            "se": None if variance is None else math.sqrt(variance / n),
            "expected_work": expected_work,
            "msework_product": None if variance is None else variance * expected_work,
            "max_level": int(records["N"].max()),
            "columns": ["replicate"] + list(records.keys()),
        }
    summary.update(experiment=config.experiment, config=config.to_dict(), **plan["meta"])
    if config.out is not None:
        _write_outputs(config, records, summary)
    return summary


def _write_outputs(config: ExperimentConfig, records: dict, summary: dict):
    columns = list(records.keys())
    # Draws (N, z, work, ...) lead with their replicate index; a table's
    # rows are written as they stand.
    draws = "z" in records
    csv_path = Path(config.out) / f"{config.experiment}-{'draws' if draws else 'table'}.csv"
    # Integer columns as %d, the rest as %.17g: the routine of format(x, ".17g").
    kinds = ["%d" if records[c].dtype.kind in "iu" else "%.17g" for c in columns]
    template = ",".join(["%d"] * draws + kinds) + "\n"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["replicate"] * draws + columns) + "\n")
        for lo in range(0, records[columns[0]].size, BLOCK_SIZE):
            chunk = [records[c][lo : lo + BLOCK_SIZE].tolist() for c in columns]
            rows = zip(itertools.count(lo), *chunk) if draws else zip(*chunk)
            fh.write((template * len(chunk[0])) % tuple(itertools.chain.from_iterable(rows)))
    json_path = Path(config.out) / f"{config.experiment}-summary.json"
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    summary["csv_path"] = str(csv_path)
    summary["json_path"] = str(json_path)


# ---------------------------------------------------------------------------
# Ergodic baseline
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
