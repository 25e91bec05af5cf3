"""Preconditioned Crank-Nicolson sampling and its couplings.

The proposal ``x^ = rho x + sqrt(1 - rho^2) xi`` with ``xi`` drawn from
the Gaussian reference measure leaves that measure invariant, so the
Metropolis correction only involves the log-change of measure ``g`` and
the algorithm is well defined at every truncation dimension.  Two chains
at dimensions ``j_lo <= j_hi`` are coupled by sharing the proposal noise
(projected for the low chain) and the acceptance uniform; at a fixed
dimension the same construction is the basic shared-randomness coupling,
which contracts in a capped-norm distance.

A recentred variant replaces the reference by ``N(center, covariance)``,
for targets whose mass sits far from the prior; the acceptance then uses
the log-density relative to the recentred Gaussian so that detailed
balance is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import couplings
from .couplings import (
    CoupledKernel,
    LevelSchedule,
    MarkovKernel,
    _level_difference,
    pad_to,
    strictly_increasing,
)
from .estimator import LevelDifferenceGenerator, SurvivalDistribution

__all__ = [
    "PcnModel",
    "PcnState",
    "PcnDistance",
    "pcn_distance",
    "pcn_acceptance",
    "propose_noise",
    "pcn_step",
    "coupled_pcn_step",
    "delta_generator",
    "delta_batch",
    "sampler_step",
    "kernel",
    "coupling",
    "make_schedule",
]


@dataclass
class PcnModel:
    """Target ``dmu/dmu0 ∝ exp(-g)`` for a Gaussian reference ``mu0``.

    Diagonal mode: ``eigenvalues(l)`` gives the reference variances
    ``lambda_l <= l^-2a`` (1-indexed, nonincreasing) and states live in
    truncation spaces of any dimension.  Recentred mode: ``center`` and
    ``covariance`` fix a finite-dimensional reference ``N(center, C)``
    and the truncation machinery does not apply.
    """

    rho: float
    log_change: Callable[[np.ndarray], float]
    eigenvalues: Callable[[int], float] | None = None
    regularity: float | None = None
    lipschitz: float | None = None
    center: np.ndarray | None = None
    covariance: np.ndarray | None = None
    work_exponent: float = 1.0
    # Derived from the fields above, so never shared by a replaced copy.
    _chol: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _eig_cache: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if (self.center is None) != (self.covariance is None):
            raise ValueError("recentred mode needs both center and covariance")
        if self.center is not None:
            self.center = np.asarray(self.center, dtype=float)
            self.covariance = np.asarray(self.covariance, dtype=float)
            self._chol = np.linalg.cholesky(self.covariance)
        elif self.eigenvalues is None:
            raise ValueError("diagonal mode needs the eigenvalue accessor")

    @classmethod
    def diagonal(
        cls,
        rho: float,
        log_change: Callable[[np.ndarray], float],
        eigenvalues: Callable[[int], float],
        regularity: float,
        lipschitz: float | None = None,
        work_exponent: float = 1.0,
    ) -> "PcnModel":
        return cls(
            rho=rho,
            log_change=log_change,
            eigenvalues=eigenvalues,
            regularity=regularity,
            lipschitz=lipschitz,
            work_exponent=work_exponent,
        )

    @classmethod
    def gaussian_reference(
        cls,
        rho: float,
        neg_log_target: Callable[[np.ndarray], float],
        center,
        covariance,
    ) -> "PcnModel":
        """Recentred chain preserving ``N(center, covariance)``.

        The log-change of measure relative to the recentred reference is
        ``-log target + log reference-density`` up to constants, which is
        exactly what the acceptance ratio needs for detailed balance.
        It is row-wise, as the lane steps need, when ``neg_log_target`` is.
        """
        center = np.asarray(center, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        cov_inv = np.linalg.inv(covariance)

        def log_change(x: np.ndarray) -> float:
            r = np.asarray(x, dtype=float) - center
            return neg_log_target(x) - 0.5 * np.einsum("...i,ij,...j->...", r, cov_inv, r)

        return cls(
            rho=rho, log_change=log_change, center=center, covariance=covariance
        )

    @property
    def recentred(self) -> bool:
        return self.center is not None

    def scales(self, j: int) -> np.ndarray:
        """``sqrt(lambda_1..lambda_j)`` with monotonicity checked lazily."""
        cache = self._eig_cache
        while len(cache) < j:
            l = len(cache) + 1
            lam = float(self.eigenvalues(l))
            if lam <= 0.0:
                raise ValueError("reference eigenvalues must be positive")
            if cache and lam > cache[-1] + 1e-15:
                raise ValueError("reference eigenvalues must be nonincreasing")
            cache.append(lam)
        return np.sqrt(np.asarray(cache[:j]))


@dataclass(frozen=True)
class PcnDistance:
    """Capped-norm distance and its energy-weighted companion.

    ``capped``: ``d(x, y) = 1 ^ |x - y| / tau`` (a bounded metric).
    ``weighted``: ``sqrt(d_capped (1 + V(x) + V(y)))`` with
    ``V(x) = exp(|x|)``, a distance-like function suited to unbounded
    observables.
    """

    variant: str = "capped"
    tau: float = 1.0

    def __post_init__(self):
        if self.variant not in ("capped", "weighted"):
            raise ValueError("variant must be 'capped' or 'weighted'")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")

    def __call__(self, x, y) -> float:
        return pcn_distance(self.variant, self.tau, x, y)


def pcn_distance(variant: str, tau: float, x, y):
    """Evaluate the capped or energy-weighted distance, one value per row
    of ``(lanes, j)`` states; states of unequal dimension are compared
    through zero-padding."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    x, y = np.atleast_1d(x, y)
    n = max(x.shape[-1], y.shape[-1])
    x, y = pad_to(x, n), pad_to(y, n)
    capped = np.minimum(1.0, np.linalg.norm(x - y, axis=-1) / tau)
    if variant == "capped":
        return capped
    if variant == "weighted":
        nx, ny = np.linalg.norm(x, axis=-1), np.linalg.norm(y, axis=-1)
        return np.sqrt(capped * (1.0 + np.exp(nx) + np.exp(ny)))
    raise ValueError("variant must be 'capped' or 'weighted'")


@dataclass(frozen=True)
class PcnState:
    """Chain state(s) ``x``, one ``(j,)`` state or ``(lanes, j)`` lanes,
    carried with the log-change ``g(x)`` (``None`` until a step fills it
    in), so a step evaluates ``g`` at its proposal only."""

    x: np.ndarray
    g: np.ndarray | None = None


def pcn_acceptance(model: PcnModel, x: np.ndarray, proposal: np.ndarray) -> float:
    """``1 ^ exp(g(x) - g(x^))``, one value per lane for ``(lanes, j)`` states."""
    return _acceptance(model.log_change(x) - model.log_change(proposal))


def _acceptance(log_ratio):
    if not np.isfinite(log_ratio).all():
        raise ValueError("log-change of measure returned a non-finite value")
    return np.exp(np.minimum(log_ratio, 0.0))


def propose_noise(model: PcnModel, j: int, rng: np.random.Generator, lanes: tuple = ()) -> np.ndarray:
    """Reference-measure noise: ``sqrt(lambda_l) zeta_l`` coordinatewise,
    or ``chol(C) zeta`` in recentred mode (``j`` ignored there); one row
    per lane for ``lanes = (count,)``."""
    if model.recentred:
        return rng.standard_normal((*lanes, model.center.size)) @ model._chol.T
    return model.scales(j) * rng.standard_normal((*lanes, j))


def _randomness(model: PcnModel, j: int, x, rng: np.random.Generator) -> tuple:
    """``(noise, uniform)`` of one step of ``x``: a row and a uniform per lane."""
    lanes = np.shape(x.x if isinstance(x, PcnState) else x)[:-1]
    return propose_noise(model, j, rng, lanes), rng.random(lanes or None)


def pcn_step(model: PcnModel, j: int, x, w: tuple[np.ndarray, float]):
    """One step at dimension ``j`` driven by ``w = (noise, uniform)``.

    Proposal ``rho x + sqrt(1 - rho^2) noise`` (recentred around
    ``center`` in recentred mode), accepted when ``u <= 1 ^ exp(g(x) -
    g(proposal))``: ``u == 0`` always accepts, and an acceptance that
    underflows to 0 rejects every ``u > 0``.  ``x`` is one state ``(j,)``
    or lanes ``(lanes, j)`` with a noise row and a uniform per lane, each
    row stepping exactly as a 1-d state would; a :class:`PcnState` comes
    back as one, carrying ``g`` of the new state.
    """
    xi, u = w
    state = x if isinstance(x, PcnState) else None
    x = np.atleast_1d(np.asarray(x if state is None else state.x, dtype=float))
    spread = math.sqrt(1.0 - model.rho**2)
    if model.recentred:
        proposal = model.center + model.rho * (x - model.center) + spread * xi
    else:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))[..., :j]
        proposal = model.rho * x + spread * xi
    g_x = model.log_change(x) if state is None or state.g is None else state.g
    g_proposal = model.log_change(proposal)
    accept = u <= _acceptance(g_x - g_proposal)
    moved = np.where(accept[..., None], proposal, x)
    return moved if state is None else PcnState(moved, np.where(accept, g_proposal, g_x))


def coupled_pcn_step(
    model: PcnModel,
    dims: tuple[int, int],
    states: tuple,
    w: tuple[np.ndarray, float],
) -> tuple:
    """Joint step: shared noise (projected for the low chain), shared uniform."""
    j_lo, j_hi = dims
    if j_lo > j_hi:
        raise ValueError("need j_lo <= j_hi")
    x_lo, x_hi = states
    xi, u = w
    new_hi = pcn_step(model, j_hi, x_hi, (xi, u))
    new_lo = pcn_step(model, j_lo, x_lo, (np.asarray(xi)[..., :j_lo], u))
    return new_lo, new_hi


def sampler_step(model: PcnModel, j: int, x, rng: np.random.Generator):
    """One step with freshly drawn randomness."""
    return pcn_step(model, j, x, _randomness(model, j, x, rng))


def delta_generator(
    model: PcnModel,
    schedule: LevelSchedule,
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
) -> LevelDifferenceGenerator:
    """Coupled level differences of the truncation hierarchy.

    Phases as in :func:`ubmc.couplings.contraction_delta_generator`, at
    dimensions ``j_i`` (top) and ``j_{i-1}`` (bottom) from the zero-padded
    start, sharing ``(noise, uniform)`` in the joint phase.  Work is
    ``a_i * j_i^work_exponent``.
    """

    def gen(level: int, rng: np.random.Generator):
        return _delta(model, schedule, level, f, x0, rng)

    return gen


def delta_batch(
    model: PcnModel,
    schedule: LevelSchedule,
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
) -> Callable[[int, int, np.random.Generator], tuple]:
    """The ``delta_batch`` of :func:`~ubmc.estimator.estimate_block`: all
    lanes of a level step as one ``(lanes, j_i)`` chain from ``x0``, each
    with the law of one :func:`delta_generator` draw (recentred mode: one
    draw of the fixed-space driver on :func:`kernel` and :func:`coupling`).
    ``f`` and ``model.log_change`` map ``(lanes, j)`` rows to ``(lanes,)``.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not model.recentred:
        return lambda level, lanes, rng: _delta(
            model, schedule, level, f, np.tile(x0, (lanes, 1)), rng
        )
    chain, joint = kernel(model), coupling(model)
    # Looked up on the module at call time, as the benchmark's trace probe needs.
    return lambda level, lanes, rng: couplings._delta(
        chain, joint, schedule, level, PcnState(np.tile(x0, (lanes, 1))),
        lambda s: f(s.x), rng,
    )


def _delta(model, schedule, level, f, x0, rng):
    if model.recentred:
        raise ValueError("truncation levels require the diagonal reference")

    def lone(j):
        return lambda x, rng: sampler_step(model, j, x, rng)

    def joint(j_lo, j_hi):
        def step(pair, rng):
            top, bottom = pair
            w = _randomness(model, j_hi, top, rng)
            bottom, top = coupled_pcn_step(model, (j_lo, j_hi), (bottom, top), w)
            return top, bottom

        return step

    def embed(x, j):
        return PcnState(pad_to(x.x if isinstance(x, PcnState) else x, j))

    def cost(j):
        return float(j) ** model.work_exponent

    return _level_difference(
        schedule, level, x0, lambda s: f(s.x), rng, lone, joint, embed, cost
    )


def kernel(model: PcnModel, j: int | None = None) -> MarkovKernel:
    """Fixed-dimension chain as a generic kernel.

    ``j`` is the truncation dimension in diagonal mode and ignored in
    recentred mode.
    """
    if model.recentred:
        dim = model.center.size
    else:
        if j is None:
            raise ValueError("diagonal mode needs the dimension j")
        dim = j

    def step(x, rng):
        return sampler_step(model, dim, x, rng)

    return MarkovKernel(
        step=step, work_per_step=float(dim) ** model.work_exponent, dim=dim
    )


def coupling(model: PcnModel, j: int | None = None) -> CoupledKernel:
    """Basic shared-randomness coupling at a fixed dimension."""
    marginal = kernel(model, j)
    dim = marginal.dim

    def joint(pair, rng):
        x, y = pair
        w = _randomness(model, dim, x, rng)
        return (
            pcn_step(model, dim, x, w),
            pcn_step(model, dim, y, w),
        )

    return CoupledKernel(step=joint, marginal=marginal)


def make_schedule(
    model: PcnModel,
    variant: str,
    m: int,
    r: float,
    theta: float,
    eps: float,
) -> tuple[LevelSchedule, SurvivalDistribution]:
    """Schedule with arithmetic steps and geometrically growing dimensions.

    ``r`` is the fixed-dimension contraction rate of the basic coupling
    (estimated by a pilot; no closed form is available) and ``theta`` the
    per-step cost exponent.  ``variant`` selects the function class:
    ``"bounded"`` (capped-distance Holder observables) pairs the level
    dimensions ``j_i = ceil(r^(2 m i / (1 - 2a)))`` with regularity
    ``a > theta + 1/2``; ``"unbounded"`` (energy-weighted 1/2-Holder
    observables) needs ``a > 2 theta + 1/2`` and dimensions growing twice
    as fast.  The truncation law is geometric with rate ``r^(m - eps)``
    where ``eps`` must lie in ``(0, m - c theta m / (2a - 1))`` for
    ``c = 2`` or ``4``; the upper limit is the sign-corrected reading of
    the admissible interval (its raw form is negative under the standing
    assumptions).
    """
    if model.recentred or model.regularity is None:
        raise ValueError("schedules require a diagonal model with declared regularity")
    a = model.regularity
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not 0.0 < r < 1.0:
        raise ValueError("contraction rate r must lie in (0, 1)")
    if theta < 1.0:
        raise ValueError("cost exponent theta must be >= 1")
    if variant == "bounded":
        if not a > theta + 0.5:
            raise ValueError(f"requires a > theta + 1/2 = {theta + 0.5}")
        growth = 2.0
    elif variant == "unbounded":
        if not a > 2.0 * theta + 0.5:
            raise ValueError(f"requires a > 2 theta + 1/2 = {2.0 * theta + 0.5}")
        growth = 4.0
    else:
        raise ValueError("variant must be 'bounded' or 'unbounded'")
    eps_ub = m - growth * theta * m / (2.0 * a - 1.0)
    if not 0.0 < eps < eps_ub:
        raise ValueError(
            f"requires 0 < eps < m - {growth:g} theta m / (2a - 1) = {eps_ub}"
        )
    exponent = growth * m / (1.0 - 2.0 * a)  # negative, so dims grow

    dims = strictly_increasing(lambda k: math.ceil(r ** (exponent * k)))
    schedule = LevelSchedule(lambda i: m * (i + 1), dims)
    survival = SurvivalDistribution.geometric(r ** (m - eps))
    return schedule, survival
