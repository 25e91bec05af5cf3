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

from .couplings import (
    CoupledKernel,
    LevelSchedule,
    MarkovKernel,
    _level_difference,
    _positive_nonincreasing,
    _run_batches,
    _tile,
    contraction_delta_batch,
    pad_to,
)
from .estimator import SurvivalDistribution

__all__ = [
    "PcnModel",
    "PcnState",
    "propose_noise",
    "pcn_step",
    "coupled_pcn_step",
    "delta_batch",
    "sampler_step",
    "kernel",
    "coupling",
    "make_schedule",
    "dimension_growth",
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
    center: np.ndarray | None = None
    covariance: np.ndarray | None = None
    work_exponent: float = 1.0
    # Derived from the fields above, so never shared by a replaced copy.
    _chol: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _eigs: np.ndarray = field(default_factory=lambda: np.empty(0), init=False, repr=False, compare=False)

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
        work_exponent: float = 1.0,
    ) -> "PcnModel":
        return cls(
            rho=rho,
            log_change=log_change,
            eigenvalues=eigenvalues,
            regularity=regularity,
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
            return neg_log_target(x) - 0.5 * np.einsum("...i,...i->...", r @ cov_inv, r)

        return cls(
            rho=rho, log_change=log_change, center=center, covariance=covariance
        )

    @property
    def recentred(self) -> bool:
        return self.center is not None

    def scales(self, j: int) -> np.ndarray:
        """``sqrt(lambda_1..lambda_j)``, the eigenvalues checked positive and
        nonincreasing on first use."""
        self._eigs = _positive_nonincreasing(self._eigs, self.eigenvalues, j, "reference eigenvalues")
        return np.sqrt(self._eigs[:j])


@dataclass(frozen=True)
class PcnState:
    """Chain state(s) ``x``, one ``(j,)`` state or ``(lanes, j)`` lanes,
    carried with the log-change ``g(x)`` (``None`` until a step fills it
    in), so a step evaluates ``g`` at its proposal only."""

    x: np.ndarray
    g: np.ndarray | None = None

    def __getitem__(self, lanes) -> "PcnState":
        """The state of the lanes ``lanes`` (a slice or index of the lane axis)."""
        return PcnState(self.x[lanes], None if self.g is None else self.g[lanes])


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
    or lanes ``(..., j)`` with a noise row and a uniform per lane (or
    broadcast over leading lane axes), each row stepping exactly as a 1-d
    state would; a :class:`PcnState` comes back as one, carrying ``g`` of
    the new state.
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
    if np.shape(g_proposal) != x.shape[:-1]:
        raise ValueError("log_change must give one value per state row")
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


def delta_batch(
    model: PcnModel,
    schedule: LevelSchedule,
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
) -> Callable[[list, Callable[[int], np.random.Generator]], list]:
    """Coupled level differences of the truncation hierarchy, as the
    ``delta_batch`` of :func:`~ubmc.estimator.estimate_block`: phases as
    in :func:`ubmc.couplings.contraction_delta_batch` at dimensions
    ``j_i`` (top) and ``j_{i-1}`` (bottom), sharing ``(noise, uniform)``
    in the joint phase, with work ``a_i * j_i^work_exponent``.  Each run
    of levels steps as one zero-padded ``(pairs, j_i)`` chain (recentred
    mode: :func:`~ubmc.couplings.contraction_delta_batch` on
    :func:`kernel` and :func:`coupling`, every chain a :class:`PcnState`
    that starts carrying ``g(x0)``, taken once); ``f`` maps ``(lanes, j)``
    rows to ``(lanes,)`` and ``model.log_change`` ``(..., j)`` rows to
    ``(...)``.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if model.recentred:
        start = PcnState(x0, model.log_change(x0))
        return contraction_delta_batch(kernel(model), coupling(model), schedule, lambda s: f(s.x), start)
    # _delta is looked up at call time, as the benchmark's trace probe needs.
    return _run_batches(schedule, lambda first, counts, rng: _delta(
        model, schedule, first, counts, f, _tile(x0, sum(counts)), rng
    ))


def _delta(model, schedule, first, counts, f, x0, rng):
    def joint(j_lo, j_hi):
        def step(pair, rng):
            top, bottom = pair
            w = _randomness(model, j_hi, top, rng)
            bottom, top = coupled_pcn_step(model, (j_lo, j_hi), (bottom, top), w)
            return top, bottom

        return step

    def embed(x, j):
        return PcnState(pad_to(x.x if isinstance(x, PcnState) else x, j))

    return _level_difference(
        schedule, first, counts, x0, lambda s: f(s.x), rng, lambda j: kernel(model, j), joint, embed
    )


def kernel(model: PcnModel, j: int | None = None) -> MarkovKernel:
    """Fixed-dimension chain as a generic kernel.

    ``j`` is the truncation dimension in diagonal mode and ignored in
    recentred mode.
    """
    dim = _fixed_dim(model, j)

    def step(x, rng):
        return sampler_step(model, dim, x, rng)

    return MarkovKernel(step=step, work_per_step=float(dim) ** model.work_exponent)


def coupling(model: PcnModel, j: int | None = None) -> CoupledKernel:
    """Basic shared-randomness coupling at a fixed dimension, ``j`` as in
    :func:`kernel`.

    Both chains step as one ``(2, lanes, j)`` array (a 1-d state as one
    lane), so a coupled step is one :func:`pcn_step` and one call of
    ``model.log_change`` on the proposals.  numpy's stacked products take
    each chain's rows through the BLAS calls a step of that chain alone
    makes, so both come out with the bits of two separate steps.  A
    :class:`PcnState` chain with no ``g`` yet gets it from its own rows
    when the other carries one.
    """
    dim = _fixed_dim(model, j)

    def joint(pair, rng):
        states = [s if isinstance(s, PcnState) else PcnState(s) for s in pair]
        shape = np.shape(states[0].x)
        w = _randomness(model, dim, states[0], rng)
        g = [s.g for s in states]
        if (g[0] is None) != (g[1] is None):
            g = [model.log_change(s.x) if v is None else v for s, v in zip(states, g)]
        stacked = PcnState(
            np.stack([s.x for s in states]).reshape(2, -1, shape[-1]),
            None if g[0] is None else np.stack(g).reshape(2, -1),
        )
        moved = pcn_step(model, dim, stacked, w)
        return tuple(
            PcnState(moved.x[k].reshape(shape), moved.g[k].reshape(shape[:-1]))
            if isinstance(s, PcnState) else moved.x[k].reshape(shape)
            for k, s in enumerate(pair)
        )

    return CoupledKernel(step=joint)


def _fixed_dim(model: PcnModel, j: int | None) -> int:
    """The state dimension of a fixed-dimension chain: the reference's in
    recentred mode, else ``j``, which diagonal mode requires."""
    if model.recentred:
        return model.center.size
    if j is None:
        raise ValueError("diagonal mode needs the dimension j")
    return j


def _dims_exponent(model: PcnModel, variant: str, m: int) -> float:
    """``c m / (1 - 2a)``: :func:`make_schedule`'s dimensions are
    ``ceil(r^(exponent i))``, with ``c = 2``, or ``4`` when unbounded."""
    return (2.0 if variant == "bounded" else 4.0) * m / (1.0 - 2.0 * model.regularity)


def dimension_growth(model: PcnModel, variant: str, m: int, r: float) -> float:
    """The ratio ``g`` of :func:`make_schedule`'s dimensions, ``j_i ~ g^i``."""
    return r ** _dims_exponent(model, variant, m)


def make_schedule(
    model: PcnModel, variant: str, m: int, r: float, eps: float
) -> tuple[LevelSchedule, SurvivalDistribution]:
    """Schedule with arithmetic steps and geometrically growing dimensions.

    ``r`` is the fixed-dimension contraction rate of the basic coupling
    (estimated by a pilot; no closed form is available); the per-step
    cost exponent ``theta`` is the model's ``work_exponent``, the one
    :func:`kernel` counts work with.  ``variant`` selects the function
    class: ``"bounded"`` (capped-distance Holder observables) pairs the level
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
    a, theta = model.regularity, model.work_exponent
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
    exponent = _dims_exponent(model, variant, m)  # negative, so dims grow

    dims = lambda k: max(math.ceil(r ** (exponent * k)), k + 1)
    schedule = LevelSchedule.arithmetic(m, dims)
    survival = SurvivalDistribution.geometric(r ** (m - eps))
    return schedule, survival
