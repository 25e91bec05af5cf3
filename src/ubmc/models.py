"""Concrete target models for the estimator pipelines.

Four models exercise every pipeline in the package: a scalar Gaussian
autoregression with a shared-noise contracting coupling, a uniform random
walk on the circle with a maximal one-step coupling, Bayesian logistic
regression driven by a recentred proposal chain, and a one-dimensional
elliptic inverse problem with a uniform series prior.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .couplings import CoupledKernel, LevelSchedule, MarkovKernel, contraction_delta_batch, pad_to
from .estimator import BLOCK_SIZE, SurvivalDistribution, estimate_block
from .rng import LaneGenerator, Stream

TWO_PI = 2.0 * math.pi

__all__ = [
    "ContractingNormalsModel",
    "contracting_normals_coupling",
    "contracting_unbiased_block",
    "CircleChainModel",
    "circle_maximal_coupling",
    "LogisticModel",
    "logistic_posterior_logdensity",
    "logistic_reference_fit",
    "ReferenceFit",
    "EllipticModel",
    "elliptic_forward",
]


# ---------------------------------------------------------------------------
# Contracting normals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractingNormalsModel:
    """Scalar autoregression ``X' = rho X + sqrt(1 - rho^2) xi``.

    The stationary law is standard normal; sharing the innovation between
    two copies contracts their gap by exactly ``rho`` per step.
    """

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")

    def kernel(self) -> MarkovKernel:
        rho, scale = self.rho, math.sqrt(1.0 - self.rho**2)

        def step(x, rng):
            return rho * x + scale * rng.standard_normal(getattr(x, "shape", None) or None)

        return MarkovKernel(step=step, work_per_step=1.0)

    def coupling(self) -> CoupledKernel:
        rho = self.rho

        def joint(pair, rng):
            noise = rng.standard_normal(getattr(pair[0], "shape", None) or None)
            return contracting_normals_coupling(pair, noise, rho)

        return CoupledKernel(step=joint)


def contracting_normals_coupling(pair, noise, rho: float) -> tuple:
    """Shared-noise joint step; the gap contracts deterministically by ``rho``."""
    x, y = pair
    scale = math.sqrt(1.0 - rho**2)
    return rho * x + scale * noise, rho * y + scale * noise


def contracting_unbiased_block(
    rho: float,
    schedule: LevelSchedule,
    survival: SurvivalDistribution,
    streams: list[Stream],
    counts: list[int],
    x0: float = 0.0,
) -> dict:
    """Blocks of unbiased draws, ``counts[b]`` on ``streams[b]``: the
    model's kernel and coupling bound by
    :func:`~ubmc.couplings.contraction_delta_batch` into
    :func:`~ubmc.estimator.estimate_block`.  Returns arrays ``N``, ``z``
    and ``work``, block after block.
    """
    model = ContractingNormalsModel(rho)
    delta_batch = contraction_delta_batch(
        model.kernel(), model.coupling(), schedule, lambda x: x, x0
    )
    return estimate_block(delta_batch, survival, streams, counts)


# ---------------------------------------------------------------------------
# Circle chain
# ---------------------------------------------------------------------------


def _circle_step(x, rng: np.random.Generator):
    # U ~ U[-2, 2) as -2 + 4 u: the bits Generator.uniform(-2.0, 2.0) gives.
    return (x + (-2.0 + 4.0 * rng.random(getattr(x, "shape", None) or None))) % TWO_PI


@dataclass(frozen=True)
class CircleChainModel:
    """Random walk ``X' = (X + U) mod 2 pi`` with ``U ~ U[-2, 2]``.

    One-step supports from any two states overlap on an arc of length at
    least ``8 - 2 pi``, so the maximal coupling meets with probability at
    least ``(8 - 2 pi) / 4`` regardless of the states.  The stationary law
    is uniform on the circle.
    """

    def kernel(self) -> MarkovKernel:
        return MarkovKernel(step=_circle_step, work_per_step=1.0)

    def coupling(self) -> CoupledKernel:
        return CoupledKernel(step=circle_maximal_coupling)


def circle_maximal_coupling(pair, rng: np.random.Generator) -> tuple:
    """One-step maximal coupling of the circle chain, per state or per lane.

    The first chain takes an ordinary step ``y1``.  If ``y1`` lies on the
    second chain's arc ``A_x2`` both chains move there, which happens with
    probability ``|A_x1 ∩ A_x2| / 4`` at a point uniform on the overlap.
    Otherwise ``y1`` is uniform on ``A_x1 \\ A_x2`` and the second chain
    draws independently and uniformly from ``A_x2 \\ A_x1``.  That residual
    is one arc of length ``min(d, 2 pi - 4)``, for circular distance ``d``,
    next to the end of ``A_x1`` that faces ``x2``.  It is drawn directly,
    with one uniform per lane that does not meet: a rejection loop would
    not end when the states differ only by rounding.
    """
    x1, x2 = pair
    y1 = _circle_step(x1, rng)
    apart = (x1 != x2) & ((y1 - x2 + 2.0) % TWO_PI >= 4.0)
    gap = (x2 - x1) % TWO_PI
    width = np.minimum(np.minimum(gap, TWO_PI - gap), TWO_PI - 4.0)
    start = np.where(gap <= math.pi, x1 + 2.0, x1 - 2.0 - width)
    y2 = np.array(y1, dtype=float)
    # A super-block's residual uniforms come from each block's apart lanes.
    residual = rng.where(apart) if isinstance(rng, LaneGenerator) else rng
    y2[apart] = (start[apart] + residual.random(np.count_nonzero(apart)) * width[apart]) % TWO_PI
    return y1, y2[()]


# ---------------------------------------------------------------------------
# Bayesian logistic regression
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class LogisticModel:
    """Logistic regression with a standard normal prior on the coefficients.

    The posterior density is ``exp(-|beta|^2 / 2) * prod_i h(y_i beta . T_i)``
    with ``h`` the logistic function, labels ``y_i`` in ``{-1, +1}`` and a
    fixed design matrix ``T``.
    """

    design: np.ndarray
    labels: np.ndarray

    @classmethod
    def synthetic(
        cls,
        n_obs: int = 100,
        seed: int = 7,
        beta_true: Sequence[float] = (1.0, -1.0, 0.5),
    ) -> "LogisticModel":
        """Seed-fixed design (two Gaussian columns plus intercept) and labels
        drawn from the model at ``beta_true``."""
        rng = Stream(seed).generator()
        beta_true = np.asarray(beta_true, dtype=float)
        design = np.column_stack(
            [rng.standard_normal((n_obs, beta_true.size - 1)), np.ones(n_obs)]
        )
        probs = _sigmoid(design @ beta_true)
        labels = np.where(rng.random(n_obs) < probs, 1.0, -1.0)
        return cls(design=design, labels=labels)

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    @functools.cached_property
    def _neg_margins(self) -> np.ndarray:
        """``(d, n_obs)``: ``beta @ _neg_margins`` is ``-y_i beta . T_i``."""
        return np.ascontiguousarray(-(self.labels[:, None] * self.design).T)

    @functools.cached_property
    def _margin_sums(self) -> np.ndarray:
        """``(d,)``: ``beta @ _margin_sums`` is ``sum_i -y_i beta . T_i``."""
        return self._neg_margins.sum(axis=1)

    @functools.cached_property
    def _ones(self) -> np.ndarray:
        """``(n_obs,)`` ones: ``v @ _ones`` sums each row of ``v``."""
        return np.ones(self.labels.size)

    def log_density(self, beta: np.ndarray) -> float:
        return logistic_posterior_logdensity(self, beta)

    def grad_log_density(self, beta: np.ndarray) -> np.ndarray:
        beta = np.asarray(beta, dtype=float)
        z = self.labels * (self.design @ beta)
        # d/dz log h(z) = h(-z)
        return -beta + self.design.T @ (self.labels * _sigmoid(-z))

    def neg_log_density(self, beta: np.ndarray) -> float:
        return -self.log_density(beta)


def logistic_posterior_logdensity(model: LogisticModel, beta) -> float | np.ndarray:
    """Posterior log-density up to an additive constant; one value per row
    of a ``(lanes, d)`` array of coefficients."""
    beta = np.asarray(beta, dtype=float)
    # -log h(z) = max(m, 0) + log1p(exp(-|m|)) at m = -z, in one (lanes, n_obs)
    # buffer: the max terms sum to (sum m + sum |m|) / 2.  Row sums are BLAS
    # products, sum m taken from the margins' sums as beta @ _margin_sums.
    m = beta @ model._neg_margins
    twice_max = beta @ model._margin_sums + np.abs(m, out=m) @ model._ones
    np.log1p(np.exp(np.negative(m, out=m), out=m), out=m)
    squares = np.add.reduce(beta * beta, axis=-1)
    return -0.5 * (squares + twice_max) - m @ model._ones


@dataclass(frozen=True)
class ReferenceFit:
    """Reference Gaussian ``N(center, cov)``; unpacks as ``(center, cov)``.

    ``mode`` is the Laplace fit's centre and ``ess`` the effective sample
    size of the importance weights that moved it to ``center``.
    """

    center: np.ndarray
    cov: np.ndarray
    mode: np.ndarray
    ess: float

    def __iter__(self):
        return iter((self.center, self.cov))


def logistic_reference_fit(model: LogisticModel, draws: int, seed: int) -> ReferenceFit:
    """Posterior mean and covariance by a Laplace fit with importance weights.

    Newton steps find the mode ``beta_hat``, where the negative log-density
    has Hessian ``H = I + T^T diag(s (1 - s)) T`` with ``s = h(T beta_hat)``.
    ``draws`` rows of the Laplace Gaussian ``N(beta_hat, H^-1)``, made
    ``BLOCK_SIZE`` at a time from ``Stream(seed)``, get self-normalized
    weights ``pi / q``; their weighted mean and covariance are the fit.  An
    effective sample size below ``draws / 10`` raises.  The covariance is
    symmetrized and jittered by ``1e-9`` on the diagonal; a
    non-positive-definite result after jitter raises.
    """
    if draws < 10**4:
        raise ValueError("need at least 10^4 draws for a usable reference fit")
    d = model.dim
    mode = np.zeros(d)
    for _ in range(100):
        s = _sigmoid(model.design @ mode)
        hessian = np.eye(d) + (model.design.T * (s * (1.0 - s))) @ model.design
        step = np.linalg.solve(hessian, model.grad_log_density(mode))
        mode = mode + step
        if np.max(np.abs(step)) <= 1e-12:
            break
    else:
        raise ValueError("Newton steps did not reach the posterior mode")
    # Offsets y = z @ root.T have covariance root @ root.T = H^-1, and the
    # Laplace log-density -|z|^2 / 2 up to a constant.  Weights are taken
    # relative to the density at the mode, which bounds log(pi / q) by
    # |z|^2 / 2, so no weight overflows and none need be kept past its chunk.
    root = np.linalg.inv(np.linalg.cholesky(hessian)).T
    log_mode = logistic_posterior_logdensity(model, mode)
    rng = Stream(seed).generator()
    total = total_sq = 0.0
    first, second = np.zeros(d), np.zeros((d, d))
    for lo in range(0, draws, BLOCK_SIZE):
        z = rng.standard_normal((min(BLOCK_SIZE, draws - lo), d))
        y = z @ root.T
        log_w = logistic_posterior_logdensity(model, mode + y) - log_mode
        w = np.exp(log_w + 0.5 * np.add.reduce(z * z, axis=-1))
        total += w.sum()
        total_sq += w @ w
        first += w @ y
        second += (y.T * w) @ y
    ess = total * total / total_sq
    if ess < draws / 10:
        raise ValueError(
            f"importance weights of the Laplace fit have ESS {ess:.0f}, below draws/10 = {draws / 10:g}"
        )
    offset = first / total
    center = mode + offset
    cov = second / total - np.outer(offset, offset)
    cov = 0.5 * (cov + cov.T) + 1e-9 * np.eye(d)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("fitted covariance is not positive definite") from exc
    return ReferenceFit(center, cov, mode, ess)


# ---------------------------------------------------------------------------
# Elliptic inverse problem
# ---------------------------------------------------------------------------


def _sine_basis(j: int, points: np.ndarray) -> np.ndarray:
    """``e_k(s) = sqrt(2) sin(k pi s)`` for ``k = 1..j``, one row per point."""
    return math.sqrt(2.0) * np.sin(np.outer(points, np.arange(1, j + 1)) * math.pi)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Weights ``w`` with ``w @ y`` the composite trapezoidal rule on nodes ``x``."""
    half = 0.5 * np.diff(x)
    w = np.zeros(x.size)
    w[:-1] += half
    w[1:] += half
    return w


# (2k)! / B_2k: the Euler-Maclaurin correction coefficients of Cephes' zeta.
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9, 7.47242496e10,
           -2.950130727918164224e12, 1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)


def _zeta(x: float) -> float:
    """Riemann ``zeta(x)``, ``x > 1``, summed as Cephes' ``zeta(x, 1)`` (scipy's, bit for bit)."""
    machep = 2.0**-53
    s, a = 1.0, 1.0
    while a <= 9.0:  # direct terms 2^-x .. 10^-x
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < machep:
            return s
    w, a = a, 1.0
    s = s + b * w / (x - 1.0) - 0.5 * b  # Cephes' order: (s + b w / (x - 1)) - b / 2
    for i, coefficient in enumerate(_ZETA_A):
        a *= x + 2 * i
        b /= w
        t = a * b / coefficient
        s += t
        if abs(t / s) < machep:
            break
        a *= x + (2 * i + 1)
        b /= w
    return s


class _EllipticOperator(NamedTuple):
    """The level-``(j, n)`` forward map as arrays over the evaluation points
    (the grid, then each observation point that falls between grid nodes),
    each laid out as the right operand of one product in
    :func:`elliptic_forward`."""

    basis_t: np.ndarray  # (j, points), contiguous: e_k at each point
    h_weights: np.ndarray  # (points,): H times the trapezoid weights of int_0^1
    weights: np.ndarray  # (points,): trapezoid weights of int_0^1 on the grid
    obs_h: np.ndarray  # (points, obs), contiguous: H times the weights of int_0^{x_k}
    obs_t: np.ndarray  # (points, obs), contiguous: trapezoid weights of int_0^{x_k}


@dataclass(frozen=True)
class EllipticModel:
    """Diffusion-coefficient inverse problem for ``-(u p')' = h`` on (0, 1).

    The coefficient is ``u(s) = m0 + sum_k u_k e_k(s)`` in the Dirichlet
    sine basis ``e_k(s) = sqrt(2) sin(k pi s)`` with uniform prior
    ``u_k ~ U[-k^-gamma, k^-gamma]``, and the observation operator maps
    ``u`` to the solution evaluated at ``obs_points``.  Separation of
    variables gives the solution in closed form as two quadratures, which
    are approximated by the composite trapezoidal rule on
    ``ceil(j^(gamma/2 - 1/4))`` points at truncation level ``j``.
    """

    gamma: float
    obs_points: tuple[float, ...] = (0.25, 0.5, 0.75)
    m0: float | None = None
    source_antiderivative: Callable[[np.ndarray], np.ndarray] = field(default=None)
    # Operators by (j, n); they hold H and the observation weights, hence frozen.
    _operator_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.gamma <= 3.0:
            raise ValueError("gamma must exceed 3")
        if self.m0 is None:
            # Guarantees u > 0 for every prior draw: sum_k u*_k = zeta(gamma).
            object.__setattr__(self, "m0", 1.0 + _zeta(self.gamma))
        if self.source_antiderivative is None:
            # Default source h = 1, antiderivative H(s) = s.
            object.__setattr__(self, "source_antiderivative", lambda s: s)
        if not all(0.0 < x < 1.0 for x in self.obs_points):
            raise ValueError("observation points must lie in (0, 1)")

    # -- prior -------------------------------------------------------------

    def half_width(self, k: int) -> float:
        return float(k) ** (-self.gamma)

    def half_widths(self, j: int) -> np.ndarray:
        return np.arange(1, j + 1, dtype=float) ** (-self.gamma)

    def prior_sample(self, j: int, rng: np.random.Generator) -> np.ndarray:
        return (2.0 * rng.random(j) - 1.0) * self.half_widths(j)

    # -- forward map ---------------------------------------------------------

    def quad_points(self, j: int) -> int:
        return max(2, math.ceil(j ** (self.gamma / 2.0 - 0.25)))

    @property
    def work_exponent(self) -> float:
        """Cost exponent of one chain step at truncation ``j``."""
        return self.gamma / 2.0 - 0.25

    def _operator(self, j: int, n_points: int | None = None) -> _EllipticOperator:
        """The cached forward operator at truncation ``j`` on ``n_points``
        grid points (default: the level-``j`` rule)."""
        op = self._operator_cache.get((j, n_points))
        if op is None:
            n = self.quad_points(j) if n_points is None else int(n_points)
            if n < 2:
                raise ValueError("the quadrature grid needs at least 2 points")
            grid = points = np.linspace(0.0, 1.0, n)
            partial_nodes = []  # indices into points of each int_0^{x_k}
            for x in self.obs_points:
                cut = int(np.searchsorted(grid, x, side="right"))
                nodes = list(range(cut))
                if grid[cut - 1] < x:
                    nodes.append(points.size)
                    points = np.append(points, x)
                partial_nodes.append(nodes)
            weights = np.zeros(points.size)
            weights[:n] = _trapezoid_weights(grid)
            obs_weights = np.zeros((len(partial_nodes), points.size))
            for row, nodes in zip(obs_weights, partial_nodes):
                row[nodes] = _trapezoid_weights(points[nodes])
            h = np.asarray(self.source_antiderivative(points), dtype=float)
            op = _EllipticOperator(
                np.ascontiguousarray(_sine_basis(j, points).T),
                h * weights,
                weights,
                np.ascontiguousarray((obs_weights * h).T),
                np.ascontiguousarray(obs_weights.T),
            )
            self._operator_cache[(j, n_points)] = op
        return op

    def forward(self, j: int, coeffs, n_points: int | None = None) -> np.ndarray:
        return elliptic_forward(self, j, coeffs, n_points)


def elliptic_forward(
    model: EllipticModel, j: int, coeffs, n_points: int | None = None
) -> np.ndarray:
    """Observation vector ``(p(x_1), ..., p(x_d))`` by trapezoidal quadrature.

    ``p(x) = -int_0^x (H + C_u)/u`` with
    ``C_u = -(int_0^1 H/u) / (int_0^1 1/u)``; both integrals use the same
    ``n_points``-point grid (default: the model's level-``j`` rule), and
    each partial integral appends the observation point to the grid.

    Every quadrature is a fixed weight vector applied to ``H/u`` or ``1/u``
    at the grid and off-grid observation points, so the map is evaluated
    through ``model._operator(j, n_points)``, built once per ``(j, n_points)``
    and cached on the model with every weight vector and matrix it needs:
    one matrix product for ``u``, then weighted sums of ``1/u`` alone.  ``coeffs`` is
    one coefficient vector or ``(lanes, j)`` rows (zero-padded or cut to
    ``j``), giving one observation row per lane.
    """
    coeffs = pad_to(coeffs, j)
    op = model._operator(j, n_points)
    inv_u = coeffs @ op.basis_t
    inv_u += model.m0  # u, made 1/u in place: one (lanes, points) array per call
    if not inv_u.min() > 0.0:
        raise ValueError("diffusion coefficient is not positive on the grid")
    np.reciprocal(inv_u, out=inv_u)
    # -(int H/u + C_u int 1/u) with -C_u = ratio, as ratio * int 1/u - int H/u.
    ratio = (inv_u @ op.h_weights) / (inv_u @ op.weights)
    p = inv_u @ op.obs_t
    p *= ratio[..., None]
    p -= inv_u @ op.obs_h
    return p
