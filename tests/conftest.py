"""Shared test doubles and statistical helpers."""

import math

import numpy as np
import pytest

from ubmc.rng import Stream


class FixedUniformGenerator:
    """Generator double returning one fixed uniform (for forcing N)."""

    def __init__(self, u: float):
        self.u = u

    def random(self, n=None):
        return self.u if n is None else np.full(n, self.u)


class ForcedTruncationStream:
    """Stream double: the truncation child sees a fixed uniform, level
    children are real derived streams."""

    def __init__(self, u: float, seed: int = 0):
        self.u = u
        self._real = Stream(seed)

    def child(self, *key):
        if key == (0,):
            return self
        return self._real.child(*key)

    def generator(self):
        return FixedUniformGenerator(self.u)


class ScriptedNormals:
    """Generator double replaying a fixed sequence of standard normals."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def standard_normal(self, size=None):
        if size is None:
            self.calls += 1
            return self.values.pop(0)
        n = int(np.prod(size))
        out = np.array([self.values.pop(0) for _ in range(n)], dtype=float)
        self.calls += n
        return out.reshape(size)

    def random(self, n=None):
        return 0.5 if n is None else np.full(n, 0.5)


class ConstantStreamDouble:
    """Stream double handing out one scripted generator."""

    def __init__(self, generator):
        self._generator = generator

    def child(self, *key):
        return self

    def generator(self):
        return self._generator


def per_lane(gen):
    """Lift a per-draw reference ``gen(level, rng) -> (delta, work)`` into a
    ``delta_batch``: level ``i``'s lanes run one after another on
    ``level_rng(i)``, each on a fresh segment of that i.i.d. stream, so
    every draw keeps the law of one ``gen`` draw."""

    def delta_batch(counts, level_rng):
        levels = []
        for level, lanes in enumerate(counts):
            rng = level_rng(level)
            pairs = [gen(level, rng) for _ in range(lanes)]
            levels.append((
                np.array([delta for delta, _ in pairs], dtype=float),
                np.array([t for _, t in pairs], dtype=float),
            ))
        return levels

    return delta_batch


def recording_level_rng(seed: int, asked: list):
    """A ``level_rng`` that records which levels it was asked for."""

    def level_rng(i):
        asked.append(i)
        return Stream(seed).child(1 + i).generator()

    return level_rng


def moments_agree(fused: np.ndarray, single: np.ndarray):
    """Mean and second moment of two samples within 4 combined SE."""
    for power in (1, 2):
        a, b = fused**power, single**power
        se = math.hypot(a.std(ddof=1) / math.sqrt(a.size), b.std(ddof=1) / math.sqrt(b.size))
        assert abs(a.mean() - b.mean()) <= 4.0 * se, (power, a.mean(), b.mean())


def four_se(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    return 4.0 * values.std(ddof=1) / np.sqrt(values.size)


def scaled_elliptic_is_model(seed: int = 20240817, scale: float = 40.0, gamma: float = 3.2):
    """Elliptic inverse problem with an amplified observation operator.

    The unscaled solution map varies so little over the prior box that
    acceptance ratios sit within 1e-2 of one; scaling the observations
    keeps every decay exponent while making acceptance (and hence branch
    behaviour) statistically visible at desk scale.  The floor is pilot
    calibrated at half the smallest acceptance seen and remains runtime
    checked.
    """
    from ubmc.couplings import pad_to
    from ubmc.independence_sampler import UniformPriorModel, is_acceptance, propose
    from ubmc.models import EllipticModel

    elliptic = EllipticModel(gamma=gamma)
    stream = Stream(seed)
    forward = lambda j, x: scale * elliptic.forward(j, x)
    base = forward(32, elliptic.prior_sample(32, stream.generator()))
    y = base + np.array([0.6, -0.4, 0.5])
    probe = UniformPriorModel(
        half_widths=elliptic.half_width,
        forward=forward,
        y=y,
        alpha_star=1e-9,
        work_exponent=elliptic.work_exponent,
    )
    rng = stream.child(1).generator()
    floor = 1.0
    for _ in range(3000):
        x = pad_to(propose(probe, 16, rng), 16)
        xi = propose(probe, 16, rng)
        floor = min(floor, is_acceptance(probe, 16, x, xi))
    model = UniformPriorModel(
        half_widths=elliptic.half_width,
        forward=forward,
        y=y,
        alpha_star=0.5 * floor,
        work_exponent=elliptic.work_exponent,
    )
    return elliptic, model


def circle_arc(x: float) -> list[tuple[float, float]]:
    """Support of one circle-chain step from ``x``: the arc
    ``(x - 2, x + 2) mod 2 pi``, as one or two half-open intervals inside
    ``[0, 2 pi)``."""
    from ubmc.models import TWO_PI

    lo = (x - 2.0) % TWO_PI
    hi = lo + 4.0
    if hi <= TWO_PI:
        return [(lo, hi)]
    return [(lo, TWO_PI), (0.0, hi - TWO_PI)]


def coefficient_values(model, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The elliptic diffusion coefficient ``u`` at ``points`` for ``coeffs``."""
    from ubmc.models import _sine_basis

    coeffs = np.asarray(coeffs, dtype=float)
    return model.m0 + _sine_basis(coeffs.size, points) @ coeffs


def coefficient_bounds(model) -> tuple[float, float]:
    """``m0 -/+ sqrt(2) * sum_k u*_k``: the bounds on every prior draw of
    the elliptic coefficient (the sine basis is at most ``sqrt(2)``)."""
    from ubmc.models import _zeta

    spread = math.sqrt(2.0) * _zeta(model.gamma)
    return model.m0 - spread, model.m0 + spread


def elliptic_observation_gap(model, j: int, n_draws: int, stream: Stream, factor: int = 2) -> float:
    """Sup over prior draws of ``|G_j(u) - G_{factor*j}(u)|``, each level
    on its own quadrature rule, as the sampler evaluates the forward map."""
    rngs = (stream.child(r).generator() for r in range(n_draws))
    coeffs = np.stack([model.prior_sample(factor * j, rng) for rng in rngs])  # a lane per draw
    gaps = np.linalg.norm(model.forward(j, coeffs) - model.forward(factor * j, coeffs), axis=-1)
    return float(gaps.max())


@pytest.fixture
def stream():
    return Stream(20240817)
