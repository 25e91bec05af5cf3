"""Lane draws of several blocks: every block reads its own generator as it
would alone, and a draw that does not lead with the lanes is refused."""

import numpy as np
import pytest

from ubmc.independence_sampler import UniformPriorModel, draw_randomness
from ubmc.rng import LaneGenerator, Stream, lane_rng

SIZES = [3, 5, 2]


def generators() -> list:
    """Fresh generators of the blocks, one per entry of ``SIZES``."""
    return [Stream(7).child(b).generator() for b in range(len(SIZES))]


@pytest.mark.parametrize("width", [(), (4,)], ids=["lanes", "lanes-by-4"])
def test_each_block_draws_its_rows_alone(width):
    lanes = LaneGenerator(generators(), SIZES)
    total = (sum(SIZES), *width)
    got = [lanes.standard_normal(total), lanes.random(total)]
    # The blocks' generators advance as they would alone: the draws come in turn.
    alone = generators()
    want = [
        np.concatenate([g.standard_normal((n, *width)) for g, n in zip(alone, SIZES)]),
        np.concatenate([g.random((n, *width)) for g, n in zip(alone, SIZES)]),
    ]
    for a, b in zip(got, want):
        assert a.shape == total
        assert np.array_equal(a, b)


def test_integer_size_leads_with_the_lanes():
    lanes = LaneGenerator(generators(), SIZES)
    want = np.concatenate([g.random(n) for g, n in zip(generators(), SIZES)])
    assert np.array_equal(lanes.random(sum(SIZES)), want)


@pytest.mark.parametrize("size", [9, (2, 10), 2 * 10 * 5], ids=["short", "lanes-second", "flat"])
def test_draw_not_leading_with_the_lanes_raises(size):
    lanes = LaneGenerator(generators(), SIZES)
    for method in (lanes.standard_normal, lanes.random):
        with pytest.raises(ValueError, match="lead with them"):
            method(size)


def test_flat_sampler_draw_cannot_mix_blocks():
    # The independence sampler draws a step's randomness as one flat call,
    # so it cannot run on a lane array of several blocks.
    model = UniformPriorModel(half_widths=lambda k: 1.0, forward=None, y=[0.0], alpha_star=0.5)
    with pytest.raises(ValueError, match="lead with them"):
        draw_randomness(model, 2, LaneGenerator(generators(), SIZES), (sum(SIZES),))


def test_where_draws_each_blocks_masked_lanes_from_that_block():
    # Block 0 keeps lanes 0 and 2, block 1 none, block 2 both.
    mask = np.array([1, 0, 1, 0, 0, 0, 0, 0, 1, 1], dtype=bool)
    chosen = [2, 0, 2]
    lanes = LaneGenerator(generators(), SIZES)
    got = lanes.where(mask).random(int(mask.sum()))
    want = np.concatenate([g.random(n) for g, n in zip(generators(), chosen) if n])
    assert np.array_equal(got, want)


def test_where_on_one_blocks_lanes_gives_its_generator():
    gens = generators()
    mask = np.zeros(sum(SIZES), dtype=bool)
    mask[3:5] = True  # block 1 only
    assert LaneGenerator(gens, SIZES).where(mask) is gens[1]


def test_lane_rng_returns_the_lone_blocks_generator():
    gens = generators()
    assert lane_rng(gens, [0, 4, 0]) is gens[1]
    assert lane_rng(gens[:1], [1024]) is gens[0]


def test_lane_rng_skips_blocks_without_rows():
    gens = generators()
    lanes = lane_rng(gens, [3, 0, 2])
    assert isinstance(lanes, LaneGenerator)
    assert lanes.generators == [gens[0], gens[2]] and lanes.sizes == [3, 2]
    want = np.concatenate([g.standard_normal(n) for g, n in zip(generators(), [3, 0, 2]) if n])
    assert np.array_equal(lanes.standard_normal(5), want)
