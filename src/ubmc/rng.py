"""Splittable, counter-based random streams.

Every stochastic routine in this package is a pure function of its inputs
and a :class:`Stream`.  A stream is an immutable (seed, path) pair; child
streams are derived by extending the path with integer keys, so block
``b`` of an experiment draws its truncation levels from the stream keyed
``(seed, b, 0)``, and a run of levels whose first level is ``i`` (see
:func:`ubmc.couplings.level_runs`) draws from ``(seed, b, 1 + i)``, no
matter how the work is scheduled.
Philox is used as the bit generator, so streams with distinct keys are
statistically independent and cheap to construct.

Several blocks may step their chains as one lane array (a super-block of
the harness).  They never share a generator: :func:`lane_rng` hands
the array's steps an object whose lane-leading draws are made block by
block, each on the block's own generator for the block's own rows, so
every block reads its stream exactly as it would alone.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["Stream", "LaneGenerator", "lane_rng"]


class Stream:
    """An immutable handle on a deterministic random stream.

    Parameters
    ----------
    seed : int
        Root entropy shared by the whole experiment.
    path : tuple of int, optional
        Derivation key below the root.  Derive children with
        :meth:`child` rather than building paths by hand.
    """

    __slots__ = ("seed", "path")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        self.seed = int(seed)
        self.path = tuple(int(k) for k in path)
        if any(k < 0 for k in self.path):
            raise ValueError("stream path keys must be nonnegative")

    def child(self, *key: int) -> "Stream":
        """Derive the sub-stream addressed by ``key`` below this one."""
        return Stream(self.seed, self.path + key)

    def generator(self) -> np.random.Generator:
        """Fresh Philox generator for this stream.

        Repeated calls return generators with identical output; a routine
        that is handed a stream owns it and must not pass the same stream
        to two consumers (derive children instead).
        """
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    def __repr__(self) -> str:
        return f"Stream(seed={self.seed}, path={self.path})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Stream)
            and self.seed == other.seed
            and self.path == other.path
        )

    def __hash__(self) -> int:
        return hash((self.seed, self.path))


class LaneGenerator:
    """Draws for a lane array holding several blocks' lanes, block after
    block: ``sizes[k]`` rows that draw from ``generators[k]``.

    Each draw leads with the lane axis (``size[0]`` is the total of
    ``sizes``), and a draw of any other shape raises.  Every block draws
    its own rows, ``(sizes[k], *size[1:])``, from its own generator, in
    block order.  :meth:`where` narrows the lanes to a mask's, for a draw
    made on some lanes only.
    """

    __slots__ = ("generators", "sizes", "_rows")

    def __init__(self, generators, sizes):
        self.generators, self.sizes = list(generators), [int(n) for n in sizes]
        ends = itertools.accumulate(self.sizes)
        self._rows = [slice(end - n, end) for end, n in zip(ends, self.sizes)]

    def _shape(self, size) -> tuple:
        shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        if shape[:1] != (sum(self.sizes),):
            raise ValueError(f"a draw for {sum(self.sizes)} lanes must lead with them, got size {size}")
        return shape

    def _fill(self, method: str, size) -> np.ndarray:
        out = np.empty(self._shape(size))
        for g, rows in zip(self.generators, self._rows):
            getattr(g, method)(out=out[rows])  # the values of a draw of the rows' shape
        return out

    def standard_normal(self, size) -> np.ndarray:
        return self._fill("standard_normal", size)

    def random(self, size) -> np.ndarray:
        return self._fill("random", size)

    def uniform(self, low, high, size) -> np.ndarray:
        shape = self._shape(size)
        parts = [g.uniform(low, high, (n, *shape[1:])) for g, n in zip(self.generators, self.sizes)]
        return np.concatenate(parts) if parts else np.empty(shape)

    def where(self, mask: np.ndarray) -> "LaneGenerator | np.random.Generator":
        """The draws of the lanes ``mask`` selects, each block on its own."""
        chosen = np.cumsum(mask)[[rows.stop - 1 for rows in self._rows]]
        return lane_rng(self.generators, np.diff(chosen, prepend=0))


def lane_rng(generators, sizes):
    """The generator of a lane array of blocks' rows, ``sizes[k]`` rows on
    ``generators[k]``: the block's own generator when only one block has
    rows, so a lone block draws straight from it, else a
    :class:`LaneGenerator` over the blocks that have rows."""
    live = [(g, n) for g, n in zip(generators, sizes) if n > 0]
    if len(live) == 1:
        return live[0][0]
    return LaneGenerator([g for g, _ in live], [n for _, n in live])
