"""Splittable, counter-based random streams.

Every stochastic routine in this package is a pure function of its inputs
and a :class:`Stream`.  A stream is an immutable (seed, path) pair; child
streams are derived by extending the path with integer keys, so task
``t`` of an experiment draws its truncation levels from the stream keyed
``(seed, t, 0)``, and a run of levels whose first level is ``i`` (see
:func:`ubmc.couplings.level_runs`) draws from ``(seed, t, 1 + i)``, no
matter how the tasks are scheduled.  Every lane of a task steps in one
lane array, and a step draws the randomness of all its lanes from the
run's one generator.
Philox is used as the bit generator, so streams with distinct keys are
statistically independent and cheap to construct.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Stream"]


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
