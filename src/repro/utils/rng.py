"""Hierarchical, reproducible random-number streams.

The trace simulator draws randomness for many independent concerns (node
susceptibility, job arrivals, thermal noise, SBE injection...).  Tying them
all to one generator would make every statistic sensitive to the order of
draws; instead each concern gets its own named child stream derived from a
single root seed, so adding a new consumer never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

__all__ = ["SeedSequenceFactory", "child_rng"]


# Memoised: per-run and per-(run, node) streams re-use a handful of names.
@lru_cache(maxsize=None)
def _name_to_entropy(name: str) -> int:
    """Map a stream name to a stable 64-bit integer."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SeedSequenceFactory:
    """Derives named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.  Two factories built with the same root
        seed produce identical streams for identical names, regardless of
        the order in which streams are requested.
    """

    def __init__(self, root_seed: int) -> None:
        self._root_seed = int(root_seed)

    @property
    def root_seed(self) -> int:
        """The root seed this factory was constructed with."""
        return self._root_seed

    def generator(self, name: str, *indices: int) -> np.random.Generator:
        """Return the generator for stream ``name`` (plus integer indices).

        ``indices`` allow per-entity streams, e.g. ``("thermal-noise", 17)``
        for node 17, without string formatting at call sites.
        """
        entropy = [self._root_seed, _name_to_entropy(name), *map(int, indices)]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def spawn(self, name: str) -> "SeedSequenceFactory":
        """Return a sub-factory whose streams are namespaced under ``name``."""
        mixed = (self._root_seed * 0x9E3779B97F4A7C15 + _name_to_entropy(name)) % (
            2**63
        )
        return SeedSequenceFactory(mixed)


def child_rng(
    rng_or_seed: np.random.Generator | int | None,
) -> np.random.Generator:
    """Coerce ``rng_or_seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` for OS entropy.  This is the single entry point all public
    ``random_state`` arguments funnel through.
    """
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return np.random.default_rng(rng_or_seed)
