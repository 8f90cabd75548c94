"""Partition-independent per-tick noise streams.

The physics models need one Gaussian draw per node per tick.  A single
machine-wide stream would make every node's noise depend on how many
nodes precede it in the draw — which is exactly what sharded simulation
cannot reproduce, because a shard never draws for nodes it does not own.
Instead each cabinet **row** owns an independent child stream (rows are
the shard-planning unit, see :mod:`repro.topology.sharding`): the serial
simulator draws row streams 0..grid_y-1 in order and concatenates, a
shard draws only the streams of its rows, and both see identical values
for every node.

Draws come in blocks of :data:`NOISE_BLOCK` ticks: each row stream fills
its columns of a ``(NOISE_BLOCK, nodes)`` buffer in one call, and every
:meth:`RowNoise.normal` hands out the next buffer row.  A generator's
values do not depend on how a draw is split into calls, so each stream is
consumed in the same order and every value equals the one-call-per-tick
draw.
"""

from __future__ import annotations

import numpy as np

from repro.topology.machine import MachineConfig
from repro.topology.sharding import ShardSpan, full_span
from repro.utils.rng import SeedSequenceFactory

__all__ = ["RowNoise", "NOISE_BLOCK"]

#: Ticks of noise drawn per row stream per generator call.
NOISE_BLOCK = 64


class RowNoise:
    """Per-cabinet-row Gaussian noise of one fixed scale over a span.

    Each row's generator is the ``(name, row)`` child stream of the seed
    factory, so draws for one row never depend on any other row's — the
    property that makes a sharded run bit-identical to the serial one.
    """

    def __init__(
        self,
        seeds: SeedSequenceFactory,
        name: str,
        config: MachineConfig,
        span: ShardSpan | None,
        scale: float,
    ) -> None:
        span = span or full_span(config)
        self._rngs = [
            seeds.generator(name, row) for row in range(span.row_lo, span.row_hi)
        ]
        self._row_nodes = config.grid_x * config.nodes_per_cabinet
        self._scale = scale
        self._block = np.empty((0, span.num_nodes))
        self._next = 0

    def normal(self) -> np.ndarray:
        """One centred Gaussian draw per node of the span, row by row."""
        if self._next == len(self._block):
            # A fresh buffer per block, so rows handed out earlier stay valid.
            self._block = np.empty((NOISE_BLOCK, self._block.shape[1]))
            width = self._row_nodes
            for i, rng in enumerate(self._rngs):
                self._block[:, i * width : (i + 1) * width] = rng.normal(
                    0.0, self._scale, (NOISE_BLOCK, width)
                )
            self._next = 0
        self._next += 1
        return self._block[self._next - 1]
