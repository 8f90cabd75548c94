"""Per-node GPU power model.

Power draw follows the utilization of whatever aprun occupies the node:
``idle + dynamic * utilization`` scaled by a static per-node efficiency
factor (manufacturing variation), plus per-tick noise.  The envelope is
K20X-like (tens of watts idle, ~200 W busy), matching the scale of the
paper's Fig. 7.

Like the thermal model, the power model can be restricted to a
:class:`~repro.topology.sharding.ShardSpan`: the static efficiency draw
covers the whole machine and is sliced, while per-tick noise comes from
per-cabinet-row streams, so a shard's watts are bit-identical to the
corresponding slice of a serial run.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.config import PowerConfig
from repro.telemetry.noise import RowNoise
from repro.topology.machine import Machine, MachineConfig
from repro.topology.sharding import ShardSpan, full_span
from repro.utils.rng import SeedSequenceFactory

__all__ = ["PowerModel"]


class PowerModel:
    """Vectorized power draw for a span of nodes.

    ``machine`` may be a :class:`~repro.topology.machine.Machine` (or its
    config) for row-structured noise, or a plain node count for
    standalone use — the latter is treated as a single one-row machine.
    """

    def __init__(
        self,
        config: PowerConfig,
        machine: Machine | MachineConfig | int,
        seeds: SeedSequenceFactory,
        span: ShardSpan | None = None,
    ) -> None:
        self._config = config
        if isinstance(machine, Machine):
            machine_config = machine.config
        elif isinstance(machine, MachineConfig):
            machine_config = machine
        else:
            machine_config = MachineConfig(
                grid_x=1, grid_y=1, cages_per_cabinet=1, slots_per_cage=1,
                nodes_per_slot=int(machine),
            )
        span = span or full_span(machine_config)
        window = slice(span.lo, span.hi)
        rng = seeds.generator("power-efficiency")
        self._efficiency = np.exp(
            rng.normal(0.0, config.node_efficiency_sigma, size=machine_config.num_nodes)
        )[window]
        self._noise = RowNoise(
            seeds, "power-noise", machine_config, span, config.noise_watts
        )

    @property
    def efficiency(self) -> np.ndarray:
        """Static per-node efficiency multipliers."""
        return self._efficiency

    def sample(self, gpu_utilization: np.ndarray) -> np.ndarray:
        """Instantaneous per-node watts for the given utilization vector."""
        cfg = self._config
        base = cfg.idle_watts + cfg.dynamic_watts * gpu_utilization
        return np.maximum(base * self._efficiency + self._noise.normal(), 1.0)
