"""RC thermal model with neighbour coupling and non-uniform cooling.

Each node's GPU temperature relaxes toward a steady state set by its own
power draw and its cabinet's cooling efficiency, while being pulled toward
the mean temperature of its slot (heat exchanged with neighbouring
blades).  The cabinet cooling-efficiency map is deliberately non-uniform —
warmer toward the upper-left and lower-right corners of the floor grid —
reproducing the spatial pattern of the paper's Fig. 5(a).  CPU temperature
follows its own (faster) RC dynamics driven by CPU utilization.

The neighbour coupling is what makes the temperature profile of the *same
application on the same node* differ across runs (paper Fig. 8): the
steady state depends on what happens to be running in the rest of the
slot.

The model can be restricted to a :class:`~repro.topology.sharding.ShardSpan`
for sharded simulation: static offsets are drawn for the whole machine and
sliced (so every shard sees the same values), per-tick noise comes from
per-row streams (:class:`~repro.telemetry.noise.RowNoise`, drawn a block
of ticks at a time), and the slot coupling needs no halo because spans
are slot-aligned.  The model advances by one fixed tick per step, so its
relaxation factors, coupling and noise scale are computed once.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.config import ThermalConfig
from repro.telemetry.noise import RowNoise
from repro.topology.machine import Machine
from repro.topology.sharding import ShardSpan, full_span, validate_span
from repro.utils.rng import SeedSequenceFactory

__all__ = ["ThermalModel", "cooling_pattern"]


def cooling_pattern(grid_y: int, grid_x: int, amplitude: float) -> np.ndarray:
    """Cabinet-level static temperature offsets (deg C), shape (y, x).

    Positive values mean worse cooling (hotter cabinets).  The pattern is
    a saddle: hottest at the upper-left and lower-right corners.
    """
    ys = np.linspace(0.0, 1.0, grid_y)[:, None]
    xs = np.linspace(0.0, 1.0, grid_x)[None, :]
    corner_ul = (1.0 - xs) * ys
    corner_lr = xs * (1.0 - ys)
    pattern = corner_ul**2 + corner_lr**2
    pattern = pattern - pattern.mean()
    peak = np.abs(pattern).max()
    return amplitude * pattern / peak if peak > 0 else pattern


class ThermalModel:
    """Vectorized GPU + CPU temperature dynamics for a span of nodes."""

    def __init__(
        self,
        config: ThermalConfig,
        machine: Machine,
        seeds: SeedSequenceFactory,
        span: ShardSpan | None = None,
        *,
        tick_minutes: float,
    ) -> None:
        self._config = config
        self._machine = machine
        self._span = span or full_span(machine.config)
        validate_span(self._span, machine.config)
        window = slice(self._span.lo, self._span.hi)
        rng = seeds.generator("thermal-offsets")
        pattern = cooling_pattern(
            machine.config.grid_y, machine.config.grid_x, config.cooling_pattern_celsius
        )
        # Static per-node draws cover the whole machine and are sliced, so
        # every shard sees the same offsets regardless of the partition.
        self._cabinet_offset = pattern[machine.cabinet_y, machine.cabinet_x][window]
        self._node_offset = rng.normal(
            0.0, config.node_offset_sigma, machine.num_nodes
        )[window]
        # GPU and CPU noise alternate on one stream, GPU first each tick.
        self._noise = RowNoise(
            seeds,
            "thermal-noise",
            machine.config,
            self._span,
            config.noise_celsius * np.sqrt(tick_minutes),
        )
        # Tick constants: the model advances by ``tick_minutes`` per step.
        # First-order relaxation, exact for the step size (exp integrator),
        # so large sampler ticks stay stable.
        self._alpha = 1.0 - np.exp(-tick_minutes / config.time_constant_minutes)
        self._cpu_alpha = 1.0 - np.exp(
            -tick_minutes / config.cpu_time_constant_minutes
        )
        self._coupling = min(1.0, config.neighbor_coupling * tick_minutes)
        self._ambient = (
            config.ambient_celsius + self._cabinet_offset + self._node_offset
        )
        self.gpu_temp = self._ambient.copy()
        self.cpu_temp = self._ambient.copy()
        #: Scenario hook: extra ambient degrees (scalar or per-node array
        #: over the span) added to both GPU and CPU steady-state targets.
        #: ``None`` keeps the step math byte-identical to the pre-scenario
        #: model; the simulator refreshes it every tick from the compiled
        #: scenario.  Offsets act from the first step (initial temperatures
        #: stay at the unperturbed ambient).
        self.extra_offset: float | np.ndarray | None = None

    @property
    def cabinet_offset(self) -> np.ndarray:
        """Per-node static cooling offset from the cabinet pattern."""
        return self._cabinet_offset

    def steady_state(self, power_watts: np.ndarray) -> np.ndarray:
        """Equilibrium GPU temperature for a constant power draw."""
        return self._ambient + self._config.degrees_per_watt * power_watts

    def _slot_means(self, values: np.ndarray) -> np.ndarray:
        """Per-node slot mean over the span (spans are slot-aligned)."""
        nodes_per_slot = self._machine.config.nodes_per_slot
        # add.reduce then divide is ndarray.mean's arithmetic, minus its
        # Python wrapper.
        slot_sums = np.add.reduce(values.reshape(-1, nodes_per_slot), axis=1)
        return np.repeat(slot_sums / nodes_per_slot, nodes_per_slot)

    def step(self, power_watts: np.ndarray, cpu_utilization: np.ndarray) -> None:
        """Advance both temperature fields by one tick."""
        target = self.steady_state(power_watts)
        if self.extra_offset is not None:
            target = target + self.extra_offset
        self.gpu_temp += self._alpha * (target - self.gpu_temp)
        # Exchange with slot neighbours.
        slot_mean = self._slot_means(self.gpu_temp)
        self.gpu_temp += self._coupling * (slot_mean - self.gpu_temp)
        self.gpu_temp += self._noise.normal()

        cpu_target = self._ambient + self._config.cpu_degrees_per_util * cpu_utilization
        if self.extra_offset is not None:
            cpu_target = cpu_target + self.extra_offset
        self.cpu_temp += self._cpu_alpha * (cpu_target - self.cpu_temp)
        self.cpu_temp += self._noise.normal()
