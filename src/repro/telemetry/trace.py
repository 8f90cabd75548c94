"""Columnar trace container.

A :class:`Trace` is the output of one simulation: a **samples** table with
one row per ``(application run, node)`` pair — the paper's unit of
prediction — a **runs** table with one row per aprun, the application
catalog metadata, per-node cumulative telemetry aggregates (for the
cabinet-grid figures), and optional full telemetry series for a few
recorded nodes (for the run-profile figure).

On disk a trace lives in a segment store
(:class:`repro.store.SegmentedTraceStore`); this module owns only the
in-memory container and the configuration's JSON form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.config import TraceConfig
from repro.topology.machine import Machine, MachineConfig
from repro.utils.errors import ValidationError

__all__ = [
    "Trace",
    "SAMPLE_TELEMETRY_COLUMNS",
    "PRE_WINDOWS_MINUTES",
    "config_to_dict",
    "config_from_dict",
]

#: Pre-execution window lengths (minutes) for temporal features (paper §V-A).
PRE_WINDOWS_MINUTES = (5, 15, 30, 60)

_STAT_SUFFIXES = ("mean", "std", "dmean", "dstd")

#: Names of the per-sample telemetry statistic columns, in storage order.
SAMPLE_TELEMETRY_COLUMNS: tuple[str, ...] = tuple(
    f"{quantity}_{suffix}"
    for quantity in ("gpu_temp", "gpu_power", "cpu_temp", "nei_temp", "nei_power")
    for suffix in _STAT_SUFFIXES
) + tuple(
    f"pre{window}_{quantity}_{suffix}"
    for window in PRE_WINDOWS_MINUTES
    for quantity in ("temp", "power")
    for suffix in _STAT_SUFFIXES
)


@dataclass
class Trace:
    """One simulated telemetry archive."""

    config: TraceConfig
    #: Columnar samples table; all arrays share the same length.
    samples: dict[str, np.ndarray]
    #: Columnar runs table; all arrays share the same length.
    runs: dict[str, np.ndarray]
    #: Application binary names indexed by app id.
    app_names: list[str]
    #: Per-node mean GPU temperature over the whole trace.
    node_mean_temp: np.ndarray
    #: Per-node mean GPU power over the whole trace.
    node_mean_power: np.ndarray
    #: Ground-truth latent node susceptibility (diagnostics only; the
    #: prediction pipeline must never read this).
    node_susceptibility: np.ndarray
    #: Optional full series for recorded nodes:
    #: node id -> {"minute", "gpu_temp", "gpu_power", "cpu_temp",
    #: "slot_avg_temp", "slot_avg_power", "cage_avg_temp"}.
    recorded_series: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)
    #: Provenance and instrumentation (JSON-serializable values only):
    #: the simulator records per-stage wall-time counters under
    #: ``stage_seconds`` (simulate / sample / collate) and the shard
    #: count under ``shards``.  Deliberately excluded from every content
    #: digest — wall times vary run to run, content must not.
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {k: v.shape[0] for k, v in self.samples.items()}
        if len(set(lengths.values())) > 1:
            raise ValidationError(f"ragged samples table: {lengths}")
        run_lengths = {k: v.shape[0] for k, v in self.runs.items()}
        if len(set(run_lengths.values())) > 1:
            raise ValidationError(f"ragged runs table: {run_lengths}")

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Rows in the samples table."""
        return next(iter(self.samples.values())).shape[0] if self.samples else 0

    @property
    def num_runs(self) -> int:
        """Rows in the runs table."""
        return next(iter(self.runs.values())).shape[0] if self.runs else 0

    @property
    def machine(self) -> Machine:
        """Topology object for this trace's machine."""
        return Machine(self.config.machine)

    def sample_labels(self) -> np.ndarray:
        """Binary labels: 1 when the (run, node) sample saw any SBE."""
        return (self.samples["sbe_count"] > 0).astype(int)

    def positive_rate(self) -> float:
        """Fraction of SBE-affected samples (paper: < 2%)."""
        if self.num_samples == 0:
            return 0.0
        return float(self.sample_labels().mean())

    def node_sbe_totals(self) -> np.ndarray:
        """Total SBE count per node over the whole trace."""
        totals = np.zeros(self.machine.num_nodes, dtype=np.int64)
        np.add.at(
            totals,
            self.samples["node_id"].astype(int),
            self.samples["sbe_count"].astype(np.int64),
        )
        return totals


def config_to_dict(config: TraceConfig) -> dict:
    """JSON-serializable form of a :class:`TraceConfig`.

    Shared by the content-addressed cache keys and the segment store
    manifest, so every on-disk artifact describes its configuration the
    same way.
    """
    from dataclasses import asdict

    from repro.scenarios.events import scenario_to_dict

    raw = asdict(config)
    raw["record_nodes"] = list(config.record_nodes)
    # asdict() recurses into the scenario but loses the event types; emit
    # the kind-tagged form instead — and only when the scenario actually
    # scripts something, so scenario=None and an empty Scenario() produce
    # byte-identical manifests and cache keys (the neutrality invariant).
    raw.pop("scenario", None)
    if config.scenario is not None and not config.scenario.empty:
        raw["scenario"] = scenario_to_dict(config.scenario)
    return raw


def config_from_dict(raw: dict) -> TraceConfig:
    from repro.scenarios.events import scenario_from_dict
    from repro.telemetry.config import (
        ErrorModelConfig,
        PowerConfig,
        ThermalConfig,
        WorkloadConfig,
    )

    scenario_raw = raw.get("scenario")
    return TraceConfig(
        machine=MachineConfig(**raw["machine"]),
        workload=WorkloadConfig(**raw["workload"]),
        power=PowerConfig(**raw["power"]),
        thermal=ThermalConfig(**raw["thermal"]),
        errors=ErrorModelConfig(**raw["errors"]),
        duration_days=raw["duration_days"],
        tick_minutes=raw["tick_minutes"],
        seed=raw["seed"],
        record_nodes=tuple(raw.get("record_nodes", ())),
        scenario=None if scenario_raw is None else scenario_from_dict(scenario_raw),
    )
