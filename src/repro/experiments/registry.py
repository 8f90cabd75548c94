"""Registry of all experiments, keyed by paper artifact id."""

from __future__ import annotations

from typing import Callable

from repro.experiments import characterization_experiments as chz
from repro.experiments import prediction_experiments as pred
from repro.experiments.drift_experiment import run_drift
from repro.experiments.faults_experiment import run_faults
from repro.experiments.gateway_experiment import run_gateway
from repro.experiments.imbalance_experiment import run_imbalance
from repro.experiments.oracle_experiment import run_oracle
from repro.experiments.resilience_experiment import run_resilience
from repro.experiments.result import ExperimentResult
from repro.experiments.runner import ExperimentContext
from repro.parallel.runner import ParallelRunner, experiment_cells, run_experiment_cell
from repro.utils.errors import ValidationError

__all__ = ["EXPERIMENTS", "run_experiment", "run_experiments"]

#: Experiment id -> (title, runner).
EXPERIMENTS: dict[str, tuple[str, Callable[[ExperimentContext], ExperimentResult]]] = {
    "fig1": ("Offender-node cabinet grid", chz.run_fig1),
    "fig2": ("SBE-affected aprun cabinet grid", chz.run_fig2),
    "fig3": ("Application SBE skew", chz.run_fig3),
    "fig4": ("SBE vs utilization correlations", chz.run_fig4),
    "fig5": ("Temperature/power cabinet grids", chz.run_fig5),
    "fig6": ("Temperature by SBE period", chz.run_fig6),
    "fig7": ("Power by SBE period", chz.run_fig7),
    "fig8": ("Repeated-run profiles", chz.run_fig8),
    "table1": ("Basic schemes precision/recall", pred.run_table1),
    "fig10": ("Model comparison on DS1", pred.run_fig10),
    "table2": ("F1 across datasets", pred.run_table2),
    "table3": ("Training-time comparison", pred.run_table3),
    "fig11": ("Feature-group contributions", pred.run_fig11),
    "table4": ("Temp/power feature variants", pred.run_table4),
    "fig12": ("History-feature ablations", pred.run_fig12),
    "fig13": ("Spatial robustness", pred.run_fig13),
    "table5": ("Runtime classes", pred.run_table5),
    "table6": ("Severity levels", pred.run_table6),
    "ecc": ("Prediction-driven ECC scheduling", pred.run_ecc_policy),
    "imbalance": ("Imbalance-mitigation comparison", run_imbalance),
    "oracle": ("Oracle per-cabinet model selection", run_oracle),
    "faults": ("Telemetry fault-injection degradation curve", run_faults),
    "resilience": ("Serving availability vs chaos intensity", run_resilience),
    "gateway": ("Fleet gateway throughput and zero-drop accounting", run_gateway),
    "drift": ("Drift resilience: stale vs governed vs fresh serving", run_drift),
}


def run_experiment(
    experiment_id: str, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Run one experiment by id (builds a default context if needed)."""
    try:
        _, runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValidationError(
            f"unknown experiment {experiment_id!r}; options: {sorted(EXPERIMENTS)}"
        ) from None
    return runner(context or ExperimentContext())


def run_experiments(
    experiment_ids: list[str],
    *,
    preset: str = "default",
    jobs: int = 1,
    cache_dir=None,
    use_disk_cache: bool = True,
    strict: bool = False,
) -> list[ExperimentResult]:
    """Run several experiments, optionally fanned over worker processes.

    Results come back in the order of ``experiment_ids`` regardless of
    which worker finishes first, so ``jobs=N`` output is identical to
    ``jobs=1``.  Before fanning out, the trace/feature caches are warmed
    once in this process (when disk caching is on) so workers load the
    shared entries instead of each re-simulating the trace.  ``strict``
    reaches every context, the warm-up's and each worker's, so a
    degraded-data repair is a typed error at any ``jobs``.
    """
    unknown = [eid for eid in experiment_ids if eid not in EXPERIMENTS]
    if unknown:
        raise ValidationError(
            f"unknown experiments {unknown}; options: {sorted(EXPERIMENTS)}"
        )
    if jobs > 1 and len(experiment_ids) > 1 and use_disk_cache:
        warm = ExperimentContext(
            preset,
            cache_dir=cache_dir,
            use_disk_cache=True,
            jobs=jobs,
            strict=strict,
        )
        warm.features  # simulates (sharded) + builds features, filling the cache
    if jobs == 1 or len(experiment_ids) <= 1:
        context = ExperimentContext(
            preset,
            cache_dir=cache_dir,
            use_disk_cache=use_disk_cache,
            jobs=jobs,
            strict=strict,
        )
        return [run_experiment(eid, context) for eid in experiment_ids]
    cells = experiment_cells(
        experiment_ids,
        preset=preset,
        cache_dir=cache_dir,
        use_disk_cache=use_disk_cache,
        strict=strict,
    )
    return ParallelRunner(jobs).map(run_experiment_cell, cells)
