"""Ordered process-pool fan-out for experiment cells.

:class:`ParallelRunner` maps a picklable worker over a list of cells,
preserving input order in the results — so ``jobs=N`` must be
cell-for-cell identical to ``jobs=1``, which the parity tests enforce.
Workers are plain module-level functions (picklable under both fork and
spawn start methods); anything experiment-shaped is imported lazily
inside the worker to keep this module free of import cycles with the
experiment registry.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.utils.errors import ValidationError

__all__ = [
    "pool_context",
    "ExperimentCell",
    "ParallelRunner",
    "run_experiment_cell",
    "experiment_cells",
]


def pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, shares the parent's state by COW), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass(frozen=True)
class ExperimentCell:
    """One unit of experiment work: a kind plus frozen parameters.

    ``params`` is a tuple of ``(name, value)`` pairs (hashable, picklable,
    order-stable) — e.g. ``(("experiment_id", "faults"), ("preset",
    "tiny"))`` for a registry cell, or model/split/seed/intensity
    combinations for sweep cells.
    """

    kind: str
    label: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kind: str, label: str, **params: Any) -> "ExperimentCell":
        """Build a cell from keyword parameters (sorted for stability)."""
        return cls(kind=kind, label=label, params=tuple(sorted(params.items())))

    def as_dict(self) -> dict[str, Any]:
        """The cell's parameters as a plain dict."""
        return dict(self.params)


class ParallelRunner:
    """Maps a worker over cells, optionally on a process pool.

    Results come back in input order regardless of completion order
    (``ProcessPoolExecutor.map`` semantics), so parallelism never
    reorders an experiment sweep.  ``jobs=1`` runs inline in this
    process — the reference path for parity checks, and the only path
    that can reuse in-memory caches on the caller's context.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)

    def map(self, worker: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Apply ``worker`` to every item, preserving input order."""
        items = list(items)
        if self.jobs == 1 or len(items) <= 1:
            return [worker(item) for item in items]
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(items)), mp_context=pool_context()
        ) as pool:
            return list(pool.map(worker, items))


def run_experiment_cell(cell: ExperimentCell):
    """Worker: run one registry experiment in a fresh context.

    Module-level (picklable) and lazily importing the registry, so worker
    processes under spawn can resolve it without dragging experiment
    imports into this module at import time.  Each worker builds its own
    :class:`~repro.experiments.runner.ExperimentContext`; the shared disk
    cache (warmed by the caller) keeps workers from re-simulating.
    """
    from repro.experiments.registry import run_experiment
    from repro.experiments.runner import ExperimentContext

    if cell.kind != "experiment":
        raise ValidationError(f"unknown cell kind {cell.kind!r}")
    params = cell.as_dict()
    context = ExperimentContext(
        params.get("preset", "default"),
        cache_dir=params.get("cache_dir"),
        use_disk_cache=params.get("use_disk_cache", True),
        strict=params.get("strict", False),
    )
    return run_experiment(params["experiment_id"], context)


def experiment_cells(
    experiment_ids: Sequence[str],
    *,
    preset: str = "default",
    cache_dir=None,
    use_disk_cache: bool = True,
    strict: bool = False,
) -> list[ExperimentCell]:
    """Registry cells for ``experiment_ids`` under one preset."""
    return [
        ExperimentCell.make(
            "experiment",
            experiment_id,
            experiment_id=experiment_id,
            preset=preset,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
            use_disk_cache=use_disk_cache,
            strict=strict,
        )
        for experiment_id in experiment_ids
    ]
