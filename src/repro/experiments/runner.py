"""Shared, cached context for experiment drivers.

Simulating a trace takes tens of seconds and training a GBDT tens more;
many experiments share both.  :class:`ExperimentContext` memoizes the
trace and the feature matrix — in memory and on disk through the
content-addressed :class:`~repro.parallel.cache.ContentCache`, keyed by
config digest + code schema version so concurrent workers and config
changes can never collide — plus the pipeline with preset-appropriate
splits and every ``(split, model, feature-selection)`` evaluation, so a
full sweep over all experiments pays each cost once.

On disk the trace is a segment store (:mod:`repro.store`).  With
``jobs > 1`` the context simulates it as one segment per job on a
process pool; the result is bit-identical to the serial run, so the
parallelism is invisible to every consumer.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

from repro.core.pipeline import PredictionPipeline, SplitResult
from repro.experiments.presets import preset_config, split_plan
from repro.features.builder import FeatureMatrix, build_features
from repro.features.splits import DatasetSplit, make_paper_splits
from repro.parallel.cache import ContentCache
from repro.parallel.simulate import simulate_trace_sharded
from repro.store import SegmentedTraceStore, simulate_trace_to_store
from repro.telemetry.trace import Trace
from repro.utils.errors import DegradedDataWarning, TraceIOError, ValidationError

__all__ = ["ExperimentContext", "default_cache_dir"]

#: Feature-builder parameters recorded in the feature-cache key.  Must
#: match the defaults of :func:`repro.features.builder.build_features`.
_FEATURE_PARAMS = {"top_k_apps": 16, "sanitize": False}


def default_cache_dir() -> Path:
    """Trace cache directory (override with ``REPRO_CACHE_DIR``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-gpu-errors"


class ExperimentContext:
    """Caches the trace, features, pipeline, and evaluations for a preset."""

    def __init__(
        self,
        preset: str = "default",
        *,
        cache_dir: Path | str | None = None,
        use_disk_cache: bool = True,
        jobs: int = 1,
        strict: bool = False,
    ) -> None:
        self.preset = preset
        self.jobs = max(1, int(jobs))
        #: Escalate degraded-data repairs into typed errors (``--strict``).
        self.strict = bool(strict)
        self._cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self._cache = ContentCache(self._cache_dir)
        self._use_disk_cache = use_disk_cache
        self._trace: Trace | None = None
        self._features: FeatureMatrix | None = None
        self._pipeline: PredictionPipeline | None = None
        self._results: dict[tuple, SplitResult] = {}

    # ------------------------------------------------------------------
    @property
    def cache(self) -> ContentCache:
        """The content-addressed disk cache backing this context."""
        return self._cache

    @property
    def trace(self) -> Trace:
        """The simulated trace (from memory, the disk cache, or a fresh run).

        The disk cache holds the trace as a segment store with one
        segment per job.  Reading it verifies every segment; a damaged
        one is re-simulated under a
        :class:`~repro.utils.errors.DegradedDataWarning` (or raises
        :class:`~repro.utils.errors.SegmentCorruptionError` when strict).
        """
        if self._trace is None:
            config = preset_config(self.preset)
            if self._use_disk_cache:
                store = self._cached_store(config)
                self._trace = store.load_trace(strict=self.strict)
            else:
                self._trace = simulate_trace_sharded(
                    config, shards=self.jobs, jobs=self.jobs
                )
        return self._trace

    def _cached_store(self, config) -> SegmentedTraceStore:
        """The committed cache store for ``config``, built if need be.

        An unreadable manifest is the one fault a store cannot heal in
        place: it warns and the store is rebuilt, or — when strict —
        raises :class:`~repro.utils.errors.TraceIOError`.  An
        uncommitted store resumes its journal; a journal left by a
        killed build under another segment count cannot be resumed, so
        the build starts over.
        """
        root = self._cache.store_path(config)
        store = SegmentedTraceStore(root)
        resume = root.exists()
        if store.is_committed:
            try:
                store.manifest()
                return store
            except TraceIOError as exc:
                if self.strict:
                    raise
                warnings.warn(
                    f"trace cache is unreadable ({exc}); re-simulating",
                    DegradedDataWarning,
                    stacklevel=3,
                )
                resume = False
        try:
            return simulate_trace_to_store(
                config, root, segments=self.jobs, jobs=self.jobs, resume=resume
            )
        except ValidationError:
            # The journal belongs to a build under another segment count.
            return simulate_trace_to_store(
                config, root, segments=self.jobs, jobs=self.jobs
            )

    @property
    def features(self) -> FeatureMatrix:
        """The feature matrix for the trace (content-cached on disk)."""
        if self._features is None:
            config = preset_config(self.preset)
            if self._use_disk_cache:
                self._features = self._cache.load_features(
                    config, **_FEATURE_PARAMS
                )
            if self._features is None:
                self._features = build_features(self.trace)
                if self._use_disk_cache:
                    self._cache.store_features(
                        config, self._features, **_FEATURE_PARAMS
                    )
        return self._features

    @property
    def pipeline(self) -> PredictionPipeline:
        """Pipeline with the preset's DS1-DS3 splits."""
        if self._pipeline is None:
            self._pipeline = self.make_pipeline(self.features)
        return self._pipeline

    def preset_splits(self) -> list[DatasetSplit]:
        """This preset's DS1-DS3 sliding splits (validated against the trace)."""
        plan = split_plan(self.preset)
        return make_paper_splits(
            train_days=plan["train_days"],
            test_days=plan["test_days"],
            offsets_days=tuple(plan["offsets"]),
            duration_days=self.trace.config.duration_days,
        )

    def make_pipeline(self, features: FeatureMatrix) -> PredictionPipeline:
        """A pipeline over ``features`` using this preset's split plan.

        Used by the degradation experiment to evaluate alternative
        (e.g. fault-injected) feature matrices under the exact splits of
        the cached :attr:`pipeline`.
        """
        return PredictionPipeline(features, self.preset_splits())

    # ------------------------------------------------------------------
    def twostage(
        self,
        split: str,
        model: str = "gbdt",
        *,
        include: set[str] | None = None,
        exclude: set[str] | None = None,
        random_state: int = 0,
    ) -> SplitResult:
        """Memoized TwoStage evaluation for one configuration."""
        key = (
            "twostage",
            split,
            model,
            tuple(sorted(include)) if include else None,
            tuple(sorted(exclude)) if exclude else None,
            random_state,
        )
        if key not in self._results:
            self._results[key] = self.pipeline.evaluate_twostage(
                split,
                model,
                include=include,
                exclude=exclude,
                random_state=random_state,
            )
        return self._results[key]

    def basic(self, split: str, scheme: str, *, random_state: int = 0) -> SplitResult:
        """Memoized baseline-scheme evaluation."""
        key = ("basic", split, scheme, random_state)
        if key not in self._results:
            self._results[key] = self.pipeline.evaluate_basic(
                split, scheme, random_state=random_state
            )
        return self._results[key]

    def split_names(self) -> list[str]:
        """Names of the configured splits (DS1, DS2, ...)."""
        return [split.name for split in self.pipeline.splits]
