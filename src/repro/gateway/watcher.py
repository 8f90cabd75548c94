"""Registry watcher: rolling model hot-swaps across scorer shards.

One watcher serves the whole gateway.  On a virtual-clock cadence it
lists the model registry, and when a newer committed version appears it
stages a *rolling* swap: the candidate is checksum-verified and loaded
once, then applied to one shard at a time through each shard's
between-events hook — the same slot the replay path uses for periodic
retraining, so a swap can never split a single event's rows across two
model versions, and no shard ever pauses its queue to swap.

A version that fails verification (torn manifest, checksum mismatch,
schema drift) is remembered as bad and never retried; the previous
model keeps serving on every shard — identical policy to the replay
path's hot-swap supervision.
"""

from __future__ import annotations

from collections import deque

from repro.serve.registry import ModelRegistry
from repro.utils.errors import ModelRegistryError

__all__ = ["RegistryWatcher"]


class RegistryWatcher:
    """Polls a registry name and rolls new versions across shards."""

    def __init__(
        self,
        registry: ModelRegistry,
        name: str,
        *,
        num_shards: int,
        current_version: int,
        expect_feature_names,
        poll_interval_minutes: float = 1440.0,
    ) -> None:
        self.registry = registry
        self.name = name
        self.num_shards = int(num_shards)
        self.current_version = int(current_version)
        self.expect_feature_names = list(expect_feature_names)
        self.poll_interval_minutes = float(poll_interval_minutes)
        self._last_poll = float("-inf")
        #: Staged rolling swap: (version, predictor, shards still waiting).
        self._pending: tuple[int, object, deque[int]] | None = None
        self._bad_versions: set[int] = set()
        self.polls = 0
        self.swaps_completed = 0
        self.swaps_rejected = 0
        self.notes: list[str] = []

    # ------------------------------------------------------------------
    def check(self, now_minute: float) -> None:
        """Virtual-clock poll: stage a rolling swap if a new version landed."""
        if now_minute - self._last_poll < self.poll_interval_minutes:
            return
        self._last_poll = float(now_minute)
        self.polls += 1
        if self._pending is not None:
            return  # one rolling swap at a time
        newest = None
        for version in self.registry.list_versions(self.name):
            if (
                version.version > self.current_version
                and version.version not in self._bad_versions
            ):
                newest = version.version
        if newest is None:
            return
        try:
            predictor, entry = self.registry.load_model(
                self.name, newest, expect_feature_names=self.expect_feature_names
            )
        except ModelRegistryError as exc:
            self._bad_versions.add(newest)
            self.swaps_rejected += 1
            self.notes.append(
                f"rejected v{newest:04d} (previous model kept): {exc}"
            )
            return
        self._pending = (entry.version, predictor, deque(range(self.num_shards)))
        self.notes.append(
            f"staged rolling swap to v{entry.version:04d} "
            f"across {self.num_shards} shard(s)"
        )

    def maybe_swap(self, shard_id: int, scorer) -> bool:
        """Between-events hook: swap this shard if it is next in line.

        Shards swap in shard-id order, one per call, so at any instant at
        most one shard differs from its neighbours by a single version —
        the rolling-deploy invariant.
        """
        if self._pending is None:
            return False
        version, predictor, remaining = self._pending
        if not remaining or remaining[0] != int(shard_id):
            return False
        scorer.swap_model(predictor, version)
        remaining.popleft()
        if not remaining:
            self.current_version = version
            self._pending = None
            self.swaps_completed += 1
            self.notes.append(f"rolling swap to v{version:04d} complete")
        return True
