"""Causal SBE-history indices.

The paper's history features ("total error count over the preceding day at
the node level and for the whole machine", "SBE rate in the past 24 hours
of the given application and the nodes allocated to it") must be computed
*causally*: at a run's start time, only SBEs whose batch job had already
completed — and therefore had its nvidia-smi delta resolved — are
observable.  :class:`HistoryIndex` stores, per key (node id, app id, or
the single global key), the time-sorted cumulative SBE counts of completed
jobs and answers window-count queries with binary search;
:class:`IncrementalHistoryIndex` answers the same queries for a stream.
:func:`dedupe_job_events` turns sample rows into those per-(job, node)
events for the batch builders and for the replayed event stream alike.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from repro.utils.errors import ValidationError

__all__ = [
    "HistoryIndex",
    "IncrementalHistoryIndex",
    "JobEvents",
    "dedupe_job_events",
    "kept_job_rows",
]


class JobEvents(NamedTuple):
    """Per-(job, node) SBE events, one per kept sample row."""

    job_ids: np.ndarray
    node_ids: np.ndarray
    minutes: np.ndarray
    counts: np.ndarray
    app_ids: np.ndarray


def kept_job_rows(
    job_ids: np.ndarray, node_ids: np.ndarray, end_minutes: np.ndarray
) -> np.ndarray:
    """Index of the kept row per ``(job, node)``, in ``(job, node)`` order.

    The kept row is the one with the latest end minute; among rows that
    end at the same minute the later table row wins.
    """
    order = np.lexsort((end_minutes, node_ids, job_ids))
    job_s, node_s = job_ids[order], node_ids[order]
    is_last = np.ones(order.size, dtype=bool)
    is_last[:-1] = (job_s[:-1] != job_s[1:]) | (node_s[:-1] != node_s[1:])
    return order[is_last]


def dedupe_job_events(
    job_ids: np.ndarray,
    node_ids: np.ndarray,
    end_minutes: np.ndarray,
    sbe_counts: np.ndarray,
    app_ids: np.ndarray,
) -> JobEvents:
    """Collapse per-(run, node) rows into per-(job, node) SBE events.

    A batch job's SBE delta is attributed to *every* aprun of the job (the
    paper's conservative assumption), so summing sample rows would double
    count errors for multi-aprun jobs.  This keeps one event per
    ``(job, node)``, stamped at its kept positive row
    (:func:`kept_job_rows`), and carries that row's job id and app.
    """
    job_ids, node_ids, sbe_counts, app_ids = (
        np.asarray(a, dtype=int) for a in (job_ids, node_ids, sbe_counts, app_ids)
    )
    end_minutes = np.asarray(end_minutes, dtype=float)
    if not (
        job_ids.shape
        == node_ids.shape
        == end_minutes.shape
        == sbe_counts.shape
        == app_ids.shape
    ):
        raise ValidationError("event arrays must share one shape")
    positive = np.flatnonzero(sbe_counts > 0)
    kept = positive[
        kept_job_rows(job_ids[positive], node_ids[positive], end_minutes[positive])
    ]
    return JobEvents(
        job_ids[kept], node_ids[kept], end_minutes[kept], sbe_counts[kept], app_ids[kept]
    )


class HistoryIndex:
    """Per-key cumulative SBE counts over time with window queries."""

    def __init__(self, keys: np.ndarray, minutes: np.ndarray, counts: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=int)
        minutes = np.asarray(minutes, dtype=float)
        counts = np.asarray(counts, dtype=np.int64)
        if not (keys.shape == minutes.shape == counts.shape):
            raise ValidationError("index arrays must share one shape")
        self._series: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        order = np.lexsort((minutes, keys))
        keys, minutes, counts = keys[order], minutes[order], counts[order]
        boundaries = np.nonzero(np.diff(keys))[0] + 1
        for chunk in np.split(np.arange(keys.size), boundaries):
            if chunk.size == 0:
                continue
            key = int(keys[chunk[0]])
            times = minutes[chunk]
            self._series[key] = (times, np.cumsum(counts[chunk]))
        total_order = np.argsort(minutes, kind="mergesort")
        self._global = (minutes[total_order], np.cumsum(counts[total_order]))

    def count_between(self, key: int, start_minute: float, end_minute: float) -> int:
        """SBEs for ``key`` whose event time falls in ``[start, end)``."""
        series = self._series.get(int(key))
        if series is None:
            return 0
        return self._window(series, start_minute, end_minute)

    def global_between(self, start_minute: float, end_minute: float) -> int:
        """Machine-wide SBEs in ``[start, end)``."""
        return self._window(self._global, start_minute, end_minute)

    def batch_between(
        self, keys: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`count_between` over parallel arrays.

        Queries are grouped by key so each per-key series is searched with
        one vectorized ``searchsorted`` pair, which is what makes building
        history features for hundreds of thousands of samples cheap.
        """
        keys = np.asarray(keys, dtype=int)
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if not (keys.shape == starts.shape == ends.shape):
            raise ValidationError("batch query arrays must share one shape")
        out = np.zeros(keys.size, dtype=np.int64)
        order = np.argsort(keys, kind="mergesort")
        sorted_keys = keys[order]
        boundaries = np.nonzero(np.diff(sorted_keys))[0] + 1
        for chunk in np.split(order, boundaries):
            if chunk.size == 0:
                continue
            series = self._series.get(int(keys[chunk[0]]))
            if series is None:
                continue
            times, cums = series
            padded = np.concatenate([[0], cums])
            hi = np.searchsorted(times, ends[chunk], side="left")
            lo = np.searchsorted(times, starts[chunk], side="left")
            out[chunk] = padded[hi] - padded[lo]
        return out

    def global_batch_between(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`global_between` over parallel arrays."""
        times, cums = self._global
        padded = np.concatenate([[0], cums])
        hi = np.searchsorted(times, np.asarray(ends, dtype=float), side="left")
        lo = np.searchsorted(times, np.asarray(starts, dtype=float), side="left")
        return padded[hi] - padded[lo]

    @staticmethod
    def _window(
        series: tuple[np.ndarray, np.ndarray], start: float, end: float
    ) -> int:
        times, cums = series
        hi = int(np.searchsorted(times, end, side="left"))
        lo = int(np.searchsorted(times, start, side="left"))
        upper = int(cums[hi - 1]) if hi > 0 else 0
        lower = int(cums[lo - 1]) if lo > 0 else 0
        return upper - lower


class IncrementalHistoryIndex:
    """Event-at-a-time counterpart of :class:`HistoryIndex`.

    The streaming feature engine cannot rebuild a batch index per event,
    so this class accepts one ``(key, minute, count)`` event at a time —
    in non-decreasing minute order, which is how an online collector sees
    them — and answers the same window queries with the same semantics:
    an event counts toward ``[start, end)`` when ``start <= t < end``
    (``searchsorted(..., side="left")`` in the batch index, ``bisect_left``
    here), so a batch index over the first *n* events and an incremental
    index fed those same *n* events agree exactly.  Both expose
    ``batch_between`` / ``global_batch_between``, the two calls
    :func:`repro.features.builder.history_counts` makes.
    """

    def __init__(self) -> None:
        self._times: dict[int, list[float]] = {}
        self._cums: dict[int, list[int]] = {}
        self._global_times: list[float] = []
        self._global_cums: list[int] = []
        self._last_minute = -np.inf

    def __len__(self) -> int:
        """Number of events applied so far."""
        return len(self._global_times)

    @property
    def last_minute(self) -> float:
        """Minute of the most recent event (``-inf`` when empty)."""
        return self._last_minute

    def add(self, key: int, minute: float, count: int) -> None:
        """Apply one SBE event; minutes must be non-decreasing."""
        minute = float(minute)
        if minute < self._last_minute:
            raise ValidationError(
                f"events must arrive in time order: {minute} after "
                f"{self._last_minute}"
            )
        self._last_minute = minute
        times = self._times.setdefault(int(key), [])
        cums = self._cums.setdefault(int(key), [])
        times.append(minute)
        cums.append((cums[-1] if cums else 0) + int(count))
        self._global_times.append(minute)
        self._global_cums.append(
            (self._global_cums[-1] if self._global_cums else 0) + int(count)
        )

    def count_between(self, key: int, start_minute: float, end_minute: float) -> int:
        """SBEs for ``key`` whose event time falls in ``[start, end)``."""
        times = self._times.get(int(key))
        if not times:
            return 0
        return self._window(times, self._cums[int(key)], start_minute, end_minute)

    def global_between(self, start_minute: float, end_minute: float) -> int:
        """Machine-wide SBEs in ``[start, end)``."""
        return self._window(
            self._global_times, self._global_cums, start_minute, end_minute
        )

    def batch_between(
        self, keys: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> np.ndarray:
        """:meth:`count_between` over parallel arrays (one bisect pair each)."""
        return np.asarray(
            [
                self.count_between(key, start, end)
                for key, start, end in zip(
                    np.asarray(keys).tolist(),
                    np.asarray(starts).tolist(),
                    np.asarray(ends).tolist(),
                )
            ],
            dtype=np.int64,
        )

    def global_batch_between(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """:meth:`global_between` over parallel arrays."""
        return np.asarray(
            [
                self.global_between(start, end)
                for start, end in zip(
                    np.asarray(starts).tolist(), np.asarray(ends).tolist()
                )
            ],
            dtype=np.int64,
        )

    @staticmethod
    def _window(
        times: list[float], cums: list[int], start: float, end: float
    ) -> int:
        hi = bisect_left(times, end)
        lo = bisect_left(times, start)
        upper = cums[hi - 1] if hi > 0 else 0
        lower = cums[lo - 1] if lo > 0 else 0
        return upper - lower
