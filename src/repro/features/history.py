"""Causal SBE-history indices.

The paper's history features ("total error count over the preceding day at
the node level and for the whole machine", "SBE rate in the past 24 hours
of the given application and the nodes allocated to it") must be computed
*causally*: at a run's start time, only SBEs whose batch job had already
completed — and therefore had its nvidia-smi delta resolved — are
observable.  :class:`HistoryIndex` stores, per key (node id, app id, or
the single global key), the time-sorted cumulative SBE counts of completed
jobs and answers, by binary search, how many SBEs were stamped before
given cut points (a window count is the difference of two);
:class:`IncrementalHistoryIndex` answers the same queries for a stream.
:func:`dedupe_job_events` turns sample rows into those per-(job, node)
events for the batch builders and for the replayed event stream alike.
"""

from __future__ import annotations

import math
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


def _cut_array(cuts, size: int | None = None) -> np.ndarray:
    """``cuts`` as a float ``(m, n)`` array: ``m`` cut points per row."""
    cuts = np.asarray(cuts, dtype=float)
    if cuts.ndim != 2 or (size is not None and cuts.shape[1] != size):
        raise ValidationError(
            f"cuts must be (points, rows) with {size} row(s), got shape "
            f"{cuts.shape}"
        )
    return cuts


class HistoryIndex:
    """Per-key cumulative SBE counts over time, queried at cut points.

    ``counts_before(keys, cuts)[j, i]`` is the number of SBEs of key
    ``keys[i]`` stamped strictly before ``cuts[j, i]``
    (``searchsorted(..., side="left")``), so the count in a window
    ``[lo, hi)`` is the difference of the counts before ``hi`` and
    before ``lo``, and a ``-inf`` lower bound contributes 0.
    """

    def __init__(self, keys: np.ndarray, minutes: np.ndarray, counts: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=int)
        minutes = np.asarray(minutes, dtype=float)
        counts = np.asarray(counts, dtype=np.int64)
        if not (keys.shape == minutes.shape == counts.shape):
            raise ValidationError("index arrays must share one shape")
        #: key -> (sorted event minutes, cumulative counts with a leading 0).
        self._series: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        order = np.lexsort((minutes, keys))
        keys, minutes, counts = keys[order], minutes[order], counts[order]
        boundaries = np.nonzero(np.diff(keys))[0] + 1
        for chunk in np.split(np.arange(keys.size), boundaries):
            if chunk.size == 0:
                continue
            self._series[int(keys[chunk[0]])] = (
                minutes[chunk],
                np.concatenate(([0], np.cumsum(counts[chunk]))),
            )
        total_order = np.argsort(minutes, kind="mergesort")
        self._global = (
            minutes[total_order],
            np.concatenate(([0], np.cumsum(counts[total_order]))),
        )

    def counts_before(self, keys: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        """SBEs of ``keys[i]`` stamped before ``cuts[j, i]``, as ``(m, n)``.

        Rows are grouped by key, so each per-key series is searched once,
        with every cut point of its rows.
        """
        keys = np.asarray(keys, dtype=int)
        cuts = _cut_array(cuts, keys.size)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_cuts = cuts[:, order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], keys.size)
        found = np.zeros(cuts.shape, dtype=np.int64)
        for key, lo, hi in zip(
            sorted_keys[starts].tolist(), starts.tolist(), ends.tolist()
        ):
            series = self._series.get(key)
            if series is None:
                continue
            times, cums = series
            found[:, lo:hi] = cums[
                np.searchsorted(times, sorted_cuts[:, lo:hi], side="left")
            ]
        out = np.empty_like(found)
        out[:, order] = found
        return out

    def global_counts_before(self, cuts: np.ndarray) -> np.ndarray:
        """Machine-wide SBEs stamped before each cut point, same shape."""
        times, cums = self._global
        return cums[np.searchsorted(times, np.asarray(cuts, dtype=float), side="left")]


class IncrementalHistoryIndex:
    """Event-at-a-time counterpart of :class:`HistoryIndex`.

    The streaming feature engine cannot rebuild a batch index per event,
    so this class accepts one ``(key, minute, count)`` event at a time —
    in non-decreasing minute order, which is how an online collector sees
    them — and answers the same cut-point queries with the same
    semantics: an event counts before a cut ``c`` when ``t < c``
    (``searchsorted(..., side="left")`` in the batch index,
    ``bisect_left`` here), so a batch index over the first *n* events and
    an incremental index fed those same *n* events agree exactly.

    A query answers all rows of one run at once; rows that share a key
    and cut points (every row of a run, for the app and machine scopes)
    are looked up once.
    """

    def __init__(self) -> None:
        #: key -> (event minutes, cumulative counts with a leading 0); the
        #: machine-wide series is keyed ``None``.
        self._series: dict[int | None, tuple[list[float], list[int]]] = {
            None: ([], [0])
        }
        self._last_minute = -np.inf

    def __len__(self) -> int:
        """Number of events applied so far."""
        return len(self._series[None][0])

    @property
    def last_minute(self) -> float:
        """Minute of the most recent event (``-inf`` when empty)."""
        return self._last_minute

    def add(self, key: int, minute: float, count: int) -> None:
        """Apply one SBE event; minutes must be finite and non-decreasing."""
        minute = float(minute)
        if not math.isfinite(minute):
            raise ValidationError(f"event minute must be finite, got {minute}")
        if minute < self._last_minute:
            raise ValidationError(
                f"events must arrive in time order: {minute} after "
                f"{self._last_minute}"
            )
        self._last_minute = minute
        count = int(count)
        for series_key in (int(key), None):
            times, cums = self._series.setdefault(series_key, ([], [0]))
            times.append(minute)
            cums.append(cums[-1] + count)

    def counts_before(self, keys: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        """SBEs of ``keys[i]`` stamped before ``cuts[j, i]``, as ``(m, n)``."""
        keys = np.asarray(keys, dtype=int)
        return self._answer(keys.tolist(), _cut_array(cuts, keys.size))

    def global_counts_before(self, cuts: np.ndarray) -> np.ndarray:
        """Machine-wide SBEs stamped before each cut point, same shape."""
        cuts = _cut_array(cuts)
        return self._answer([None] * cuts.shape[1], cuts)

    def _answer(self, keys: list, cuts: np.ndarray) -> np.ndarray:
        points = cuts.shape[0]
        found: dict[tuple, list[int]] = {}
        flat: list[int] = []
        for query in zip(keys, *cuts.tolist()):
            counts = found.get(query)
            if counts is None:
                series = self._series.get(query[0])
                if series is None:
                    counts = [0] * points
                else:
                    times, cums = series
                    counts = [cums[bisect_left(times, cut)] for cut in query[1:]]
                found[query] = counts
            flat += counts
        return np.array(flat, dtype=np.int64).reshape(len(keys), points).T
