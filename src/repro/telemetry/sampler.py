"""The out-of-band telemetry sampler.

On Titan, temperature and power are "approximately collected every minute
for every node" without instrumenting applications.  The simulator's
sampler mirrors that: one tick = one machine-wide snapshot.  Because months
of snapshots cannot be stored, the sampler keeps

* a short linear **window history** of GPU temperature and power per node
  (one hour plus :data:`HISTORY_SLACK` ticks), from which the 5/15/30/60
  minute pre-execution window statistics of the paper's temporal features
  are computed — not at run start, but in one batched flush for every
  start queued since the last one, and
* a fused **online (Welford) state** per node for the currently running
  aprun: mean/std of the value and of its consecutive deltas, for all
  tracked quantities at once.

Both are plain numpy arrays indexed by node id, and the per-tick cost is a
fixed handful of whole-array operations: one Welford update over a
``(5, nodes)`` snapshot and one history column write, whatever the
machine size or the number of runs in flight.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ValidationError

__all__ = ["VectorWelford", "WindowHistory", "RUN_STAT_QUANTITIES", "HISTORY_SLACK"]

#: Quantities tracked per running aprun, in column order: the target GPU's
#: temperature and power, the CPU temperature on the same node, and the
#: mean temperature/power of the *other* GPU nodes in the same slot.
RUN_STAT_QUANTITIES = ("gpu_temp", "gpu_power", "cpu_temp", "nei_temp", "nei_power")

#: Extra history columns beyond the longest window: the window history
#: flushes its queued starts and slides once every ``HISTORY_SLACK`` ticks.
HISTORY_SLACK = 256


class VectorWelford:
    """Per-node online mean/std of the run quantities and of their deltas.

    The state is ``(5, num_nodes)`` float arrays, one row per entry of
    :data:`RUN_STAT_QUANTITIES`, with one count per node shared by all
    five (every quantity of a node is reset and fed together):
    :meth:`update` folds one ``(5, num_nodes)`` snapshot in, :meth:`reset`
    re-arms a subset of nodes when a new aprun starts there, and
    :meth:`stats` reads the four summary statistics (mean, std,
    delta-mean, delta-std) of every quantity at aprun completion with one
    gather.
    """

    def __init__(self, num_nodes: int) -> None:
        shape = (len(RUN_STAT_QUANTITIES), num_nodes)
        self._count = np.zeros(num_nodes)
        self._dcount = np.zeros(num_nodes)
        # mean, m2, dmean, dm2 stacked so a completion gathers them at once.
        self._moments = np.zeros((4, *shape))
        self._mean, self._m2, self._dmean, self._dm2 = self._moments
        self._prev = np.zeros(shape)

    def reset(self, node_ids: np.ndarray) -> None:
        """Clear statistics for ``node_ids`` (a new run starts there)."""
        self._count[node_ids] = 0.0
        self._dcount[node_ids] = 0.0
        self._moments[:, :, node_ids] = 0.0

    def update(self, values: np.ndarray) -> None:
        """Fold one ``(5, num_nodes)`` snapshot in."""
        deltas = values - self._prev
        has_prev = self._count >= 1.0
        self._dcount += has_prev
        dc = np.maximum(self._dcount, 1.0)
        d_delta = np.where(has_prev, deltas - self._dmean, 0.0)
        self._dmean += d_delta / dc
        self._dm2 += d_delta * np.where(has_prev, deltas - self._dmean, 0.0)

        self._count += 1.0
        delta = values - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (values - self._mean)
        np.copyto(self._prev, values)

    def stats(self, node_ids: np.ndarray) -> np.ndarray:
        """Return ``(20, len(node_ids))`` statistics.

        Row ``4 * q + j`` is statistic ``j`` (mean, std, delta-mean,
        delta-std) of quantity ``q`` — the sample-column order of
        :data:`RUN_STAT_QUANTITIES`.
        """
        mean, m2, dmean, dm2 = self._moments[:, :, node_ids]
        count = np.maximum(self._count[node_ids], 1.0)
        dcount_raw = self._dcount[node_ids]
        dcount = np.maximum(dcount_raw, 1.0)
        out = np.empty((mean.shape[0], 4, mean.shape[1]))
        out[:, 0] = mean
        np.sqrt(np.maximum(m2 / count, 0.0), out=out[:, 1])
        out[:, 2] = np.where(dcount_raw > 0, dmean, 0.0)
        np.sqrt(np.maximum(dm2 / dcount, 0.0), out=out[:, 3])
        return out.reshape(-1, mean.shape[1])


def window_stats(window: np.ndarray) -> np.ndarray:
    """``(4, rows)``: mean, std, delta-mean, delta-std of each window row."""
    out = np.zeros((4, window.shape[0]))
    out[0] = window.mean(axis=1)
    out[1] = window.std(axis=1)
    if window.shape[1] >= 2:
        deltas = np.diff(window, axis=1)
        out[2] = deltas.mean(axis=1)
        out[3] = deltas.std(axis=1)
    return out


class WindowHistory:
    """Temperature/power history with deferred pre-execution window stats.

    :meth:`push` appends one ``(2, num_nodes)`` temp/power snapshot to a
    linear buffer of ``capacity + HISTORY_SLACK`` columns.  A run start
    only :meth:`queue`\\ s its nodes, the output rows they fill and the
    buffer position; :meth:`flush` — called when the buffer is full, and
    once at the end of the span — computes every window of every queued
    row with one gather and one set of row reductions per window, length
    and quantity, writes them to ``out``, and the buffer then slides its
    last ``capacity`` columns to the front.

    A start sees the ``min(k, filled)`` snapshots pushed before it, where
    ``filled`` is capped at ``capacity`` (the one-hour ring of the sampler
    model); before any snapshot exists all its statistics are 0, which
    flush leaves to ``out``'s initial zeros.  ``out`` is
    ``(8 * len(window_ticks), rows)``, zero-filled: for each window, temp
    then power, each mean, std, delta-mean, delta-std.
    """

    def __init__(
        self,
        num_nodes: int,
        capacity: int,
        window_ticks: tuple[int, ...],
        out: np.ndarray,
    ) -> None:
        if capacity < 1:
            raise ValidationError("capacity must be >= 1")
        self._data = np.zeros((2, capacity + HISTORY_SLACK, num_nodes))
        self._capacity = capacity
        self._window_ticks = tuple(int(k) for k in window_ticks)
        self._out = out
        self._end = 0
        self._pushed = 0
        self._queue: list[tuple[int, np.ndarray, int, int]] = []

    @property
    def filled(self) -> int:
        """Number of snapshots a start would see now (<= capacity)."""
        return min(self._pushed, self._capacity)

    def push(self, snapshot: np.ndarray) -> None:
        """Append one ``(2, num_nodes)`` temp/power snapshot."""
        if self._end == self._data.shape[1]:
            self.flush()
            keep = self._capacity
            self._data[:, :keep] = self._data[:, self._end - keep : self._end]
            self._end = keep
        self._data[:, self._end] = snapshot
        self._end += 1
        self._pushed += 1

    def queue(self, row: int, node_ids: np.ndarray) -> None:
        """Queue a start on ``node_ids``, filling ``out`` columns from ``row`` on."""
        self._queue.append((row, node_ids, self._end, self.filled))

    def flush(self) -> None:
        """Resolve every queued start's window stats into ``out``."""
        if not self._queue:
            return
        first_rows, node_lists, ends, filled = zip(*self._queue)
        self._queue = []
        sizes = np.asarray([len(nodes) for nodes in node_lists])
        nodes = np.concatenate(node_lists)
        # Output row of each queued node: its start's first row + position.
        rows = np.repeat(np.asarray(first_rows) - (np.cumsum(sizes) - sizes), sizes)
        rows += np.arange(nodes.size)
        ends = np.repeat(np.asarray(ends), sizes)
        filled = np.repeat(np.asarray(filled), sizes)
        for w, k_window in enumerate(self._window_ticks):
            k_row = np.minimum(filled, k_window)
            for k in np.unique(k_row).tolist():
                if k == 0:
                    continue  # no history yet: the rows keep out's zeros
                pick = np.flatnonzero(k_row == k)
                cols = ends[pick, None] - k + np.arange(k)
                for q in range(2):
                    window = self._data[q][cols, nodes[pick, None]]
                    top = 8 * w + 4 * q
                    self._out[top : top + 4, rows[pick]] = window_stats(window)
