"""Tests for the out-of-band sampler primitives.

The fused Welford state and the batched window history must reproduce
the per-quantity and per-run computations they replaced bit for bit, so
each is checked with ``np.array_equal`` against a plain-loop oracle kept
here: the single-quantity Welford recurrence, and the one-hour ring whose
``window_stats`` gathered one run's window at its start.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.sampler import HISTORY_SLACK, VectorWelford, WindowHistory
from repro.utils.errors import ValidationError


class OracleWelford:
    """One quantity's online mean/std of values and deltas."""

    def __init__(self, num_nodes):
        self.count = np.zeros(num_nodes)
        self.mean = np.zeros(num_nodes)
        self.m2 = np.zeros(num_nodes)
        self.prev = np.zeros(num_nodes)
        self.dcount = np.zeros(num_nodes)
        self.dmean = np.zeros(num_nodes)
        self.dm2 = np.zeros(num_nodes)

    def reset(self, node_ids):
        for array in (self.count, self.mean, self.m2, self.dcount, self.dmean, self.dm2):
            array[node_ids] = 0.0

    def update(self, values):
        deltas = values - self.prev
        has_prev = self.count >= 1.0
        self.dcount += has_prev
        dc = np.maximum(self.dcount, 1.0)
        d_delta = np.where(has_prev, deltas - self.dmean, 0.0)
        self.dmean += d_delta / dc
        self.dm2 += d_delta * np.where(has_prev, deltas - self.dmean, 0.0)
        self.count += 1.0
        delta = values - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (values - self.mean)
        self.prev = values.copy()

    def stats(self, node_ids):
        count = np.maximum(self.count[node_ids], 1.0)
        dcount = np.maximum(self.dcount[node_ids], 1.0)
        mean = self.mean[node_ids]
        std = np.sqrt(np.maximum(self.m2[node_ids] / count, 0.0))
        dmean = np.where(self.dcount[node_ids] > 0, self.dmean[node_ids], 0.0)
        dstd = np.sqrt(np.maximum(self.dm2[node_ids] / dcount, 0.0))
        return np.column_stack([mean, std, dmean, dstd])


class OracleRing:
    """One quantity's one-hour ring, read one run's window at a time."""

    def __init__(self, num_nodes, capacity):
        self.data = np.zeros((num_nodes, capacity))
        self.capacity = capacity
        self.filled = 0
        self.pos = 0

    def push(self, values):
        self.data[:, self.pos] = values
        self.pos = (self.pos + 1) % self.capacity
        self.filled = min(self.filled + 1, self.capacity)

    def window_stats(self, node_ids, k):
        k = min(k, self.filled)
        if k <= 0:
            return np.zeros((node_ids.size, 4))
        cols = (self.pos - k + np.arange(k)) % self.capacity
        window = self.data[np.ix_(node_ids, cols)]
        mean = window.mean(axis=1)
        std = window.std(axis=1)
        if k >= 2:
            deltas = np.diff(window, axis=1)
            dmean = deltas.mean(axis=1)
            dstd = deltas.std(axis=1)
        else:
            dmean = np.zeros(node_ids.size)
            dstd = np.zeros(node_ids.size)
        return np.column_stack([mean, std, dmean, dstd])


def oracle_pre_stats(rings, node_ids, window_ticks):
    """``(8 * windows, nodes)`` in the sampler's pre-window row order."""
    return np.hstack(
        [
            np.hstack([ring.window_stats(node_ids, k) for ring in rings])
            for k in window_ticks
        ]
    ).T


def single_window(series, node_ids, k, capacity=None):
    """Window stats of one start after ``series`` (ticks, nodes) was pushed."""
    capacity = capacity or max(k, 1)
    out = np.zeros((8, node_ids.size))
    history = WindowHistory(series.shape[1], capacity, (k,), out)
    for row in series:
        history.push(np.stack([row, row]))
    history.queue(0, node_ids)
    history.flush()
    return out[:4].T


class TestVectorWelford:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=(20, 5, 5))  # 20 ticks, 5 quantities, 5 nodes
        wf = VectorWelford(5)
        for snapshot in series:
            wf.update(snapshot)
        stats = wf.stats(np.arange(5))
        deltas = np.diff(series, axis=0)
        for q in range(5):
            assert np.allclose(stats[4 * q], series[:, q].mean(axis=0))
            assert np.allclose(stats[4 * q + 1], series[:, q].std(axis=0))
            assert np.allclose(stats[4 * q + 2], deltas[:, q].mean(axis=0))
            assert np.allclose(stats[4 * q + 3], deltas[:, q].std(axis=0))

    def test_reset_clears_only_selected(self):
        wf = VectorWelford(3)
        wf.update(np.tile([1.0, 2.0, 3.0], (5, 1)))
        wf.update(np.tile([3.0, 4.0, 5.0], (5, 1)))
        wf.reset(np.array([1]))
        wf.update(np.full((5, 3), 10.0))
        stats = wf.stats(np.arange(3))
        assert stats[0, 1] == pytest.approx(10.0)  # node 1 restarted
        assert stats[0, 0] == pytest.approx(np.mean([1, 3, 10]))

    def test_delta_ignores_pre_reset_value(self):
        """After reset, the first delta uses the previous snapshot (the
        node's telemetry is continuous even when runs change)."""
        wf = VectorWelford(1)
        wf.update(np.full((5, 1), 5.0))
        wf.reset(np.array([0]))
        wf.update(np.full((5, 1), 7.0))
        stats = wf.stats(np.array([0]))
        assert stats[0, 0] == pytest.approx(7.0)

    def test_single_update_zero_std(self):
        wf = VectorWelford(2)
        wf.update(np.full((5, 2), 4.0))
        stats = wf.stats(np.arange(2))
        assert stats.shape == (20, 2)
        assert np.allclose(stats[1::4], 0.0)
        assert np.allclose(stats[3::4], 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_fused_state_matches_per_quantity_oracle(self, seed):
        """Five quantities in one state == five single-quantity states,
        bit for bit, through random resets between updates."""
        rng = np.random.default_rng(seed)
        n = 13
        fused = VectorWelford(n)
        oracles = [OracleWelford(n) for _ in range(5)]
        for _ in range(int(rng.integers(1, 40))):
            if rng.random() < 0.4:
                nodes = np.sort(rng.choice(n, int(rng.integers(1, n)), replace=False))
                fused.reset(nodes)
                for oracle in oracles:
                    oracle.reset(nodes)
            snapshot = rng.normal(40.0, 10.0, size=(5, n))
            fused.update(snapshot)
            for oracle, values in zip(oracles, snapshot):
                oracle.update(values)
            nodes = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
            expected = np.vstack([oracle.stats(nodes).T for oracle in oracles])
            assert np.array_equal(fused.stats(nodes), expected)


class TestHistoryRing:
    """The one-hour history contract, served by :class:`WindowHistory`."""

    def test_invalid_capacity(self):
        with pytest.raises(ValidationError):
            WindowHistory(4, 0, (1,), np.zeros((8, 4)))

    def test_empty_window_is_zero(self):
        out = np.zeros((8, 3))
        history = WindowHistory(3, 4, (2,), out)
        history.queue(0, np.arange(3))
        history.flush()
        assert np.allclose(out, 0.0)

    def test_window_matches_numpy(self):
        rng = np.random.default_rng(1)
        series = rng.normal(size=(10, 4))
        k = 5
        window = series[-k:]
        stats = single_window(series, np.arange(4), k, capacity=6)
        assert np.allclose(stats[:, 0], window.mean(axis=0))
        assert np.allclose(stats[:, 1], window.std(axis=0))
        assert np.allclose(stats[:, 2], np.diff(window, axis=0).mean(axis=0))

    def test_window_clipped_to_filled(self):
        stats = single_window(np.array([[1.0, 2.0]]), np.arange(2), 5, capacity=8)
        assert stats[0, 0] == 1.0
        assert stats[0, 2] == 0.0  # no deltas with one snapshot

    def test_wraparound_order(self):
        """Past a flush and slide the window still reads the latest
        snapshots, oldest first."""
        values = np.arange(HISTORY_SLACK + 10, dtype=float)[:, None]
        stats = single_window(values, np.array([0]), 3, capacity=3)
        assert stats[0, 0] == pytest.approx(values[-3:].mean())
        assert stats[0, 2] == pytest.approx(1.0)  # increasing by 1 each tick

    @given(st.integers(1, 6), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_filled_bounded_by_capacity(self, capacity, pushes):
        history = WindowHistory(2, capacity, (1,), np.zeros((8, 0)))
        for i in range(pushes):
            history.push(np.full((2, 2), float(i)))
        assert history.filled == min(capacity, pushes)


class TestBatchedWindows:
    def test_pushes_and_writes_temp_then_power(self):
        out = np.zeros((8, 2))
        history = WindowHistory(2, 2, (2,), out)
        history.push(np.array([[1.0, 2.0], [10.0, 20.0]]))
        history.push(np.array([[3.0, 4.0], [30.0, 40.0]]))
        history.queue(0, np.arange(2))
        history.flush()
        assert np.array_equal(out[0], [2.0, 3.0])  # temp means
        assert np.array_equal(out[4], [20.0, 30.0])  # power means

    @pytest.mark.parametrize("seed", range(8))
    def test_batched_windows_match_per_start_oracle(self, seed):
        """Queued starts resolved in batched flushes == each start's own
        ring gather, bit for bit: random window lengths, starts inside the
        first hour, and starts on both sides of every flush and slide."""
        rng = np.random.default_rng(seed)
        n = 11
        capacity = int(rng.integers(1, 13))
        window_ticks = tuple(int(k) for k in rng.integers(1, capacity + 1, size=4))
        # At least one flush and slide, sometimes two.
        ticks = int(
            rng.integers(HISTORY_SLACK + capacity + 2, 2 * HISTORY_SLACK + 3 * capacity)
        )
        slide_ticks = {capacity + HISTORY_SLACK * i for i in range(1, 4)}
        starts = []
        for tick in range(ticks):
            near_slide = any(abs(tick - s) <= 1 for s in slide_ticks)
            if tick < capacity or near_slide or rng.random() < 0.2:
                count = int(rng.integers(1, 4))
                for _ in range(count):
                    size = int(rng.integers(1, n + 1))
                    starts.append((tick, np.sort(rng.choice(n, size, replace=False))))
        rows = np.cumsum([0] + [nodes.size for _, nodes in starts])
        out = np.zeros((8 * len(window_ticks), int(rows[-1])))
        history = WindowHistory(n, capacity, window_ticks, out)
        rings = [OracleRing(n, capacity), OracleRing(n, capacity)]
        expected = np.zeros_like(out)
        pending = iter(zip(rows, starts))
        nxt = next(pending, None)
        for tick in range(ticks):
            while nxt is not None and nxt[1][0] == tick:
                row, (_, nodes) = nxt
                history.queue(int(row), nodes)
                expected[:, row : row + nodes.size] = oracle_pre_stats(
                    rings, nodes, window_ticks
                )
                nxt = next(pending, None)
            snapshot = rng.normal(40.0, 8.0, size=(2, n))
            history.push(snapshot)
            for ring, values in zip(rings, snapshot):
                ring.push(values)
        history.flush()
        assert np.array_equal(out, expected)
