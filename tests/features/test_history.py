"""Tests for causal SBE history indices."""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.builder import history_counts
from repro.features.history import (
    HistoryIndex,
    IncrementalHistoryIndex,
    dedupe_job_events,
)
from repro.utils.errors import ValidationError


class WindowOracle:
    """Plain-loop reference: one bisect pair per window ``[lo, hi)``.

    This is the per-window query the indices answered before they moved
    to cut points; :func:`oracle_history_counts` asks it for the nine
    windows of each row one at a time.
    """

    def __init__(self, events):
        """``events``: ``(key, minute, count)`` triples in time order."""
        self._series = {None: ([], [])}
        for key, minute, count in events:
            for series_key in (key, None):
                times, cums = self._series.setdefault(series_key, ([], []))
                times.append(minute)
                cums.append((cums[-1] if cums else 0) + count)

    def count_between(self, key, start, end):
        times, cums = self._series.get(key, ([], []))
        hi = bisect_left(times, end)
        lo = bisect_left(times, start)
        upper = cums[hi - 1] if hi > 0 else 0
        lower = cums[lo - 1] if lo > 0 else 0
        return upper - lower

    def global_between(self, start, end):
        return self.count_between(None, start, end)


def oracle_history_counts(events, node_id, app_id, start):
    """The nine window counts of each row, in schema order, by the oracle.

    ``events`` are ``(node, app, minute, count)`` in time order.
    """
    nodes = WindowOracle([(n, m, c) for n, _, m, c in events])
    apps = WindowOracle([(a, m, c) for _, a, m, c in events])
    out = []
    for node, app, s in zip(node_id, app_id, start):
        windows = ((s - 1440.0, s), (s - 2880.0, s - 1440.0), (-np.inf, s - 2880.0))
        row = []
        for lo, hi in windows:
            row += [
                nodes.count_between(node, lo, hi),
                apps.count_between(app, lo, hi),
                nodes.global_between(lo, hi),
            ]
        out.append(row)
    return np.array(out, dtype=np.int64).reshape(len(out), 9).T


#: Minutes on a 720-minute grid (so events land exactly on the cut
#: points s, s - 1440 and s - 2880 and tie each other) or anywhere.
_minutes = st.one_of(
    st.integers(0, 10).map(lambda k: k * 720.0),
    st.floats(0, 7200, allow_nan=False),
)
_events = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), _minutes, st.integers(1, 5)),
    max_size=40,
)
#: Query rows: keys beyond the event keys are unseen by the index.
_queries = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 4), _minutes), min_size=1, max_size=12
)


def _batch_indices(events):
    node = np.array([e[0] for e in events], dtype=int)
    app = np.array([e[1] for e in events], dtype=int)
    minutes = np.array([e[2] for e in events], dtype=float)
    counts = np.array([e[3] for e in events], dtype=int)
    return HistoryIndex(node, minutes, counts), HistoryIndex(app, minutes, counts)


def _incremental_indices(events):
    node_index, app_index = IncrementalHistoryIndex(), IncrementalHistoryIndex()
    for node, app, minute, count in events:
        node_index.add(node, minute, count)
        app_index.add(app, minute, count)
    return node_index, app_index


class TestDedupeJobEvents:
    def test_collapses_multi_aprun_jobs(self):
        # Job 1 has two apruns on node 5, both carrying the job delta 3.
        events = dedupe_job_events(
            job_ids=np.array([1, 1, 2]),
            node_ids=np.array([5, 5, 5]),
            end_minutes=np.array([100.0, 200.0, 300.0]),
            sbe_counts=np.array([3, 3, 1]),
            app_ids=np.array([7, 7, 8]),
        )
        assert events.node_ids.tolist() == [5, 5]
        assert events.minutes.tolist() == [200.0, 300.0]
        assert events.counts.tolist() == [3, 1]
        assert events.job_ids.tolist() == [1, 2]
        assert events.app_ids.tolist() == [7, 8]

    def test_drops_zero_counts(self):
        events = dedupe_job_events(
            np.array([1]), np.array([2]), np.array([50.0]), np.array([0]), np.array([4])
        )
        assert events.node_ids.size == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            dedupe_job_events(
                np.array([1]),
                np.array([1, 2]),
                np.array([1.0]),
                np.array([1]),
                np.array([1]),
            )


def _window(index, key, start, end):
    """SBEs of ``key`` in ``[start, end)``: the difference of two cuts."""
    before = index.counts_before(np.array([key]), np.array([[end], [start]]))
    return int(before[0, 0] - before[1, 0])


def _global_window(index, start, end):
    before = index.global_counts_before(np.array([[end], [start]]))
    return int(before[0, 0] - before[1, 0])


class TestHistoryIndex:
    @pytest.fixture()
    def index(self):
        return HistoryIndex(
            keys=np.array([1, 1, 2, 1]),
            minutes=np.array([10.0, 50.0, 30.0, 90.0]),
            counts=np.array([2, 3, 7, 1]),
        )

    def test_count_between(self, index):
        assert _window(index, 1, 0.0, 100.0) == 6
        assert _window(index, 1, 10.0, 50.0) == 2  # [10, 50) excludes 50
        assert _window(index, 1, 50.0, 90.0) == 3
        assert _window(index, 2, 0.0, 100.0) == 7
        assert _window(index, 99, 0.0, 100.0) == 0

    def test_count_before(self, index):
        # An event at the cut point itself is not yet counted.
        out = index.counts_before(np.array([1, 1, 1, 1]), np.array([[10.0, 50.0, 50.1, -np.inf]]))
        assert out.tolist() == [[0, 2, 5, 0]]
        assert _window(index, 1, -np.inf, 50.0) == 2
        assert _window(index, 1, -np.inf, 50.1) == 5

    def test_global_counts(self, index):
        assert _global_window(index, -np.inf, 100.0) == 13
        assert _global_window(index, 20.0, 60.0) == 10

    def test_batch_matches_scalar(self, index):
        keys = np.array([1, 2, 1, 99, 2])
        cuts = np.array([[100.0, 25.0, 95.0, 100.0, 30.0], [0.0, 0.0, 40.0, 0.0, 30.0]])
        batch = index.counts_before(keys, cuts)
        scalar = [
            index.counts_before(np.array([k]), cuts[:, [i]])[:, 0].tolist()
            for i, k in enumerate(keys)
        ]
        assert batch.T.tolist() == scalar

    def test_global_batch(self, index):
        before = index.global_counts_before(np.array([[100.0, 60.0], [0.0, 20.0]]))
        assert (before[0] - before[1]).tolist() == [13, 10]

    def test_batch_shape_mismatch(self, index):
        with pytest.raises(ValidationError):
            index.counts_before(np.array([1]), np.array([[0.0, 1.0]]))
        with pytest.raises(ValidationError):
            index.counts_before(np.array([1]), np.array([0.0]))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.floats(0, 1000, allow_nan=False),
                st.integers(1, 5),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(0, 1000, allow_nan=False),
        st.floats(0, 1000, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_matches_bruteforce(self, events, a, b):
        lo, hi = min(a, b), max(a, b)
        keys = np.array([e[0] for e in events])
        minutes = np.array([e[1] for e in events])
        counts = np.array([e[2] for e in events])
        index = HistoryIndex(keys, minutes, counts)
        for key in range(4):
            expected = sum(
                c for k, m, c in events if k == key and lo <= m < hi
            )
            assert _window(index, key, lo, hi) == expected


class TestIncrementalHistoryIndex:
    def test_requires_nondecreasing_minutes(self):
        index = IncrementalHistoryIndex()
        index.add(1, 10.0, 2)
        index.add(2, 10.0, 1)  # equal minutes are fine
        with pytest.raises(ValidationError):
            index.add(1, 9.0, 1)

    @pytest.mark.parametrize("minute", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_minutes(self, minute):
        index = IncrementalHistoryIndex()
        index.add(3, 10.0, 1)
        with pytest.raises(ValidationError, match="finite"):
            index.add(3, minute, 1)
        # The refused event left the order check on and the counts alone.
        with pytest.raises(ValidationError, match="time order"):
            index.add(3, 5.0, 1)
        assert len(index) == 1
        assert _window(index, 3, 0.0, 100.0) == 1

    def test_empty_index_counts_zero(self):
        index = IncrementalHistoryIndex()
        assert len(index) == 0
        cuts = np.array([[100.0, 1e9], [0.0, -np.inf]])
        assert index.counts_before(np.array([5, 6]), cuts).tolist() == [[0, 0], [0, 0]]
        assert index.global_counts_before(cuts).tolist() == [[0, 0], [0, 0]]

    def test_rows_sharing_key_and_start_get_one_answer(self):
        index = IncrementalHistoryIndex()
        for minute in (1.0, 2.0, 3.0):
            index.add(7, minute, 2)
        cuts = np.array([[3.0, 3.0, 3.0, 2.0], [0.0, 0.0, 0.0, 0.0]])
        out = index.counts_before(np.array([7, 7, 8, 7]), cuts)
        assert out.tolist() == [[4, 4, 0, 2], [0, 0, 0, 0]]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.floats(0, 1000, allow_nan=False),
                st.integers(1, 5),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(0, 1000, allow_nan=False),
        st.floats(0, 1000, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_batch_index_on_sorted_events(self, events, a, b):
        """Feeding the same events one at a time must reproduce the batch
        index's cut-point counts exactly (the streaming-parity substrate)."""
        events = sorted(events, key=lambda e: e[1])  # arrival order
        keys = np.array([e[0] for e in events])
        minutes = np.array([e[1] for e in events])
        counts = np.array([e[2] for e in events])
        batch = HistoryIndex(keys, minutes, counts)
        incremental = IncrementalHistoryIndex()
        for key, minute, count in events:
            incremental.add(key, minute, count)
        assert len(incremental) == len(events)
        query_keys = np.arange(5)  # key 4 is unseen
        cuts = np.array([[max(a, b)] * 5, [min(a, b)] * 5, [-np.inf] * 5])
        np.testing.assert_array_equal(
            incremental.counts_before(query_keys, cuts),
            batch.counts_before(query_keys, cuts),
        )
        np.testing.assert_array_equal(
            incremental.global_counts_before(cuts), batch.global_counts_before(cuts)
        )


class TestAgainstWindowOracle:
    """Both indices, through :func:`history_counts`, against the oracle."""

    @given(_events, _queries)
    @settings(max_examples=80, deadline=None)
    def test_batch_index(self, events, queries):
        events = sorted(events, key=lambda e: e[2])
        node_id, app_id, start = (np.array(column) for column in zip(*queries))
        counts = history_counts(*_batch_indices(events), node_id, app_id, start)
        expected = oracle_history_counts(events, node_id, app_id, start)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected)

    @given(_events, _queries)
    @settings(max_examples=80, deadline=None)
    def test_incremental_index(self, events, queries):
        events = sorted(events, key=lambda e: e[2])  # arrival order
        node_id, app_id, start = (np.array(column) for column in zip(*queries))
        node_index, app_index = _incremental_indices(events)
        assert len(node_index) == len(events)
        counts = history_counts(node_index, app_index, node_id, app_id, start)
        expected = oracle_history_counts(events, node_id, app_id, start)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected)
