"""Tests for causal SBE history indices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.history import HistoryIndex, dedupe_job_events
from repro.utils.errors import ValidationError


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


class TestHistoryIndex:
    @pytest.fixture()
    def index(self):
        return HistoryIndex(
            keys=np.array([1, 1, 2, 1]),
            minutes=np.array([10.0, 50.0, 30.0, 90.0]),
            counts=np.array([2, 3, 7, 1]),
        )

    def test_count_between(self, index):
        assert index.count_between(1, 0.0, 100.0) == 6
        assert index.count_between(1, 10.0, 50.0) == 2  # [10, 50) excludes 50
        assert index.count_between(1, 50.0, 90.0) == 3
        assert index.count_between(2, 0.0, 100.0) == 7
        assert index.count_between(99, 0.0, 100.0) == 0

    def test_count_before(self, index):
        assert index.count_between(1, -np.inf, 50.0) == 2
        assert index.count_between(1, -np.inf, 50.1) == 5

    def test_global_counts(self, index):
        assert index.global_between(-np.inf, 100.0) == 13
        assert index.global_between(20.0, 60.0) == 10

    def test_batch_matches_scalar(self, index):
        keys = np.array([1, 2, 1, 99])
        starts = np.array([0.0, 0.0, 40.0, 0.0])
        ends = np.array([100.0, 25.0, 95.0, 100.0])
        batch = index.batch_between(keys, starts, ends)
        scalar = [
            index.count_between(int(k), float(a), float(b))
            for k, a, b in zip(keys, starts, ends)
        ]
        assert batch.tolist() == scalar

    def test_global_batch(self, index):
        out = index.global_batch_between(np.array([0.0, 20.0]), np.array([100.0, 60.0]))
        assert out.tolist() == [13, 10]

    def test_batch_shape_mismatch(self, index):
        with pytest.raises(ValidationError):
            index.batch_between(np.array([1]), np.array([0.0, 1.0]), np.array([2.0]))

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
            assert index.count_between(key, lo, hi) == expected


class TestIncrementalHistoryIndex:
    def test_requires_nondecreasing_minutes(self):
        from repro.features.history import IncrementalHistoryIndex

        index = IncrementalHistoryIndex()
        index.add(1, 10.0, 2)
        index.add(2, 10.0, 1)  # equal minutes are fine
        with pytest.raises(ValidationError):
            index.add(1, 9.0, 1)

    def test_empty_index_counts_zero(self):
        from repro.features.history import IncrementalHistoryIndex

        index = IncrementalHistoryIndex()
        assert len(index) == 0
        assert index.count_between(5, 0.0, 100.0) == 0
        assert index.global_between(-np.inf, 1e9) == 0

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
        index's window semantics exactly (the streaming-parity substrate)."""
        from repro.features.history import IncrementalHistoryIndex

        lo, hi = min(a, b), max(a, b)
        events = sorted(events, key=lambda e: e[1])  # arrival order
        keys = np.array([e[0] for e in events])
        minutes = np.array([e[1] for e in events])
        counts = np.array([e[2] for e in events])
        batch = HistoryIndex(keys, minutes, counts)
        incremental = IncrementalHistoryIndex()
        for key, minute, count in events:
            incremental.add(key, minute, count)
        assert len(incremental) == len(events)
        for key in range(4):
            assert incremental.count_between(key, lo, hi) == batch.count_between(
                key, lo, hi
            )
            assert incremental.count_between(
                key, -np.inf, hi
            ) == batch.count_between(key, -np.inf, hi)
        assert incremental.global_between(lo, hi) == batch.global_between(lo, hi)
        assert incremental.global_between(-np.inf, hi) == batch.global_between(
            -np.inf, hi
        )
