"""Tests for the feature matrix builder (including causality)."""

import numpy as np
import pytest

from repro.features.builder import alloc_history, build_features
from repro.features.history import dedupe_job_events
from repro.features.schema import GROUP_APP, GROUP_HIST, GROUP_LOCATION, GROUP_TP
from repro.utils.errors import ValidationError


class TestShape:
    def test_rows_match_trace(self, tiny_trace, tiny_features):
        assert tiny_features.num_samples == tiny_trace.num_samples
        assert tiny_features.X.shape[1] == len(tiny_features.schema)

    def test_no_nans(self, tiny_features):
        assert np.isfinite(tiny_features.X).all()

    def test_labels_binary(self, tiny_features):
        assert set(np.unique(tiny_features.y)) <= {0, 1}
        assert tiny_features.y.sum() > 0

    def test_meta_keys(self, tiny_features):
        for key in (
            "run_idx",
            "job_id",
            "node_id",
            "app_id",
            "start_minute",
            "end_minute",
            "duration_minutes",
            "n_nodes",
            "gpu_core_hours",
            "sbe_count",
        ):
            assert key in tiny_features.meta
            assert tiny_features.meta[key].shape[0] == tiny_features.num_samples

    def test_all_groups_present(self, tiny_features):
        schema = tiny_features.schema
        for group in (GROUP_APP, GROUP_TP, GROUP_HIST, GROUP_LOCATION):
            assert schema.select(include={group})

    def test_tp_refinements(self, tiny_features):
        schema = tiny_features.schema
        cur = schema.select(include={"tp_cur"})
        prev = schema.select(include={"tp_prev"})
        nei = schema.select(include={"tp_nei"})
        assert len(cur) == 8
        assert len(prev) == 32
        assert len(nei) == 12

    def test_hist_refinements(self, tiny_features):
        schema = tiny_features.schema
        assert len(schema.select(include={"hist_local"})) == 4  # node x3 + alloc
        assert len(schema.select(include={"hist_global"})) == 3
        assert len(schema.select(include={"hist_today"})) == 4


class TestRowColumnOps:
    def test_rows_subsetting(self, tiny_features):
        mask = tiny_features.y == 1
        subset = tiny_features.rows(mask)
        assert subset.num_samples == int(mask.sum())
        assert np.all(subset.y == 1)

    def test_columns_by_tag(self, tiny_features):
        X, names = tiny_features.columns(include={GROUP_HIST})
        assert X.shape == (tiny_features.num_samples, len(names))
        assert all(name.startswith("hist_") for name in names)

    def test_mismatched_shapes_rejected(self, tiny_features):
        from repro.features.builder import FeatureMatrix

        with pytest.raises(ValidationError):
            FeatureMatrix(
                X=tiny_features.X[:-1],
                y=tiny_features.y,
                schema=tiny_features.schema,
                meta=tiny_features.meta,
            )


class TestFeatureSemantics:
    def test_location_features_match_topology(self, tiny_trace, tiny_features):
        machine = tiny_trace.machine
        schema = tiny_features.schema
        x_col = schema.index_of("loc_cabinet_x")
        node_col = schema.index_of("loc_node_code")
        nodes = tiny_features.X[:, node_col].astype(int)
        assert np.array_equal(
            tiny_features.X[:, x_col].astype(int), machine.cabinet_x[nodes]
        )

    def test_app_code_matches_meta(self, tiny_features):
        col = tiny_features.schema.index_of("app_code")
        assert np.array_equal(
            tiny_features.X[:, col].astype(int), tiny_features.meta["app_id"]
        )

    def test_top_app_onehot_rows_sum_at_most_one(self, tiny_features):
        idx = [
            i
            for i, name in enumerate(tiny_features.schema.names)
            if name.startswith("app_is_top")
        ]
        sums = tiny_features.X[:, idx].sum(axis=1)
        assert np.all(sums <= 1.0)

    def test_history_causality(self, tiny_trace, tiny_features):
        """hist_node_today must count only SBEs whose job finished
        strictly before the sample's run start."""
        s = tiny_trace.samples
        events = dedupe_job_events(
            s["job_id"], s["node_id"], s["end_minute"], s["sbe_count"], s["app_id"]
        )
        col = tiny_features.schema.index_of("hist_node_today")
        # Check a sample of rows against a brute-force recomputation.
        rng = np.random.default_rng(0)
        rows = rng.choice(tiny_features.num_samples, size=80, replace=False)
        for row in rows:
            node = int(tiny_features.meta["node_id"][row])
            start = float(tiny_features.meta["start_minute"][row])
            seen = (
                (events.node_ids == node)
                & (events.minutes >= start - 1440.0)
                & (events.minutes < start)
            )
            expected = np.log1p(events.counts[seen].sum())
            assert tiny_features.X[row, col] == pytest.approx(expected)

    def test_history_excludes_own_run(self, tiny_features):
        """A sample's own SBE must not leak into its history features."""
        col = tiny_features.schema.index_of("hist_node_before")
        # Find first-ever positive per node: its 'before' history must be 0.
        meta = tiny_features.meta
        order = np.argsort(meta["start_minute"], kind="mergesort")
        seen: set[int] = set()
        checked = 0
        for row in order:
            node = int(meta["node_id"][row])
            if meta["sbe_count"][row] > 0 and node not in seen:
                assert tiny_features.X[row, col] == 0.0
                seen.add(node)
                checked += 1
                if checked > 10:
                    break

    def test_alloc_history_is_run_mean(self, tiny_features):
        alloc_col = tiny_features.schema.index_of("hist_alloc_today")
        node_col = tiny_features.schema.index_of("hist_node_today")
        run_idx = tiny_features.meta["run_idx"]
        target_run = run_idx[np.argmax(tiny_features.X[:, node_col])]
        rows = run_idx == target_run
        node_counts = np.expm1(tiny_features.X[rows, node_col])
        expected = np.log1p(node_counts.mean())
        assert np.allclose(tiny_features.X[rows, alloc_col], expected, atol=1e-9)

    @pytest.mark.parametrize("counts", [[0], [3], [1, 2, 2], [7, 0, 0, 5, 1, 1, 9]])
    def test_one_run_alloc_history_matches_grouped(self, counts):
        # The engine's one-run shortcut must give the grouped path's bits.
        node_today = np.array(counts, dtype=np.int64)
        grouped = alloc_history(np.zeros(node_today.size, dtype=int), node_today)
        assert alloc_history(None, node_today).tobytes() == grouped.tobytes()
