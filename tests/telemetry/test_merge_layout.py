"""The serial-row-order rule and the runs merge, on hand-built shards.

:func:`row_destinations` and :func:`merge_runs` are the one home of the
rule that rebuilds a serial trace from row-aligned shards: runs in
completion order, shards ascending within a run, the first shard's
per-run draws winning and ``sbe_total`` summed shard-ascending.  They
are checked here against plain-loop oracles of that rule.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from repro.store.segments import write_segment
from repro.telemetry.simulator import (
    TraceSimulator,
    merge_runs,
    merge_shard_results,
    row_destinations,
)
from repro.telemetry.trace import SAMPLE_TELEMETRY_COLUMNS
from repro.topology.sharding import plan_shards
from repro.utils.errors import SimulationError

from tests.golden.canonical import canonical_config

#: Completion order of the hand-built schedule.
ORDER = [7, 3, 5, 9]


def _runs(run_ids, sbe_totals, **overrides):
    """A shard's runs table; per-run draws are a function of the run id."""
    run_id = np.asarray(run_ids, dtype=np.int64)
    table = {
        "run_id": run_id,
        "job_id": run_id // 2,
        "n_nodes": run_id % 4 + 3,
        "gpu_util": run_id / 10.0,
        "sbe_total": np.asarray(sbe_totals, dtype=np.float64),
    }
    table.update(overrides)
    return table


def _shards():
    """Three shards over ``ORDER``.

    Run 7 is split across all three shards, run 3 across shards 0 and 2,
    and run 9 across shards 1 and 2; shard 1 is missing runs 3 and 5.
    """
    runs = [
        _runs([7, 3, 5], [0.1, 1.0, 2.0]),
        _runs([7, 9], [0.2, 4.0]),
        _runs([7, 3, 9], [0.3, 0.5, 1.0]),
    ]
    sizes = [np.asarray(s, dtype=np.int64) for s in ([2, 1, 3], [1, 2], [1, 2, 1])]
    return runs, sizes


def _oracle_layout(order, run_ids, block_sizes):
    """Serial rows by a tuple sort over (run position, shard) per block."""
    position = {run_id: pos for pos, run_id in enumerate(order)}
    block_meta = [
        [(position[int(rid)], int(size), b) for b, (rid, size) in enumerate(zip(ids, sizes))]
        for ids, sizes in zip(run_ids, block_sizes)
    ]
    flat = [
        (pos, seg, b, size)
        for seg, blocks in enumerate(block_meta)
        for (pos, size, b) in blocks
    ]
    flat.sort(key=lambda t: (t[0], t[1]))
    offset = 0
    starts: dict[tuple[int, int], int] = {}
    for pos, seg, b, size in flat:
        starts[(seg, b)] = offset
        offset += size
    dests = []
    for seg, blocks in enumerate(block_meta):
        parts = [
            np.arange(starts[(seg, b)], starts[(seg, b)] + size, dtype=np.int64)
            for (pos, size, b) in blocks
        ]
        dests.append(np.concatenate(parts) if parts else np.empty(0, dtype=np.int64))
    return offset, dests


def _oracle_runs(order, shard_runs):
    """The runs merge as a loop over per-run row dicts."""
    rows_by_run: dict[int, list[dict]] = defaultdict(list)
    for runs in shard_runs:
        for i in range(len(runs["run_id"])):
            rows_by_run[int(runs["run_id"][i])].append(
                {name: col[i].item() for name, col in runs.items()}
            )
    merged_rows = []
    for run_id in order:
        rows = rows_by_run.get(run_id)
        if not rows:
            raise SimulationError(f"run {run_id} completed in no shard")
        merged = dict(rows[0])
        for other in rows[1:]:
            if other["gpu_util"] != merged["gpu_util"] or (
                other["n_nodes"] != merged["n_nodes"]
            ):
                raise SimulationError(f"shards disagree on run {run_id}'s per-run draws")
            merged["sbe_total"] += other["sbe_total"]
        merged_rows.append(merged)
    return {
        name: np.asarray([row[name] for row in merged_rows]) for name in merged_rows[0]
    }


class TestRowDestinations:
    def test_split_runs_follow_completion_order_then_shard(self):
        runs, sizes = _shards()
        total, dests = row_destinations(ORDER, [r["run_id"] for r in runs], sizes)
        # run 7: s0 s0 s1 s2 | run 3: s0 s2 s2 | run 5: s0 s0 s0 | run 9: s1 s1 s2
        assert total == 13
        assert [d.tolist() for d in dests] == [
            [0, 1, 4, 7, 8, 9],
            [2, 10, 11],
            [3, 5, 6, 12],
        ]

    def test_matches_tuple_sort_oracle(self):
        runs, sizes = _shards()
        run_ids = [r["run_id"] for r in runs]
        total, dests = row_destinations(ORDER, run_ids, sizes)
        expected_total, expected = _oracle_layout(ORDER, run_ids, sizes)
        assert total == expected_total
        for got, want in zip(dests, expected):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_shard_with_no_runs_gets_no_rows(self):
        runs, sizes = _shards()
        empty = np.empty(0, dtype=np.int64)
        total, dests = row_destinations(
            ORDER, [runs[0]["run_id"], empty, runs[2]["run_id"]], [sizes[0], empty, sizes[2]]
        )
        assert total == 10
        assert dests[1].size == 0
        stacked = np.concatenate(dests)
        np.testing.assert_array_equal(np.sort(stacked), np.arange(total))

    def test_single_shard_layout_is_identity(self):
        sizes = np.asarray([3, 1, 2, 4], dtype=np.int64)
        total, (dest,) = row_destinations(ORDER, [np.asarray(ORDER)], [sizes])
        np.testing.assert_array_equal(dest, np.arange(total))

    def test_run_outside_the_order_raises(self):
        with pytest.raises(SimulationError, match="run 11 is not in"):
            row_destinations(ORDER, [np.asarray([7, 11])], [np.asarray([1, 1])])


class TestMergeRuns:
    def test_matches_loop_oracle(self):
        runs, _ = _shards()
        merged = merge_runs(ORDER, runs)
        expected = _oracle_runs(ORDER, runs)
        assert list(merged) == list(expected)
        for name in expected:
            assert merged[name].dtype == expected[name].dtype, name
            np.testing.assert_array_equal(merged[name], expected[name])
        assert merged["run_id"].tolist() == ORDER

    def test_sbe_total_summed_in_shard_order(self):
        runs, _ = _shards()
        merged = merge_runs(ORDER, runs)
        # Float addition is not associative: shard-ascending is pinned.
        assert merged["sbe_total"][0] == (0.1 + 0.2) + 0.3
        assert merged["sbe_total"][0] != 0.1 + (0.2 + 0.3)
        assert merged["sbe_total"].tolist()[1:] == [1.5, 2.0, 5.0]

    def test_first_shard_values_win(self):
        runs, _ = _shards()
        runs[1]["job_id"] = runs[1]["job_id"] + 100  # not a cross-checked draw
        merged = merge_runs(ORDER, runs)
        assert merged["job_id"].tolist() == [3, 1, 2, 4 + 100]

    def test_shard_with_no_runs_is_skipped(self):
        runs, _ = _shards()
        with_empty = [runs[0], {}, runs[1], runs[2]]
        for name, col in merge_runs(ORDER, with_empty).items():
            np.testing.assert_array_equal(col, merge_runs(ORDER, runs)[name])

    def test_disagreeing_gpu_util_raises(self):
        runs, _ = _shards()
        runs[2]["gpu_util"] = runs[2]["gpu_util"].copy()
        runs[2]["gpu_util"][1] += 0.01  # run 3, also held by shard 0
        with pytest.raises(SimulationError, match="disagree on run 3"):
            merge_runs(ORDER, runs)
        with pytest.raises(SimulationError, match="disagree on run 3"):
            _oracle_runs(ORDER, runs)

    def test_run_in_no_shard_raises(self):
        runs, _ = _shards()
        order = ORDER + [11]
        with pytest.raises(SimulationError, match="run 11 completed in no shard"):
            merge_runs(order, runs)
        with pytest.raises(SimulationError, match="run 11 completed in no shard"):
            _oracle_runs(order, runs)


@pytest.fixture(scope="module")
def day_config():
    """The golden config cut to one day: a shard simulates in well under 1 s."""
    return replace(canonical_config(2018), duration_days=1.0)


class TestShardResult:
    def test_single_full_span_shard_is_used_without_copy(self, day_config):
        result = TraceSimulator(day_config).run_span()
        trace = merge_shard_results(day_config, [result])
        for name, col in result.samples.items():
            assert trace.samples[name] is col, name
        assert set(trace.meta["stage_seconds"]) == {"simulate", "sample", "collate"}

    def test_run_constant_columns_repeat_the_runs_table(self, day_config):
        result = TraceSimulator(day_config).run_span()
        s, runs = result.samples, result.runs
        run_of_row = np.repeat(np.arange(result.block_size.size), result.block_size)
        np.testing.assert_array_equal(s["run_idx"], runs["run_id"][run_of_row])
        np.testing.assert_array_equal(s["gpu_util"], runs["gpu_util"][run_of_row])
        np.testing.assert_array_equal(
            s["duration_minutes"], s["end_minute"] - s["start_minute"]
        )
        assert s["run_idx"].dtype == np.int32
        assert s["n_nodes"].dtype == np.int32
        assert s["gpu_core_hours"].dtype == np.float64

    def test_segment_member_names_are_pinned(self, day_config, tmp_path):
        """Store format 1: the npz members every reader relies on."""
        span = plan_shards(day_config.machine, 2)[0]
        result = TraceSimulator(day_config, span).run_span()
        write_segment(tmp_path / "seg-0000.npz", result, span)
        with np.load(tmp_path / "seg-0000.npz") as data:
            members = set(data.files)
        samples = [
            "run_idx", "job_id", "app_id", "user_id", "node_id",
            "start_minute", "end_minute", "duration_minutes", "n_nodes",
            "gpu_core_hours", "gpu_util", "max_mem_gb", "agg_mem_gb",
            "prev_app_id", "sbe_count", *SAMPLE_TELEMETRY_COLUMNS,
        ]  # fmt: skip
        runs = [
            "run_id", "job_id", "app_id", "user_id", "start_minute",
            "end_minute", "n_nodes", "gpu_core_hours", "gpu_util",
            "max_mem_gb", "agg_mem_gb", "sbe_total",
        ]  # fmt: skip
        recorded = [
            "minute", "gpu_temp", "gpu_power", "cpu_temp",
            "slot_avg_temp", "slot_avg_power", "cage_avg_temp",
        ]  # fmt: skip
        assert day_config.record_nodes == (3,)
        assert members == {
            "block_run_id",
            "block_size",
            "completion_order",
            "temp_sum",
            "power_sum",
            "node_susceptibility",
            "num_ticks",
            *(f"samples/{name}" for name in samples),
            *(f"runs/{name}" for name in runs),
            *(f"recorded/3/{name}" for name in recorded),
            # Wall-time stage seconds; a segment lacking one reads as 0 s.
            "stage/simulate",
            "stage/sample",
            "stage/collate",
        }
