"""The replayed event stream's SBE and label events follow one rule.

Per (job, node), the kept sample row is the one with the latest end
minute, the later table row winning ties.  ``SbeObserved`` applies it to
the positive rows; ``JobResolved`` applies it to all of a job's rows,
zeros included.  The oracle below is a plain loop over the rows, so the
tests do not lean on the vectorised dedupe they check.
"""

import dataclasses

import numpy as np
import pytest

from repro.faults import FaultSpec, inject_faults, sanitize_trace
from repro.features.history import dedupe_job_events
from repro.serve.events import JobResolved, SbeObserved, iter_trace_events
from repro.utils.errors import DegradedDataWarning


def _trace_with_rows(trace, **columns):
    """``trace`` cut to the given rows, with those columns overwritten."""
    n = len(columns["run_idx"])
    samples = {name: values[:n].copy() for name, values in trace.samples.items()}
    for name, values in columns.items():
        samples[name] = np.asarray(values, dtype=samples[name].dtype)
    return dataclasses.replace(trace, samples=samples)


def _kept_rows(samples, rows):
    """(job, node) -> the kept row among ``rows`` (latest end, later row)."""
    job, node, end = samples["job_id"], samples["node_id"], samples["end_minute"]
    kept: dict[tuple[int, int], int] = {}
    for row in rows:
        key = (int(job[row]), int(node[row]))
        if key not in kept or end[row] >= end[kept[key]]:
            kept[key] = row
    return kept


def _expected_sbe(samples):
    """(node, minute, count, app) per SBE event, in delivery order."""
    positive = np.flatnonzero(samples["sbe_count"] > 0)
    kept = _kept_rows(samples, positive)
    order = sorted(kept, key=lambda key: (float(samples["end_minute"][kept[key]]), key))
    return [
        (
            key[1],
            float(samples["end_minute"][kept[key]]),
            int(samples["sbe_count"][kept[key]]),
            int(samples["app_id"][kept[key]]),
        )
        for key in order
    ]


def _expected_resolved(samples):
    """(minute, job, nodes, counts) per resolved job, in delivery order."""
    kept = _kept_rows(samples, range(samples["job_id"].shape[0]))
    jobs: dict[int, list[tuple[int, int]]] = {}
    for (job, node), row in sorted(kept.items()):
        jobs.setdefault(job, []).append((node, row))
    resolved = [
        (
            max(float(samples["end_minute"][row]) for _, row in pairs),
            job,
            [node for node, _ in pairs],
            [int(samples["sbe_count"][row]) for _, row in pairs],
        )
        for job, pairs in jobs.items()
    ]
    return sorted(resolved, key=lambda item: item[:2])


def _stream(trace):
    events = list(iter_trace_events(trace))
    sbe = [
        (e.node_id, e.minute, e.count, e.app_id)
        for e in events
        if isinstance(e, SbeObserved)
    ]
    resolved = [
        (e.minute, e.job_id, e.node_ids.tolist(), e.counts.tolist())
        for e in events
        if isinstance(e, JobResolved)
    ]
    return sbe, resolved


class TestHandBuiltRows:
    def test_equal_end_minutes_keep_the_later_row(self, tiny_trace):
        # One job runs two apruns on node 4 that end at the same minute
        # with different counts and apps: both events take the later row.
        trace = _trace_with_rows(
            tiny_trace,
            run_idx=[0, 1],
            job_id=[1, 1],
            node_id=[4, 4],
            app_id=[3, 6],
            start_minute=[10.0, 50.0],
            end_minute=[100.0, 100.0],
            sbe_count=[2, 5],
        )
        sbe, resolved = _stream(trace)
        assert sbe == [(4, 100.0, 5, 6)]
        assert resolved == [(100.0, 1, [4], [5])]

    def test_later_zero_row_resolves_zero_but_keeps_the_sbe(self, tiny_trace):
        # The later aprun on the node saw no SBE: the observed event keeps
        # the earlier positive count, the job's label resolves to 0.
        trace = _trace_with_rows(
            tiny_trace,
            run_idx=[0, 1],
            job_id=[1, 1],
            node_id=[4, 4],
            app_id=[6, 6],
            start_minute=[10.0, 150.0],
            end_minute=[100.0, 200.0],
            sbe_count=[3, 0],
        )
        sbe, resolved = _stream(trace)
        assert sbe == [(4, 100.0, 3, 6)]
        assert resolved == [(200.0, 1, [4], [0])]


class TestSanitizedFaultyTrace:
    @pytest.fixture(scope="class")
    def sanitized(self, tiny_trace):
        faulty, _ = inject_faults(tiny_trace, FaultSpec(intensity=0.25, seed=3))
        with pytest.warns(DegradedDataWarning):
            sanitized, _ = sanitize_trace(faulty)
        return sanitized

    def test_sbe_events_are_the_dedupe_of_positive_rows(self, sanitized):
        sbe, _ = _stream(sanitized)
        expected = _expected_sbe(sanitized.samples)
        assert len(expected) > 0
        assert sbe == expected

    def test_job_resolution_keeps_one_row_per_node(self, sanitized):
        _, resolved = _stream(sanitized)
        assert resolved == _expected_resolved(sanitized.samples)

    def test_dedupe_job_events_matches_the_rule(self, sanitized):
        s = sanitized.samples
        events = dedupe_job_events(
            s["job_id"], s["node_id"], s["end_minute"], s["sbe_count"], s["app_id"]
        )
        got = sorted(
            zip(
                events.node_ids.tolist(),
                events.minutes.tolist(),
                events.counts.tolist(),
                events.app_ids.tolist(),
            )
        )
        assert got == sorted(_expected_sbe(s))
