"""JSON wire codec: lossless round trips and strict rejection."""

import json

import numpy as np
import pytest

from repro.gateway.codec import event_from_dict, event_to_dict
from repro.serve.events import (
    ROW_COLUMNS,
    JobResolved,
    RunCompleted,
    RunStarted,
    SbeObserved,
    iter_trace_events,
)
from repro.utils.errors import ValidationError


def sample_events():
    return [
        RunStarted(
            minute=10.0,
            run_idx=3,
            node_ids=np.asarray([1, 2], dtype=int),
            app_ids=np.asarray([7, 7], dtype=int),
            start_minutes=np.asarray([10.0, 10.5]),
        ),
        RunCompleted(
            minute=40.0,
            run_idx=3,
            rows={
                name: np.asarray(
                    [1.0, 2.0],
                    dtype=(
                        int
                        if name
                        in {
                            "run_idx",
                            "job_id",
                            "node_id",
                            "app_id",
                            "prev_app_id",
                            "n_nodes",
                        }
                        else float
                    ),
                )
                for name in ROW_COLUMNS
            },
        ),
        SbeObserved(minute=41.0, job_id=9, node_id=2, app_id=7, count=4),
        JobResolved(
            minute=42.0,
            job_id=9,
            node_ids=np.asarray([1, 2], dtype=int),
            counts=np.asarray([0, 4], dtype=np.int64),
        ),
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("event", sample_events(), ids=lambda e: type(e).__name__)
    def test_round_trip_preserves_every_field(self, event):
        encoded = event_to_dict(event)
        json.dumps(encoded)  # must be JSON-serializable as-is
        decoded = event_from_dict(json.loads(json.dumps(encoded)))
        assert type(decoded) is type(event)
        assert event_to_dict(decoded) == encoded

    def test_round_trip_on_a_real_stream_prefix(self, tiny_trace):
        for event, _ in zip(iter_trace_events(tiny_trace), range(50)):
            decoded = event_from_dict(event_to_dict(event))
            assert event_to_dict(decoded) == event_to_dict(event)

    def test_decoded_arrays_have_engine_dtypes(self):
        decoded = event_from_dict(event_to_dict(sample_events()[1]))
        assert decoded.rows["node_id"].dtype.kind == "i"
        assert decoded.rows["gpu_util"].dtype.kind == "f"


class TestRejection:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError, match="unknown event type"):
            event_from_dict({"type": "node_exploded", "minute": 1.0})

    def test_missing_field_rejected(self):
        payload = event_to_dict(sample_events()[2])
        del payload["node_id"]
        with pytest.raises(ValidationError, match="missing field"):
            event_from_dict(payload)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValidationError):
            event_from_dict([1, 2, 3])

    def test_malformed_numeric_rejected(self):
        payload = event_to_dict(sample_events()[2])
        payload["count"] = "many"
        with pytest.raises(ValidationError, match="malformed"):
            event_from_dict(payload)

    def test_run_completed_missing_column_rejected(self):
        payload = event_to_dict(sample_events()[1])
        del payload["rows"]["gpu_util"]
        with pytest.raises(ValidationError, match="missing column"):
            event_from_dict(payload)

    @pytest.mark.parametrize("index", range(4))
    def test_non_finite_minute_rejected(self, index):
        # JSON NaN / Infinity parse as floats; the codec must refuse them.
        text = json.dumps(event_to_dict(sample_events()[index]))
        for bad in ("NaN", "Infinity", "-Infinity"):
            payload = json.loads(text)
            payload["minute"] = json.loads(bad)
            with pytest.raises(ValidationError, match="finite"):
                event_from_dict(payload)

    def test_non_finite_start_minute_rejected(self):
        payload = event_to_dict(sample_events()[0])
        payload["start_minutes"][1] = float("nan")
        with pytest.raises(ValidationError, match="finite"):
            event_from_dict(payload)

    def test_run_started_length_mismatch_rejected(self):
        payload = event_to_dict(sample_events()[0])
        payload["app_ids"] = payload["app_ids"][:1]
        with pytest.raises(ValidationError, match="disagree in shape"):
            event_from_dict(payload)
        payload = event_to_dict(sample_events()[0])
        payload["node_ids"] = 5  # a scalar is not a per-row list
        with pytest.raises(ValidationError, match="disagree in shape"):
            event_from_dict(payload)

    def test_run_completed_column_length_mismatch_rejected(self):
        payload = event_to_dict(sample_events()[1])
        payload["rows"]["gpu_util"] = payload["rows"]["gpu_util"][:1]
        with pytest.raises(ValidationError, match="disagree in shape"):
            event_from_dict(payload)

    def test_job_resolved_length_mismatch_rejected(self):
        payload = event_to_dict(sample_events()[3])
        payload["counts"] = payload["counts"][:1]
        with pytest.raises(ValidationError, match="equal length"):
            event_from_dict(payload)
