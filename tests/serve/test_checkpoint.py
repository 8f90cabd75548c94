"""Tests for replay checkpointing and kill-and-resume recovery."""

import pytest

from repro.serve import checkpoint as checkpoint_module
from repro.serve import replay as replay_module
from repro.serve import serve_replay
from repro.serve.checkpoint import CheckpointManager
from repro.serve.resilience import ChaosPlan
from repro.utils.errors import (
    DegradedDataWarning,
    SimulatedCrashError,
    ValidationError,
)


class TestCheckpointManager:
    def test_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        state = {"cursor": 42, "payload": list(range(10))}
        info = manager.save(100, state, key="k1")
        assert info.events_done == 100
        events, loaded = manager.load_latest(expected_key="k1")
        assert events == 100
        assert loaded == state

    def test_latest_wins(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(100, {"n": 1}, key="k")
        manager.save(300, {"n": 3}, key="k")
        manager.save(200, {"n": 2}, key="k")
        events, state = manager.load_latest(expected_key="k")
        assert (events, state["n"]) == (300, 3)

    def test_corrupt_manifest_skipped_with_warning(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(100, {"n": 1}, key="k")
        manager.save(200, {"n": 2}, key="k")
        (tmp_path / "ckpt-00000200.json").write_text("{not json")
        with pytest.warns(DegradedDataWarning, match="corrupt checkpoint"):
            events, state = manager.load_latest(expected_key="k")
        assert (events, state["n"]) == (100, 1)

    def test_missing_payload_skipped_with_warning(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(100, {"n": 1}, key="k")
        manager.save(200, {"n": 2}, key="k")
        (tmp_path / "ckpt-00000200.pkl").unlink()
        with pytest.warns(DegradedDataWarning, match="payload missing"):
            events, _ = manager.load_latest(expected_key="k")
        assert events == 100

    def test_tampered_payload_fails_checksum(self, tmp_path):
        from repro.utils.errors import TraceIOError

        manager = CheckpointManager(tmp_path)
        manager.save(100, {"n": 1}, key="k")
        payload = tmp_path / "ckpt-00000100.pkl"
        payload.write_bytes(payload.read_bytes() + b"x")
        with pytest.raises(TraceIOError, match="checksum"):
            manager.load_latest(expected_key="k")

    def test_key_mismatch_refuses_resume(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(100, {"n": 1}, key="k1")
        with pytest.raises(ValidationError, match="incompatible"):
            manager.load_latest(expected_key="k2")

    def test_empty_store_refuses_resume(self, tmp_path):
        with pytest.raises(ValidationError, match="nothing to resume"):
            CheckpointManager(tmp_path / "none").load_latest(expected_key="k")

    def test_prune_keeps_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for events in (100, 200, 300, 400):
            manager.save(events, {"e": events}, key="k")
        removed = manager.prune(keep_last=2)
        assert removed == 2
        assert [i.events_done for i in manager.list_checkpoints()] == [300, 400]


def _replay(trace, context, root, **kwargs):
    return serve_replay(
        trace,
        root,
        splits=context.preset_splits(),
        split="DS1",
        model="lr",
        batch_size=64,
        fast=True,
        **kwargs,
    )


class TestKillAndResume:
    def test_resume_is_bit_identical_without_chaos(
        self, tiny_trace, tiny_context, tmp_path
    ):
        baseline = _replay(tiny_trace, tiny_context, tmp_path / "r1")
        with pytest.raises(SimulatedCrashError):
            _replay(
                tiny_trace,
                tiny_context,
                tmp_path / "r2",
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every_events=150,
                crash_after_events=700,
            )
        resumed = _replay(
            tiny_trace,
            tiny_context,
            tmp_path / "r2",
            checkpoint_dir=tmp_path / "ckpt",
            resume=True,
        )
        assert resumed.resumed_from == 600
        assert resumed.digest() == baseline.digest()
        assert resumed.online_report == baseline.online_report
        assert resumed.agreement == baseline.agreement == 1.0

    def test_resume_is_bit_identical_under_chaos_with_retrain(
        self, tiny_trace, tiny_context, tmp_path
    ):
        plan = ChaosPlan(intensity=0.25, seed=7)
        baseline = _replay(
            tiny_trace,
            tiny_context,
            tmp_path / "r1",
            chaos=plan,
            retrain_every_days=4.0,
        )
        with pytest.raises(SimulatedCrashError):
            _replay(
                tiny_trace,
                tiny_context,
                tmp_path / "r2",
                chaos=plan,
                retrain_every_days=4.0,
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every_events=200,
                crash_after_events=900,
            )
        resumed = _replay(
            tiny_trace,
            tiny_context,
            tmp_path / "r2",
            chaos=plan,
            retrain_every_days=4.0,
            checkpoint_dir=tmp_path / "ckpt",
            resume=True,
        )
        assert resumed.resumed_from == 800
        assert resumed.digest() == baseline.digest()

    def test_resume_requires_checkpoint_dir(self, tiny_trace, tiny_context, tmp_path):
        with pytest.raises(ValidationError, match="checkpoint directory"):
            _replay(tiny_trace, tiny_context, tmp_path / "r", resume=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resume": True},
            {"checkpoint_every_events": 0},
            {"checkpoint_every_events": -5},
            {"checkpoint_every_events": 0.5},
        ],
    )
    def test_bad_checkpoint_options_rejected_before_the_batch_fit(
        self, tiny_trace, tiny_context, tmp_path, monkeypatch, kwargs
    ):
        def no_fit(*args, **kw):
            raise AssertionError("the batch fit ran before validation")

        monkeypatch.setattr(replay_module, "build_features", no_fit)
        kwargs.setdefault("checkpoint_dir", None if "resume" in kwargs else tmp_path)
        with pytest.raises(ValidationError):
            _replay(tiny_trace, tiny_context, tmp_path / "r", **kwargs)

    def test_format_2_checkpoint_refused_with_typed_error(
        self, tiny_trace, tiny_context, tmp_path, monkeypatch
    ):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(SimulatedCrashError):
            _replay(
                tiny_trace,
                tiny_context,
                tmp_path / "r",
                checkpoint_dir=ckpt,
                checkpoint_every_events=100,
                crash_after_events=100,
            )
        (info,) = CheckpointManager(ckpt).list_checkpoints()
        # Rewrite it as the format-2 layout: the old 11-key state dict,
        # under the resuming run's own compatibility key.
        for path in ckpt.iterdir():
            path.unlink()
        monkeypatch.setattr(checkpoint_module, "CHECKPOINT_FORMAT", 2)
        CheckpointManager(ckpt).save(
            info.events_done,
            {"worker": None, "alerts": [], "retrains": 0, "notes": []},
            key=info.key,
        )
        monkeypatch.undo()
        with pytest.warns(DegradedDataWarning, match="format 2"):
            with pytest.raises(ValidationError, match="nothing to resume"):
                _replay(
                    tiny_trace,
                    tiny_context,
                    tmp_path / "r",
                    checkpoint_dir=ckpt,
                    resume=True,
                )

    def test_resume_rejects_incompatible_configuration(
        self, tiny_trace, tiny_context, tmp_path
    ):
        with pytest.raises(SimulatedCrashError):
            _replay(
                tiny_trace,
                tiny_context,
                tmp_path / "r",
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every_events=150,
                crash_after_events=400,
            )
        with pytest.raises(ValidationError, match="incompatible"):
            serve_replay(
                tiny_trace,
                tmp_path / "r",
                splits=tiny_context.preset_splits(),
                split="DS1",
                model="lr",
                batch_size=32,  # differs from the checkpointed run
                fast=True,
                checkpoint_dir=tmp_path / "ckpt",
                resume=True,
            )
