"""Serving replays whose digests are pinned in ``serving_digests.json``.

The clean, governed and poisoned replays and the 1-shard gateway assert
their pins in the fixtures that already run them (``tests/serve`` and
``tests/gateway``).  This module runs only the configurations no other
test replays.  The drift-plus-retrain pin is checked through a killed
and resumed run, so one test covers both the pin and the pickled
replay state mid-stream.
"""

from __future__ import annotations

import pytest

from repro.serve import ChaosPlan, serve_replay
from repro.serve.drift import DriftConfig
from repro.utils.errors import SimulatedCrashError
from tests.golden.serving import serving_digest


def _replay(trace, context, root, **kwargs):
    return serve_replay(
        trace,
        root,
        splits=context.preset_splits(),
        batch_size=64,
        fast=True,
        **kwargs,
    )


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("replay_chaos", {"chaos": ChaosPlan(intensity=0.25, seed=7)}),
        ("replay_retrain", {"retrain_every_days": 2}),
        ("replay_drift", {"drift": DriftConfig()}),
    ],
)
def test_replay_digest_matches_pin(tiny_trace, tiny_context, tmp_path, name, kwargs):
    report = _replay(tiny_trace, tiny_context, tmp_path / "registry", **kwargs)
    assert report.digest() == serving_digest(name)


def test_resumed_drift_retrain_replay_matches_pin(
    tiny_trace, tiny_context, tmp_path
):
    kwargs = dict(
        drift=DriftConfig(),
        retrain_every_days=2,
        checkpoint_dir=tmp_path / "ckpt",
    )
    with pytest.raises(SimulatedCrashError):
        _replay(
            tiny_trace,
            tiny_context,
            tmp_path / "registry",
            checkpoint_every_events=200,
            crash_after_events=900,
            **kwargs,
        )
    resumed = _replay(
        tiny_trace, tiny_context, tmp_path / "registry", resume=True, **kwargs
    )
    assert resumed.resumed_from == 800
    assert resumed.digest() == serving_digest("replay_drift_retrain")
