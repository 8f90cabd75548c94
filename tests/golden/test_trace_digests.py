"""Scenario-on and preset traces pinned by their serial ``simulate`` digest.

The golden suite pins the canonical trace with no scenario attached, so
the simulator's scenario hooks (the thermal ambient offset, workload
utilization/memory factors, storms and aging) are covered only by
shard-versus-serial comparisons, which pass if both sides drift.  These
pins close that gap: ``trace_digests.json`` holds the
:func:`~tests.golden.canonical.trace_digest` of

=======================  ===============================================
key                      configuration
=======================  ===============================================
``cluster-life``         ``canonical_config(2018)`` + that scenario preset
``season``               ``canonical_config(2018)`` + that scenario preset
``storm``                ``canonical_config(2018)`` + that scenario preset
``drift_tiny``           ``drift_experiment.drift_trace_config("tiny")``
``tiny``                 the ``tiny`` preset
``tiny_regime_change``   the ``tiny`` preset + ``regime-change``
=======================  ===============================================

each checked serially and merged from 2 row-shards.
``tools/check_determinism.py`` reads the ``tiny`` pins too.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.drift_experiment import drift_trace_config
from repro.experiments.presets import preset_config
from repro.scenarios import scenario_preset
from repro.telemetry.simulator import TraceSimulator, merge_shard_results
from repro.topology.sharding import plan_shards

from tests.golden.canonical import canonical_config, trace_digest

TRACE_DIGESTS_PATH = Path(__file__).with_name("trace_digests.json")


def _config(name: str):
    if name == "drift_tiny":
        return drift_trace_config("tiny")
    if name == "tiny":
        return preset_config("tiny")
    if name == "tiny_regime_change":
        return dataclasses.replace(
            preset_config("tiny"), scenario=scenario_preset("regime-change")
        )
    return dataclasses.replace(canonical_config(2018), scenario=scenario_preset(name))


def _simulate(config, shards: int):
    spans = plan_shards(config.machine, shards)
    return merge_shard_results(
        config, [TraceSimulator(config, span).run_span() for span in spans]
    )


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize(
    "name", sorted(json.loads(TRACE_DIGESTS_PATH.read_text()))
)
def test_trace_matches_pin(name, shards):
    pinned = json.loads(TRACE_DIGESTS_PATH.read_text())[name]
    digest = trace_digest(_simulate(_config(name), shards))
    assert digest == pinned, (
        f"{name!r} ({shards} shard(s)) simulate digest {digest[:16]} != "
        f"pin {pinned[:16]}: the simulator's content changed"
    )
