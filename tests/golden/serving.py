"""Pinned serving digests: the online path's behaviour contract.

``serving_digests.json`` holds the full SHA-256 values every serving
refactor must leave unchanged.  They are measured on the ``tiny``
preset (seed 2018), split DS1, GBDT with ``fast=True`` and
``batch_size=64``; the ``governed`` / ``poisoned`` pins use the drift
experiment's tiny regime-change trace instead.  They do not depend on
``PYTHONHASHSEED``.

=======================  ===============================================
key                      run
=======================  ===============================================
``replay_clean``         ``serve_replay`` with no options
``replay_chaos``         ``chaos=ChaosPlan(intensity=0.25, seed=7)``
``replay_retrain``       ``retrain_every_days=2``
``replay_drift``         ``drift=DriftConfig()``
``replay_drift_retrain`` ``drift=DriftConfig(), retrain_every_days=2``
``replay_governed``      ``tests/serve/test_drift_replay.py`` governed
``replay_poisoned``      the same with ``poison_retrains=(0,)``
``scored_alerts``        scored-alert digest of the clean replay and of
                         a 1-shard gateway at any client count
=======================  ===============================================

``tools/check_determinism.py`` reads the same file.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["SERVING_DIGESTS_PATH", "serving_digest"]

SERVING_DIGESTS_PATH = Path(__file__).with_name("serving_digests.json")


def serving_digest(name: str) -> str:
    """The pinned full hex digest for serving run ``name``."""
    return json.loads(SERVING_DIGESTS_PATH.read_text())[name]
