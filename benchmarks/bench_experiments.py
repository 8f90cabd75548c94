"""Benchmark regenerating each paper table and figure, one case per experiment id.

Each case times the full experiment driver (analysis + any model training
not already cached by an earlier case in the session) and prints the
regenerated artifact; add ``-s`` to see it.  Run one case with, e.g.::

    pytest benchmarks/bench_experiments.py -k fig10 --benchmark-only -s
"""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment

from conftest import run_once

# The resilience, gateway and drift sweeps are not benched as whole experiments.
EXPERIMENT_IDS = [
    eid for eid in EXPERIMENTS if eid not in ("resilience", "gateway", "drift")
]


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_experiment(benchmark, context, experiment_id):
    """Regenerate one registered experiment on the benchmark preset."""
    result = run_once(benchmark, lambda: run_experiment(experiment_id, context))
    print()
    print(result)
    assert result.data
    if experiment_id == "faults":
        assert result.data["clean_noop"] is True
