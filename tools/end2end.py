"""End-to-end check of Table I + Fig 10 on DS1 (cached trace).

The trace is simulated once into a segment store under ``.cache/`` at
the repo root and read back from it on later runs.
"""
import time
from pathlib import Path

from repro.store import SegmentedTraceStore, simulate_trace_to_store
from repro.telemetry import TraceConfig
from repro.topology import MachineConfig
from repro.features import build_features
from repro.core import PredictionPipeline

CACHE = Path(__file__).resolve().parents[1] / ".cache" / "e2e_trace"
if SegmentedTraceStore(CACHE).is_committed:
    trace = SegmentedTraceStore(CACHE).load_trace()
    print("loaded cached trace")
else:
    cfg = TraceConfig(
        machine=MachineConfig(grid_x=25, grid_y=8, cages_per_cabinet=1,
                              slots_per_cage=1, nodes_per_slot=4),
        duration_days=126, tick_minutes=5, seed=2018)
    t0 = time.time()
    trace = simulate_trace_to_store(cfg, CACHE, segments=1).load_trace()
    print(f"simulated in {time.time()-t0:.0f}s")

t0 = time.time()
features = build_features(trace)
print(f"features: {features.X.shape} in {time.time()-t0:.0f}s; pos rate {features.y.mean():.4f}")

pipe = PredictionPipeline(features)
print("\n--- Table I (basic schemes, DS1) ---")
for scheme in ("random", "basic_a", "basic_b", "basic_c"):
    r = pipe.evaluate_basic("DS1", scheme)
    print(f"{scheme:8s} SBE p={r.precision:.2f} r={r.recall:.2f} | "
          f"non-SBE p={r.report['non_sbe']['precision']:.2f} r={r.report['non_sbe']['recall']:.2f}")

print("\n--- Fig 10 (TwoStage models, DS1) ---")
for model in ("lr", "gbdt", "nn", "svm"):
    t0 = time.time()
    r = pipe.evaluate_twostage("DS1", model)
    print(f"{model:5s} F1={r.f1:.3f} p={r.precision:.3f} r={r.recall:.3f} "
          f"train={r.train_seconds:.1f}s total={time.time()-t0:.0f}s")
