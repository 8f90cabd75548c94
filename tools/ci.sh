#!/usr/bin/env bash
# Single CI entry point: unused-code scan + determinism gate (incl. the
# sharded --jobs 2, scenario-neutrality, segmented-store, gateway-parity,
# and features legs; the last demands one features digest from the
# batch, out-of-core and streaming builders) +
# tier-1 tests (the golden digests included) + parallel smoke + serve
# smoke legs (clean, chaos, kill-and-resume) + examples smoke (every
# examples/*.py exits 0) + benchmarks smoke (every pytest bench case once
# on tiny, timing off) + drift smoke (regime
# change -> detector fires -> guarded retrain recovers F1; poisoned
# refit rolled back; rollback CLI) + gateway smoke (HTTP fleet, alarms,
# zero-drop ledger) + disk-fault smoke (inject -> recover -> digest
# parity) + obs digest-neutrality gate (content digests identical with
# observability off/on/sampled; obs snapshots seed-reproducible) +
# bench regression gate.
#
# Usage: tools/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# Pinned hypothesis profile: derandomized, bounded examples/deadline.
export HYPOTHESIS_PROFILE=ci
# Fixed hash seed: digests and goldens must not depend on machine entropy.
export PYTHONHASHSEED=0

echo "== unused-code scan =="
# Every public def in src/repro needs a caller outside tests/.
python tools/check_unused.py

echo
echo "== determinism check (incl. sharded, chaos + kill-and-resume legs) =="
python tools/check_determinism.py --preset tiny

echo
echo "== tier-1 tests =="
# -p no:randomly pins test order even if pytest-randomly is installed:
# the suite must pass in its deterministic order with the fixed seed.
python -m pytest -x -q -p no:randomly

echo
echo "== parallel smoke (--jobs 2) =="
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
python -m repro.cli --preset tiny --jobs 2 simulate \
    --out "$workdir/trace-sharded" --segments 2
python -m repro.cli --preset tiny --jobs 2 simulate \
    --out "$workdir/trace-scenario" --segments 2 --scenario regime-change
REPRO_CACHE_DIR="$workdir/cache" python -m repro.cli --preset tiny --jobs 2 \
    experiment fig1 fig3 > "$workdir/fig-cold.txt"
# Warm rerun on the cached store: --strict turns any repair warning into
# exit 1, and the output must match the cold run's.
REPRO_CACHE_DIR="$workdir/cache" python -m repro.cli --preset tiny --strict \
    experiment fig1 fig3 > "$workdir/fig-warm.txt"
diff "$workdir/fig-cold.txt" "$workdir/fig-warm.txt"
cat "$workdir/fig-warm.txt"

echo
echo "== serve-replay smoke =="
python -m repro.cli --preset tiny serve-replay \
    --registry "$workdir/registry" --fast --batch-size 64

echo
echo "== chaos-replay smoke =="
python -m repro.cli --preset tiny serve-replay \
    --registry "$workdir/registry-chaos" --fast --batch-size 64 \
    --chaos 0.25 --chaos-seed 7

echo
echo "== kill-and-resume smoke =="
# First leg crashes on purpose (exit 1, one-line error), second resumes.
if python -m repro.cli --preset tiny serve-replay \
    --registry "$workdir/registry-resume" --fast --batch-size 64 \
    --chaos 0.25 --chaos-seed 7 \
    --checkpoint-dir "$workdir/ckpt" --checkpoint-every 300 \
    --crash-after 900; then
    echo "expected the crash leg to exit nonzero" >&2
    exit 1
fi
python -m repro.cli --preset tiny serve-replay \
    --registry "$workdir/registry-resume" --fast --batch-size 64 \
    --chaos 0.25 --chaos-seed 7 \
    --checkpoint-dir "$workdir/ckpt" --resume

echo
echo "== examples smoke =="
# Every scripted walkthrough must exit 0 on its default scale; the chaos
# serving one also exits nonzero if the resumed digest differs.  TMPDIR
# keeps their artifacts inside the workdir the EXIT trap removes.
for example in examples/*.py; do
    echo "-- $example"
    TMPDIR="$workdir" REPRO_CACHE_DIR="$workdir/cache-examples" \
        python "$example" > "$workdir/example-$(basename "$example" .py).txt"
done
grep "resumed digest == uninterrupted digest: True" \
    "$workdir/example-chaos_serving.txt"

echo
echo "== benchmarks smoke =="
# Every pytest bench case (each experiment id, serving, parallel, ML and
# substrate) runs once on tiny with timing off, so a bench that no longer
# runs fails here rather than unseen.
TMPDIR="$workdir" REPRO_CACHE_DIR="$workdir/cache-bench" \
    REPRO_BENCH_PRESET=tiny python -m pytest benchmarks \
    --benchmark-disable -q -p no:randomly

echo
echo "== drift smoke =="
# Regime-change trace through the governed serving path: the detectors
# must fire, the windowed drift retrains must recover late-window F1 to
# within the experiment gate of the fresh post-change oracle, and a
# poisoned refit (validates cleanly against its own poisoned holdout)
# must be rolled back automatically by the post-swap monitor.  The
# governed registry is kept so the rollback CLI can be exercised on a
# registry with real retrain history.
python - "$workdir" <<'PY'
import sys
from pathlib import Path

from repro.experiments.drift_experiment import (
    drift_detector_config,
    drift_plan,
    drift_trace_config,
    run_drift,
)
from repro.experiments.runner import ExperimentContext
from repro.features.splits import DatasetSplit
from repro.serve import serve_replay
from repro.telemetry.simulator import simulate_trace

workdir = Path(sys.argv[1])
d = run_drift(ExperimentContext("tiny", use_disk_cache=False)).data
assert d["governed_drift_retrains"] >= 1, d
assert d["stale_gap"] >= d["min_stale_gap"], d
assert d["governed_gap"] <= d["max_governed_gap"], d
assert d["poison_caught"] and d["poison_rollbacks"] >= 1, d
print(
    f"drift smoke ok (stale gap {d['stale_gap']:+.4f}, governed gap "
    f"{d['governed_gap']:+.4f} within {d['max_governed_gap']:.2f}, "
    f"{d['governed_drift_retrains']} drift retrains, recovery in "
    f"{d['time_to_recover_days']:.2f} days, "
    f"{d['poison_rollbacks']} poisoned-leg rollback(s))"
)

# One more governed replay into a kept registry for the CLI legs below.
plan = drift_plan("tiny")
trace = simulate_trace(drift_trace_config("tiny"))
split = DatasetSplit(
    "DRIFT", 0.0, plan["train_days"] * 1440.0, plan["duration_days"] * 1440.0
)
report = serve_replay(
    trace,
    workdir / "registry-drift",
    splits=[split],
    split="DRIFT",
    model="gbdt",
    random_state=0,
    fast=True,
    drift=drift_detector_config(),
    retrain_window_days=8.0,
)
assert len(report.registry_versions) >= 2, report.registry_versions
PY
# Rollback CLI: pin the head back to v1, verify the registry, and
# require a one-line refusal (nonzero exit) on a missing target.
python -m repro.cli registry rollback \
    --registry "$workdir/registry-drift" --to 1
python -m repro.cli registry verify --registry "$workdir/registry-drift"
if python -m repro.cli registry rollback \
    --registry "$workdir/registry-drift" --to 999 2>/dev/null; then
    echo "expected rollback to refuse a missing target version" >&2
    exit 1
fi

echo
echo "== gateway smoke =="
# In-process gateway behind its HTTP front end: three synthetic clients
# post the full fleet stream, alarms must fire, the zero-drop ledger
# must balance, and shutdown must drain cleanly.
python - <<'PY'
import asyncio
import tempfile

from repro.experiments.presets import preset_config, split_plan
from repro.features.splits import make_paper_splits
from repro.gateway import (
    GatewayConfig,
    GatewayHTTPServer,
    build_gateway,
    run_fleet,
)
from repro.telemetry.simulator import simulate_trace

trace = simulate_trace(preset_config("tiny"))
plan = split_plan("tiny")
splits = make_paper_splits(
    train_days=plan["train_days"],
    test_days=plan["test_days"],
    offsets_days=tuple(plan["offsets"]),
    duration_days=trace.config.duration_days,
)


async def go():
    with tempfile.TemporaryDirectory() as root:
        gateway = build_gateway(
            trace,
            root,
            splits=splits,
            config=GatewayConfig(shards=2, batch_size=64),
            fast=True,
        )
        await gateway.start()
        server = GatewayHTTPServer(gateway)
        await server.start()
        fleet = await run_fleet(gateway, trace, clients=3, server=server)
        await gateway.close()
        await server.close()
        assert fleet.via_http, "fleet did not go over HTTP"
        assert fleet.events_sent == gateway.stats.events_in, (
            fleet.events_sent,
            gateway.stats.events_in,
        )
        assert gateway.alarm_engine.alarms, "no alarms raised"
        assert gateway.stats.zero_drop, gateway.stats.to_dict()
        print(
            f"gateway smoke ok ({fleet.events_sent} events over HTTP from "
            f"{fleet.clients} clients, {len(gateway.alarm_engine.alarms)} "
            f"alarms, ledger balanced)"
        )


asyncio.run(go())
PY
REPRO_CACHE_DIR="$workdir/cache" python -m repro.cli --preset tiny \
    gateway --shards 1,2

echo
echo "== disk-fault smoke =="
# Segmented store: inject a bit flip, require verify to flag it, recover,
# and require the healed digest to match the pristine one bit for bit.
python -m repro.cli --preset tiny simulate \
    --out "$workdir/store" --segments 4
d0="$(python -m repro.cli store digest --store "$workdir/store")"
python -m repro.cli store inject --store "$workdir/store" \
    --kind bitflip --seed 3
if python -m repro.cli store verify --store "$workdir/store"; then
    echo "expected verify to flag the injected disk fault" >&2
    exit 1
fi
python -m repro.cli store recover --store "$workdir/store"
python -m repro.cli store verify --store "$workdir/store"
d1="$(python -m repro.cli store digest --store "$workdir/store")"
if [ "$d0" != "$d1" ]; then
    echo "disk-fault recovery changed the trace digest: $d0 != $d1" >&2
    exit 1
fi
echo "disk-fault smoke ok (digest $d0 preserved through recovery)"

echo
echo "== registry audit =="
# The clean-leg registry must verify ok.  (The chaos registries may hold
# corrupt hot-swap debris by design, which verify would rightly flag.)
python -m repro.cli registry verify --registry "$workdir/registry"

echo
echo "== obs digest-neutrality gate =="
# Observability must be read-only: trace and replay content digests are
# bit-identical with recording off, on, and sampled, and two same-seed
# runs against fresh registries produce the same snapshot digest.
python - "$workdir" <<'PY'
import sys
import tempfile
sys.path.insert(0, "tools")

from check_determinism import trace_digest

from repro.experiments.presets import preset_config, split_plan
from repro.features.splits import make_paper_splits
from repro.obs import MetricsRegistry, use_registry
from repro.serve import serve_replay
from repro.telemetry.simulator import simulate_trace

config = preset_config("tiny")
plan = split_plan("tiny")

digests = {}
snapshot_digests = []
for mode in ("off", "on", "sample", "on"):
    with use_registry(MetricsRegistry(mode=mode)) as registry:
        trace = simulate_trace(config)
        digests.setdefault(mode, set()).add(trace_digest(trace))
        if mode == "on":
            snapshot_digests.append(registry.snapshot_digest())
(unique,) = {d for seen in digests.values() for d in seen}
print(f"  trace digest mode-neutral ({unique[:16]}...)")
assert snapshot_digests[0] == snapshot_digests[1], snapshot_digests
print(f"  obs snapshot seed-stable ({snapshot_digests[0][:16]}...)")

splits = make_paper_splits(
    train_days=plan["train_days"],
    test_days=plan["test_days"],
    offsets_days=tuple(plan["offsets"]),
    duration_days=trace.config.duration_days,
)
replay_digests = {}
for mode in ("off", "on"):
    with use_registry(MetricsRegistry(mode=mode)):
        with tempfile.TemporaryDirectory() as root:
            report = serve_replay(
                trace, root, splits=splits, fast=True, batch_size=64
            )
            replay_digests[mode] = report.digest()
assert replay_digests["off"] == replay_digests["on"], replay_digests
print(f"  serve-replay digest mode-neutral ({replay_digests['on'][:16]}...)")
PY
# CLI surface: --obs-snapshot writes a loadable snapshot; report renders
# it; diff of a snapshot against itself is empty (exit 0).
REPRO_CACHE_DIR="$workdir/cache" python -m repro.cli --preset tiny \
    --obs on --obs-snapshot "$workdir/obs-snap.json" \
    simulate --out "$workdir/trace-obs"
python -m repro.cli obs report "$workdir/obs-snap.json" > /dev/null
python -m repro.cli obs diff "$workdir/obs-snap.json" "$workdir/obs-snap.json"

echo
echo "== hot-path kernel bench (quick) =="
# Re-measures GBDT batch scoring and tree fitting on this machine with
# the fast model caps.  The script itself asserts bit-identical scores
# and grown trees across paths and a minimum micro-batch speedup.  The
# quick result goes to a scratch copy of the committed BENCH_*.json set,
# so the full-caps BENCH_hotpath.json in the tree is never overwritten.
bench_dir="$workdir/bench"
mkdir -p "$bench_dir"
cp BENCH_*.json "$bench_dir/"
python benchmarks/bench_hotpath.py --quick --out "$bench_dir/BENCH_hotpath.json"

echo
echo "== bench regression gate =="
# Trajectory table over the scratch BENCH_*.json set; fails on >20%
# regression of the machine-relative ratios against the pinned baseline
# (absolute rows/sec are deliberately not pinned — they vary by machine).
python tools/bench_report.py --check --dir "$bench_dir" \
    --baseline tools/bench_baseline.json
