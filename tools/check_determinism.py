#!/usr/bin/env python
"""CI determinism gate: simulate + inject + replay twice, assert identical.

Runs the tiny-preset simulation twice with one seed, the sharded
simulation (2 row-shards on 2 worker processes) twice — which must be
bit-identical not just to itself but to the *serial* trace — the
scenario engine both ways (an empty scenario must be a bit-exact no-op
against the plain trace, and a scripted regime change must shard to the
serial bits), the fault injector stack twice on top, and the online
serve-replay path twice
(each against a fresh registry root), then compares content hashes of
the trace arrays, the fault logs, and the replay reports.  The same
replay is then repeated under a chaos plan (retries, fallbacks,
dead-letter replay must all be seed-stable), and finally killed
mid-stream and resumed from its
checkpoint — the resumed digest must be bit-identical to the
uninterrupted chaos run; a drift-governed replay with periodic retrain
is killed and resumed the same way, covering the pickled replay
controller mid-run.  On the ``tiny`` preset the clean, chaos,
gateway-parity and drift-retrain digests must also equal the values
pinned in ``tests/golden/serving_digests.json``, so a change that moves
both runs of a leg the same way still fails.  A final leg exercises the durable segmented
store: a 4-segment out-of-core write must stream back the serial bits,
a simulation killed after one committed segment must resume from its
journal to the same digest, and every disk-fault kind (torn write, bit
flip, missing segment, stale manifest) must heal back to the serial
bits on load.  Any drift (a reordered RNG draw, an accidental
dependence on dict order or wall-clock) fails loudly here before it can
silently invalidate cached traces or experiment results.

Usage::

    PYTHONPATH=src python tools/check_determinism.py [--preset tiny]
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import hashlib
import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.experiments.presets import PRESETS, preset_config, split_plan
from repro.scenarios import Scenario, scenario_preset
from repro.faults import FaultSpec, inject_faults
from repro.features.splits import make_paper_splits
from repro.gateway import GatewayConfig, build_gateway, run_fleet
from repro.parallel.simulate import simulate_trace_sharded
from repro.serve import ChaosPlan, serve_replay
from repro.serve.drift import DriftConfig
from repro.store import (
    DISK_FAULT_KINDS,
    DiskFaultSpec,
    SegmentedTraceStore,
    inject_disk_fault,
    simulate_trace_to_store,
    store_trace_digest,
)
from repro.telemetry.simulator import simulate_trace
from repro.telemetry.trace import Trace
from repro.utils.errors import DegradedDataWarning, SimulatedCrashError


#: Serving digests pinned for the ``tiny`` preset.
SERVING_PINS = Path(__file__).resolve().parents[1] / "tests/golden/serving_digests.json"


def pin_failures(preset: str, name: str, digest: str) -> int:
    """Compare ``digest`` to its pin (``tiny`` only); 1 on mismatch."""
    if preset != "tiny":
        return 0
    pinned = json.loads(SERVING_PINS.read_text())[name]
    if digest == pinned:
        print(f"  {name} matches its pin ({pinned[:16]}...)")
        return 0
    print(f"  {name.upper()} != PIN: {digest[:16]} != {pinned[:16]}")
    return 1


def kill_and_resume(trace: Trace, crash_after: int, checkpoint_every: int, **kwargs):
    """Replay, crash after ``crash_after`` events, resume; the resumed report."""
    with tempfile.TemporaryDirectory() as root:
        root_path = Path(root)
        kwargs["checkpoint_dir"] = root_path / "ckpt"
        try:
            serve_replay(
                trace,
                root_path / "registry",
                checkpoint_every_events=checkpoint_every,
                crash_after_events=crash_after,
                **kwargs,
            )
        except SimulatedCrashError as exc:
            print(f"  killed: {exc}")
        return serve_replay(trace, root_path / "registry", resume=True, **kwargs)


def trace_digest(trace: Trace) -> str:
    """Stable content hash over every array in the trace."""
    hasher = hashlib.sha256()
    for name in sorted(trace.samples):
        hasher.update(name.encode())
        hasher.update(np.ascontiguousarray(trace.samples[name]).tobytes())
    for name in sorted(trace.runs):
        hasher.update(name.encode())
        hasher.update(np.ascontiguousarray(trace.runs[name]).tobytes())
    hasher.update(np.ascontiguousarray(trace.node_mean_temp).tobytes())
    hasher.update(np.ascontiguousarray(trace.node_mean_power).tobytes())
    hasher.update(np.ascontiguousarray(trace.node_susceptibility).tobytes())
    return hasher.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="tiny", choices=sorted(PRESETS))
    parser.add_argument("--fault-seed", type=int, default=7)
    parser.add_argument("--intensity", type=float, default=0.25)
    args = parser.parse_args(argv)

    failures = 0

    print(f"simulating preset {args.preset!r} twice ...", flush=True)
    trace_a = simulate_trace(preset_config(args.preset))
    trace_b = simulate_trace(preset_config(args.preset))
    digest_a, digest_b = trace_digest(trace_a), trace_digest(trace_b)
    if digest_a == digest_b:
        print(f"  trace ok ({digest_a[:16]}...)")
    else:
        print(f"  TRACE MISMATCH: {digest_a[:16]} != {digest_b[:16]}")
        failures += 1

    print("simulating sharded (2 shards, --jobs 2) twice ...", flush=True)
    sharded_digests = [
        trace_digest(
            simulate_trace_sharded(preset_config(args.preset), shards=2, jobs=2)
        )
        for _ in range(2)
    ]
    if sharded_digests[0] != sharded_digests[1]:
        print(
            f"  SHARDED MISMATCH: {sharded_digests[0][:16]} != "
            f"{sharded_digests[1][:16]}"
        )
        failures += 1
    elif sharded_digests[0] != digest_a:
        print(
            f"  SHARDED != SERIAL: {sharded_digests[0][:16]} != {digest_a[:16]}"
        )
        failures += 1
    else:
        print(f"  sharded ok (bit-identical to serial, {sharded_digests[0][:16]}...)")

    print("scenario engine: off-neutrality + sharded determinism ...", flush=True)
    # An *empty* scenario must be a bit-exact no-op against the plain
    # trace, and a scenario-on simulation must shard to the serial bits.
    empty_digest = trace_digest(
        simulate_trace(
            dataclasses.replace(preset_config(args.preset), scenario=Scenario())
        )
    )
    if empty_digest == digest_a:
        print("  empty scenario ok (bit-identical to no scenario)")
    else:
        print(f"  EMPTY SCENARIO MISMATCH: {empty_digest[:16]} != {digest_a[:16]}")
        failures += 1
    scenario_config = dataclasses.replace(
        preset_config(args.preset), scenario=scenario_preset("regime-change")
    )
    scenario_serial = trace_digest(simulate_trace(scenario_config))
    scenario_sharded = trace_digest(
        simulate_trace_sharded(scenario_config, shards=2, jobs=2)
    )
    if scenario_serial == digest_a:
        print("  SCENARIO IS A NO-OP: 'regime-change' left the trace unchanged")
        failures += 1
    elif scenario_sharded != scenario_serial:
        print(
            f"  SCENARIO SHARD MISMATCH: {scenario_sharded[:16]} != "
            f"{scenario_serial[:16]}"
        )
        failures += 1
    else:
        print(
            f"  scenario sharding ok ('regime-change' 2-shard == serial, "
            f"{scenario_serial[:16]}...)"
        )

    print(
        f"injecting faults (intensity={args.intensity}, "
        f"seed={args.fault_seed}) twice ...",
        flush=True,
    )
    spec = FaultSpec(intensity=args.intensity, seed=args.fault_seed)
    faulty_a, log_a = inject_faults(trace_a, spec)
    faulty_b, log_b = inject_faults(trace_b, spec)
    if trace_digest(faulty_a) == trace_digest(faulty_b):
        print("  faulty trace ok")
    else:
        print("  FAULTY TRACE MISMATCH")
        failures += 1
    if log_a.digest() == log_b.digest():
        print(f"  fault log ok ({log_a.digest()[:16]}..., {len(log_a)} events)")
    else:
        print(f"  FAULT LOG MISMATCH: {log_a.digest()[:16]} != {log_b.digest()[:16]}")
        failures += 1

    print("replaying the online serving path twice ...", flush=True)
    plan = split_plan(args.preset)
    splits = make_paper_splits(
        train_days=plan["train_days"],
        test_days=plan["test_days"],
        offsets_days=tuple(plan["offsets"]),
        duration_days=trace_a.config.duration_days,
    )
    replay_digests = []
    clean_report = None
    for _ in range(2):
        # A fresh registry root each time: version numbering must not
        # leak into the replay digest.
        with tempfile.TemporaryDirectory() as root:
            report = serve_replay(
                trace_a, root, splits=splits, batch_size=64, fast=True
            )
            replay_digests.append(report.digest())
            clean_report = report
    if replay_digests[0] == replay_digests[1]:
        print(f"  serve-replay ok ({replay_digests[0][:16]}...)")
    else:
        print(
            f"  SERVE-REPLAY MISMATCH: {replay_digests[0][:16]} != "
            f"{replay_digests[1][:16]}"
        )
        failures += 1
    failures += pin_failures(args.preset, "replay_clean", replay_digests[0])

    print("gateway vs replay parity (1 shard, 1 client) ...", flush=True)

    async def run_gateway_once():
        with tempfile.TemporaryDirectory() as root:
            gateway = build_gateway(
                trace_a,
                root,
                splits=splits,
                config=GatewayConfig(shards=1, batch_size=64),
                fast=True,
            )
            await gateway.start()
            await run_fleet(gateway, trace_a, clients=1)
            await gateway.close()
            return gateway

    gateway = asyncio.run(run_gateway_once())
    if gateway.scored_alert_digest() == clean_report.scored_alert_digest():
        print(
            f"  gateway parity ok (scored-alert digest "
            f"{gateway.scored_alert_digest()[:16]}... matches serve-replay)"
        )
    else:
        print(
            f"  GATEWAY PARITY MISMATCH: {gateway.scored_alert_digest()[:16]} "
            f"!= {clean_report.scored_alert_digest()[:16]}"
        )
        failures += 1
    failures += pin_failures(
        args.preset, "scored_alerts", gateway.scored_alert_digest()
    )
    if gateway.stats.zero_drop:
        print(
            f"  gateway accounting ok ({gateway.stats.events_in} events in "
            "== scored + dead_lettered + rejected)"
        )
    else:
        print(f"  GATEWAY DROPPED EVENTS: {gateway.stats.to_dict()}")
        failures += 1

    print("replaying under chaos twice ...", flush=True)
    chaos = ChaosPlan(intensity=args.intensity, seed=args.fault_seed)
    chaos_report = None
    chaos_digests = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as root:
            report = serve_replay(
                trace_a, root, splits=splits, batch_size=64, fast=True, chaos=chaos
            )
            chaos_digests.append(report.digest())
            chaos_report = report
    if chaos_digests[0] == chaos_digests[1]:
        resil = chaos_report.resilience
        print(
            f"  chaos replay ok ({chaos_digests[0][:16]}..., "
            f"availability {resil.availability:.4f}, "
            f"{resil.replayed_rows} rows via dead-letter replay)"
        )
    else:
        print(
            f"  CHAOS REPLAY MISMATCH: {chaos_digests[0][:16]} != "
            f"{chaos_digests[1][:16]}"
        )
        failures += 1
    failures += pin_failures(args.preset, "replay_chaos", chaos_digests[0])

    print("killing the chaos replay mid-stream and resuming ...", flush=True)
    crash_after = max(chaos_report.num_events * 3 // 5, 1)
    checkpoint_every = max(chaos_report.num_events // 7, 1)
    resumed = kill_and_resume(
        trace_a,
        crash_after,
        checkpoint_every,
        splits=splits,
        batch_size=64,
        fast=True,
        chaos=chaos,
    )
    if resumed.digest() == chaos_digests[0]:
        print(
            f"  kill-and-resume ok (resumed from event {resumed.resumed_from}, "
            "digest matches uninterrupted run)"
        )
    else:
        print(
            f"  KILL-AND-RESUME MISMATCH: {resumed.digest()[:16]} != "
            f"{chaos_digests[0][:16]}"
        )
        failures += 1

    print(
        "killing a drift-governed retraining replay mid-stream and resuming ...",
        flush=True,
    )
    drift_kwargs = dict(
        splits=splits,
        batch_size=64,
        fast=True,
        drift=DriftConfig(),
        retrain_every_days=2,
    )
    with tempfile.TemporaryDirectory() as root:
        drift_digest = serve_replay(trace_a, root, **drift_kwargs).digest()
    resumed = kill_and_resume(
        trace_a, crash_after, checkpoint_every, **drift_kwargs
    )
    if resumed.digest() == drift_digest:
        print(
            f"  kill-and-resume ok (resumed from event {resumed.resumed_from}, "
            f"digest matches uninterrupted run, {drift_digest[:16]}...)"
        )
    else:
        print(
            f"  DRIFT KILL-AND-RESUME MISMATCH: {resumed.digest()[:16]} != "
            f"{drift_digest[:16]}"
        )
        failures += 1
    failures += pin_failures(args.preset, "replay_drift_retrain", drift_digest)

    print("writing the segmented trace store and breaking it ...", flush=True)
    config = preset_config(args.preset)
    with tempfile.TemporaryDirectory() as root:
        root_path = Path(root)
        store = simulate_trace_to_store(config, root_path / "store", segments=4)
        streamed = store_trace_digest(store)
        loaded = trace_digest(store.load_trace())
        if loaded == digest_a:
            print(f"  segmented store ok (bit-identical to serial, {streamed[:16]}...)")
        else:
            print(f"  SEGMENTED != SERIAL: {loaded[:16]} != {digest_a[:16]}")
            failures += 1

        # Kill the segmented simulation after one committed segment, then
        # resume: the journal must carry it to the same bits.
        try:
            simulate_trace_to_store(
                config, root_path / "crashy", segments=4, crash_after_segments=1
            )
        except SimulatedCrashError as exc:
            print(f"  killed: {exc}")
        resumed = simulate_trace_to_store(
            config, root_path / "crashy", segments=4, resume=True
        )
        if store_trace_digest(resumed) == streamed:
            print("  kill-and-resume ok (resumed store matches uninterrupted)")
        else:
            print(
                f"  STORE KILL-AND-RESUME MISMATCH: "
                f"{store_trace_digest(resumed)[:16]} != {streamed[:16]}"
            )
            failures += 1

        # Every disk-fault kind must heal back to the serial bits on load.
        for kind in DISK_FAULT_KINDS:
            copy_root = root_path / f"fault-{kind}"
            shutil.copytree(root_path / "store", copy_root)
            damaged = SegmentedTraceStore(copy_root)
            inject_disk_fault(
                damaged, DiskFaultSpec(kind, seed=args.fault_seed)
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedDataWarning)
                healed = store_trace_digest(damaged)
            if healed == streamed:
                print(f"  disk fault {kind!r} healed bit-identically")
            else:
                print(
                    f"  DISK FAULT {kind!r} MISMATCH after recovery: "
                    f"{healed[:16]} != {streamed[:16]}"
                )
                failures += 1

    print("determinism check:", "PASS" if failures == 0 else f"FAIL ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
