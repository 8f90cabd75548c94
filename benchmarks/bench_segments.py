#!/usr/bin/env python
"""Scale benchmark: segmented out-of-core pipeline vs monolithic.

Runs the full trace -> features pipeline twice, each in its own child
process so ``ru_maxrss`` reports an honest per-path high-water mark:

- **monolithic** — the experiment context's cold path: simulate the whole
  machine in memory as one span into a 1-segment store, read the trace
  back (``load_trace``), then ``build_features`` (batch);
- **segmented** — ``simulate_trace_to_store`` (one shard span in memory
  at a time, committed segment by segment), then
  ``build_features_from_store`` (two streaming passes, never
  materializing the merged trace).

Both paths end at the same bit-identical feature matrix (enforced by
``tests/store``); this benchmark measures what that durability costs —
or saves — in wall-clock and peak RSS, and seeds ``BENCH_scale.json``
with the trajectory numbers referenced by ROADMAP.md.

Usage::

    PYTHONPATH=src python benchmarks/bench_segments.py \
        [--preset small] [--segments 8] [--out BENCH_scale.json]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _peak_rss_bytes() -> int:
    """Process high-water RSS in bytes (ru_maxrss is KiB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss if sys.platform == "darwin" else rss * 1024)


def _child(mode: str, preset: str, segments: int, workdir: str) -> None:
    """Run one pipeline end to end and print a JSON report line."""
    from repro.experiments.presets import preset_config

    config = preset_config(preset)
    start = time.perf_counter()
    if mode == "monolithic":
        from repro.features.builder import build_features
        from repro.store import simulate_trace_to_store

        store = simulate_trace_to_store(config, Path(workdir) / "trace", segments=1)
        trace = store.load_trace()
        features = build_features(trace)
        rows = trace.num_samples
    elif mode == "segmented":
        from repro.features.builder import build_features_from_store
        from repro.store import simulate_trace_to_store

        store = simulate_trace_to_store(
            config, Path(workdir) / "store", segments=segments
        )
        features = build_features_from_store(store)
        rows = store.num_samples
    else:  # pragma: no cover - parent validates
        raise SystemExit(f"unknown child mode {mode!r}")
    seconds = time.perf_counter() - start
    print(
        json.dumps(
            {
                "rows": int(rows),
                "num_features": int(features.X.shape[1]),
                "seconds": round(seconds, 3),
                "rows_per_sec": round(rows / seconds, 1),
                "peak_rss_bytes": _peak_rss_bytes(),
            }
        )
    )


def _run_child(mode: str, preset: str, segments: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory() as workdir:
        out = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--child",
                mode,
                "--preset",
                preset,
                "--segments",
                str(segments),
                "--workdir",
                workdir,
            ],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="small")
    parser.add_argument("--segments", type=int, default=8)
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_scale.json"))
    parser.add_argument("--child", choices=["monolithic", "segmented"])
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)

    if args.child:
        _child(args.child, args.preset, args.segments, args.workdir)
        return 0

    report: dict = {
        "benchmark": "bench_segments",
        "preset": args.preset,
        "segments": args.segments,
    }
    for mode in ("monolithic", "segmented"):
        print(f"{mode}: simulating + building features ...", flush=True)
        result = _run_child(mode, args.preset, args.segments)
        report[mode] = result
        print(
            f"  {result['rows']} rows in {result['seconds']}s "
            f"({result['rows_per_sec']} rows/s), peak RSS "
            f"{result['peak_rss_bytes'] / 1e6:.1f} MB"
        )

    mono, seg = report["monolithic"], report["segmented"]
    ratio = seg["peak_rss_bytes"] / mono["peak_rss_bytes"]
    report["peak_rss_ratio"] = round(ratio, 3)
    report["peak_rss_reduction_pct"] = round((1.0 - ratio) * 100.0, 1)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"segmented peak RSS is {ratio:.2f}x monolithic "
        f"({report['peak_rss_reduction_pct']}% reduction) -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
