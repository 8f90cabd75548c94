#!/usr/bin/env python3
"""Repository benchmark: train, serve and retrain workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 2018 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload again with spans around each layer's entry points and reports
per-layer counts and self times.  Every run checks the program's outputs.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with provenance, is appended to ``--out`` (JSON lines) for
``perfbench/compare.py``.  Exit status: 0 when every check passed, 1 when
a check failed, 2 when the program's sources are missing.
"""

import os
import sys

# Pin BLAS to one thread before numpy loads: load comes from one thread.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"


def source_id() -> str:
    """Content hash of the program's and the benchmark's sources.

    Stands in for the commit, which a checkout without git lacks.
    """
    h = hashlib.sha256()
    for path in sorted([*(SRC / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_id": source_id(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "repro_obs": os.environ.get("REPRO_OBS", "on"),
        "seed": seed,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=WORK / "results.jsonl")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(WORK / "tmp")
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "cache")

    from measure import DigestBook, measure
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    info = provenance(seed)
    info["loadavg_before"] = os.getloadavg()
    book = DigestBook(WORK / "digests.json", info["source_id"])
    record = measure(
        WORKLOADS[args.workload], seed, args.seconds, book, traced=bool(args.trace)
    )
    info["loadavg_after"] = os.getloadavg()
    record["provenance"] = info
    spans = record.pop("spans", None)
    if spans is not None:
        trace_path = WORK / f"spans-{args.workload}-{seed}.json"
        trace_path.write_text(json.dumps(spans))
        record["spans_file"] = str(trace_path.relative_to(ROOT))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("a") as out:
        out.write(json.dumps(record) + "\n")

    print(f"provenance {json.dumps(info)}")
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    raw = record.get("detail", {}).get("raw", {})
    for name, metric in record["metrics"].items():
        line = f"{args.workload:8s} {name:32s} {metric['value']:.6g} {metric['unit']}"
        if name in raw and raw[name] != metric["value"]:
            line += f"  (as timed: {raw[name]:.6g})"
        print(line)
    if "alert_p99_ms" in record.get("detail", {}):
        p99 = record["detail"]["alert_p99_ms"]
        print(f"{args.workload:8s} {'alert_p99_ms (not gated)':32s} {p99:.6g} ms")
    for phase, times in record.get("layer_split", {}).items():
        total = sum(times.values())
        print(f"{phase} phase self time, {total:.3f} s:")
        for layer, seconds in sorted(times.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:20s} {seconds:9.3f} s {seconds / total:7.1%}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
