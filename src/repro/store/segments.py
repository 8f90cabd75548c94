"""Segmented on-disk trace format with verify-on-read and self-healing.

A store directory holds one checksummed npz archive per row-aligned
:class:`~repro.topology.sharding.ShardSpan` — the span's columnar
:class:`~repro.telemetry.simulator.ShardResult`, one member per array —
plus a ``MANIFEST.json`` written **last** (atomic temp-then-rename via
:mod:`repro.utils.io`), which is the store's commit point: a reader never
observes a store that claims to be complete but is not.  Readers place
segment rows with the simulator's own
:func:`~repro.telemetry.simulator.row_destinations`, so a store and an
in-memory merge share one serial row order.

Layout::

    store/
      seg-0000.npz        one ShardResult per row-aligned span
      seg-0001.npz
      journal.json        per-segment commit journal (crash-safe resume)
      MANIFEST.json       format, config, per-segment checksums — written last
      quarantine/         corrupt segments moved aside by recovery

Because every random draw in the simulator is keyed by a stable entity
(cabinet row, run id, (run, node) pair), a damaged segment can be healed
by re-simulating *only its span* — the healed store is bit-identical to a
clean one, which ``tools/check_determinism.py`` and the golden suite
enforce.  Verification is per segment on read; a failure quarantines the
segment under :class:`~repro.utils.errors.DegradedDataWarning` (or raises
:class:`~repro.utils.errors.SegmentCorruptionError` in strict mode).
"""

from __future__ import annotations

import errno
import json
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs import MetricsRegistry, get_registry
from repro.telemetry.config import TraceConfig
from repro.telemetry.simulator import (
    ShardResult,
    merge_shard_results,
    row_destinations,
)
from repro.telemetry.trace import Trace, config_from_dict, config_to_dict
from repro.topology.sharding import ShardSpan
from repro.utils.errors import (
    DegradedDataWarning,
    SegmentCorruptionError,
    TraceIOError,
)
from repro.utils.io import atomic_write, atomic_write_json, sha256_bytes, sha256_file

__all__ = [
    "STORE_FORMAT",
    "MANIFEST_NAME",
    "JOURNAL_NAME",
    "SegmentStatus",
    "SegmentedTraceStore",
    "segment_file_name",
    "store_key",
    "write_segment",
]

#: Bump when the segment or manifest layout changes incompatibly.
STORE_FORMAT = 1

MANIFEST_NAME = "MANIFEST.json"
JOURNAL_NAME = "journal.json"
QUARANTINE_DIR = "quarantine"


def segment_file_name(index: int) -> str:
    """Canonical file name of segment ``index``."""
    return f"seg-{index:04d}.npz"


def store_key(config: TraceConfig, num_segments: int) -> str:
    """Compatibility key: hashes everything that fixes segment content.

    Two runs share a key exactly when their segments are interchangeable
    (same configuration, same segment plan, same store format), which is
    the precondition for resuming a killed run on top of its journal.
    """
    payload = {
        "format": STORE_FORMAT,
        "config": config_to_dict(config),
        "segments": int(num_segments),
    }
    return sha256_bytes(json.dumps(payload, sort_keys=True).encode())


# ----------------------------------------------------------------------
# ShardResult <-> npz serialization
# ----------------------------------------------------------------------
def _group(data, prefix: str) -> dict[str, np.ndarray]:
    """The ``<prefix>/<name>`` members of an open npz, keyed by name."""
    return {
        key.split("/", 1)[1]: data[key]
        for key in data.files
        if key.startswith(prefix + "/")
    }


def _recorded(data) -> dict[int, dict[str, np.ndarray]]:
    """The ``recorded/<node>/<name>`` members of an open npz, by node."""
    recorded: dict[int, dict[str, np.ndarray]] = {}
    for key in data.files:
        if key.startswith("recorded/"):
            _, node_str, name = key.split("/", 2)
            recorded.setdefault(int(node_str), {})[name] = data[key]
    return recorded


def _result_to_arrays(result: ShardResult) -> dict[str, np.ndarray]:
    """Name a :class:`ShardResult`'s arrays for one npz."""
    arrays: dict[str, np.ndarray] = {
        "block_run_id": np.asarray(result.run_ids, dtype=np.int64),
        "block_size": result.block_size,
        "completion_order": result.completion_order,
        "temp_sum": result.temp_sum,
        "power_sum": result.power_sum,
        "node_susceptibility": result.node_susceptibility,
        "num_ticks": np.asarray(result.num_ticks, dtype=np.int64),
    }
    for table, columns in (("samples", result.samples), ("runs", result.runs)):
        for name, col in columns.items():
            arrays[f"{table}/{name}"] = col
    for node, series in result.recorded.items():
        for name, col in series.items():
            arrays[f"recorded/{node}/{name}"] = col
    for stage, seconds in result.stage_seconds.items():
        arrays[f"stage/{stage}"] = np.asarray(float(seconds))
    return arrays


def _arrays_to_result(
    data, *, lo: int, hi: int, app_names: list[str]
) -> ShardResult:
    """Rebuild a :class:`ShardResult` from one segment's arrays.

    ``data`` is any mapping with a ``files``-style key list (an open
    ``np.load`` handle); arrays are read lazily, one zip member at a
    time.
    """
    return ShardResult(
        lo=lo,
        hi=hi,
        completion_order=data["completion_order"],
        samples=_group(data, "samples"),
        runs=_group(data, "runs"),
        block_size=data["block_size"],
        temp_sum=data["temp_sum"],
        power_sum=data["power_sum"],
        node_susceptibility=data["node_susceptibility"],
        recorded=_recorded(data),
        app_names=list(app_names),
        num_ticks=int(data["num_ticks"]),
        stage_seconds={
            stage: float(seconds) for stage, seconds in _group(data, "stage").items()
        },
    )


class _LimitedWriter:
    """File wrapper that fails with ENOSPC after a byte budget.

    The disk-fault injector uses this to make a segment write die
    mid-stream exactly like a full filesystem would; the atomic-write
    protocol must then leave no trace of the attempt.
    """

    def __init__(self, fh, limit_bytes: int) -> None:
        self._fh = fh
        self._remaining = int(limit_bytes)

    def write(self, data) -> int:
        if len(data) > self._remaining:
            self._fh.write(data[: self._remaining])
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        self._remaining -= len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def write_segment(
    path: str | Path,
    result: ShardResult,
    span: ShardSpan,
    *,
    limit_bytes: int | None = None,
) -> dict:
    """Atomically write one segment; returns its manifest entry.

    The npz is staged in a sibling temp file and renamed into place, so
    a crash or an injected ENOSPC (``limit_bytes``) never leaves a
    half-written segment under the committed name.  The returned entry
    records the span geometry, row/block counts, and the SHA-256
    checksum of the committed bytes.
    """
    path = Path(path)
    arrays = _result_to_arrays(result)
    try:
        with atomic_write(path) as tmp:
            with open(tmp, "wb") as fh:
                sink = fh if limit_bytes is None else _LimitedWriter(fh, limit_bytes)
                np.savez_compressed(sink, **arrays)
    except OSError as exc:
        raise TraceIOError(path, f"segment write failed: {exc}") from exc
    num_samples = int(result.block_size.sum())
    registry = get_registry()
    registry.counter(
        "repro_store_segments_written_total", "Segments committed to disk."
    ).inc()
    registry.counter(
        "repro_store_segment_rows_total", "Sample rows committed to segments."
    ).inc(num_samples)
    return {
        **span.to_dict(),
        "file": path.name,
        "checksum": sha256_file(path),
        "num_samples": num_samples,
        "num_blocks": len(result.block_size),
        "num_runs": len(result.block_size),
    }


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentStatus:
    """Verification outcome for one segment."""

    index: int
    status: str  # "ok" | "missing" | "corrupt" | "recovered"
    detail: str = ""

    def __str__(self) -> str:
        return (
            f"seg-{self.index:04d}  {self.status}"
            + (f"  ({self.detail})" if self.detail else "")
        )


class SegmentedTraceStore:
    """One committed segmented trace on disk."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._manifest: dict | None = None

    # -- paths ----------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        """The commit-point manifest file."""
        return self.root / MANIFEST_NAME

    @property
    def quarantine_path(self) -> Path:
        """Directory corrupt segments are moved into by recovery."""
        return self.root / QUARANTINE_DIR

    def segment_path(self, index: int) -> Path:
        return self.root / segment_file_name(index)

    @property
    def is_committed(self) -> bool:
        """Whether the store's manifest has been written."""
        return self.manifest_path.is_file()

    # -- manifest -------------------------------------------------------
    def manifest(self) -> dict:
        """The parsed manifest (cached); raises :class:`TraceIOError`."""
        if self._manifest is None:
            try:
                raw = json.loads(self.manifest_path.read_text())
            except (OSError, ValueError) as exc:
                raise TraceIOError(
                    self.manifest_path, f"unreadable store manifest: {exc}"
                ) from exc
            for entry in ("config", "app_names", "segments"):
                if not isinstance(raw, dict) or entry not in raw:
                    raise TraceIOError(
                        self.manifest_path, f"store manifest lacks a {entry!r} entry"
                    )
            if int(raw.get("format", -1)) != STORE_FORMAT:
                raise TraceIOError(
                    self.manifest_path,
                    f"unsupported store format {raw.get('format')!r} "
                    f"(this code reads format {STORE_FORMAT})",
                )
            self._manifest = raw
        return self._manifest

    def write_manifest(
        self, config: TraceConfig, entries: list[dict], app_names: list[str]
    ) -> None:
        """Commit the store: write the manifest last, atomically."""
        entries = sorted(entries, key=lambda e: int(e["index"]))
        manifest = {
            "format": STORE_FORMAT,
            "key": store_key(config, len(entries)),
            "config": config_to_dict(config),
            "app_names": list(app_names),
            "segments": entries,
        }
        atomic_write_json(self.manifest_path, manifest)
        self._manifest = manifest

    def config(self) -> TraceConfig:
        """The trace configuration recorded in the manifest."""
        return config_from_dict(self.manifest()["config"])

    def app_names(self) -> list[str]:
        """Application names recorded in the manifest."""
        return list(self.manifest()["app_names"])

    @property
    def num_segments(self) -> int:
        return len(self.manifest()["segments"])

    @property
    def num_samples(self) -> int:
        """Total sample rows across all segments (from the manifest)."""
        return sum(int(e["num_samples"]) for e in self.manifest()["segments"])

    def entries(self) -> list[dict]:
        """Per-segment manifest entries, index-ascending."""
        return list(self.manifest()["segments"])

    def span(self, index: int) -> ShardSpan:
        """The :class:`ShardSpan` geometry of segment ``index``."""
        return ShardSpan.from_dict(self.manifest()["segments"][index])

    # -- verification ---------------------------------------------------
    def verify_segment(self, index: int) -> SegmentStatus:
        """Checksum-verify one segment without reading its arrays."""
        entry = self.manifest()["segments"][index]
        path = self.segment_path(index)
        if not path.is_file():
            status = SegmentStatus(index, "missing", f"{path.name} does not exist")
        else:
            actual = sha256_file(path)
            expected = entry["checksum"]
            if actual != expected:
                status = SegmentStatus(
                    index,
                    "corrupt",
                    f"checksum mismatch: expected {expected}, actual {actual}",
                )
            else:
                status = SegmentStatus(index, "ok")
        get_registry().counter(
            "repro_store_segments_verified_total",
            "Segment checksum verifications, by outcome.",
        ).inc(status=status.status)
        return status

    def verify(self) -> list[SegmentStatus]:
        """Checksum-verify every segment (no healing)."""
        return [
            self.verify_segment(i) for i in range(len(self.manifest()["segments"]))
        ]

    # -- reading --------------------------------------------------------
    def load_shard_result(self, index: int, *, verify: bool = True) -> ShardResult:
        """Deserialize one segment; raises :class:`SegmentCorruptionError`.

        With ``verify`` (the default) the file checksum is checked
        before any bytes are parsed, so torn writes and bit flips are
        reported as corruption rather than surfacing as numpy errors.
        """
        entry = self.manifest()["segments"][index]
        path = self.segment_path(index)
        if verify:
            status = self.verify_segment(index)
            if status.status != "ok":
                raise SegmentCorruptionError(path, status.detail, index=index)
        try:
            with np.load(path) as data:
                return _arrays_to_result(
                    data,
                    lo=int(entry["lo"]),
                    hi=int(entry["hi"]),
                    app_names=self.app_names(),
                )
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise SegmentCorruptionError(
                path, f"segment archive does not deserialize: {exc}", index=index
            ) from exc

    def read_segment_array(self, index: int, name: str) -> np.ndarray:
        """Read one named array from a segment (lazy, one zip member).

        No checksum pass — callers stream many single-array reads after
        an up-front :meth:`recover`/:meth:`verify`; a torn member still
        surfaces as :class:`SegmentCorruptionError` via the zip CRC.
        """
        path = self.segment_path(index)
        try:
            with np.load(path) as data:
                return data[name]
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise SegmentCorruptionError(
                path, f"cannot read array {name!r}: {exc}", index=index
            ) from exc

    def sample_column(self, index: int, name: str) -> np.ndarray:
        """One samples-table column of a segment (segment-local order)."""
        return self.read_segment_array(index, f"samples/{name}")

    def recorded_series(self, index: int) -> dict[int, dict[str, np.ndarray]]:
        """One segment's full recorded-node series, keyed by node id."""
        path = self.segment_path(index)
        try:
            with np.load(path) as data:
                return _recorded(data)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise SegmentCorruptionError(
                path, f"cannot read recorded series: {exc}", index=index
            ) from exc

    def segment_table(self, index: int, table: str) -> dict[str, np.ndarray]:
        """One segment's ``samples`` or ``runs`` columns (segment-local order).

        The out-of-core unit of the streaming readers: callers pair the
        sample columns with :meth:`row_layout` to place the rows globally.
        """
        path = self.segment_path(index)
        try:
            with np.load(path) as data:
                return _group(data, table)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise SegmentCorruptionError(
                path, f"cannot read {table} columns: {exc}", index=index
            ) from exc

    def sample_column_names(self) -> list[str]:
        """Names of the samples-table columns (from the first segment)."""
        path = self.segment_path(0)
        try:
            with np.load(path) as data:
                return [
                    k.split("/", 1)[1]
                    for k in data.files
                    if k.startswith("samples/")
                ]
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise SegmentCorruptionError(
                path, f"cannot list sample columns: {exc}", index=0
            ) from exc

    # -- recovery -------------------------------------------------------
    def _quarantine(self, index: int) -> Path | None:
        """Move a damaged segment file aside; returns its new path."""
        path = self.segment_path(index)
        if not path.is_file():
            return None
        self.quarantine_path.mkdir(parents=True, exist_ok=True)
        generation = sum(
            1
            for p in self.quarantine_path.iterdir()
            if p.name.startswith(path.name)
        )
        target = self.quarantine_path / f"{path.name}.{generation}"
        path.replace(target)
        get_registry().counter(
            "repro_store_segments_quarantined_total",
            "Damaged segment files moved aside before healing.",
        ).inc()
        return target

    def recover_segment(self, index: int, *, detail: str = "") -> SegmentStatus:
        """Heal one segment by re-simulating its span.

        The damaged file (if any) is quarantined, the span is re-run
        through the entity-keyed simulator — producing bit-identical
        content — and the manifest entry is rewritten with the new
        checksum.  Emits :class:`DegradedDataWarning`; the caller opts
        into strictness by checking :meth:`verify` first.
        """
        from repro.parallel.simulate import simulate_span

        span = self.span(index)
        quarantined = self._quarantine(index)
        warnings.warn(
            f"segment {index} of {self.root} is damaged ({detail or 'unknown'}); "
            f"re-simulating span [{span.lo}, {span.hi})"
            + (f", original quarantined at {quarantined}" if quarantined else ""),
            DegradedDataWarning,
            stacklevel=2,
        )
        result = simulate_span((self.config(), span))
        entry = write_segment(self.segment_path(index), result, span)
        entries = self.entries()
        entries[index] = entry
        self.write_manifest(self.config(), entries, self.app_names())
        registry = get_registry()
        registry.counter(
            "repro_store_segments_healed_total",
            "Segments re-simulated back to pristine bits.",
        ).inc()
        registry.event("segment_healed", segment=index)
        return SegmentStatus(index, "recovered", detail)

    def recover(self, *, strict: bool = False) -> list[SegmentStatus]:
        """Verify every segment and heal the damaged ones in place.

        In strict mode the first damaged segment raises
        :class:`SegmentCorruptionError` instead of healing.
        """
        statuses: list[SegmentStatus] = []
        for status in self.verify():
            if status.status == "ok":
                statuses.append(status)
                continue
            if strict:
                raise SegmentCorruptionError(
                    self.segment_path(status.index),
                    f"segment {status.index} is {status.status}: {status.detail}",
                    index=status.index,
                )
            statuses.append(
                self.recover_segment(status.index, detail=status.detail)
            )
        return statuses

    # -- whole-trace access ---------------------------------------------
    def load_trace(self, *, strict: bool = False) -> Trace:
        """Reassemble the full in-memory :class:`Trace`.

        Every segment is verified on read; damaged segments are healed
        (re-simulated, quarantined, manifest rewritten) under
        :class:`DegradedDataWarning` — or raise
        :class:`SegmentCorruptionError` in strict mode.  The merged
        result is bit-identical to ``TraceSimulator(config).run()``.
        Reading is not simulating: the merge records no ``repro_sim_*``
        metrics (the pipeline that wrote the segments did).
        """
        config = self.config()
        results: list[ShardResult] = []
        for index in range(self.num_segments):
            try:
                results.append(self.load_shard_result(index))
            except SegmentCorruptionError as exc:
                if strict:
                    raise
                self.recover_segment(index, detail=str(exc))
                results.append(self.load_shard_result(index))
        trace = merge_shard_results(
            config, results, registry=MetricsRegistry(mode="off")
        )
        trace.meta["store"] = str(self.root)
        return trace

    # -- row layout -----------------------------------------------------
    def completion_order(self) -> np.ndarray:
        """The schedule's run-completion order (from the first segment)."""
        return self.read_segment_array(0, "completion_order")

    def row_layout(self) -> tuple[int, list[np.ndarray]]:
        """Global row destinations for every segment's sample rows.

        :func:`~repro.telemetry.simulator.row_destinations` over each
        segment's block index: ``dests[s][i]`` is the row segment ``s``'s
        ``i``-th sample occupies in the merged (serial-order) trace.
        Only the tiny block-index arrays are read, never the sample
        columns, so streaming consumers (the segment digest, the
        out-of-core feature builder) can scatter columns into global
        order one segment at a time.
        """
        segments = range(self.num_segments)
        return row_destinations(
            self.completion_order(),
            [self.read_segment_array(i, "block_run_id") for i in segments],
            [self.read_segment_array(i, "block_size") for i in segments],
        )
