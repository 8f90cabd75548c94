"""The one definition of a feature row.

One output row per (run, node) sample.  Telemetry statistics come straight
from the samples table (the out-of-band sampler computed them online);
history features are computed here, causally, from per-(job, node) SBE
events (:mod:`repro.features.history`).

:func:`feature_schema` names and tags the columns; :func:`feature_block`
computes them for any block of sample rows once the global inputs are
fixed: the top-app vocabulary (:func:`compute_top_apps`) and each row's
causal history counts (:func:`history_counts` plus
:func:`alloc_history`).  Three callers share them:
:func:`build_features` (one block = the whole samples table),
:func:`build_features_from_store` (one block = one store segment) and
:class:`repro.serve.engine.StreamingFeatureEngine` (one block = one
completed run), which is what makes their rows bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import SpanTracer, get_registry
from repro.features.history import HistoryIndex, dedupe_job_events
from repro.features.schema import (
    FeatureSchema,
    GROUP_APP,
    GROUP_HIST,
    GROUP_LOCATION,
    GROUP_TP,
)
from repro.telemetry.trace import PRE_WINDOWS_MINUTES, Trace
from repro.utils.errors import ValidationError

__all__ = [
    "FeatureMatrix",
    "SampleTableBuilder",
    "alloc_history",
    "build_features",
    "build_features_from_store",
    "compute_top_apps",
    "feature_block",
    "feature_schema",
    "history_counts",
]

MINUTES_PER_DAY = 1440.0
_STAT_SUFFIXES = ("mean", "std", "dmean", "dstd")

#: Per-sample metadata columns of every :class:`FeatureMatrix`, with dtypes.
_META_COLUMNS: tuple[tuple[str, type], ...] = (
    ("run_idx", int),
    ("job_id", int),
    ("node_id", int),
    ("app_id", int),
    ("start_minute", float),
    ("end_minute", float),
    ("duration_minutes", float),
    ("n_nodes", int),
    ("gpu_core_hours", float),
    ("sbe_count", np.int64),
)

#: Application columns taken as-is from the sample row (paper §V-A).
_APP_COLUMNS = (
    "duration_minutes",
    "n_nodes",
    "gpu_core_hours",
    "gpu_util",
    "max_mem_gb",
    "agg_mem_gb",
)

#: Temperature/power columns with their refinement tag: the current run,
#: the pre-execution windows, then the CPU and slot neighbours (§V-B).
_TP_COLUMNS: tuple[tuple[str, str], ...] = (
    tuple(
        (f"{quantity}_{suffix}", "tp_cur")
        for quantity in ("gpu_temp", "gpu_power")
        for suffix in _STAT_SUFFIXES
    )
    + tuple(
        (f"pre{window}_{quantity}_{suffix}", "tp_prev")
        for window in PRE_WINDOWS_MINUTES
        for quantity in ("temp", "power")
        for suffix in _STAT_SUFFIXES
    )
    + tuple(
        (f"{quantity}_{suffix}", "tp_nei")
        for quantity in ("cpu_temp", "nei_temp", "nei_power")
        for suffix in _STAT_SUFFIXES
    )
)

#: History window lengths, each counted for the scopes node, app and
#: machine (:func:`history_counts`).
_HISTORY_LENGTHS = ("today", "yesterday", "before")

#: Sample columns copied into each row as-is, in schema order.
_ROW_COPY_COLUMNS = _APP_COLUMNS + tuple(name for name, _ in _TP_COLUMNS)

#: Location columns: cabinet x/y, cage, slot, node in slot, node code.
_LOCATION_WIDTH = 6

#: History rows: the nine :func:`history_counts` plus ``alloc_today``.
_HISTORY_WIDTH = 3 * len(_HISTORY_LENGTHS) + 1


def compute_top_apps(app_ids: np.ndarray, top_k: int) -> np.ndarray:
    """The ``top_k`` most frequent app ids, most frequent first.

    This is the app vocabulary behind the ``app_is_topNN`` indicator
    columns.  Every builder, and the streaming engine's caller, ranks
    through this one (tie-sensitive) function.
    """
    app_ids = np.asarray(app_ids, dtype=int)
    return np.argsort(np.bincount(app_ids))[::-1][: int(top_k)]


def feature_schema(num_top_apps: int) -> FeatureSchema:
    """Names, tags and order of the feature columns (paper §V)."""
    schema = FeatureSchema()
    schema.add("app_code", GROUP_APP)
    for rank in range(num_top_apps):
        schema.add(f"app_is_top{rank:02d}", GROUP_APP)
    schema.add("prev_app_code", GROUP_APP)
    schema.add("prev_app_same", GROUP_APP)
    for name in _APP_COLUMNS:
        schema.add(name, GROUP_APP)
    for name, tag in _TP_COLUMNS:
        schema.add(name, GROUP_TP, tag)
    for name in (
        "loc_cabinet_x",
        "loc_cabinet_y",
        "loc_cage",
        "loc_slot",
        "loc_node_in_slot",
        "loc_node_code",
    ):
        schema.add(name, GROUP_LOCATION)
    for length in _HISTORY_LENGTHS:
        tags = (GROUP_HIST, f"hist_{length}")
        schema.add(f"hist_node_{length}", "hist_local", *tags)
        schema.add(f"hist_app_{length}", "hist_app", *tags)
        schema.add(f"hist_machine_{length}", "hist_global", *tags)
    schema.add("hist_alloc_today", GROUP_HIST, "hist_local", "hist_today")
    return schema


def feature_block(
    rows: dict[str, np.ndarray],
    machine,
    top_apps: np.ndarray,
    history: np.ndarray,
) -> np.ndarray:
    """Feature rows for a block of sample rows, in :func:`feature_schema` order.

    ``rows`` maps sample column names to per-row arrays: the whole
    samples table, one store segment, or one
    :class:`~repro.serve.events.RunCompleted` payload.  ``history`` is
    ``(10, n)``: the rows' :func:`history_counts` then their
    ``alloc_today`` run mean (:func:`alloc_history`), ``log1p``-compressed
    here.  The block is one preallocated matrix filled by column group.
    """
    app_id = np.asarray(rows["app_id"], dtype=int)
    prev_app = np.asarray(rows["prev_app_id"], dtype=int)
    node_id = np.asarray(rows["node_id"], dtype=int)
    top_apps = np.asarray(top_apps, dtype=int)
    cfg = machine.config
    within = node_id % cfg.nodes_per_cabinet
    per_cage = cfg.slots_per_cage * cfg.nodes_per_slot
    copied = len(_ROW_COPY_COLUMNS)
    width = top_apps.size + 3 + copied + _LOCATION_WIDTH + _HISTORY_WIDTH
    X = np.empty((node_id.size, width), dtype=float)
    columns = X.T  # one row per feature column
    at = top_apps.size + 1
    columns[0] = app_id
    columns[1:at] = top_apps[:, None] == app_id
    columns[at] = prev_app
    columns[at + 1] = prev_app == app_id
    at += 2
    # Column by column: assigning a list of columns would first stack
    # them into a temporary as large as the group.
    for name in _ROW_COPY_COLUMNS:
        columns[at] = rows[name]
        at += 1
    for location in (
        machine.cabinet_x[node_id],
        machine.cabinet_y[node_id],
        within // per_cage,
        (within % per_cage) // cfg.nodes_per_slot,
        within % cfg.nodes_per_slot,
        node_id,
    ):
        columns[at] = location
        at += 1
    np.log1p(history, out=columns[at:])
    return X


def history_counts(
    node_index,
    app_index,
    node_id: np.ndarray,
    app_id: np.ndarray,
    start: np.ndarray,
) -> np.ndarray:
    """The nine causal SBE counts of each row, as an int64 ``(9, n)``.

    Lengths are the day before the run start (``today``), the day before
    that (``yesterday``) and everything earlier (``before``); within each
    length the scopes are the row's node, its app and the whole machine,
    which is the schema order.  The indices are
    :class:`~repro.features.history.HistoryIndex` (batch, out of core) or
    :class:`~repro.features.history.IncrementalHistoryIndex` (streaming);
    both count an event before a cut point ``c`` when ``t < c``, so an
    SBE stamped at the run start is not yet visible.
    """
    start = np.asarray(start, dtype=float)
    day = MINUTES_PER_DAY
    # Counts before the cut points s, s - 1 day and s - 2 days; each
    # window is an exact integer difference of two of them.
    cuts = np.array((start, start - day, start - 2 * day))
    before = np.array(
        (
            node_index.counts_before(node_id, cuts),
            app_index.counts_before(app_id, cuts),
            node_index.global_counts_before(cuts),
        )
    ).swapaxes(0, 1)  # (cut, scope, row)
    counts = before.copy()
    counts[:2] -= before[1:]
    return counts.reshape(3 * len(_HISTORY_LENGTHS), start.size)


def alloc_history(run_idx: np.ndarray | None, node_today: np.ndarray) -> np.ndarray:
    """Mean ``node_today`` count over each row's run (allocation history).

    Needs every row of a run at once: the whole table in the batch
    builders, one ``RunStarted`` in the streaming engine, which passes
    ``run_idx=None`` for "every row is one run".  The counts are
    integers, so their float sum is exact in any order and both paths
    give the same bits.
    """
    if run_idx is None:
        return np.full(node_today.size, node_today.sum() / node_today.size)
    _, run_pos = np.unique(run_idx, return_inverse=True)
    sums = np.bincount(run_pos, weights=node_today.astype(float))
    counts = np.bincount(run_pos).astype(float)
    return sums[run_pos] / counts[run_pos]


def _table_history(rows: dict[str, np.ndarray]) -> np.ndarray:
    """History counts and ``alloc_today`` of every row of a whole table.

    The table's own positive rows, deduped per (job, node), seed the
    causal indices; each row then sees only the events before its start.
    """
    events = dedupe_job_events(
        rows["job_id"],
        rows["node_id"],
        rows["end_minute"],
        rows["sbe_count"],
        rows["app_id"],
    )
    counts = history_counts(
        HistoryIndex(events.node_ids, events.minutes, events.counts),
        HistoryIndex(events.app_ids, events.minutes, events.counts),
        rows["node_id"],
        rows["app_id"],
        rows["start_minute"],
    )
    return np.vstack((counts, alloc_history(rows["run_idx"], counts[0])))


@dataclass
class FeatureMatrix:
    """Feature matrix plus labels, schema, and per-sample metadata."""

    X: np.ndarray
    y: np.ndarray
    schema: FeatureSchema
    #: Per-sample metadata columns (ids, times, raw counts, run shape).
    meta: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.X.shape[0] != self.y.shape[0]:
            raise ValidationError("X and y disagree on sample count")
        if self.X.shape[1] != len(self.schema):
            raise ValidationError(
                f"X has {self.X.shape[1]} columns, schema has {len(self.schema)}"
            )

    @property
    def num_samples(self) -> int:
        """Number of rows."""
        return self.X.shape[0]

    def rows(self, mask: np.ndarray) -> "FeatureMatrix":
        """Row subset sharing the schema."""
        mask = np.asarray(mask)
        return FeatureMatrix(
            X=self.X[mask],
            y=self.y[mask],
            schema=self.schema,
            meta={k: v[mask] for k, v in self.meta.items()},
        )

    def columns(
        self,
        include: set[str] | None = None,
        exclude: set[str] | None = None,
    ) -> tuple[np.ndarray, list[str]]:
        """Column subset by tag selection; returns ``(X_subset, names)``."""
        indices = self.schema.select(include=include, exclude=exclude)
        return self.X[:, indices], self.schema.names_for(indices)


class SampleTableBuilder:
    """Assembles a :class:`FeatureMatrix` from a trace."""

    def __init__(self, trace: Trace, *, top_k_apps: int = 16) -> None:
        if trace.num_samples == 0:
            raise ValidationError("trace has no samples")
        self._trace = trace
        self._top_k_apps = int(top_k_apps)

    def build(self) -> FeatureMatrix:
        """Compute all features for every sample in the trace."""
        s = self._trace.samples
        top_apps = compute_top_apps(s["app_id"], self._top_k_apps)
        history = _table_history(s)
        return FeatureMatrix(
            X=feature_block(s, self._trace.machine, top_apps, history),
            y=(s["sbe_count"] > 0).astype(int),
            schema=feature_schema(top_apps.size),
            meta={name: s[name].astype(dtype) for name, dtype in _META_COLUMNS},
        )


def build_features(
    trace: Trace, *, top_k_apps: int = 16, sanitize: bool = False
) -> FeatureMatrix:
    """Convenience wrapper around :class:`SampleTableBuilder`.

    With ``sanitize=True`` the trace first passes through
    :func:`repro.faults.sanitizer.sanitize_trace`, which repairs or
    quarantines degraded telemetry (and is an exact no-op on clean
    traces).  Use it whenever the trace did not come straight from the
    simulator.
    """
    if sanitize:
        from repro.faults.sanitizer import sanitize_trace

        trace, _ = sanitize_trace(trace)
    spans = SpanTracer()
    with spans.span("features_build"):
        matrix = SampleTableBuilder(trace, top_k_apps=top_k_apps).build()
    _record_feature_metrics("batch", matrix, spans)
    return matrix


def _record_feature_metrics(
    builder: str, matrix: FeatureMatrix, spans: SpanTracer
) -> None:
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "repro_features_rows_total", "Feature rows built, per builder kind."
    ).inc(matrix.num_samples, builder=builder)
    registry.counter(
        "repro_features_builds_total", "Feature builds completed."
    ).inc(builder=builder)
    registry.counter(
        "repro_features_seconds_total",
        "Wall time spent building features.",
        wall=True,
    ).inc(spans.get("features_build"), builder=builder)
    seconds = spans.get("features_build")
    if seconds > 0:
        registry.gauge(
            "repro_features_rows_per_sec",
            "Feature rows per wall second (last build).",
            wall=True,
        ).set(matrix.num_samples / seconds, builder=builder)


def build_features_from_store(
    store, *, top_k_apps: int = 16, strict: bool = False
) -> FeatureMatrix:
    """Build the feature matrix from a segmented store, out of core.

    Reads the store (:class:`repro.store.SegmentedTraceStore`) one
    segment at a time — never the whole samples table — in two passes:

    1. scatter every segment's metadata columns into their global
       rows; from those full-length columns come the top-app ranking,
       the causal history indices and every row's history counts, by the
       same calls the batch builder makes on the samples table;
    2. compute each segment's :func:`feature_block` and scatter it into
       its global rows.

    The result is **bit-identical** to
    ``build_features(store.load_trace())`` — the golden feature digests
    do not distinguish the two paths — while peak memory is one segment
    plus the output matrix and its per-row metadata and history counts.
    Damaged segments heal first (or raise
    :class:`~repro.utils.errors.SegmentCorruptionError` under
    ``strict``).
    """
    from repro.topology.machine import Machine

    store.recover(strict=strict)
    spans = SpanTracer()
    spans.start("features_build")
    total, dests = store.row_layout()
    if total == 0:
        raise ValidationError("store has no samples")
    machine = Machine(store.config().machine)

    meta = {name: np.empty(total, dtype=dtype) for name, dtype in _META_COLUMNS}
    for index, dest in enumerate(dests):
        s = store.segment_table(index, "samples")
        for name, _ in _META_COLUMNS:
            meta[name][dest] = s[name]
    top_apps = compute_top_apps(meta["app_id"], top_k_apps)
    history = _table_history(meta)

    schema = feature_schema(top_apps.size)
    X = np.empty((total, len(schema)), dtype=float)
    for index, dest in enumerate(dests):
        X[dest] = feature_block(
            store.segment_table(index, "samples"),
            machine,
            top_apps,
            history[:, dest],
        )
    matrix = FeatureMatrix(
        X=X, y=(meta["sbe_count"] > 0).astype(int), schema=schema, meta=meta
    )
    spans.stop()
    _record_feature_metrics("store", matrix, spans)
    return matrix
