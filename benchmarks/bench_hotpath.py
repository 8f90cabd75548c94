#!/usr/bin/env python
"""Hot-path benchmark: per-tree scoring loop vs flattened kernels, and
per-feature vs flat histogram split search in training.

Measures single-core GBDT batch-scoring throughput three ways, and tree
fitting once, and seeds ``BENCH_hotpath.json`` for the CI regression
gate:

* **kernel legs** — raw margin computation (binned codes in, scores
  out) at the serving micro-batch sizes (32, 256) and in bulk, for the
  legacy per-tree loop (the pre-kernel ``benchmarks/bench_serve.py``
  scoring path) against the flattened numpy kernel;
* **microbatch leg** — the end-to-end serve path
  (:class:`~repro.serve.scorer.MicroBatchScorer`: queue + fused row
  assembly + TwoStage prediction) under both scoring paths;
* **row-fusion leg** — :func:`~repro.serve.engine.rows_to_matrix`
  batch assembly throughput;
* **fit leg** — boosting rounds of :class:`~repro.ml.tree.GradHessTree`
  on the binned training set, with the legacy recursive grower and its
  per-feature split-search loop against the flat histogram pass on one
  split context per fit (its ``rows_per_sec`` counts training rows times
  trees grown).

Every leg runs identical inputs on both paths and asserts bit-equal
outputs (scores, or grown trees) before timing — a benchmark that
drifts from the exactness contract must fail, not report a meaningless
speedup.  Absolute rows/sec are machine-specific; the committed
regression baseline therefore pins the machine-relative ``speedup``
ratios, which CI re-measures with ``--quick``.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        [--preset tiny] [--quick] [--bulk-rows N] [--out BENCH_hotpath.json]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Serving micro-batch sizes: the gateway/replay test batch and the
#: replay default (``ScorerConfig.max_batch_size``).
MICRO_BATCH_SIZES = (32, 256)


def _paired_seconds(old, new, *, repeats: int, min_rows: int, batch_rows: int):
    """Per-call seconds of ``old`` and ``new`` and their speedup, timed in pairs.

    Each repeat times one pass of each side, back to back and in
    alternating order, so a swing in machine speed lands on both sides
    of a pair.  Returns the median per-call seconds of each side and
    the median of the paired ``old / new`` ratios.
    """
    calls = max(1, min_rows // batch_rows)

    def per_call(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    pairs = []
    for repeat in range(repeats):
        if repeat % 2:
            t_new = per_call(new)
            pairs.append((per_call(old), t_new))
        else:
            pairs.append((per_call(old), per_call(new)))
    old_s, new_s = (float(np.median(side)) for side in zip(*pairs))
    return old_s, new_s, float(np.median([a / b for a, b in pairs]))


def _pertree_raw(gb, binned: np.ndarray) -> np.ndarray:
    """The legacy per-tree scoring loop: one ``predict_binned`` per tree."""
    raw = np.full(binned.shape[0], gb._base_score)
    for tree in gb._trees:
        raw += gb.learning_rate * tree.predict_binned(binned)
    return raw


def _per_feature_tree(binned, grad, hess, *, n_bins, **params):
    """The legacy grower: a recursive split with one histogram pass per
    feature per node, on row-subset copies of the gradients."""
    from repro.ml.tree import GradHessTree, _TreeArrays

    tree = GradHessTree(**params)
    lam, leaf = tree.reg_lambda, tree.min_samples_leaf
    arrays = _TreeArrays()

    def best_split(indices, g, h, g_sum, h_sum):
        parent_score = g_sum**2 / (h_sum + lam)
        best_gain, best = tree.min_gain, None
        rows = binned[indices]
        for feature in range(binned.shape[1]):
            codes = rows[:, feature]
            gl = np.cumsum(np.bincount(codes, weights=g, minlength=n_bins))[:-1]
            hl = np.cumsum(np.bincount(codes, weights=h, minlength=n_bins))[:-1]
            nl = np.cumsum(np.bincount(codes, minlength=n_bins))[:-1]
            gr, hr, nr = g_sum - gl, h_sum - hl, indices.size - nl
            valid = (nl >= leaf) & (nr >= leaf)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent_score
            gains[~valid | ~np.isfinite(gains)] = -np.inf
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_gain, best = float(gains[k]), (feature, k)
        return best

    def grow(indices, node, depth):
        g, h = grad[indices], hess[indices]
        g_sum, h_sum = float(g.sum()), float(h.sum())
        arrays.value[node] = -g_sum / (h_sum + lam)
        if depth >= tree.max_depth or indices.size < 2 * leaf:
            return
        best = best_split(indices, g, h, g_sum, h_sum)
        if best is None:
            return
        go_left = binned[indices, best[0]] <= best[1]
        left_idx, right_idx = indices[go_left], indices[~go_left]
        if left_idx.size < leaf or right_idx.size < leaf:
            return
        left, right = arrays.add_node(), arrays.add_node()
        arrays.feature[node], arrays.bin_threshold[node] = best
        arrays.left[node], arrays.right[node] = left, right
        grow(left_idx, left, depth + 1)
        grow(right_idx, right, depth + 1)

    grow(np.arange(binned.shape[0]), arrays.add_node(), 0)
    tree._arrays, tree._n_bins = arrays, n_bins
    return tree


def bench_kernel_legs(gb, X, *, bulk_rows: int, repeats: int) -> list[dict]:
    """Per-tree loop vs the flat kernel on the raw scoring hot path."""
    from repro.ml.kernels import predict_raw

    entries = []
    for batch_rows in (*MICRO_BATCH_SIZES, bulk_rows):
        tiles = batch_rows // X.shape[0] + 1
        Xb = np.tile(X, (tiles, 1))[:batch_rows] if tiles > 1 else X[:batch_rows]
        binned = gb._binner.transform(Xb)
        tag = "bulk" if batch_rows == bulk_rows else f"batch{batch_rows}"

        def pertree():
            return _pertree_raw(gb, binned)

        def flat():
            return predict_raw(
                gb._flat,
                binned,
                base_score=gb._base_score,
                learning_rate=gb.learning_rate,
            )

        assert np.array_equal(pertree(), flat()), "kernel broke bit-identity"
        seconds_pertree, seconds, speedup = _paired_seconds(
            pertree,
            flat,
            repeats=repeats,
            min_rows=max(bulk_rows, 4 * batch_rows),
            batch_rows=batch_rows,
        )
        entries.append(
            {"label": f"pertree_{tag}", "rows_per_sec": round(batch_rows / seconds_pertree, 1)}
        )
        entries.append(
            {
                "label": f"numpy_{tag}",
                "rows_per_sec": round(batch_rows / seconds, 1),
                "speedup": round(speedup, 2),
            }
        )
    return entries


def bench_microbatch_leg(predictor, schema, rows, *, repeats: int) -> list[dict]:
    """End-to-end micro-batch serve path under both scoring paths.

    Both sides are timed in interleaved pairs (:func:`_paired_seconds`),
    one full submit + flush of ``rows`` per pass.
    """
    from repro.serve import MicroBatchScorer, ScorerConfig

    gb = predictor._model

    def pertree_decision(X):
        return _pertree_raw(gb, gb._binner.transform(X))

    def score_all(pertree: bool) -> None:
        if pertree:
            # Instance-level patch: exactly the pre-kernel scoring path.
            gb._decision_function = pertree_decision
        else:
            gb.__dict__.pop("_decision_function", None)
        scorer = MicroBatchScorer(
            predictor, schema, ScorerConfig(max_batch_size=MICRO_BATCH_SIZES[0])
        )
        scorer.submit(rows, now_minute=0.0)
        scorer.flush()

    seconds_pertree, seconds, speedup = _paired_seconds(
        lambda: score_all(True),
        lambda: score_all(False),
        repeats=repeats,
        min_rows=1,
        batch_rows=1,
    )
    gb.__dict__.pop("_decision_function", None)
    return [
        {"label": "microbatch_pertree", "rows_per_sec": round(len(rows) / seconds_pertree, 1)},
        {
            "label": "microbatch_numpy",
            "rows_per_sec": round(len(rows) / seconds, 1),
            "speedup": round(speedup, 2),
        },
    ]


def bench_row_fusion_leg(schema, rows, *, repeats: int) -> dict:
    """Fused StreamedRow -> FeatureMatrix batch assembly."""
    from repro.serve.engine import rows_to_matrix

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        rows_to_matrix(rows, schema)
        best = min(best, time.perf_counter() - start)
    return {"label": "row_fusion", "rows_per_sec": round(len(rows) / best, 1)}


def bench_fit_leg(gb, X, y, *, n_trees: int, repeats: int) -> list[dict]:
    """Boosting rounds with the per-feature split search vs the flat pass."""
    from repro.ml.base import sigmoid
    from repro.ml.tree import GradHessTree, _SplitContext

    binned = gb._binner.transform(X)
    params = {
        "max_depth": gb.max_depth,
        "min_samples_leaf": gb.min_samples_leaf,
        "reg_lambda": gb.reg_lambda,
    }

    def per_feature_fit():
        return lambda g, h: _per_feature_tree(binned, g, h, n_bins=gb.n_bins, **params)

    def flat_fit():
        # One split context per fit, as GradientBoostingClassifier builds.
        context = _SplitContext(binned, gb.n_bins)
        return lambda g, h: GradHessTree(**params)._fit_rows(
            context, context.weights(g, h)
        )

    def boost(new_fit) -> list:
        grow = new_fit()
        raw = np.zeros(binned.shape[0])
        trees = []
        for _ in range(n_trees):
            probs = sigmoid(raw)
            tree = grow(probs - y, probs * (1.0 - probs))
            raw += gb.learning_rate * tree.predict_binned(binned)
            trees.append(tree)
        return trees

    for old, new in zip(boost(per_feature_fit), boost(flat_fit)):
        for a, b in zip(old.arrays.as_numpy(), new.arrays.as_numpy()):
            assert a.tobytes() == b.tobytes(), "split search broke bit-identity"
    seconds_pertree, seconds, speedup = _paired_seconds(
        lambda: boost(per_feature_fit),
        lambda: boost(flat_fit),
        repeats=repeats,
        min_rows=1,
        batch_rows=1,
    )
    row_trees = binned.shape[0] * n_trees
    return [
        {"label": "fit_pertree", "rows_per_sec": round(row_trees / seconds_pertree, 1)},
        {
            "label": "fit_numpy",
            "rows_per_sec": round(row_trees / seconds, 1),
            "speedup": round(speedup, 2),
        },
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="tiny")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: fast-caps model, smaller bulk batch, fewer repeats",
    )
    parser.add_argument("--bulk-rows", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_hotpath.json"))
    args = parser.parse_args()

    bulk_rows = args.bulk_rows or (20_000 if args.quick else 100_000)
    repeats = args.repeats or (2 if args.quick else 3)

    from repro.core.twostage import TwoStagePredictor
    from repro.experiments.presets import preset_config, split_plan
    from repro.features.builder import compute_top_apps
    from repro.features.splits import make_paper_splits
    from repro.core.pipeline import PredictionPipeline
    from repro.features.builder import build_features
    from repro.ml.gbdt import GradientBoostingClassifier
    from repro.serve import StreamingFeatureEngine, iter_trace_events
    from repro.telemetry.simulator import simulate_trace

    trace = simulate_trace(preset_config(args.preset))
    features = build_features(trace)
    plan = split_plan(args.preset)
    splits = make_paper_splits(
        train_days=plan["train_days"],
        test_days=plan["test_days"],
        offsets_days=tuple(plan["offsets"]),
        duration_days=trace.config.duration_days,
    )
    pipeline = PredictionPipeline(features, splits)
    train, _ = pipeline.train_test("DS1")

    caps = {"n_estimators": 40, "max_depth": 3} if args.quick else {}
    gb = GradientBoostingClassifier(random_state=0, **caps)
    gb.fit(train.X, train.y)
    print(
        f"model: {gb.n_estimators_} trees, {gb._flat.n_nodes} nodes "
        f"({'quick' if args.quick else 'full'} caps)"
    )

    entries = bench_kernel_legs(gb, features.X, bulk_rows=bulk_rows, repeats=repeats)

    predictor = TwoStagePredictor("gbdt", random_state=0, fast=args.quick)
    predictor.fit(train)
    engine = StreamingFeatureEngine(
        trace.machine,
        compute_top_apps(np.asarray(trace.samples["app_id"], dtype=int), 16),
    )
    rows = list(engine.stream(iter_trace_events(trace)))
    entries.extend(bench_microbatch_leg(predictor, engine.schema, rows, repeats=repeats))
    entries.append(bench_row_fusion_leg(engine.schema, rows, repeats=repeats))
    entries.extend(
        bench_fit_leg(
            gb, train.X, train.y, n_trees=10 if args.quick else 30, repeats=repeats
        )
    )

    for entry in entries:
        speedup = entry.get("speedup")
        baseline = "per-feature" if entry["label"].startswith("fit_") else "per-tree"
        suffix = f"  ({speedup:.2f}x vs {baseline})" if speedup is not None else ""
        print(f"{entry['label']:>20}: {entry['rows_per_sec']:12,.0f} rows/s{suffix}")

    headline = next(e for e in entries if e["label"] == "numpy_batch32")
    floor = 2.0 if args.quick else 5.0
    if headline["speedup"] < floor:
        print(
            f"FAIL: numpy kernel speedup {headline['speedup']:.2f}x at the serve "
            f"micro-batch size is below the {floor:.0f}x floor"
        )
        return 1

    report = {
        "benchmark": "bench_hotpath",
        "preset": args.preset,
        "quick": args.quick,
        "bulk_rows": bulk_rows,
        "n_trees": int(gb.n_estimators_),
        "n_nodes": int(gb._flat.n_nodes),
        "entries": entries,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out} (headline: {headline['speedup']:.2f}x at batch 32)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
