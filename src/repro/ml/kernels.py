"""Hot-path scoring kernels: flattened GBDT ensembles, two numpy sweeps.

The from-scratch :class:`~repro.ml.gbdt.GradientBoostingClassifier`
historically scored with a Python loop over its trees, each tree doing a
vectorized frontier walk — O(n_trees * depth) small numpy kernel
launches per batch.  This module flattens a fitted ensemble into one set
of contiguous ensemble-level arrays (:class:`FlatForest`) and scores it
with one of two sweeps, chosen by row count:

* micro-batches (below :data:`TREE_MAJOR_MIN_ROWS` rows) traverse *all*
  trees level-synchronously in O(depth) large numpy ops
  (:func:`traverse`), which is where the serving tier's ≥5x single-core
  micro-batch scoring speedup comes from
  (``benchmarks/bench_hotpath.py``);
* bulk batches walk the flat arrays tree by tree with
  :func:`frontier_walk`, the same walk
  :meth:`~repro.ml.tree.GradHessTree.predict_binned` uses during
  training.  It matches level-sync on bulk speed while keeping its
  temporaries O(n_rows) instead of O(n_trees * n_rows).

Exactness contract (enforced by tests and the determinism gate):

* Both sweeps are pure integer comparison on quantized bin codes, so
  every sample lands on exactly the node a node-by-node walk would reach.
* Scores accumulate in boosting order with the same per-element float64
  operations the per-tree loop performed (``raw += lr * leaf_value``),
  so flattened scores are **bit-identical** to the legacy path — pinned
  replay/gateway/golden digests must not move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ValidationError

__all__ = [
    "FlatForest",
    "flatten_ensemble",
    "frontier_walk",
    "predict_raw",
    "traverse",
]

#: Rows per traversal chunk: bounds the (n_trees, chunk) temporaries so
#: huge benchmark batches cannot balloon memory.  Chunking is invisible
#: to results — rows are independent.
CHUNK_ROWS = 16384

#: At or above this many rows :func:`predict_raw` sweeps tree-major with
#: :func:`frontier_walk` instead of level-synchronously: the
#: (n_trees, n_rows) per-level temporaries of the all-trees pass outgrow
#: cache on bulk batches, while micro-batches (the serving hot path) are
#: dominated by per-tree Python overhead that the level-synchronous pass
#: eliminates.  Both sweeps select identical leaves and accumulate in
#: identical order, so the switch can never change a score bit.
TREE_MAJOR_MIN_ROWS = 4096

@dataclass(frozen=True)
class FlatForest:
    """A fitted GBDT ensemble flattened into contiguous node arrays.

    Node ``k`` of tree ``t`` lives at global index ``offsets[t] + k``;
    ``left``/``right`` already hold *global* child indices, so one
    traversal loop serves every tree.  Leaves have ``feature == -1``.
    """

    #: Split feature per node (int32; -1 marks a leaf).
    feature: np.ndarray
    #: Inclusive bin-code threshold per node (go left when code <= it).
    bin_threshold: np.ndarray
    #: Global left/right child index per node (int32; -1 at leaves).
    left: np.ndarray
    right: np.ndarray
    #: Leaf/node value per node (float64; exactly the per-tree values).
    value: np.ndarray
    #: Per-tree node offsets, length ``n_trees + 1`` (int32).
    offsets: np.ndarray
    #: Upper bound on any tree's depth (traversal pass count).
    max_depth: int

    @property
    def n_trees(self) -> int:
        """Number of trees in the flattened ensemble."""
        return self.offsets.shape[0] - 1

    @property
    def n_nodes(self) -> int:
        """Total node count across every tree."""
        return self.feature.shape[0]


def flatten_ensemble(trees) -> FlatForest | None:
    """Flatten fitted :class:`~repro.ml.tree.GradHessTree`s into arrays.

    Returns ``None`` for an empty ensemble (every tree degenerated during
    boosting); callers then score the base value alone, exactly as the
    per-tree loop did.
    """
    if not trees:
        return None
    feature_parts: list[np.ndarray] = []
    threshold_parts: list[np.ndarray] = []
    left_parts: list[np.ndarray] = []
    right_parts: list[np.ndarray] = []
    value_parts: list[np.ndarray] = []
    offsets = np.zeros(len(trees) + 1, dtype=np.int32)
    max_depth = 0
    for t, tree in enumerate(trees):
        arrays = tree.arrays
        feature, threshold, left, right, value = arrays.as_numpy()
        shift = offsets[t]
        feature_parts.append(feature)
        threshold_parts.append(threshold)
        # Shift child pointers to global indices; keep -1 sentinels.
        left_parts.append(np.where(left >= 0, left + shift, left))
        right_parts.append(np.where(right >= 0, right + shift, right))
        value_parts.append(value)
        offsets[t + 1] = shift + feature.shape[0]
        max_depth = max(max_depth, int(tree.max_depth))
    return FlatForest(
        feature=np.ascontiguousarray(np.concatenate(feature_parts)),
        bin_threshold=np.ascontiguousarray(np.concatenate(threshold_parts)),
        left=np.ascontiguousarray(np.concatenate(left_parts)),
        right=np.ascontiguousarray(np.concatenate(right_parts)),
        value=np.ascontiguousarray(np.concatenate(value_parts)),
        offsets=offsets,
        max_depth=max_depth,
    )


def traverse(forest: FlatForest, binned: np.ndarray) -> np.ndarray:
    """Leaf index per (tree, row): one level-synchronous pass per depth.

    Returns an int32 array of shape ``(n_trees, n_rows)`` of *global*
    node indices.  Every sample advances one level per pass across all
    trees simultaneously; a tree's depth bounds its passes, so rows
    already at a leaf simply hold position.
    """
    if binned.dtype != np.uint8:
        raise ValidationError("binned matrix must be uint8 bin codes")
    n_rows = binned.shape[0]
    positions = np.empty((forest.n_trees, n_rows), dtype=np.int32)
    for start in range(0, n_rows, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n_rows)
        positions[:, start:stop] = _traverse_chunk(forest, binned[start:stop])
    return positions


def _traverse_chunk(forest: FlatForest, binned: np.ndarray) -> np.ndarray:
    n_rows = binned.shape[0]
    pos = np.repeat(
        forest.offsets[:-1].astype(np.intp)[:, None], n_rows, axis=1
    )
    rows = np.arange(n_rows)[None, :]
    for _ in range(forest.max_depth + 1):
        feat = forest.feature[pos]
        internal = feat >= 0
        if not internal.any():
            break
        # Leaf positions gather feature 0 harmlessly; the np.where below
        # discards their (meaningless) step.
        codes = binned[rows, np.where(internal, feat, 0)]
        go_left = codes <= forest.bin_threshold[pos]
        step = np.where(go_left, forest.left[pos], forest.right[pos])
        pos = np.where(internal, step, pos)
    return pos


def frontier_walk(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    binned: np.ndarray,
    *,
    root: int = 0,
    max_depth: int,
) -> np.ndarray:
    """Node index per row for one tree, starting every row at ``root``.

    Rows that reach a leaf drop out of later passes (the ``nonzero``
    compaction), so each level only touches still-descending rows.  Each
    pass advances a row one level; ``max_depth`` bounds the passes.
    """
    # intp positions: numpy re-casts any other index dtype on every
    # gather, which would dominate the bulk path.
    pos = np.full(binned.shape[0], root, dtype=np.intp)
    for _ in range(max_depth + 1):
        internal = feature[pos] >= 0
        if not internal.any():
            break
        idx = np.nonzero(internal)[0]
        at = pos[idx]
        codes = binned[idx, feature[at]]
        go_left = codes <= threshold[at]
        pos[idx] = np.where(go_left, left[at], right[at])
    return pos


def predict_raw(
    forest: FlatForest | None,
    binned: np.ndarray,
    *,
    base_score: float,
    learning_rate: float,
) -> np.ndarray:
    """Raw ensemble margin per row: ``base + lr * sum(leaf values)``."""
    if binned.dtype != np.uint8:
        raise ValidationError("binned matrix must be uint8 bin codes")
    raw = np.full(binned.shape[0], base_score)
    if forest is None:
        return raw
    # Accumulate in boosting order with the identical per-element float64
    # op the per-tree loop used — this is what makes scores bit-exact.
    if binned.shape[0] >= TREE_MAJOR_MIN_ROWS:
        for t in range(forest.n_trees):
            leaves = frontier_walk(
                forest.feature,
                forest.bin_threshold,
                forest.left,
                forest.right,
                binned,
                root=int(forest.offsets[t]),
                max_depth=forest.max_depth,
            )
            raw += learning_rate * forest.value[leaves]
        return raw
    positions = traverse(forest, binned)
    for t in range(forest.n_trees):
        raw += learning_rate * forest.value[positions[t]]
    return raw
