"""Property and regression tests for the flattened scoring kernels.

The core contract: both sweeps of :mod:`repro.ml.kernels` — the
level-synchronous micro-batch traversal and the frontier walk shared by
bulk scoring and ``GradHessTree.predict_binned`` — are **bit-identical**
to an independent node-by-node walk of the per-tree ``_TreeArrays``, for
random tree topologies (random depths, degenerate single-leaf trees) and
for constant all-NaN-imputed-style rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml import kernels
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.kernels import (
    TREE_MAJOR_MIN_ROWS,
    flatten_ensemble,
    frontier_walk,
    predict_raw,
    traverse,
)
from repro.ml.tree import GradHessTree, _TreeArrays
from repro.utils.errors import ValidationError

N_BINS = 64


def _random_trees(rng, n_trees, max_depth, n_features, split_p):
    """Random tree topologies (including single-leaf stumps at split_p=0)."""
    trees = []
    for _ in range(n_trees):
        arrays = _TreeArrays()

        def grow(depth):
            node = arrays.add_node()
            arrays.value[node] = float(rng.normal())
            if depth < max_depth and rng.random() < split_p:
                left = grow(depth + 1)
                right = grow(depth + 1)
                arrays.feature[node] = int(rng.integers(n_features))
                arrays.bin_threshold[node] = int(rng.integers(N_BINS))
                arrays.left[node] = left
                arrays.right[node] = right
            return node

        grow(0)
        tree = GradHessTree(max_depth=max_depth)
        tree._arrays = arrays
        trees.append(tree)
    return trees


def _oracle_walk(arrays: _TreeArrays, codes: np.ndarray) -> int:
    """Node-by-node reference walk of one tree for one row."""
    node = 0
    while arrays.feature[node] >= 0:
        if codes[arrays.feature[node]] <= arrays.bin_threshold[node]:
            node = arrays.left[node]
        else:
            node = arrays.right[node]
    return node


def _oracle_raw(trees, binned, base, lr):
    """Raw margins from the node-by-node walk, in boosting order."""
    raw = np.full(binned.shape[0], base)
    for tree in trees:
        arrays = tree.arrays
        leaf_values = np.array(
            [arrays.value[_oracle_walk(arrays, codes)] for codes in binned]
        )
        raw += lr * leaf_values
    return raw


def _pertree_raw(gb, X):
    """The pre-kernel per-tree scoring loop of a fitted GBDT."""
    binned = gb._binner.transform(X)
    raw = np.full(binned.shape[0], gb._base_score)
    for tree in gb._trees:
        raw += gb.learning_rate * tree.predict_binned(binned)
    return raw


ensembles = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n_trees": st.integers(1, 5),
        "max_depth": st.integers(1, 5),
        "n_features": st.integers(1, 4),
        "n_rows": st.integers(1, 40),
        "split_p": st.floats(0.0, 1.0),
    }
)


class TestTraversalProperties:
    @given(params=ensembles)
    def test_flat_traversal_matches_node_by_node_walk(self, params):
        rng = np.random.default_rng(params["seed"])
        trees = _random_trees(
            rng,
            params["n_trees"],
            params["max_depth"],
            params["n_features"],
            params["split_p"],
        )
        forest = flatten_ensemble(trees)
        binned = rng.integers(
            0, 256, size=(params["n_rows"], params["n_features"])
        ).astype(np.uint8)
        positions = traverse(forest, binned)
        for t, tree in enumerate(trees):
            offset = int(forest.offsets[t])
            expected = [_oracle_walk(tree.arrays, codes) for codes in binned]
            assert np.array_equal(positions[t], offset + np.array(expected))
            bulk = frontier_walk(
                forest.feature,
                forest.bin_threshold,
                forest.left,
                forest.right,
                binned,
                root=offset,
                max_depth=forest.max_depth,
            )
            assert np.array_equal(bulk, offset + np.array(expected))
            values = np.array([tree.arrays.value[k] for k in expected])
            assert np.array_equal(tree.predict_binned(binned), values)

    @given(params=ensembles)
    def test_predict_raw_bit_identical_to_pertree_loop(self, params):
        rng = np.random.default_rng(params["seed"])
        trees = _random_trees(
            rng,
            params["n_trees"],
            params["max_depth"],
            params["n_features"],
            params["split_p"],
        )
        base = float(rng.normal())
        lr = float(rng.uniform(0.01, 0.5))
        forest = flatten_ensemble(trees)
        binned = rng.integers(
            0, 256, size=(params["n_rows"], params["n_features"])
        ).astype(np.uint8)
        expected = _oracle_raw(trees, binned, base, lr)
        got = predict_raw(forest, binned, base_score=base, learning_rate=lr)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("code", [0, 63, 255])
    def test_constant_imputed_rows(self, code):
        """All-NaN-imputed rows surface as constant codes; still exact."""
        rng = np.random.default_rng(code)
        trees = _random_trees(rng, 3, 4, 3, 0.8)
        forest = flatten_ensemble(trees)
        binned = np.full((17, 3), code, dtype=np.uint8)
        expected = _oracle_raw(trees, binned, 0.25, 0.1)
        got = predict_raw(forest, binned, base_score=0.25, learning_rate=0.1)
        assert np.array_equal(got, expected)
        # Constant input -> one shared leaf per tree -> constant output.
        assert np.unique(got).size == 1

    def test_single_leaf_trees(self):
        rng = np.random.default_rng(5)
        trees = _random_trees(rng, 4, 3, 2, 0.0)  # split_p=0: all stumps
        forest = flatten_ensemble(trees)
        assert forest.n_nodes == 4
        binned = rng.integers(0, 256, size=(9, 2)).astype(np.uint8)
        got = predict_raw(forest, binned, base_score=1.0, learning_rate=0.5)
        expected = _oracle_raw(trees, binned, 1.0, 0.5)
        assert np.array_equal(got, expected)

    def test_empty_ensemble_scores_base_only(self):
        assert flatten_ensemble([]) is None
        got = predict_raw(
            None, np.zeros((6, 2), dtype=np.uint8), base_score=-1.5, learning_rate=0.1
        )
        assert np.array_equal(got, np.full(6, -1.5))

    def test_traverse_rejects_non_uint8(self):
        trees = _random_trees(np.random.default_rng(0), 1, 2, 2, 1.0)
        forest = flatten_ensemble(trees)
        with pytest.raises(ValidationError, match="uint8"):
            traverse(forest, np.zeros((3, 2), dtype=np.int64))

    def test_tree_major_bulk_path_bit_identical(self):
        """Both sides of the row-count switch match the node-by-node walk."""
        rng = np.random.default_rng(3)
        trees = _random_trees(rng, 5, 4, 3, 0.8)
        forest = flatten_ensemble(trees)
        binned = rng.integers(
            0, 256, size=(TREE_MAJOR_MIN_ROWS, 3)
        ).astype(np.uint8)
        expected = _oracle_raw(trees, binned, 0.5, 0.1)
        level_sync = predict_raw(
            forest, binned[:-1], base_score=0.5, learning_rate=0.1
        )
        bulk = predict_raw(forest, binned, base_score=0.5, learning_rate=0.1)
        assert np.array_equal(level_sync, expected[:-1])
        assert np.array_equal(bulk, expected)

    def test_chunked_traversal_matches_unchunked(self, monkeypatch):
        rng = np.random.default_rng(11)
        trees = _random_trees(rng, 3, 4, 3, 0.8)
        forest = flatten_ensemble(trees)
        binned = rng.integers(0, 256, size=(103, 3)).astype(np.uint8)
        whole = traverse(forest, binned)
        monkeypatch.setattr(kernels, "CHUNK_ROWS", 16)
        assert np.array_equal(traverse(forest, binned), whole)


class TestFittedModelParity:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_fitted_gbdt_flat_matches_pertree_oracle(self, binary_dataset, seed):
        X, y = binary_dataset
        gb = GradientBoostingClassifier(
            n_estimators=30, max_depth=3, random_state=seed
        )
        gb.fit(X, y)
        assert gb._flat is not None
        assert gb._flat.n_trees == gb.n_estimators_
        assert np.array_equal(gb.decision_function(X), _pertree_raw(gb, X))

    def test_refit_invalidates_flat_cache(self, binary_dataset):
        X, y = binary_dataset
        gb = GradientBoostingClassifier(n_estimators=8, max_depth=2, random_state=0)
        gb.fit(X[:800], y[:800])
        first = gb._flat
        gb.fit(X[800:1600], y[800:1600])
        assert gb._flat is not first
        assert np.array_equal(
            gb.decision_function(X[:100]), _pertree_raw(gb, X[:100])
        )

    def test_predict_does_not_reflatten(self, binary_dataset, monkeypatch):
        """Regression: scoring must reuse the fit-time flat cache."""
        X, y = binary_dataset
        calls = []
        real = kernels.flatten_ensemble

        def counting(trees):
            calls.append(len(trees))
            return real(trees)

        monkeypatch.setattr("repro.ml.gbdt.flatten_ensemble", counting)
        gb = GradientBoostingClassifier(n_estimators=8, max_depth=2, random_state=0)
        gb.fit(X[:800], y[:800])
        assert len(calls) == 1  # flattened exactly once, at fit time
        gb.decision_scores(X[800:900])
        gb.decision_scores(X[900:1000])
        gb.predict_proba(X[:50])
        assert len(calls) == 1  # no re-flattening on any predict path

    def test_unpickle_rebuilds_flat_cache(self, binary_dataset):
        import pickle

        X, y = binary_dataset
        gb = GradientBoostingClassifier(n_estimators=8, max_depth=2, random_state=0)
        gb.fit(X[:800], y[:800])
        blob = pickle.dumps(gb)
        clone = pickle.loads(blob)
        assert clone._flat is not None
        assert np.array_equal(
            clone.decision_function(X[:100]), gb.decision_function(X[:100])
        )

    def test_unpickle_of_pre_kernel_payload(self, binary_dataset):
        """Old pickles never carried ``_flat``; __setstate__ upgrades them."""
        X, y = binary_dataset
        gb = GradientBoostingClassifier(n_estimators=6, max_depth=2, random_state=0)
        gb.fit(X[:600], y[:600])
        state = gb.__getstate__()
        assert "_flat" not in state  # derived data never pickles
        fresh = GradientBoostingClassifier.__new__(GradientBoostingClassifier)
        fresh.__setstate__(state)
        assert fresh._flat is not None
        assert np.array_equal(
            fresh.decision_function(X[:100]), gb.decision_function(X[:100])
        )
