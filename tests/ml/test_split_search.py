"""Parity tests: the flat histogram split search against the per-feature loop.

``GradHessTree`` grows on a per-fit :class:`~repro.ml.tree._SplitContext`
(the features not constant over the fit rows, their flat codes
``code + k * n_bins`` and ``grad + 1j * hess`` weights).  Each node
scatters its complex weights into one histogram, takes its counts from
``bincount`` or, for the larger child, as parent minus smaller child,
and scores only the thresholds that leave ``min_samples_leaf`` rows on
both sides.  Its contract is bit-identity with the recursive grower and
per-feature loop it replaced, kept here as :func:`reference_tree`:

* each bin sums its rows in row order, so every histogram is exact;
* the gain is the same element-wise IEEE expression;
* ties go to the first feature, then the first bin.

The properties below compare whole grown trees, root split included,
over the edge cases that stress those points: ``reg_lambda=0`` (the
``DecisionTreeRegressor`` path with its 0/0 masking), exact gain ties
across features and bins, constant columns, leaves too large to allow
any split, 2 and 256 bins, and nodes spanning several row blocks.
:func:`reference_boost` does the same for whole
``GradientBoostingClassifier`` fits.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml import tree as tree_module
from repro.ml.base import sigmoid
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.tree import FeatureBinner, GradHessTree, _SplitContext, _TreeArrays
from repro.utils.rng import child_rng


def reference_tree(
    binned, grad, hess, *, n_bins, max_depth=4, min_samples_leaf=20,
    reg_lambda=1.0, min_gain=1e-7,
) -> _TreeArrays:
    """Reference oracle: the recursive grower with one loop per feature."""
    arrays = _TreeArrays()

    def best_split(indices, g, h, g_sum, h_sum):
        parent_score = g_sum**2 / (h_sum + reg_lambda)
        best_gain = min_gain
        best = None
        rows = binned[indices]
        for feature in range(binned.shape[1]):
            codes = rows[:, feature]
            g_hist = np.bincount(codes, weights=g, minlength=n_bins)
            h_hist = np.bincount(codes, weights=h, minlength=n_bins)
            n_hist = np.bincount(codes, minlength=n_bins)
            gl = np.cumsum(g_hist)[:-1]
            hl = np.cumsum(h_hist)[:-1]
            nl = np.cumsum(n_hist)[:-1]
            gr = g_sum - gl
            hr = h_sum - hl
            nr = indices.size - nl
            valid = (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = gl**2 / (hl + reg_lambda) + gr**2 / (hr + reg_lambda) - parent_score
            gains[~valid | ~np.isfinite(gains)] = -np.inf
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_gain = float(gains[k])
                best = (feature, k)
        return best

    def grow(indices, node, depth):
        g = grad[indices]
        h = hess[indices]
        g_sum = float(g.sum())
        h_sum = float(h.sum())
        arrays.value[node] = -g_sum / (h_sum + reg_lambda)
        if depth >= max_depth or indices.size < 2 * min_samples_leaf:
            return
        best = best_split(indices, g, h, g_sum, h_sum)
        if best is None:
            return
        feature, bin_threshold = best
        go_left = binned[indices, feature] <= bin_threshold
        left_idx = indices[go_left]
        right_idx = indices[~go_left]
        if left_idx.size < min_samples_leaf or right_idx.size < min_samples_leaf:
            return
        left = arrays.add_node()
        right = arrays.add_node()
        arrays.feature[node] = feature
        arrays.bin_threshold[node] = bin_threshold
        arrays.left[node] = left
        arrays.right[node] = right
        grow(left_idx, left, depth + 1)
        grow(right_idx, right, depth + 1)

    grow(np.arange(binned.shape[0]), arrays.add_node(), 0)
    return arrays


def reference_predict(arrays: _TreeArrays, binned) -> np.ndarray:
    """Leaf value of every row, walking the node lists level by level."""
    feature, threshold, left, right, value = arrays.as_numpy()
    node = np.zeros(binned.shape[0], dtype=np.intp)
    while True:
        rows = np.flatnonzero(feature[node] >= 0)
        if not rows.size:
            return value[node]
        at = node[rows]
        go_left = binned[rows, feature[at]] <= threshold[at]
        node[rows] = np.where(go_left, left[at], right[at])


def reference_boost(model: GradientBoostingClassifier, X, y):
    """The boosting loop on :func:`reference_tree`, row-subset copies and all.

    Returns ``(base_score, trees, decision)`` for the model's parameters,
    ``decision`` being the raw scores of ``X``.
    """
    rng = child_rng(model.random_state)
    binner = FeatureBinner(model.n_bins)
    binned = binner.fit_transform(X)
    n = binned.shape[0]
    if model.class_weight is None:
        sample_weight = np.ones(n)
    else:
        sample_weight = (n / (2.0 * np.bincount(y, minlength=2).astype(float)))[y]
    val = None
    if model.early_stopping_fraction > 0.0 and n >= 50:
        order = rng.permutation(n)
        n_val = max(1, int(n * model.early_stopping_fraction))
        val_idx, train_idx = order[:n_val], order[n_val:]
        val = binned[val_idx], y[val_idx]
        binned, y = binned[train_idx], y[train_idx]
        sample_weight = sample_weight[train_idx]
        n = binned.shape[0]
    pos = float(np.sum(sample_weight * y))
    neg = float(np.sum(sample_weight * (1 - y)))
    base = float(np.log((pos + 1e-12) / (neg + 1e-12)))
    raw = np.full(n, base)
    val_raw = np.full(val[0].shape[0], base) if val is not None else None
    trees = []
    best_loss, since_best = np.inf, 0
    for _ in range(model.n_estimators):
        probs = sigmoid(raw)
        grad = sample_weight * (probs - y)
        hess = sample_weight * probs * (1.0 - probs)
        if model.subsample < 1.0:
            take = max(2 * model.min_samples_leaf, int(n * model.subsample))
            idx = rng.choice(n, size=min(take, n), replace=False)
        else:
            idx = np.arange(n)
        arrays = reference_tree(
            binned[idx], grad[idx], hess[idx], n_bins=model.n_bins,
            max_depth=model.max_depth, min_samples_leaf=model.min_samples_leaf,
            reg_lambda=model.reg_lambda,
        )
        update = reference_predict(arrays, binned)
        if not np.any(update):
            break
        raw += model.learning_rate * update
        trees.append(arrays)
        if val is not None:
            val_raw += model.learning_rate * reference_predict(arrays, val[0])
            p = np.clip(sigmoid(val_raw), 1e-12, 1.0 - 1e-12)
            loss = float(-(val[1] * np.log(p) + (1 - val[1]) * np.log(1 - p)).mean())
            if loss < best_loss - 1e-7:
                best_loss, since_best = loss, 0
            else:
                since_best += 1
                if since_best >= model.early_stopping_rounds:
                    break
    codes = binner.transform(X)
    decision = np.full(codes.shape[0], base)
    for arrays in trees:
        decision += model.learning_rate * reference_predict(arrays, codes)
    return base, trees, decision


def _tree_bytes(arrays: _TreeArrays) -> list[bytes]:
    return [a.tobytes() for a in arrays.as_numpy()]


def _grown(grow, binned, grad, hess, *, n_bins, **params):
    """The grown tree's node arrays as bytes, or the error growing raised."""
    try:
        return _tree_bytes(grow(binned, grad, hess, n_bins=n_bins, **params))
    except ZeroDivisionError as exc:
        # reg_lambda=0 and a child whose hessians are all zero, its
        # ``h_sum - hl`` a rounding residual that kept the gain finite:
        # both growers must pick that split and fail alike.
        return repr(exc)


def _production_tree(binned, grad, hess, *, n_bins, **params) -> _TreeArrays:
    return GradHessTree(**params).fit(binned, grad, hess, n_bins=n_bins).arrays


def assert_same_search(binned, grad, hess, *, n_bins, **params):
    """Both growers grow identical trees; returns the root split or ``None``."""
    got = _grown(_production_tree, binned, grad, hess, n_bins=n_bins, **params)
    assert got == _grown(reference_tree, binned, grad, hess, n_bins=n_bins, **params)
    if isinstance(got, str):
        return got
    # The root is node 0 of the int32 feature and bin_threshold arrays.
    feature, bin_threshold = (int(np.frombuffer(a, np.int32)[0]) for a in got[:2])
    return None if feature < 0 else (feature, bin_threshold)


@st.composite
def split_problems(draw):
    """Binned matrices with gradients built to tie, cancel and degenerate."""
    n_rows = draw(st.integers(2, 120))
    n_features = draw(st.integers(1, 6))
    n_bins = draw(st.sampled_from([2, 3, 16, 64, 256]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # Use only a subset of bins, so empty bins create ties across bins.
    used = draw(st.integers(1, n_bins))
    binned = rng.integers(0, used, size=(n_rows, n_features)).astype(np.uint8)
    if draw(st.booleans()):  # a constant column
        binned[:, draw(st.integers(0, n_features - 1))] = draw(
            st.integers(0, n_bins - 1)
        )
    if n_features > 1 and draw(st.booleans()):
        # A copy of one column, shifted up: the same partitions at other
        # thresholds, so equal gains across features at different bins.
        src, dst = draw(st.permutations(range(n_features)))[:2]
        shift = draw(st.integers(0, n_bins - 1 - int(binned[:, src].max())))
        binned[:, dst] = binned[:, src] + shift
    if draw(st.booleans()):
        # Small integers and unit hessians: many exactly equal gains.
        grad = rng.integers(-2, 3, size=n_rows).astype(float)
        hess = np.ones(n_rows)
    else:
        grad = rng.normal(size=n_rows)
        hess = rng.uniform(0.05, 1.0, size=n_rows)
    if draw(st.booleans()):
        # Saturated rows have zero hessian: with reg_lambda=0 a side of
        # only such rows gives an infinite or NaN gain, which is masked.
        # Row 0 keeps its hessian, so the root's leaf value stays finite.
        saturated = rng.random(n_rows) < 0.5
        saturated[0] = False
        hess[saturated] = 0.0
    params = {
        "max_depth": draw(st.integers(1, 5)),
        "min_samples_leaf": draw(st.integers(1, max(1, n_rows // 2 + 1))),
        "reg_lambda": draw(st.sampled_from([0.0, 0.5, 1.0])),
    }
    # The production block, and small ones that split a node's rows
    # into several blocks, including a ragged last block.
    block_entries = draw(
        st.sampled_from([tree_module._SPLIT_BLOCK_ENTRIES, 1, 7, 64])
    )
    return binned, grad, hess, n_bins, params, block_entries


class TestSplitSearchParity:
    @given(problem=split_problems())
    def test_matches_per_feature_loop(self, problem):
        binned, grad, hess, n_bins, params, block_entries = problem
        with mock.patch.object(tree_module, "_SPLIT_BLOCK_ENTRIES", block_entries):
            assert_same_search(binned, grad, hess, n_bins=n_bins, **params)

    @pytest.mark.parametrize("n_bins", [2, 256])
    def test_bin_count_extremes(self, n_bins):
        rng = np.random.default_rng(n_bins)
        binned = rng.integers(0, n_bins, size=(300, 4)).astype(np.uint8)
        grad = rng.normal(size=300)
        split = assert_same_search(
            binned, grad, np.ones(300), n_bins=n_bins, max_depth=3, min_samples_leaf=5
        )
        assert split is not None

    def test_regression_path_lambda_zero(self):
        """``reg_lambda=0``: empty sides give 0/0 gains that must be masked."""
        rng = np.random.default_rng(1)
        binned = rng.integers(0, 4, size=(80, 3)).astype(np.uint8)
        y = rng.normal(size=80)
        split = assert_same_search(
            binned, -y, np.ones(80), n_bins=64, max_depth=4, min_samples_leaf=1,
            reg_lambda=0.0,
        )
        assert split is not None

    def test_ties_go_to_first_feature_then_first_bin(self):
        # Features 1 and 2 give the same perfect split, feature 1 at
        # thresholds 5..6 and feature 2 at 1..2: feature order wins
        # before bin order, then the first bin.  Feature 0 is constant,
        # so the winner's index comes back through the kept-feature map.
        x = np.repeat(np.array([5, 7], dtype=np.uint8), 20)
        binned = np.column_stack([np.zeros(40, dtype=np.uint8), x, x - 4])
        grad = np.where(x == 5, -1.0, 1.0)
        split = assert_same_search(
            binned, grad, np.ones(40), n_bins=8, max_depth=2, min_samples_leaf=1
        )
        assert split == (1, 5)

    def test_non_finite_gains_are_masked(self):
        """Zero hessians with ``reg_lambda=0`` give inf/NaN gains."""
        rng = np.random.default_rng(5)
        binned = rng.integers(0, 8, size=(60, 3)).astype(np.uint8)
        hess = np.where(binned[:, 1] < 4, 0.0, 1.0)
        assert_same_search(
            binned, rng.normal(size=60), hess, n_bins=8, max_depth=3,
            min_samples_leaf=1, reg_lambda=0.0,
        )

    def test_constant_columns_never_split(self):
        binned = np.full((50, 3), 5, dtype=np.uint8)
        grad = np.random.default_rng(2).normal(size=50)
        split = assert_same_search(
            binned, grad, np.ones(50), n_bins=16, max_depth=3, min_samples_leaf=1
        )
        assert split is None
        assert _SplitContext(binned, 16).kept.size == 0

    def test_no_valid_split_when_leaves_too_large(self):
        rng = np.random.default_rng(3)
        binned = rng.integers(0, 16, size=(60, 4)).astype(np.uint8)
        grad = rng.normal(size=60)
        split = assert_same_search(
            binned, grad, np.ones(60), n_bins=16, max_depth=3, min_samples_leaf=31
        )
        assert split is None

    def test_node_spanning_several_blocks_at_production_size(self):
        """More rows x features than one block holds: the blocked path runs."""
        n_rows, n_features = 5_000, 30
        # 2,184 rows a block: blocks of 2,184, 2,184 and a ragged 632.
        assert tree_module._SPLIT_BLOCK_ENTRIES // n_features == 2_184
        rng = np.random.default_rng(4)
        binned = rng.integers(0, 64, size=(n_rows, n_features)).astype(np.uint8)
        binned[:, 29] = binned[:, 3]  # tie across features: first one wins
        grad = rng.normal(size=n_rows) + 0.5 * (binned[:, 3] < 20)
        split = assert_same_search(
            binned, grad, rng.uniform(0.1, 1.0, size=n_rows), n_bins=64,
            max_depth=2, min_samples_leaf=20,
        )
        assert split is not None and split[0] == 3

    @pytest.mark.parametrize("smaller", ["left", "right"])
    def test_smaller_child_on_either_side(self, smaller):
        """The larger child's counts are parent minus the smaller child's.

        Feature 0 splits the rows 30/70 (or 70/30) at the root, and both
        children grow further, so the subtraction feeds a search.
        """
        rng = np.random.default_rng(6)
        n_rows = 400
        binned = rng.integers(0, 16, size=(n_rows, 5)).astype(np.uint8)
        low = binned[:, 0] < (5 if smaller == "left" else 11)
        # Within each child feature 1's +-1 term centres the gradients, so
        # both children find a positive gain.
        grad = np.where(low, -3.0, 3.0) + np.where(binned[:, 1] < 8, -1.0, 1.0)
        assert_same_search(
            binned, grad, np.ones(n_rows), n_bins=16, max_depth=3,
            min_samples_leaf=10,
        )
        arrays = _production_tree(
            binned, grad, np.ones(n_rows), n_bins=16, max_depth=3, min_samples_leaf=10
        )
        left_rows = int(np.sum(binned[:, arrays.feature[0]] <= arrays.bin_threshold[0]))
        assert (left_rows < n_rows - left_rows) == (smaller == "left")
        assert arrays.feature[arrays.left[0]] >= 0
        assert arrays.feature[arrays.right[0]] >= 0

    @pytest.mark.parametrize(
        ("n_features", "n_bins", "dtype"),
        [(3, 64, np.uint8), (93, 64, np.uint16), (300, 256, np.uint32)],
    )
    def test_flat_code_dtype_is_the_narrowest(self, n_features, n_bins, dtype):
        """300 features x 256 bins overflow uint16: the codes widen to uint32."""
        rng = np.random.default_rng(n_features)
        binned = rng.integers(0, n_bins, size=(120, n_features)).astype(np.uint8)
        assert _SplitContext(binned, n_bins).flat.dtype == dtype
        grad = rng.normal(size=120) + (binned[:, -1] >= n_bins // 2)
        split = assert_same_search(
            binned, grad, np.ones(120), n_bins=n_bins, max_depth=2,
            min_samples_leaf=5,
        )
        assert split is not None


def _boosting_data(n_rows=400, seed=0):
    """Features with constant columns between informative ones."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, 8))
    X[:, [0, 3, 6]] = [1.0, -2.0, 0.5]
    logit = 1.5 * X[:, 1] - X[:, 4] + X[:, 7] * X[:, 5]
    y = (logit + rng.normal(scale=0.5, size=n_rows) > 0.5).astype(int)
    return X, y


def assert_same_boosting(model, X, y):
    base, trees, decision = reference_boost(model, X, y)
    model.fit(X, y)
    assert model.n_estimators_ == len(trees)
    assert np.float64(model._base_score).tobytes() == np.float64(base).tobytes()
    for got, expected in zip(model._trees, trees):
        assert _tree_bytes(got.arrays) == _tree_bytes(expected)
    assert model.decision_function(X).tobytes() == decision.tobytes()


class TestBoostingParity:
    @pytest.mark.parametrize("subsample", [0.8, 1.0])
    @pytest.mark.parametrize("early_stopping_fraction", [0.0, 0.2])
    @pytest.mark.parametrize("class_weight", ["balanced", None])
    def test_matches_reference_boosting(
        self, subsample, early_stopping_fraction, class_weight
    ):
        X, y = _boosting_data()
        model = GradientBoostingClassifier(
            n_estimators=25, max_depth=3, min_samples_leaf=10, subsample=subsample,
            class_weight=class_weight, early_stopping_fraction=early_stopping_fraction,
            early_stopping_rounds=3, random_state=7,
        )
        assert_same_boosting(model, X, y)
        # The constant columns 0, 3 and 6 sit between the split features,
        # so splits on 1, 4, 5 and 7 go through the kept-feature map.
        split_features = {f for t in model._trees for f in t.arrays.feature if f >= 0}
        assert split_features & {4, 5, 7} and not split_features & {0, 3, 6}

    def test_every_feature_constant(self):
        X = np.tile([1.0, 2.0, 3.0], (120, 1))
        y = np.arange(120) % 3 == 0
        model = GradientBoostingClassifier(
            n_estimators=5, min_samples_leaf=5, class_weight=None, random_state=1
        )
        assert_same_boosting(model, X, y.astype(int))
        assert all(t.n_nodes == 1 for t in model._trees)
