"""Parity tests: the flat histogram split search against the per-feature loop.

``GradHessTree._best_split`` builds every feature's gradient, hessian and
count histograms with one ``bincount`` per block of features over flat
indices ``code + feature * n_bins``, then scores the whole (features x
bins) gain matrix at once.  Its contract is bit-identity with the
per-feature loop it replaced, kept here as :class:`PerFeatureTree`:

* each bin sums its rows in row order, so every histogram is exact;
* the gain is the same element-wise IEEE expression;
* ties go to the first feature, then the first bin.

The properties below compare both the chosen ``(feature, bin)`` at the
root and the whole grown tree, over the edge cases that stress those
three points: ``reg_lambda=0`` (the ``DecisionTreeRegressor`` path with
its 0/0 masking), exact gain ties across features and bins, constant
columns, leaves too large to allow any split, 2 and 256 bins, and nodes
spanning several feature blocks.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml import tree as tree_module
from repro.ml.tree import GradHessTree


class PerFeatureTree(GradHessTree):
    """Reference oracle: the split search as one Python loop per feature."""

    def _best_split(self, binned, indices, g, h, g_sum, h_sum):
        lam = self.reg_lambda
        parent_score = g_sum**2 / (h_sum + lam)
        best_gain = self.min_gain
        best = None
        rows = binned[indices]
        for feature in range(binned.shape[1]):
            codes = rows[:, feature]
            g_hist = np.bincount(codes, weights=g, minlength=self._n_bins)
            h_hist = np.bincount(codes, weights=h, minlength=self._n_bins)
            n_hist = np.bincount(codes, minlength=self._n_bins)
            gl = np.cumsum(g_hist)[:-1]
            hl = np.cumsum(h_hist)[:-1]
            nl = np.cumsum(n_hist)[:-1]
            gr = g_sum - gl
            hr = h_sum - hl
            nr = indices.size - nl
            valid = (nl >= self.min_samples_leaf) & (nr >= self.min_samples_leaf)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent_score
            gains[~valid | ~np.isfinite(gains)] = -np.inf
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_gain = float(gains[k])
                best = (feature, k)
        return best


def _root_split(cls, binned, grad, hess, *, n_bins, **params):
    tree = cls(**params)
    tree._n_bins = n_bins
    indices = np.arange(binned.shape[0])
    return tree._best_split(
        binned, indices, grad, hess, float(grad.sum()), float(hess.sum())
    )


def _grown(cls, binned, grad, hess, *, n_bins, **params):
    """The grown tree's node arrays as bytes, or the error growing raised."""
    try:
        tree = cls(**params).fit(binned, grad, hess, n_bins=n_bins)
    except ZeroDivisionError as exc:
        # reg_lambda=0 and a child whose hessians are all zero, its
        # ``h_sum - hl`` a rounding residual that kept the gain finite:
        # both searches must pick that split and fail alike.
        return repr(exc)
    return [a.tobytes() for a in tree.arrays.as_numpy()]


def assert_same_search(binned, grad, hess, *, n_bins, **params):
    """Both searches pick the same root split and grow identical trees."""
    expected = _root_split(PerFeatureTree, binned, grad, hess, n_bins=n_bins, **params)
    got = _root_split(GradHessTree, binned, grad, hess, n_bins=n_bins, **params)
    assert got == expected
    assert _grown(GradHessTree, binned, grad, hess, n_bins=n_bins, **params) == _grown(
        PerFeatureTree, binned, grad, hess, n_bins=n_bins, **params
    )
    return got


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
    # The production block, and small ones that force a node across
    # several feature blocks, including a ragged last block.
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
        # before bin order, then the first bin.
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
        # 13 features a block: blocks of 13, 13 and a ragged 4.
        assert tree_module._SPLIT_BLOCK_ENTRIES // n_rows == 13
        rng = np.random.default_rng(4)
        binned = rng.integers(0, 64, size=(n_rows, n_features)).astype(np.uint8)
        binned[:, 29] = binned[:, 3]  # tie across blocks: first one wins
        grad = rng.normal(size=n_rows) + 0.5 * (binned[:, 3] < 20)
        split = assert_same_search(
            binned, grad, rng.uniform(0.1, 1.0, size=n_rows), n_bins=64,
            max_depth=2, min_samples_leaf=20,
        )
        assert split is not None and split[0] == 3
