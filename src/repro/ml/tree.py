"""Histogram-based CART trees (regression and classification).

These trees are the weak learners inside
:class:`repro.ml.gbdt.GradientBoostingClassifier`.  Following the design of
modern boosting libraries, features are quantized into a small number of
bins once, and each split is found by accumulating gradient/hessian
histograms per feature — O(n_bins) candidate splits per feature instead of
O(n) — which keeps from-scratch boosting fast enough for the paper's
datasets.

The split objective is the second-order (XGBoost-style) gain

    gain = GL^2/(HL + lam) + GR^2/(HR + lam) - G^2/(H + lam)

with leaf value ``-G / (H + lam)``.  Plain squared-error regression is the
special case ``g = -y, h = 1`` (so the classes here serve both as public
estimators and as the boosting engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import BaseClassifier, check_array, check_X_y
from repro.ml.kernels import frontier_walk
from repro.utils.errors import NotFittedError, ValidationError
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["FeatureBinner", "GradHessTree", "DecisionTreeRegressor", "DecisionTreeClassifier"]

#: Most (row, feature) entries one ``bincount`` of the split search
#: takes.  A node's histograms are built in blocks of features holding
#: at most this many entries (one feature at a time once a node has
#: more rows), so the flat indices and repeated weights, 8 bytes an
#: entry each, stay cache-sized, and on large nodes grow with the rows
#: rather than with rows x features.
_SPLIT_BLOCK_ENTRIES = 1 << 16


class FeatureBinner:
    """Quantile-based feature quantizer shared by trees in one ensemble."""

    def __init__(self, n_bins: int = 64) -> None:
        if not 2 <= n_bins <= 256:
            raise ValidationError(f"n_bins must be in [2, 256], got {n_bins}")
        self.n_bins = int(n_bins)
        self.edges_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "FeatureBinner":
        """Compute per-feature bin edges from (a subsample of) ``X``."""
        X = check_array(X)
        sample = X
        if X.shape[0] > 100_000:
            step = X.shape[0] // 100_000 + 1
            sample = X[::step]
        quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        edges = []
        for j in range(X.shape[1]):
            col_edges = np.unique(np.quantile(sample[:, j], quantiles))
            edges.append(col_edges)
        self.edges_ = edges
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map ``X`` to uint8 bin codes, one column per feature."""
        if self.edges_ is None:
            raise NotFittedError("FeatureBinner is not fitted")
        X = check_array(X)
        if X.shape[1] != len(self.edges_):
            raise ValidationError(
                f"expected {len(self.edges_)} features, got {X.shape[1]}"
            )
        codes = np.empty(X.shape, dtype=np.uint8)
        for j, col_edges in enumerate(self.edges_):
            codes[:, j] = np.searchsorted(col_edges, X[:, j], side="right")
        return codes

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit on ``X`` and return its bin codes."""
        return self.fit(X).transform(X)

    def bin_upper_value(self, feature: int, bin_index: int) -> float:
        """Raw-value threshold equivalent to "bin <= bin_index"."""
        if self.edges_ is None:
            raise NotFittedError("FeatureBinner is not fitted")
        edges = self.edges_[feature]
        if bin_index >= edges.size:
            return float("inf")
        return float(edges[bin_index])


@dataclass
class _TreeArrays:
    """Flat array representation of a fitted tree."""

    feature: list[int] = field(default_factory=list)
    bin_threshold: list[int] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add_node(self) -> int:
        self.feature.append(-1)
        self.bin_threshold.append(-1)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def as_numpy(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Export node lists as typed arrays for ensemble flattening.

        Returns ``(feature, bin_threshold, left, right, value)`` with
        int32 structure arrays and float64 values — the dtypes
        :mod:`repro.ml.kernels` traverses.
        """
        return (
            np.asarray(self.feature, dtype=np.int32),
            np.asarray(self.bin_threshold, dtype=np.int32),
            np.asarray(self.left, dtype=np.int32),
            np.asarray(self.right, dtype=np.int32),
            np.asarray(self.value, dtype=np.float64),
        )


class GradHessTree:
    """One regression tree fit to gradients/hessians on binned features."""

    def __init__(
        self,
        *,
        max_depth: int = 4,
        min_samples_leaf: int = 20,
        reg_lambda: float = 1.0,
        min_gain: float = 1e-7,
    ) -> None:
        self.max_depth = int(check_positive(max_depth, "max_depth"))
        self.min_samples_leaf = int(check_positive(min_samples_leaf, "min_samples_leaf"))
        self.reg_lambda = check_nonnegative(reg_lambda, "reg_lambda")
        self.min_gain = check_nonnegative(min_gain, "min_gain")
        self._arrays: _TreeArrays | None = None
        self._n_bins: int = 0

    @property
    def n_nodes(self) -> int:
        """Number of nodes (internal + leaves) in the fitted tree."""
        if self._arrays is None:
            raise NotFittedError("tree is not fitted")
        return len(self._arrays.feature)

    @property
    def arrays(self) -> _TreeArrays:
        """The fitted node arrays (for ensemble flattening)."""
        if self._arrays is None:
            raise NotFittedError("tree is not fitted")
        return self._arrays

    def fit(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        *,
        n_bins: int,
    ) -> "GradHessTree":
        """Grow the tree on bin codes ``binned`` and per-sample grad/hess."""
        if binned.dtype != np.uint8:
            raise ValidationError("binned matrix must be uint8 bin codes")
        if n_bins < 2:
            raise ValidationError(f"n_bins must be at least 2, got {n_bins}")
        # A code past the last bin would land in the next feature's
        # histogram in the flat split search, so refuse it up front.
        max_code = int(binned.max()) if binned.size else 0
        if max_code >= n_bins:
            raise ValidationError(
                f"bin code {max_code} out of range for n_bins={n_bins}"
            )
        self._n_bins = int(n_bins)
        self._arrays = _TreeArrays()
        root = self._arrays.add_node()
        indices = np.arange(binned.shape[0])
        self._grow(binned, grad, hess, indices, node=root, depth=0)
        return self

    def _leaf_value(self, g_sum: float, h_sum: float) -> float:
        return -g_sum / (h_sum + self.reg_lambda)

    def _grow(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        indices: np.ndarray,
        *,
        node: int,
        depth: int,
    ) -> None:
        assert self._arrays is not None
        g = grad[indices]
        h = hess[indices]
        g_sum = float(g.sum())
        h_sum = float(h.sum())
        self._arrays.value[node] = self._leaf_value(g_sum, h_sum)
        if depth >= self.max_depth or indices.size < 2 * self.min_samples_leaf:
            return
        best = self._best_split(binned, indices, g, h, g_sum, h_sum)
        if best is None:
            return
        feature, bin_threshold = best
        go_left = binned[indices, feature] <= bin_threshold
        left_idx = indices[go_left]
        right_idx = indices[~go_left]
        if left_idx.size < self.min_samples_leaf or right_idx.size < self.min_samples_leaf:
            return
        left = self._arrays.add_node()
        right = self._arrays.add_node()
        self._arrays.feature[node] = feature
        self._arrays.bin_threshold[node] = bin_threshold
        self._arrays.left[node] = left
        self._arrays.right[node] = right
        self._grow(binned, grad, hess, left_idx, node=left, depth=depth + 1)
        self._grow(binned, grad, hess, right_idx, node=right, depth=depth + 1)

    def _best_split(
        self,
        binned: np.ndarray,
        indices: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        g_sum: float,
        h_sum: float,
    ) -> tuple[int, int] | None:
        """Best ``(feature, bin)`` split of the node's rows, or ``None``.

        The gradient, hessian and count histograms of a block of features
        come from one ``bincount`` each over the flat indices
        ``code + feature * n_bins`` of the node's rows.  ``bincount`` adds
        in input order, so every bin still sums its rows in row order.
        The gain is then evaluated once over the whole (features x
        thresholds) matrix, and its row-major ``argmax`` picks the first
        feature, then the first bin, among equal gains.
        """
        lam = self.reg_lambda
        n_bins = self._n_bins
        n_rows = indices.size
        rows = binned[indices]
        n_features = rows.shape[1]
        block = max(1, _SPLIT_BLOCK_ENTRIES // n_rows)
        g_hist = np.empty((n_features, n_bins))
        h_hist = np.empty((n_features, n_bins))
        n_hist = np.empty((n_features, n_bins), dtype=np.intp)
        for start in range(0, n_features, block):
            codes = rows[:, start : start + block]
            width = codes.shape[1]
            flat = (codes + np.arange(width) * n_bins).ravel()
            size = width * n_bins
            g_block = np.bincount(flat, weights=np.repeat(g, width), minlength=size)
            h_block = np.bincount(flat, weights=np.repeat(h, width), minlength=size)
            n_block = np.bincount(flat, minlength=size)
            g_hist[start : start + width] = g_block.reshape(width, n_bins)
            h_hist[start : start + width] = h_block.reshape(width, n_bins)
            n_hist[start : start + width] = n_block.reshape(width, n_bins)
        # Left-side sums for thresholds 0 .. n_bins - 2.
        gl = np.cumsum(g_hist, axis=1)[:, :-1]
        hl = np.cumsum(h_hist, axis=1)[:, :-1]
        nl = np.cumsum(n_hist, axis=1)[:, :-1]
        gr = g_sum - gl
        hr = h_sum - hl
        nr = n_rows - nl
        valid = (nl >= self.min_samples_leaf) & (nr >= self.min_samples_leaf)
        parent_score = g_sum**2 / (h_sum + lam)
        # With lam == 0 an empty side has hl/hr == 0; those candidates
        # are masked out below, so silence the harmless 0/0.
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent_score
        gains[~valid | ~np.isfinite(gains)] = -np.inf
        k = int(np.argmax(gains))
        if gains.flat[k] > self.min_gain:
            feature, bin_threshold = divmod(k, n_bins - 1)
            return feature, bin_threshold
        return None

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Predict from bin codes via the shared vectorized frontier walk."""
        if self._arrays is None:
            raise NotFittedError("tree is not fitted")
        arrays = self._arrays
        leaves = frontier_walk(
            np.asarray(arrays.feature),
            np.asarray(arrays.bin_threshold),
            np.asarray(arrays.left),
            np.asarray(arrays.right),
            binned,
            max_depth=self.max_depth,
        )
        return np.asarray(arrays.value)[leaves]


class DecisionTreeRegressor:
    """Least-squares regression tree on raw (unbinned) feature matrices.

    A thin public wrapper around :class:`GradHessTree` using the identity
    ``g = -y, h = 1`` under which the second-order leaf value reduces to the
    (shrunken) node mean of ``y``.
    """

    def __init__(
        self,
        *,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        n_bins: int = 64,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.n_bins = n_bins
        self._binner: FeatureBinner | None = None
        self._tree: GradHessTree | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Fit the tree to continuous targets ``y``."""
        X = check_array(X)
        y = np.asarray(y, dtype=float).ravel()
        if y.shape[0] != X.shape[0]:
            raise ValidationError("X and y disagree on sample count")
        self._binner = FeatureBinner(self.n_bins)
        binned = self._binner.fit_transform(X)
        self._tree = GradHessTree(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            reg_lambda=0.0,
        )
        self._tree.fit(binned, -y, np.ones_like(y), n_bins=self.n_bins)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict continuous targets for ``X``."""
        if self._binner is None or self._tree is None:
            raise NotFittedError("DecisionTreeRegressor is not fitted")
        return self._tree.predict_binned(self._binner.transform(X))


class DecisionTreeClassifier(BaseClassifier):
    """Single-tree binary classifier (leaf value = class-1 fraction)."""

    def __init__(
        self,
        *,
        max_depth: int = 6,
        min_samples_leaf: int = 5,
        n_bins: int = 64,
    ) -> None:
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.n_bins = n_bins
        self._regressor: DecisionTreeRegressor | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._regressor = DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            n_bins=self.n_bins,
        )
        self._regressor.fit(X, y.astype(float))

    def _decision_function(self, X: np.ndarray) -> np.ndarray:
        assert self._regressor is not None
        # Leaf means are probabilities; map to logits for the base class.
        probs = np.clip(self._regressor.predict(X), 1e-6, 1.0 - 1e-6)
        return np.log(probs / (1.0 - probs))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-1 probability (leaf class fraction) per row."""
        self._check_fitted()
        assert self._regressor is not None
        X = self._check_shape(check_array(X))
        return np.clip(self._regressor.predict(X), 0.0, 1.0)
