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

Everything the split search can prepare once per fit lives in a
:class:`_SplitContext`: the features that are not constant over the fit
rows and their flat histogram indices ``code + k * n_bins``.  A boosting
fit builds it once and grows each tree on a copy of its subsample's
rows.  Gradients and hessians travel as one complex vector
``grad + 1j * hess``: each node scatters it into one histogram, whose
real and imaginary parts are the gradient and hessian sums, each added
in row order exactly as separate ``bincount`` calls would.  Count
histograms are integers, so a node's larger child takes its counts as
parent minus smaller child.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import BaseClassifier, check_array, check_X_y
from repro.ml.kernels import frontier_walk
from repro.utils.errors import NotFittedError, ValidationError
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["FeatureBinner", "GradHessTree", "DecisionTreeRegressor", "DecisionTreeClassifier"]

#: Most (row, feature) entries one scatter of the split search takes.  A
#: node's histograms are built over blocks of its rows holding at most
#: this many entries, so the flat indices and repeated weights, 8 and 16
#: bytes an entry, stay cache-sized whatever the node's size.
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


class _SplitContext:
    """Split-search inputs fixed for one fit: kept features and flat codes.

    A feature constant over the fit rows is constant in every node, so
    it can never split and gets no histogram; ``kept`` lists the others.
    ``flat[:, k]`` is ``binned[:, kept[k]] + k * n_bins``, in the
    narrowest unsigned dtype that holds the largest such index, so one
    scatter over a node's rows fills every kept feature's histogram.
    """

    def __init__(self, binned: np.ndarray, n_bins: int) -> None:
        if binned.dtype != np.uint8:
            raise ValidationError("binned matrix must be uint8 bin codes")
        if n_bins < 2:
            raise ValidationError(f"n_bins must be at least 2, got {n_bins}")
        if binned.size:
            low, high = binned.min(axis=0), binned.max(axis=0)
            # A code past the last bin would land in the next feature's
            # histogram in the flat split search, so refuse it up front.
            if int(high.max()) >= n_bins:
                raise ValidationError(
                    f"bin code {int(high.max())} out of range for n_bins={n_bins}"
                )
            kept = np.flatnonzero(low != high)
        else:
            kept = np.arange(0)
        self.n_bins = int(n_bins)
        self.kept = kept
        self.size = kept.size * self.n_bins
        dtype = np.min_scalar_type(max(self.size - 1, 0))
        self.flat = binned[:, kept].astype(dtype)
        self.flat += (np.arange(kept.size) * self.n_bins).astype(dtype)

    def rows(self, indices: np.ndarray) -> "_SplitContext":
        """This context's rows ``indices``, copied in that order.

        A boosting round grows its tree on a copy of the subsample's
        codes: every node then gathers from one compact block instead of
        rows scattered over the whole fit, which on fits too large for
        the cache costs more than the copy.
        """
        subset = copy.copy(self)
        subset.flat = self.flat[indices]
        return subset

    @staticmethod
    def weights(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
        """``grad + 1j * hess``, built by assignment so no part is rounded."""
        weights = np.empty(grad.shape[0], dtype=np.complex128)
        weights.real = grad
        weights.imag = hess
        return weights

    def blocks(self, indices: np.ndarray):
        """Flat codes of rows ``indices`` as intp, in blocks of rows.

        Yields ``(rows, codes)``: a slice of ``indices`` and the
        row-major codes of those rows, at most ``_SPLIT_BLOCK_ENTRIES``
        entries a block.  Blocks follow ``indices`` order, so a scatter
        over them adds each bin's rows in that order.
        """
        step = max(1, _SPLIT_BLOCK_ENTRIES // max(self.kept.size, 1))
        for start in range(0, indices.size, step):
            rows = slice(start, start + step)
            yield rows, self.flat[indices[rows]].astype(np.intp).ravel()

    def counts(self, indices: np.ndarray) -> np.ndarray:
        """Per-(kept feature, bin) row counts of rows ``indices``."""
        counts = np.zeros(self.size, dtype=np.intp)
        for _, codes in self.blocks(indices):
            counts += np.bincount(codes, minlength=self.size)
        return counts.reshape(self.kept.size, self.n_bins)


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
        if self.min_samples_leaf < 1:
            # A leaf must hold a row: below one, an empty side or a
            # constant feature could pass the min_samples_leaf test.
            raise ValidationError(
                f"min_samples_leaf must be at least 1, got {min_samples_leaf!r}"
            )
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
        context = _SplitContext(binned, n_bins)
        return self._fit_rows(context, context.weights(grad, hess))

    def _fit_rows(self, context: _SplitContext, weights: np.ndarray) -> "GradHessTree":
        """Grow on every row of ``context``, in order.

        ``weights`` holds the rows' ``grad + 1j * hess``; every node sums
        its rows in row order.
        """
        self._n_bins = context.n_bins
        self._arrays = _TreeArrays()
        root = self._arrays.add_node()
        indices = np.arange(weights.shape[0])
        self._grow(context, weights, indices, None, node=root, depth=0)
        return self

    def _leaf_value(self, g_sum: float, h_sum: float) -> float:
        return -g_sum / (h_sum + self.reg_lambda)

    def _searches(self, n_rows: int, depth: int) -> bool:
        """Whether a node of ``n_rows`` rows at ``depth`` looks for a split."""
        return depth < self.max_depth and n_rows >= 2 * self.min_samples_leaf

    def _grow(
        self,
        context: _SplitContext,
        weights: np.ndarray,
        indices: np.ndarray,
        counts: np.ndarray | None,
        *,
        node: int,
        depth: int,
    ) -> None:
        assert self._arrays is not None
        w = weights[indices]
        g_sum = float(w.real.sum())
        h_sum = float(w.imag.sum())
        self._arrays.value[node] = self._leaf_value(g_sum, h_sum)
        if not self._searches(indices.size, depth):
            return
        if counts is None:
            counts = context.counts(indices)
        best = self._best_split(context, indices, w, counts, g_sum, h_sum)
        if best is None:
            return
        kept_index, bin_threshold = best
        # Flat codes keep the order of the bin codes within a feature.
        threshold_code = kept_index * context.n_bins + bin_threshold
        go_left = context.flat[indices, kept_index] <= threshold_code
        left_idx = indices[go_left]
        right_idx = indices[~go_left]
        if left_idx.size < self.min_samples_leaf or right_idx.size < self.min_samples_leaf:
            return
        left = self._arrays.add_node()
        right = self._arrays.add_node()
        self._arrays.feature[node] = int(context.kept[kept_index])
        self._arrays.bin_threshold[node] = bin_threshold
        self._arrays.left[node] = left
        self._arrays.right[node] = right
        left_counts = right_counts = None
        if self._searches(left_idx.size, depth + 1) or self._searches(
            right_idx.size, depth + 1
        ):
            # Count the smaller child; the larger one is the exact
            # integer difference.
            if left_idx.size <= right_idx.size:
                left_counts = context.counts(left_idx)
                right_counts = counts - left_counts
            else:
                right_counts = context.counts(right_idx)
                left_counts = counts - right_counts
        self._grow(context, weights, left_idx, left_counts, node=left, depth=depth + 1)
        self._grow(context, weights, right_idx, right_counts, node=right, depth=depth + 1)

    def _best_split(
        self,
        context: _SplitContext,
        indices: np.ndarray,
        w: np.ndarray,
        counts: np.ndarray,
        g_sum: float,
        h_sum: float,
    ) -> tuple[int, int] | None:
        """Best ``(kept feature index, bin)`` split of the node's rows, or ``None``.

        ``w`` is the node's ``grad + 1j * hess`` in row order and
        ``counts`` its per-(kept feature, bin) row counts.  Thresholds
        that leave a side with fewer than ``min_samples_leaf`` rows are
        dropped first, in row-major (feature, bin) order.  When any
        remain, one complex ``np.add.at`` per block of rows builds the
        gradient and hessian histograms (each bin adds its rows in row
        order), one complex ``cumsum`` gives the left-side sums, and the
        gain is evaluated only at the remaining thresholds.  ``argmax``
        over them picks the first feature, then the first bin, among
        equal gains, exactly as over the full (features x thresholds)
        matrix with the rest set to ``-inf``.
        """
        n_bins = context.n_bins
        leaf = self.min_samples_leaf
        # Left-side counts at threshold t = bin t of each kept feature,
        # flat at k * n_bins + t.  The last bin leaves no row on the
        # right, so it is never valid (min_samples_leaf >= 1).
        nl = np.cumsum(counts, axis=1).ravel()
        valid = np.flatnonzero((nl >= leaf) & (indices.size - nl >= leaf))
        if not valid.size:
            return None
        hist = np.zeros(context.size, dtype=np.complex128)
        for rows, codes in context.blocks(indices):
            np.add.at(hist, codes, np.repeat(w[rows], context.kept.size))
        left = np.cumsum(hist.reshape(-1, n_bins), axis=1).ravel()[valid]
        gl, hl = left.real, left.imag
        lam = self.reg_lambda
        gr = g_sum - gl
        hr = h_sum - hl
        parent_score = g_sum**2 / (h_sum + lam)
        # With lam == 0 a side of zero-hessian rows divides by zero;
        # those candidates are masked out below, so silence the warning.
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent_score
        gains[~np.isfinite(gains)] = -np.inf
        k = int(np.argmax(gains))
        if gains[k] > self.min_gain:
            kept_index, bin_threshold = divmod(int(valid[k]), n_bins)
            return kept_index, bin_threshold
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
