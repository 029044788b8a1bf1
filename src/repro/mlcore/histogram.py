"""Feature quantization for histogram-based tree growing.

The exact CART splitter sorts every candidate feature at every node —
O(n log n) per feature per node.  For the retraining loads of the online
evaluation (hundreds of forest fits over tens of thousands of jobs) we
also provide the classic histogram trick: quantize each feature once into
at most 256 bins, then score splits from per-bin class counts in O(n) per
feature per node with no sorting.

Thresholds stored in the tree are real feature values (bin upper edges),
so prediction never needs the quantizer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FeatureQuantizer"]


class FeatureQuantizer:
    """Per-feature quantile binning into uint8 codes.

    For feature ``j`` with interior edges ``E``, the code of value ``x`` is
    ``searchsorted(E, x, side='right')`` — the number of edges ≤ x.  A
    histogram split "code <= b" therefore corresponds to the raw-value
    predicate ``x < E[b]``, which matches the tree's routing predicate.
    """

    def __init__(self, n_bins: int = 256) -> None:
        if not 2 <= n_bins <= 256:
            raise ValueError("n_bins must be in [2, 256]")
        self.n_bins = int(n_bins)
        self.bin_edges_: list[np.ndarray] | None = None
        #: distinct codes per feature, indexed by feature
        self.n_effective_bins_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "FeatureQuantizer":
        """Compute per-feature interior edges from quantiles of ``X``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        qs = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        edges: list[np.ndarray] = []
        for j in range(X.shape[1]):
            u = np.unique(X[:, j])
            if u.size <= self.n_bins:
                # few distinct values: exact bins at value midpoints
                e = (u[:-1] + u[1:]) / 2.0
            else:
                e = np.unique(np.quantile(X[:, j], qs))
            edges.append(e.astype(np.float64))
        self.bin_edges_ = edges
        self.n_effective_bins_ = np.array([len(e) + 1 for e in edges], dtype=np.int64)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Quantize to uint8 codes, clipping unseen values into edge bins."""
        if self.bin_edges_ is None:
            raise RuntimeError("quantizer not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.bin_edges_):
            raise ValueError("X has wrong shape for this quantizer")
        codes = np.empty(X.shape, dtype=np.uint8)
        for j, e in enumerate(self.bin_edges_):
            codes[:, j] = np.searchsorted(e, X[:, j], side="right").astype(np.uint8)
        return codes

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def threshold_of_bin(self, feature: int, bin_index: int) -> float:
        """Raw-value threshold of the split "code <= bin_index"."""
        if self.bin_edges_ is None:
            raise RuntimeError("quantizer not fitted")
        e = self.bin_edges_[feature]
        if not 0 <= bin_index < len(e):
            raise IndexError(f"bin {bin_index} has no upper edge for feature {feature}")
        return float(e[bin_index])

    def n_effective_bins(self, feature: int) -> int:
        """Number of distinct codes feature ``feature`` can take."""
        if self.n_effective_bins_ is None:
            raise RuntimeError("quantizer not fitted")
        return int(self.n_effective_bins_[feature])
