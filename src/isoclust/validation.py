"""Internal cluster validation measures, for use alongside the
isotropy measures.  Definitions follow the standard literature forms;
edge behavior is pinned down explicitly (singleton silhouette is 0,
coincident centroids and zero dispersion are errors).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .core import ClusterView, DataError, NumericError


def mean_dist_to_centroid(view: ClusterView) -> float:
    """Mean Euclidean distance of members to their centroid (= mu)."""
    return view.mu


def mean_pairwise_dist(view: ClusterView) -> float:
    """Mean distance over unordered distinct member pairs; 0 for a singleton."""
    if view.size < 2:
        return 0.0
    return float(pdist(view.points).mean())


def _stack(views: list[ClusterView]):
    if len(views) < 2:
        raise DataError("need at least 2 clusters")
    parent = views[0].parent
    for v in views:
        if v.parent is not parent:
            raise DataError("clusters belong to different point clouds")
    return parent


def silhouette(views: list[ClusterView]) -> float:
    """Mean silhouette coefficient over all points.

    For each point: a = mean distance to its own cluster's other
    members, b = smallest mean distance to the members of any other
    cluster, s = (b - a) / max(a, b).  Points in singleton clusters
    score 0.  A distance that overflows float64 is a ``NumericError``.
    """
    _stack(views)
    data = np.vstack([v.points for v in views])
    sizes = [v.size for v in views]
    starts = np.cumsum([0] + sizes)
    dists = cdist(data, data)
    if not np.isfinite(dists.max()):
        raise NumericError("silhouette pairwise distance overflows float64")

    scores = np.zeros(len(data))
    for i, vi in enumerate(views):
        rows = slice(starts[i], starts[i + 1])
        if vi.size == 1:
            continue  # s := 0 for singletons
        block = dists[rows]
        own = block[:, rows].sum(axis=1) / (vi.size - 1)
        others = np.full(vi.size, np.inf)
        for j, vj in enumerate(views):
            if j == i:
                continue
            cols = slice(starts[j], starts[j + 1])
            others = np.minimum(others, block[:, cols].mean(axis=1))
        denom = np.maximum(others, own)
        safe = np.where(denom > 0, denom, 1.0)
        scores[rows] = np.where(denom > 0, (others - own) / safe, 0.0)
    return float(scores.mean())


def davies_bouldin(views: list[ClusterView]) -> float:
    """Davies-Bouldin index: mean over clusters of the worst
    (S_i + S_j) / M_ij, with S the mean distance to centroid and M the
    centroid separation.  Lower is better; 0 only in the ideal case.
    Coincident centroids raise; an overflowing separation is a ``NumericError``.
    """
    _stack(views)
    k = len(views)
    s = np.array([v.mu for v in views])
    cents = np.vstack([v.centroid for v in views])
    m = cdist(cents, cents)
    off = ~np.eye(k, dtype=bool)
    if not np.isfinite(m[off]).all():
        raise NumericError("Davies-Bouldin centroid separation overflows float64")
    if np.any(m[off] == 0.0):
        raise DataError("identical centroids: Davies-Bouldin is undefined")
    ratios = (s[:, None] + s[None, :]) / np.where(off, m, np.inf)
    return float(ratios.max(axis=1).mean())


def calinski_harabasz(views: list[ClusterView]) -> float:
    """Calinski-Harabasz index: between/within dispersion ratio
    (BSS / (k-1)) / (WSS / (|E|-k)).  Zero within-cluster dispersion is
    a degenerate-dispersion error, an overflowing sum a ``NumericError``.
    """
    _stack(views)
    k = len(views)
    data = np.vstack([v.points for v in views])
    n = len(data)
    if n <= k:
        raise DataError(f"Calinski-Harabasz needs more points ({n}) than clusters ({k})")
    grand = data.mean(axis=0)
    bss = sum(v.size * float(((v.centroid - grand) ** 2).sum()) for v in views)
    wss = sum(float(((v.points - v.centroid) ** 2).sum()) for v in views)
    if not (np.isfinite(bss) and np.isfinite(wss)):
        raise NumericError(f"Calinski-Harabasz sums of squares overflow float64: BSS={bss}, WSS={wss}")
    if wss == 0.0:
        raise DataError("degenerate dispersion: zero within-cluster scatter")
    return float((bss / (k - 1)) / (wss / (n - k)))


def cluster_size_variance(views: list[ClusterView]) -> float:
    """Population variance of the cluster sizes."""
    if not views:
        raise DataError("need at least one cluster")
    sizes = np.array([v.size for v in views], dtype=np.float64)
    return float(sizes.var())
