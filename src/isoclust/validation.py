"""Internal cluster validation measures, for use alongside the
isotropy measures.  Definitions follow the standard literature forms;
edge behavior is pinned down explicitly (singleton silhouette is 0,
coincident centroids and zero dispersion are errors).  Silhouette and
Calinski-Harabasz read one cluster-ordered gather of the member rows.
Silhouette reduces the pairwise distances to per-cluster sums per
point, filled one block of B rows at a time, so it holds O(N*B)
distances for N points, not the N x N matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .core import ClusterView, DataError, NumericError

# Byte budget of one silhouette distance block: B = _BLOCK_BYTES // (8 * N)
# rows against all N points, at least one row.
_BLOCK_BYTES = 16 * 2**20


def mean_dist_to_centroid(view: ClusterView) -> float:
    """Mean Euclidean distance of members to their centroid (= mu)."""
    return view.mu


def mean_pairwise_dist(view: ClusterView) -> float:
    """Mean distance over unordered distinct member pairs; 0 for a singleton."""
    if view.size < 2:
        return 0.0
    return float(pdist(view.points).mean())


def _same_parent(views: list[ClusterView]):
    if len(views) < 2:
        raise DataError("need at least 2 clusters")
    parent = views[0].parent
    if any(v.parent is not parent for v in views):
        raise DataError("clusters belong to different point clouds")
    return parent


def _stack(views: list[ClusterView]):
    """Every cluster's member rows in view order, gathered once, and the
    k+1 row offsets: cluster i owns rows ``starts[i]:starts[i + 1]``."""
    data = _same_parent(views).data[np.concatenate([v.indices for v in views])]
    return data, np.cumsum([0] + [v.size for v in views])


def silhouette(views: list[ClusterView]) -> float:
    """Mean silhouette coefficient over all points.

    For each point: a = mean distance to its own cluster's other
    members, b = smallest mean distance to the members of any other
    cluster, s = (b - a) / max(a, b).  Points in singleton clusters
    score 0.  A distance that overflows float64 is a ``NumericError``.

    The N x N distance matrix is never held: each block of B rows is
    measured against all N points and reduced to its per-cluster sums,
    so memory is O(N*B), with B set so a block fits in 16 MiB.  Every
    pair is computed on its own and every sum runs over the same values
    in the same order as over the full matrix, so the value is exactly
    the full-matrix one.
    """
    data, starts = _stack(views)
    n = len(data)
    step = max(1, _BLOCK_BYTES // (8 * n))
    # sums[p, j]: total distance from point p to the members of cluster j
    sums = np.empty((n, len(views)))
    for r0 in range(0, n, step):
        dists = cdist(data[r0 : r0 + step], data)
        if not np.isfinite(dists.max()):
            raise NumericError("silhouette pairwise distance overflows float64")
        for j, (lo, hi) in enumerate(zip(starts, starts[1:])):
            sums[r0 : r0 + step, j] = dists[:, lo:hi].sum(axis=1)
    sizes = np.diff(starts)
    own = np.repeat(np.arange(len(views)), sizes)
    rows = np.arange(n)
    a = sums[rows, own] / np.maximum(sizes[own] - 1, 1)
    sums[rows, own] = np.inf  # b ranges over the other clusters only
    b = (sums / sizes).min(axis=1)
    denom = np.maximum(b, a)
    scored = (sizes[own] > 1) & (denom > 0)  # s := 0 for singletons
    safe = np.where(scored, denom, 1.0)
    return float(np.where(scored, (b - a) / safe, 0.0).mean())


def davies_bouldin(views: list[ClusterView]) -> float:
    """Davies-Bouldin index: mean over clusters of the worst
    (S_i + S_j) / M_ij, with S the mean distance to centroid and M the
    centroid separation.  Lower is better; 0 only in the ideal case.
    Coincident centroids raise; an overflowing separation is a ``NumericError``.
    """
    _same_parent(views)
    k = len(views)
    s = np.array([v.mu for v in views])
    cents = np.array([v.centroid for v in views])
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
    data, starts = _stack(views)
    k = len(views)
    n = len(data)
    if n <= k:
        raise DataError(f"Calinski-Harabasz needs more points ({n}) than clusters ({k})")
    grand = data.mean(axis=0)
    bss = sum(v.size * float(((v.centroid - grand) ** 2).sum()) for v in views)
    wss = sum(float(((data[lo:hi] - v.centroid) ** 2).sum()) for v, lo, hi in zip(views, starts, starts[1:]))
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
