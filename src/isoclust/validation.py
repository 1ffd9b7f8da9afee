"""Internal cluster validation measures, for use alongside the
isotropy measures.  Definitions follow the standard literature forms;
edge behavior is pinned down explicitly (singleton silhouette is 0,
coincident centroids and zero dispersion are errors).  The
whole-clustering indices take the ``Clustering`` of ``split_clusters``,
at least 2 clusters for all but the size variance; silhouette and
Calinski-Harabasz read its cluster-ordered buffer as it is.
Silhouette reduces the pairwise distances to per-cluster sums per
point, filled one pair of clusters (small clusters merged into groups)
at a time: a pair whose distance tile fits in 16 MiB is computed once
and summed along both of its sides, a larger pair in blocks of rows.
It never holds more than one 16 MiB tile of distances, not the N x N
matrix.  ``mean_pairwise_dist`` likewise holds at most one 16 MiB node
of a cluster's |C|(|C|-1)/2 distances, yet returns ``pdist``'s mean
bitwise: it replays numpy's pairwise summation tree node by node.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .core import Clustering, ClusterView, DataError, NumericError, pairwise_sum

# Byte budget of one silhouette distance tile: the whole tile of a pair of
# cluster groups when it fits, else B = _BLOCK_BYTES // (8 * |G_b|) rows of
# G_a against G_b, at least one row.  Also the budget of one node of
# mean_pairwise_dist's condensed distances.
_BLOCK_BYTES = 16 * 2**20
# Clusters smaller than this are merged with their neighbours into groups of
# at least this many points: each tile costs one cdist call, about 20 us
# besides the distances, and k = 2,000 clusters of 4 points would otherwise
# make 2 million calls.
_GROUP_ROWS = 128


def mean_dist_to_centroid(view: ClusterView) -> float:
    """Mean Euclidean distance of members to their centroid (= mu)."""
    return view.mu


def mean_pairwise_dist(view: ClusterView) -> float:
    """Mean distance over unordered distinct member pairs; 0 for a singleton.

    Bitwise ``pdist(points).mean()``.  When the |C|(|C|-1)/2 distances do
    not fit in ``_BLOCK_BYTES``, they are summed by ``core.pairwise_sum``
    one node of at most that many bytes at a time, each node filled from
    ``cdist`` row segments (which equal ``pdist``'s entries bitwise).
    """
    x, n = view.points, view.size
    if n < 2:
        return 0.0
    count = n * (n - 1) // 2
    leaf = _BLOCK_BYTES // 8
    if count <= leaf:
        return float(pdist(x).mean())
    buf = np.empty(leaf)
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # row i, the pairs (i, i+1..n-1), ends at ends[i]

    def distances(lo: int, hi: int) -> np.ndarray:
        i = int(np.searchsorted(ends, lo, side="right"))
        at = lo
        while at < hi:
            j0 = n - (int(ends[i]) - at)
            j1 = min(n, j0 + hi - at)
            cdist(x[i:i + 1], x[j0:j1], out=buf[at - lo:at - lo + j1 - j0].reshape(1, -1))
            at += j1 - j0
            i += 1
        return buf[:hi - lo]

    return float(pairwise_sum(count, distances, leaf) / count)


def _check_clustering(clustering: Clustering) -> None:
    if len(clustering) < 2:
        raise DataError("need at least 2 clusters")


def _groups(starts):
    """The clusters, in buffer order, merged into tile groups.

    A cluster of at least ``_GROUP_ROWS`` points is a group of its own;
    runs of smaller ones are merged until a group holds that many.  Each
    group is ``(lo, hi, spans)``: its rows ``lo:hi`` of the buffer, and one
    ``(cluster id, lo, hi)`` per member cluster, with rows relative to
    the group's ``lo``.
    """
    groups, run = [], []
    for j, (lo, hi) in enumerate(zip(starts, starts[1:])):
        if run and hi - lo >= _GROUP_ROWS:
            groups.append(run)
            run = []
        run.append((j, lo, hi))
        if run[-1][2] - run[0][1] >= _GROUP_ROWS:
            groups.append(run)
            run = []
    if run:
        groups.append(run)
    return [(g[0][1], g[-1][2], [(j, lo - g[0][1], hi - g[0][1]) for j, lo, hi in g]) for g in groups]


def _distances(x, y):
    """``cdist(x, y)``; a distance that overflows float64 is a ``NumericError``."""
    dists = cdist(x, y)
    if not np.isfinite(dists.max()):
        raise NumericError("silhouette pairwise distance overflows float64")
    return dists


def _slice_sums(out, dists, spans):
    """``out[p, j]`` = sum of row p of ``dists`` over cluster j's columns."""
    for j, lo, hi in spans:
        out[:, j] = dists[:, lo:hi].sum(axis=1)


def _row_sums(out, x, y, spans):
    """``_slice_sums`` of ``cdist(x, y)``, measured in blocks of rows of
    ``x`` that fit in ``_BLOCK_BYTES``."""
    step = max(1, _BLOCK_BYTES // (8 * len(y)))
    for r0 in range(0, len(x), step):
        _slice_sums(out[r0 : r0 + step], _distances(x[r0 : r0 + step], y), spans)


def _pair_sums(sums, data, group_a, group_b):
    """Fill the rows of ``sums`` of group a with their distance sums to
    the clusters of group b and, for two different groups, the other
    way round.

    A tile that fits in ``_BLOCK_BYTES`` is computed once and read along
    both sides (a group's own tile already holds both); its transpose is
    copied in chunks of 1/64 of the budget, so that the sums run over
    contiguous values.  A larger pair is measured in row blocks, both
    ways.  The tile lives only in this call, so one is held at a time.
    """
    (lo_a, hi_a, spans_a), (lo_b, hi_b, spans_b) = group_a, group_b
    x, y = data[lo_a:hi_a], data[lo_b:hi_b]
    x_sums, y_sums = sums[lo_a:hi_a], sums[lo_b:hi_b]
    if 8 * len(x) * len(y) > _BLOCK_BYTES:
        _row_sums(x_sums, x, y, spans_b)
        if group_a is not group_b:
            _row_sums(y_sums, y, x, spans_a)
        return
    tile = _distances(x, y)
    _slice_sums(x_sums, tile, spans_b)
    if group_a is not group_b:
        width = max(1, _BLOCK_BYTES // 64 // (8 * len(x)))
        for c0 in range(0, len(y), width):
            chunk = np.ascontiguousarray(tile[:, c0 : c0 + width].T)
            _slice_sums(y_sums[c0 : c0 + width], chunk, spans_a)


def silhouette(clustering: Clustering) -> float:
    """Mean silhouette coefficient over all points.

    For each point: a = mean distance to its own cluster's other
    members, b = smallest mean distance to the members of any other
    cluster, s = (b - a) / max(a, b).  Points in singleton clusters
    score 0.  A distance that overflows float64 is a ``NumericError``.

    The N x N distance matrix is never held.  Clusters of at least 128
    points are tile groups of their own, and runs of smaller ones are
    merged into groups of about 128.  Each unordered group pair a <= b
    whose tile ``cdist(G_a, G_b)`` fits in 16 MiB is computed once: the
    row sums of its column slices give G_a's distance sums to each of
    G_b's clusters, and those of its transpose, copied in small column
    chunks, G_b's sums to G_a's clusters; a group's own tile holds both
    sides.  A pair whose tile does not fit is measured in blocks of rows,
    G_a against G_b and then G_b against G_a, so memory stays at one
    16 MiB tile at any N.  Every sum runs over the same values in the
    same order as the full matrix's row slices (a distance is bitwise
    symmetric), so the value is exactly the full-matrix one.
    """
    _check_clustering(clustering)
    data, starts = clustering.data, clustering.starts
    groups = _groups(starts)
    # sums[p, j]: total distance from point p to the members of cluster j
    sums = np.empty((len(data), len(clustering)))
    for i, group in enumerate(groups):
        for other in groups[i:]:
            _pair_sums(sums, data, group, other)
    sizes = np.diff(starts)
    own = np.repeat(np.arange(len(clustering)), sizes)
    rows = np.arange(len(data))
    a = sums[rows, own] / np.maximum(sizes[own] - 1, 1)
    sums[rows, own] = np.inf  # b ranges over the other clusters only
    b = (sums / sizes).min(axis=1)
    denom = np.maximum(b, a)
    scored = (sizes[own] > 1) & (denom > 0)  # s := 0 for singletons
    safe = np.where(scored, denom, 1.0)
    return float(np.where(scored, (b - a) / safe, 0.0).mean())


def davies_bouldin(clustering: Clustering) -> float:
    """Davies-Bouldin index: mean over clusters of the worst
    (S_i + S_j) / M_ij, with S the mean distance to centroid and M the
    centroid separation.  Lower is better; 0 only in the ideal case.
    Coincident centroids raise; an overflowing separation is a ``NumericError``.
    """
    _check_clustering(clustering)
    k = len(clustering)
    s = np.array([v.mu for v in clustering])
    cents = np.array([v.centroid for v in clustering])
    m = cdist(cents, cents)
    off = ~np.eye(k, dtype=bool)
    if not np.isfinite(m[off]).all():
        raise NumericError("Davies-Bouldin centroid separation overflows float64")
    if np.any(m[off] == 0.0):
        raise DataError("identical centroids: Davies-Bouldin is undefined")
    ratios = (s[:, None] + s[None, :]) / np.where(off, m, np.inf)
    return float(ratios.max(axis=1).mean())


def calinski_harabasz(clustering: Clustering) -> float:
    """Calinski-Harabasz index: between/within dispersion ratio
    (BSS / (k-1)) / (WSS / (|E|-k)).  Zero within-cluster dispersion is
    a degenerate-dispersion error, an overflowing sum a ``NumericError``.
    """
    _check_clustering(clustering)
    data = clustering.data
    k = len(clustering)
    n = len(data)
    if n <= k:
        raise DataError(f"Calinski-Harabasz needs more points ({n}) than clusters ({k})")
    grand = data.mean(axis=0)
    bss = sum(v.size * float(((v.centroid - grand) ** 2).sum()) for v in clustering)
    wss = sum(float(((v.points - v.centroid) ** 2).sum()) for v in clustering)
    if not (np.isfinite(bss) and np.isfinite(wss)):
        raise NumericError(f"Calinski-Harabasz sums of squares overflow float64: BSS={bss}, WSS={wss}")
    if wss == 0.0:
        raise DataError("degenerate dispersion: zero within-cluster scatter")
    return float((bss / (k - 1)) / (wss / (n - k)))


def cluster_size_variance(clustering: Clustering) -> float:
    """Population variance of the cluster sizes."""
    return float(np.diff(clustering.starts).var())
