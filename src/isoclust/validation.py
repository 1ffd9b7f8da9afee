"""Internal cluster validation measures, for use alongside the
isotropy measures.  Definitions follow the standard literature forms;
edge behavior is pinned down explicitly (singleton silhouette is 0,
coincident centroids and zero dispersion are errors).  The
whole-clustering indices take the ``Clustering`` of ``split_clusters``,
at least 2 clusters for all but the size variance; silhouette and
Calinski-Harabasz read its cluster-ordered buffer as it is.

Silhouette and ``mean_pairwise_dist`` compute each distance once.  In
silhouette a cluster whose |C|(|C|-1)/2 distances fit in 16 MiB gets one
``pdist``, read twice: its rows, rebuilt a few at a time, give the
members' distance sums to their own cluster, and its mean goes to the
view's ``pdist_mean``, where a later ``mean_pairwise_dist`` finds it; run
alone, ``mean_pairwise_dist`` computes that ``pdist`` for its mean and
keeps nothing.  Silhouette otherwise computes only the distances between
clusters, one tile per pair of clusters (small clusters merged into
groups), each tile summed along both of its sides.  A tile over 16 MiB,
and the own pairs of a cluster too large for one ``pdist``, are halved
where numpy halves a row of that cluster's distances
(``core.pairwise_split``), until each part fits, and the parts' sums are
added as numpy adds them; every distance is still computed once.
Silhouette holds at most one 16 MiB tile per thread, and an N x k table
of distance sums, never the N x N matrix; its tiles are independent
tasks, run by the clustering's ``run`` (in ``run_measure``, the
``--threads`` pool's ``map``).  ``mean_pairwise_dist`` of a larger
cluster holds at most one 16 MiB run of its distances, and computes
them again.  Every value is bitwise the one computed from the whole
distance matrix or condensed array.  ``cdist`` and ``pdist`` are
``core``'s: scipy's compiled kernels, which ``core`` loads by themselves.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .core import PAIRWISE_LEAF, Clustering, ClusterView, DataError, NumericError, block_rows, cdist, pairwise_split, pairwise_sum, pdist

# Byte budget of one silhouette distance tile (a part of a larger one) and
# of one condensed pdist array; also the budget of one run of
# mean_pairwise_dist's condensed distances when they do not fit whole.
_BLOCK_BYTES = 16 * 2**20
# Clusters smaller than this are merged with their neighbours into groups of
# at least this many points: each tile costs one cdist call, about 20 us
# besides the distances, and k = 2,000 clusters of 4 points would otherwise
# make 2 million calls.
_GROUP_ROWS = 128

_OVERFLOW = "silhouette pairwise distance overflows float64"


def mean_dist_to_centroid(view: ClusterView) -> float:
    """Mean Euclidean distance of members to their centroid (= mu)."""
    return view.mu


def _member_sums(dists: np.ndarray, n: int) -> np.ndarray:
    """The row sums of the n x n distance matrix whose condensed form
    is ``dists``, each bitwise ``cdist(x, x)[p].sum()``.

    A few rows at a time, at most 1/64 of ``_BLOCK_BYTES``, are rebuilt
    whole (zero diagonal included) and summed; the n x n matrix is never
    held.
    """
    step = min(n, block_rows(n, _BLOCK_BYTES // 64))
    index = np.arange(n + 1)
    starts = index * (2 * n - index - 1) // 2  # row p's pairs (p, p+1..n-1): dists[starts[p]:starts[p + 1]]
    above = starts[:n] - index[:n] - 1  # pair (q, p) with q < p: dists[above[q] + p]
    right = np.arange(-n, n) > np.arange(step)[:, None]  # right[t, n - r0 + q]: q > r0 + t
    block = np.empty((step, n))
    sums = np.empty(n)
    for r0 in range(0, n, step):
        rows = index[r0 : min(n, r0 + step)]
        r1 = r0 + len(rows)
        rebuilt = block[: len(rows)]
        # row p's column q < p is the pair (q, p) of an earlier row; its
        # columns q > p, fetched here as placeholders and overwritten next,
        # are its own pairs (p, q), which are contiguous in dists
        rebuilt[:, :r1] = dists.take(above[:r1] + rows[:, None], mode="clip")
        rebuilt[right[: len(rows), n - r0 : 2 * n - r0]] = dists[starts[r0] : starts[r1]]
        rebuilt[rows - r0, rows] = 0.0
        sums[r0:r1] = rebuilt.sum(axis=1)
    return sums


def mean_pairwise_dist(view: ClusterView) -> float:
    """Mean distance over unordered distinct member pairs; 0 for a singleton.

    Bitwise ``pdist(points).mean()``.  After silhouette, which computes
    that mean on its way when the |C|(|C|-1)/2 distances fit in
    ``_BLOCK_BYTES``, this returns the view's ``pdist_mean``.  Otherwise,
    when they fit, it is the mean of one ``pdist``, which is not kept.
    When they do not fit, they are summed by ``core.pairwise_sum`` one
    run of at most that many bytes at a time, each run filled from
    ``cdist`` row segments (which equal ``pdist``'s entries bitwise).
    """
    x, n = view.points, view.size
    if n < 2:
        return 0.0
    if view.pdist_mean is not None:
        return view.pdist_mean
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
        raise NumericError(_OVERFLOW)
    return dists


def _slice_sums(out, dists, spans):
    """``out[p, j]`` = sum of row p of ``dists`` over cluster j's columns."""
    for j, lo, hi in spans:
        out[:, j] = dists[:, lo:hi].sum(axis=1)


def _transposed_sums(out, tile, spans):
    """``_slice_sums`` of ``tile.T``, copied in contiguous chunks of 1/64
    of the budget, so that the sums run over contiguous values."""
    width = block_rows(len(tile), _BLOCK_BYTES // 64)
    for c0 in range(0, tile.shape[1], width):
        _slice_sums(out[c0 : c0 + width], np.ascontiguousarray(tile[:, c0 : c0 + width].T), spans)


def _pair_sums(sums, data, group_a, group_b):
    """Fill the rows of group a with their distance sums to the clusters of
    group b and the rows of group b with theirs to group a's clusters.

    A tile that fits in ``_BLOCK_BYTES``, or whose sides cannot be cut, is
    computed once, whole, with the shorter group as its rows: each row is
    summed as it lies, and the columns are read transposed, in small
    contiguous chunks.  Otherwise the longer side that is one cluster of
    more than 128 rows is halved where numpy halves a row of that
    cluster's distances (``core.pairwise_split``), each half is paired
    with the other side, and the other side's sums to the two halves are
    added: bitwise numpy's sum of the whole row.  So every distance is
    computed once, and one tile is held at a time.
    """
    if group_a[1] - group_a[0] > group_b[1] - group_b[0]:
        group_a, group_b = group_b, group_a
    (lo_a, hi_a, spans_a), (lo_b, hi_b, spans_b) = group_a, group_b
    cut = next((g for g in (group_b, group_a) if len(g[2]) == 1 and g[1] - g[0] > PAIRWISE_LEAF), None)
    if cut is None or 8 * (hi_a - lo_a) * (hi_b - lo_b) <= _BLOCK_BYTES:
        tile = _distances(data[lo_a:hi_a], data[lo_b:hi_b])
        _slice_sums(sums[lo_a:hi_a], tile, spans_b)
        _transposed_sums(sums[lo_b:hi_b], tile, spans_a)
        return
    lo, hi, ((j, _, _),) = cut
    other = group_a if cut is group_b else group_b
    mid = lo + pairwise_split(hi - lo)
    _pair_sums(sums, data, (lo, mid, [(j, 0, mid - lo)]), other)
    left = sums[other[0] : other[1], j].copy()
    _pair_sums(sums, data, (mid, hi, [(j, 0, hi - mid)]), other)
    sums[other[0] : other[1], j] += left


def _own_sums(sums, data, j, lo, hi):
    """Fill rows ``lo:hi``, all of cluster j or a part numpy splits it at,
    with their distance sums to those same rows; return the mean of their
    one ``pdist``, or None when they took more than one.

    Rows whose pairs fit in ``_BLOCK_BYTES``, or at most 128 of them, get
    one ``pdist``, whose rows are rebuilt for the sums (``_member_sums``).
    More are halved at ``core.pairwise_split``: each half's own sums, plus
    the sums of the tile between the halves (``_pair_sums``), are numpy's
    sums of the whole rows.
    """
    n = hi - lo
    if n <= PAIRWISE_LEAF or n * (n - 1) // 2 <= _BLOCK_BYTES // 8:
        dists = pdist(data[lo:hi])
        mean = float(dists.mean())
        if not np.isfinite(mean) and not np.isfinite(dists.max()):
            raise NumericError(_OVERFLOW)
        sums[lo:hi, j] = _member_sums(dists, n)
        return mean
    mid = lo + pairwise_split(n)
    _own_sums(sums, data, j, lo, mid)
    _own_sums(sums, data, j, mid, hi)
    own = sums[lo:hi, j].copy()
    _pair_sums(sums, data, (lo, mid, [(j, 0, mid - lo)]), (mid, hi, [(j, 0, hi - mid)]))
    sums[lo:hi, j] += own
    return None


def _group_own(sums, data, clustering, group):
    """Fill the rows of a group with their distance sums to its own
    clusters.

    Each member's own pairs come from ``_own_sums``; a member that took
    one ``pdist`` leaves its mean in its view's ``pdist_mean`` for
    ``mean_pairwise_dist``.  The blocks between members are computed
    once, each member against the members after it, and read along both
    sides (``_pair_sums``).
    """
    lo, hi, spans = group
    for j, c0, c1 in spans:
        if c1 - c0 == 1:
            sums[lo + c0, j] = 0.0
        else:
            clustering[j].pdist_mean = _own_sums(sums, data, j, lo + c0, lo + c1)
    for t, (j, c0, c1) in enumerate(spans[:-1]):
        rest = (lo + c1, hi, [(i, a - c1, b - c1) for i, a, b in spans[t + 1 :]])
        _pair_sums(sums, data, (lo + c0, lo + c1, [(j, 0, c1 - c0)]), rest)


def _call(task):
    return task()


def silhouette(clustering: Clustering) -> float:
    """Mean silhouette coefficient over all points.

    For each point: a = mean distance to its own cluster's other
    members, b = smallest mean distance to the members of any other
    cluster, s = (b - a) / max(a, b).  Points in singleton clusters
    score 0.  A distance that overflows float64 is a ``NumericError``.

    The N x N distance matrix is never held.  A table of the total
    distance from each point to each cluster is filled by independent
    tasks, each writing only its own entries:

    * one per tile group (clusters of at least 128 points, and runs of
      smaller ones merged to about 128): each member cluster's own pairs,
      from its one ``pdist`` when its condensed distances fit in 16 MiB
      (whose mean it leaves in the view's ``pdist_mean``), else from
      halves of it (``_own_sums``), and the blocks between the group's
      clusters;
    * one tile per unordered pair of groups.

    Every distance is computed once, and every tile summed along both of
    its sides; a tile over 16 MiB is halved where numpy halves the rows
    it sums (``_pair_sums``).  Every sum runs over the same values, in
    the same order, as the full matrix's row slices (a distance is
    bitwise symmetric), so the value is exactly the full-matrix one.

    The tasks, largest first, go to ``clustering.run(fn, tasks)``:
    builtin ``map`` runs them one after the other, a thread pool's
    ``map``, set as ``clustering.run``, on its workers, with the same
    value.
    """
    _check_clustering(clustering)
    data, starts = clustering.data, clustering.starts
    sums = np.empty((len(data), len(clustering)))
    groups = _groups(starts)
    work = []
    for i, group in enumerate(groups):
        size = group[1] - group[0]
        work.append((size * size // 2, partial(_group_own, sums, data, clustering, group)))
        for other in groups[i + 1 :]:
            work.append((size * (other[1] - other[0]), partial(_pair_sums, sums, data, group, other)))
    work.sort(key=lambda w: -w[0])
    for _ in clustering.run(_call, [task for _, task in work]):
        pass
    sizes = np.diff(starts)
    own = np.repeat(np.arange(len(clustering)), sizes)
    rows = np.arange(len(sums))
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
