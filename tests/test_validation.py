import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from isoclust import (
    ClusterAssignment,
    DataError,
    NumericError,
    PointCloud,
    calinski_harabasz,
    cluster_size_variance,
    davies_bouldin,
    mean_dist_to_centroid,
    mean_pairwise_dist,
    run_measure,
    silhouette,
    split_clusters,
)
from isoclust import validation


def make_views(points, labels):
    cloud = PointCloud(np.asarray(points, dtype=float))
    return split_clusters(cloud, ClusterAssignment(labels))


TWO_PAIRS = make_views(
    [[0, 0], [0, 1], [10, 0], [10, 1]],
    [0, 0, 1, 1],
)
TALL_PAIRS = make_views(
    [[0, 0], [0, 2], [10, 0], [10, 2]],
    [0, 0, 1, 1],
)


# --- reference implementations (independent, brute force) --------------------


def silhouette_ref(data, labels):
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels)
    scores = []
    for i in range(len(data)):
        own = labels[i]
        mates = [j for j in range(len(data)) if labels[j] == own and j != i]
        if not mates:
            scores.append(0.0)
            continue
        a = np.mean([np.linalg.norm(data[i] - data[j]) for j in mates])
        b = min(
            np.mean([np.linalg.norm(data[i] - data[j]) for j in range(len(data)) if labels[j] == other])
            for other in set(labels.tolist()) - {own}
        )
        scores.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return float(np.mean(scores))


def davies_bouldin_ref(data, labels):
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels)
    ids = sorted(set(labels.tolist()))
    cents = {c: data[labels == c].mean(axis=0) for c in ids}
    spread = {
        c: np.mean([np.linalg.norm(p - cents[c]) for p in data[labels == c]]) for c in ids
    }
    worst = []
    for ci in ids:
        worst.append(
            max(
                (spread[ci] + spread[cj]) / np.linalg.norm(cents[ci] - cents[cj])
                for cj in ids
                if cj != ci
            )
        )
    return float(np.mean(worst))


def calinski_harabasz_ref(data, labels):
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels)
    ids = sorted(set(labels.tolist()))
    n, k = len(data), len(ids)
    grand = data.mean(axis=0)
    bss = sum((labels == c).sum() * np.linalg.norm(data[labels == c].mean(axis=0) - grand) ** 2 for c in ids)
    wss = sum(
        np.linalg.norm(p - data[labels == c].mean(axis=0)) ** 2 for c in ids for p in data[labels == c]
    )
    return float((bss / (k - 1)) / (wss / (n - k)))


# --- per-cluster helpers ------------------------------------------------------


def test_mean_dist_to_centroid():
    cross = make_views([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 0, 0])[0]
    assert mean_dist_to_centroid(cross) == pytest.approx(1.0, abs=1e-12)


def test_mean_pairwise_dist():
    cross = make_views([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 0, 0])[0]
    assert mean_pairwise_dist(cross) == pytest.approx((2 + 2 * np.sqrt(2)) / 3, abs=1e-12)
    single = make_views([[3, 4]], [0])[0]
    assert mean_pairwise_dist(single) == 0.0


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    d=st.integers(1, 12),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    rounded=st.booleans(),
    budget=st.sampled_from([1024, 1032, 4096, 16384]),
)
def test_streamed_mean_pairwise_dist_is_pdist_mean(seed, n, d, scale, rounded, budget):
    # node budgets of 128-2,048 distances: a few hundred points make trees
    # several levels deep, with nodes that start and end inside a row
    x = np.random.default_rng(seed).standard_t(3, (n, d)) * scale
    if rounded:
        x = np.round(x)
    view = make_views(x, [0] * n)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validation, "_BLOCK_BYTES", budget)
        assert mean_pairwise_dist(view) == pdist(x).mean()


def test_mean_pairwise_dist_holds_one_node():
    # 6,000 points: pdist's condensed array would be 137 MiB
    view = make_views(np.random.default_rng(4).normal(size=(6_000, 50)), [0] * 6_000)[0]
    tracemalloc.start()
    try:
        mean_pairwise_dist(view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# --- silhouette ---------------------------------------------------------------


def test_silhouette_hand_value():
    b = (10 + np.sqrt(101)) / 2
    assert silhouette(TWO_PAIRS) == pytest.approx((b - 1) / b, abs=1e-12)


def test_silhouette_singleton_scores_zero():
    views = make_views([[0, 0], [1, 0], [1, 1]], [0, 1, 1])
    expect = (0.0 + 0.0 + (np.sqrt(2) - 1) / np.sqrt(2)) / 3
    assert silhouette(views) == pytest.approx(expect, abs=1e-12)


def test_silhouette_coincident_points_score_zero():
    views = make_views([[0, 0], [0, 0], [0, 0]], [0, 0, 1])
    assert silhouette(views) == 0.0


def test_silhouette_matches_reference():
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        sizes = rng.integers(5, 15, size=3)
        centers = rng.normal(size=(3, 4)) * 4
        data = np.vstack([centers[i] + rng.normal(size=(sizes[i], 4)) for i in range(3)])
        labels = np.repeat(np.arange(3), sizes)
        views = make_views(data, labels)
        assert silhouette(views) == pytest.approx(silhouette_ref(data, labels), abs=1e-10)


def silhouette_full_matrix(clustering):
    """Silhouette from the whole N x N distance matrix, with the same
    per-cluster slice sums and score rules as the blocked computation."""
    data, starts = clustering.data, clustering.starts
    dists = cdist(data, data)
    sums = np.stack([dists[:, lo:hi].sum(axis=1) for lo, hi in zip(starts, starts[1:])], axis=1)
    sizes = np.diff(starts)
    own = np.repeat(np.arange(len(clustering)), sizes)
    rows = np.arange(len(data))
    a = sums[rows, own] / np.maximum(sizes[own] - 1, 1)
    sums[rows, own] = np.inf
    b = (sums / sizes).min(axis=1)
    denom = np.maximum(b, a)
    scored = (sizes[own] > 1) & (denom > 0)
    return float(np.where(scored, (b - a) / np.where(scored, denom, 1.0), 0.0).mean())


@st.composite
def float_clusterings(draw):
    """Real-valued points at a drawn scale in 2-6 clusters, singletons allowed."""
    dims = draw(st.integers(1, 4))
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k, 40))
    coords = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    points = draw(st.lists(st.lists(coords, min_size=dims, max_size=dims), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = draw(st.permutations(list(range(k)) + extra))
    return make_views(np.asarray(points) * scale, labels)


@given(float_clusterings(), st.integers(1, 5))
def test_blocked_silhouette_is_bit_identical_to_the_full_matrix(views, rows):
    # each block of `rows` rows sums the same values in the same order as
    # the full matrix's rows, so the value is exact, not merely close
    n = sum(v.size for v in views)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validation, "_BLOCK_BYTES", 8 * n * rows)
        assert silhouette(views) == silhouette_full_matrix(views)


def test_silhouette_overflow_in_a_late_block_raises():
    # only the last two rows in cluster order are 1.8e154 apart, a distance
    # whose square overflows; every earlier block is finite
    views = make_views([[0, 0], [0, 1], [1, 0], [5, 5], [9e153, 0], [-9e153, 1]], [0, 0, 0, 1, 1, 1])
    for rows in (1, 2, 4, 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(validation, "_BLOCK_BYTES", 8 * 6 * rows)
            with pytest.raises(NumericError, match="silhouette pairwise distance overflows"):
                silhouette(views)


def test_silhouette_memory_is_bounded_by_the_block():
    # 6,000 points: the full distance matrix alone would be 288 MB
    rng = np.random.default_rng(9)
    views = make_views(rng.normal(size=(6000, 3)), rng.integers(0, 4, size=6000))
    tracemalloc.start()
    try:
        silhouette(views)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@given(float_clusterings(), st.integers(1, 12), st.sampled_from(["all", "some", "none"]))
def test_tiled_silhouette_is_bit_identical_to_the_full_matrix(views, group_rows, fitting):
    # groups of at least `group_rows` points (1: one per cluster), under a
    # budget where all, some or none of the group-pair tiles fit: tiles and
    # the row blocks of oversized pairs sum the full matrix's values in its
    # order, so the value is exact, not merely close
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validation, "_GROUP_ROWS", group_rows)
        sizes = sorted(hi - lo for lo, hi, _ in validation._groups(views.starts))
        budget = {"all": 8 * sizes[-1] ** 2, "some": 8 * sizes[0] * sizes[-1], "none": 8 * sizes[0] ** 2 - 1}
        mp.setattr(validation, "_BLOCK_BYTES", budget[fitting])
        assert silhouette(views) == silhouette_full_matrix(views)


def distance_calls(monkeypatch, views):
    """The number of pairs in each ``cdist`` and each ``pdist`` call of one
    silhouette run, whose value must equal the full-matrix one."""
    expected = silhouette_full_matrix(views)
    cdist_pairs, pdist_pairs = [], []

    def counting_cdist(x, y):
        cdist_pairs.append(len(x) * len(y))
        return cdist(x, y)

    def counting_pdist(x):
        pdist_pairs.append(len(x) * (len(x) - 1) // 2)
        return pdist(x)

    monkeypatch.setattr(validation, "cdist", counting_cdist)
    monkeypatch.setattr(validation, "pdist", counting_pdist)
    assert silhouette(views) == expected
    return cdist_pairs, pdist_pairs


def test_silhouette_computes_each_pairwise_distance_once(monkeypatch):
    rng = np.random.default_rng(4)
    views = make_views(rng.normal(size=(1200, 3)), rng.integers(0, 4, size=1200))
    cdist_pairs, pdist_pairs = distance_calls(monkeypatch, views)
    sizes = [v.size for v in views]
    assert min(sizes) > 250
    # one tile per unordered pair of distinct clusters, one pdist per cluster:
    # N (N - 1) / 2 distances, not N^2 = 1,440,000
    assert len(cdist_pairs) == 6 and sum(cdist_pairs) == sum(sizes[i] * sizes[j] for i in range(4) for j in range(i))
    assert sorted(pdist_pairs) == sorted(n * (n - 1) // 2 for n in sizes)


def test_small_clusters_share_tiles(monkeypatch):
    # 512 clusters of 4 points: 16 groups of 128 points make 120 tiles between
    # groups and, inside each group, one block per cluster against the clusters
    # after it; not one tile per cluster pair (130,816)
    rng = np.random.default_rng(5)
    cdist_pairs, pdist_pairs = distance_calls(monkeypatch, make_views(rng.normal(size=(2048, 3)), np.arange(2048) % 512))
    assert len(cdist_pairs) == 16 * 15 // 2 + 16 * 31 and pdist_pairs == [6] * 512
    assert sum(cdist_pairs) + sum(pdist_pairs) == 2048 * 2047 // 2


def without_metadata(report):
    return {k: v for k, v in report.to_dict().items() if k != "metadata"}


@settings(max_examples=30)
@given(
    sizes=st.lists(st.one_of(st.integers(1, 12), st.integers(100, 384)), min_size=2, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    dims=st.integers(1, 3),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    budget=st.sampled_from([1024, 8 * 128**2, 3 * 8 * 128**2]),
    group_rows=st.sampled_from([1, 16, 40]),
)
def test_shared_and_tree_cut_silhouette_is_bit_identical(sizes, seed, dims, scale, budget, group_rows):
    # clusters of up to three times the 128 rows numpy sums without halving,
    # so that halving runs several levels deep, mixed with runs of small
    # clusters that merge into multi-cluster groups.  Under these budgets a
    # cluster's own pairs take one pdist (up to 16 or 181 or 314 points) or
    # are halved, and a pair of clusters over 128 points halves its tile on
    # one or both sides
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    points = rng.standard_t(3, (len(labels), dims)) * scale
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validation, "_BLOCK_BYTES", budget)
        mp.setattr(validation, "_GROUP_ROWS", group_rows)
        views = make_views(points, labels)
        assert silhouette(views) == silhouette_full_matrix(views)
        for view in views:
            assert mean_pairwise_dist(view) == (pdist(view.points).mean() if view.size > 1 else 0.0)
        # the same tiles run on a pool's workers
        with ThreadPoolExecutor(max_workers=3) as pool:
            views.run = pool.map
            assert silhouette(views) == silhouette_full_matrix(views)
        cloud, assignment = PointCloud(points), ClusterAssignment(labels)
        metrics = ["mean_pairwise_dist", "silhouette"]
        serial = run_measure(cloud, assignment, metrics=metrics, threads=1)
        assert serial.overall["silhouette"] == silhouette_full_matrix(views)
        assert without_metadata(run_measure(cloud, assignment, metrics=metrics, threads=3)) == without_metadata(serial)


FITTING_SIZES = [170, 150, 5, 7, 3, 9, 160, 1, 4, 2]
HALVED_SIZES = [400, 170, 5, 7, 3, 160, 1, 4]


@pytest.mark.parametrize(("threads", "sizes", "halved"),
                         [(1, FITTING_SIZES, 0), (3, FITTING_SIZES, 0), (1, HALVED_SIZES, 1), (3, HALVED_SIZES, 1)],
                         ids=["1", "3", "halved_cluster-1", "halved_cluster-3"])
def test_measure_computes_each_distinct_pair_once(monkeypatch, threads, sizes, halved):
    # under a 128 KiB budget: clusters that fit one pdist each, or one (400
    # points, 79,800 pairs) too large for it, whose own pairs are halved;
    # groups of small clusters; and tiles between the large clusters that
    # do not fit
    labels = np.random.default_rng(6).permutation(np.repeat(np.arange(len(sizes)), sizes))
    points = np.random.default_rng(7).normal(size=(len(labels), 3))
    index = {row.tobytes(): i for i, row in enumerate(points)}
    n = len(points)
    counts = np.zeros(n * n, dtype=np.int64)
    lock = threading.Lock()

    def ids(x):
        return np.array([index[row.tobytes()] for row in x])

    def tally(p, q):
        keep = p != q  # a point's distance to itself is no pair
        with lock:
            np.add.at(counts, np.minimum(p, q)[keep] * n + np.maximum(p, q)[keep], 1)

    def counting_cdist(x, y, **kwargs):
        p, q = np.meshgrid(ids(x), ids(y), indexing="ij")
        tally(p.ravel(), q.ravel())
        return cdist(x, y, **kwargs)

    def counting_pdist(x):
        i, j = np.triu_indices(len(x), 1)
        tally(ids(x)[i], ids(x)[j])
        return pdist(x)

    monkeypatch.setattr(validation, "cdist", counting_cdist)
    monkeypatch.setattr(validation, "pdist", counting_pdist)
    monkeypatch.setattr(validation, "_BLOCK_BYTES", 8 * 128**2)
    assert sum(s * (s - 1) // 2 > 128**2 for s in sizes) == halved
    run_measure(PointCloud(points), ClusterAssignment(labels), metrics=["silhouette", "mean_pairwise_dist"],
                threads=threads)
    # silhouette computes each distinct pair once; mean_pairwise_dist's
    # streamed mean computes a halved cluster's own pairs again
    expected = np.triu(np.ones((n, n), dtype=np.int64), 1)
    big = np.isin(labels, [j for j, s in enumerate(sizes) if s * (s - 1) // 2 > 128**2])
    expected += np.triu(np.outer(big, big), 1)
    assert (counts.reshape(n, n) == expected).all()


@pytest.mark.parametrize("threads", [1, 3])
def test_mean_pairwise_dist_alone_sums_no_member_rows(monkeypatch, threads):
    # without silhouette the one pdist per cluster gives only its mean
    def no_member_sums(dists, n):
        raise AssertionError("member sums computed without silhouette")

    monkeypatch.setattr(validation, "_member_sums", no_member_sums)
    rng = np.random.default_rng(8)
    points, labels = rng.normal(size=(300, 3)), rng.integers(0, 4, size=300)
    report = run_measure(PointCloud(points), ClusterAssignment(labels), metrics=["mean_pairwise_dist"],
                         threads=threads)
    assert report.per_cluster["mean_pairwise_dist"] == [pdist(points[labels == j]).mean() for j in range(4)]


# one cluster's own tile overflows (its two far points are 1.8e154 apart), or
# only the tile between the two clusters does; every other distance is finite
DIAGONAL_OVERFLOW = ([[0, 0], [0, 1], [1, 0], [5, 5], [9e153, 0], [-9e153, 1]], [0, 0, 0, 1, 1, 1])
OFF_DIAGONAL_OVERFLOW = ([[9e153, 0], [9e153, 1], [9e153, 2], [-9e153, 0], [-9e153, 1], [-9e153, 2]],
                         [0, 0, 0, 1, 1, 1])


@pytest.mark.parametrize("case", [DIAGONAL_OVERFLOW, OFF_DIAGONAL_OVERFLOW], ids=["diagonal", "off_diagonal"])
@pytest.mark.parametrize("budget", [validation._BLOCK_BYTES, 8 * 2], ids=["tile", "oversized"])
@pytest.mark.parametrize("group_rows", [1, validation._GROUP_ROWS], ids=["per_cluster", "grouped"])
def test_silhouette_overflow_in_a_tile_raises(case, budget, group_rows):
    views = make_views(*case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validation, "_BLOCK_BYTES", budget)
        mp.setattr(validation, "_GROUP_ROWS", group_rows)
        with pytest.raises(NumericError, match="silhouette pairwise distance overflows"):
            silhouette(views)
        # and from a task on run_measure's pool
        cloud, assignment = PointCloud(np.asarray(case[0], dtype=float)), ClusterAssignment(case[1])
        with pytest.raises(NumericError, match="silhouette pairwise distance overflows"):
            run_measure(cloud, assignment, metrics=["silhouette"], threads=3)


@pytest.mark.parametrize("where", ["leaf", "between_halves"])
def test_silhouette_overflow_in_a_halved_cluster_raises(monkeypatch, where):
    # under a 128 KiB budget a 300-point cluster's 44,850 pairs are halved
    # into one pdist each for its first 144 and last 156 points, and a tile
    # between them; two of its points, 1.8e154 apart, are both in the first
    # pdist or one in each half
    rng = np.random.default_rng(12)
    points = rng.normal(size=(310, 2))
    far = [0, 1] if where == "leaf" else [0, 299]
    points[far] = [[9e153, 0], [-9e153, 0]]
    labels = np.repeat([0, 1], [300, 10])
    seen = []

    def recording_pdist(x):
        dists = pdist(x)
        seen.append(np.isfinite(dists).all())
        return dists

    monkeypatch.setattr(validation, "_BLOCK_BYTES", 8 * 128**2)
    monkeypatch.setattr(validation, "pdist", recording_pdist)
    assert validation.pairwise_split(300) == 144 and 144 * 143 // 2 <= 128**2 < 300 * 299 // 2
    with pytest.raises(NumericError, match="silhouette pairwise distance overflows"):
        silhouette(make_views(points, labels))
    assert (False in seen) == (where == "leaf")
    with pytest.raises(NumericError, match="silhouette pairwise distance overflows"):
        run_measure(PointCloud(points), ClusterAssignment(labels), metrics=["silhouette"], threads=3)


def test_silhouette_memory_of_a_halved_cluster_is_one_tile():
    # a 6,000-point cluster's 18 million pairs (137 MiB) and its 6,000 x 500
    # tile to the other cluster are halved until each part fits the budget
    rng = np.random.default_rng(11)
    labels = rng.permutation(np.repeat([0, 1], [6000, 500]))
    views = make_views(rng.normal(size=(6500, 3)), labels)
    tracemalloc.start()
    try:
        silhouette(views)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < validation._BLOCK_BYTES + 3 * 2**20


def test_silhouette_memory_is_one_tile_when_every_tile_fits():
    # 4 clusters of 1,250 points: each pair's tile is 12.5 MB and fits the
    # 16 MiB budget; a second whole tile, such as an unchunked transpose,
    # would take the peak past 25 MB
    rng = np.random.default_rng(10)
    views = make_views(rng.normal(size=(5000, 3)), rng.permutation(np.repeat(np.arange(4), 1250)))
    assert 8 * 1250**2 <= validation._BLOCK_BYTES
    tracemalloc.start()
    try:
        silhouette(views)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1250**2 + 3e6


def test_silhouette_needs_two_clusters():
    with pytest.raises(DataError):
        silhouette(make_views([[0, 0], [1, 1]], [0, 0]))


# --- Davies-Bouldin -----------------------------------------------------------


def test_davies_bouldin_hand_value():
    assert davies_bouldin(TALL_PAIRS) == pytest.approx(0.2, abs=1e-10)


def test_davies_bouldin_matches_reference():
    for trial in range(5):
        rng = np.random.default_rng(200 + trial)
        sizes = rng.integers(5, 15, size=4)
        centers = rng.normal(size=(4, 3)) * 5
        data = np.vstack([centers[i] + rng.normal(size=(sizes[i], 3)) for i in range(4)])
        labels = np.repeat(np.arange(4), sizes)
        assert davies_bouldin(make_views(data, labels)) == pytest.approx(
            davies_bouldin_ref(data, labels), abs=1e-10
        )


def test_davies_bouldin_identical_centroids():
    views = make_views([[0, 0], [2, 2], [0, 0], [2, 2]], [0, 0, 1, 1])
    with pytest.raises(DataError, match="identical centroids"):
        davies_bouldin(views)


# --- Calinski-Harabasz --------------------------------------------------------


def test_calinski_harabasz_hand_value():
    assert calinski_harabasz(TALL_PAIRS) == pytest.approx(50.0, abs=1e-8)


def test_calinski_harabasz_matches_reference():
    for trial in range(5):
        rng = np.random.default_rng(300 + trial)
        sizes = rng.integers(5, 15, size=3)
        centers = rng.normal(size=(3, 5)) * 5
        data = np.vstack([centers[i] + rng.normal(size=(sizes[i], 5)) for i in range(3)])
        labels = np.repeat(np.arange(3), sizes)
        assert calinski_harabasz(make_views(data, labels)) == pytest.approx(
            calinski_harabasz_ref(data, labels), rel=1e-10
        )


def test_calinski_harabasz_errors():
    with pytest.raises(DataError):
        calinski_harabasz(make_views([[0, 0], [1, 1]], [0, 1]))  # n == k
    dup = make_views([[0, 0], [0, 0], [5, 5], [5, 5]], [0, 0, 1, 1])
    with pytest.raises(DataError, match="degenerate dispersion"):
        calinski_harabasz(dup)


# --- the whole-clustering indices against the references ----------------------


@st.composite
def clusterings(draw):
    """Integer points, so ties and coincident points occur, in 2-6 clusters
    with singletons allowed.  The rows are permuted with their labels before
    the split, so each cluster's rows arrive in an arbitrary order."""
    dims = draw(st.integers(1, 3))
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k, 14))
    points = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dims, max_size=dims), min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = np.array(list(range(k)) + extra)
    order = np.array(draw(st.permutations(range(n))))
    points, labels = np.asarray(points, dtype=float)[order], labels[order]
    return points, labels, split_clusters(PointCloud(points), ClusterAssignment(labels))


@given(clusterings())
def test_indices_match_references(case):
    points, labels, views = case
    assert silhouette(views) == pytest.approx(silhouette_ref(points, labels), abs=1e-12)
    # zero within-cluster scatter (every cluster's points coincide) leaves CH undefined
    spread = any(len({tuple(p) for p, c in zip(points, labels) if c == v.cluster_id}) > 1 for v in views)
    if spread:
        assert calinski_harabasz(views) == pytest.approx(calinski_harabasz_ref(points, labels), rel=1e-10)
    else:
        with pytest.raises(DataError):
            calinski_harabasz(views)


# --- size variance ------------------------------------------------------------


def test_cluster_size_variance():
    assert cluster_size_variance(TWO_PAIRS) == 0.0
    uneven = make_views([[0, 0], [0, 1], [0, 2], [9, 9]], [0, 0, 0, 1])
    assert uneven[0].size == 3 and uneven[1].size == 1
    assert cluster_size_variance(uneven) == pytest.approx(1.0, abs=1e-12)
