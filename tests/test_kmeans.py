import importlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from isoclust import DataError, NumericError, PointCloud, kmeans
from isoclust.cli import main, write_cloud_csv
from isoclust.kmeans import MAX_ITER


# the package's ``kmeans`` attribute is the function, not this module
kmeans_module = importlib.import_module("isoclust.kmeans")


def cloud_of(points) -> PointCloud:
    return PointCloud(np.asarray(points, dtype=float))


def blob_cloud(seed=0, centers=((0, 0), (12, 12), (-8, 9)), per=20):
    rng = np.random.default_rng(seed)
    data = np.vstack([np.asarray(c) + rng.normal(size=(per, 2)) for c in centers])
    return cloud_of(data)


def test_two_pair_hand_case():
    cloud = cloud_of([[0.0], [0.1], [10.0], [10.1]])
    result = kmeans(cloud, 2, seed=0)
    assert result.inertia == pytest.approx(0.01, abs=1e-12)
    labels = result.assignment.labels
    assert labels[0] == labels[1] and labels[2] == labels[3] and labels[0] != labels[2]
    np.testing.assert_allclose(sorted(result.centroids[:, 0]), [0.05, 10.05], atol=1e-12)
    assert not result.reseeded


def test_k_one_and_k_n():
    cloud = cloud_of([[0, 0], [2, 0], [4, 0]])
    one = kmeans(cloud, 1, seed=0)
    np.testing.assert_allclose(one.centroids[0], [2, 0], atol=1e-12)
    assert one.inertia == pytest.approx(8.0, abs=1e-12)

    full = kmeans(cloud, 3, seed=0)
    assert full.inertia == pytest.approx(0.0, abs=1e-12)
    assert full.assignment.k == 3


def test_k_validation():
    cloud = cloud_of([[0, 0], [0, 0], [1, 1]])
    with pytest.raises(DataError):
        kmeans(cloud, 0)
    with pytest.raises(DataError):
        kmeans(cloud, 4)  # more than points
    with pytest.raises(DataError, match="distinct"):
        kmeans(cloud, 3)  # more than distinct points
    for max_iter in (0, -1):
        with pytest.raises(DataError, match="max_iter"):
            kmeans(cloud_of([[0.0], [1.0], [5.0]]), 2, max_iter=max_iter)


def test_distinct_points_count_signed_zeros_as_one():
    # -0.0 == 0.0: the first two points are one, as np.unique counts them
    with pytest.raises(DataError, match=r"exceeds the number of distinct points \(2\)"):
        kmeans(cloud_of([[0, 1], [-0.0, 1], [2, 3]]), 3)
    assert kmeans(cloud_of([[0, 1], [-0.0, 1], [2, 3]]), 2).inertia == 0.0


def test_kmeans_holds_no_n_by_d_array():
    # 20,000 x 50 points (7.6 MiB): besides the data a run holds its N x k
    # distances (1.2 MiB), N-long vectors and one 256 KiB block; the
    # distinct-row count, the k-means++ distances and the final inertia
    # each used to hold a whole N x d array
    cloud = cloud_of(np.random.default_rng(12).normal(size=(20_000, 50)))
    tracemalloc.start()
    try:
        kmeans(cloud, 8, seed=0, max_iter=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def t3_data(seed, n, d, scale):
    return np.random.default_rng(seed).standard_t(3, (n, d)) * scale


SCALES = st.sampled_from([1e-8, 1e-4, 1.0, 1e4, 1e8])
# 1-16 KiB: blocks of a few rows, and inertia trees several levels deep
BUDGETS = st.sampled_from([1024, 2048, 4096, 16384])


@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600), d=st.integers(1, 40), k=st.integers(1, 8),
    scale=SCALES, budget=BUDGETS,
)
def test_blocked_inertia_is_the_whole_sum_bitwise(seed, n, d, k, scale, budget):
    data = t3_data(seed, n, d, scale)
    rng = np.random.default_rng(seed + 1)
    centroids = t3_data(seed + 2, k, d, scale)
    labels = rng.integers(0, k, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmeans_module, "_BLOCK_BYTES", budget)
        assert kmeans_module._inertia(data, centroids, labels) == float(((data - centroids[labels]) ** 2).sum())


def test_blocked_inertia_overflow_warns():
    # each 128-entry node sums to about 1.5e308; their sum overflows
    data = np.full((256, 1), 1.1e153)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmeans_module, "_BLOCK_BYTES", 1024)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert kmeans_module._inertia(data, np.zeros((1, 1)), np.zeros(256, dtype=np.int64)) == np.inf


@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600), d=st.integers(1, 40), scale=SCALES, budget=BUDGETS,
)
def test_blocked_row_squares_are_the_whole_row_sums(seed, n, d, scale, budget):
    data = t3_data(seed, n, d, scale)
    centre = t3_data(seed + 1, 1, d, scale)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmeans_module, "_BLOCK_BYTES", budget)
        blocks = list(kmeans_module._row_squares(data, centre))
    assert [lo for lo, _ in blocks] == list(range(0, n, max(1, budget // (8 * d))))
    np.testing.assert_array_equal(np.concatenate([sums for _, sums in blocks]), ((data - centre) ** 2).sum(axis=1))


@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), d=st.integers(1, 6),
    distinct=st.integers(1, 30), k=st.integers(1, 40), budget=BUDGETS,
)
def test_capped_distinct_count_matches_np_unique(seed, n, d, distinct, k, budget):
    # few distinct rows, repeated, with -0.0 and 0.0 mixed: equal under ==
    rng = np.random.default_rng(seed)
    pool = rng.integers(-1, 2, (distinct, d)).astype(float)
    data = pool[rng.integers(0, distinct, n)]
    data[(data == 0) & (rng.random(data.shape) < 0.5)] = -0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmeans_module, "_BLOCK_BYTES", budget)
        assert kmeans_module._count_distinct_rows(data, at_most=k) == min(k, len(np.unique(data, axis=0)))


def test_deterministic_for_seed():
    cloud = blob_cloud(seed=1)
    a = kmeans(cloud, 3, seed=7)
    b = kmeans(cloud, 3, seed=7)
    np.testing.assert_array_equal(a.assignment.labels, b.assignment.labels)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia and a.n_iter == b.n_iter


def test_partition_invariant_to_row_order():
    cloud = blob_cloud(seed=2)
    perm = np.random.default_rng(3).permutation(cloud.n_points)
    shuffled = cloud_of(cloud.data[perm])
    base = kmeans(cloud, 3, seed=0).assignment.labels
    moved = kmeans(shuffled, 3, seed=0).assignment.labels
    # same partition up to relabeling: co-membership must agree
    same_base = base[perm][:, None] == base[perm][None, :]
    same_moved = moved[:, None] == moved[None, :]
    np.testing.assert_array_equal(same_base, same_moved)


def test_explicit_init_and_shape_check():
    cloud = cloud_of([[0.0], [0.1], [10.0], [10.1]])
    result = kmeans(cloud, 2, init=[[0.0], [10.0]])
    assert result.inertia == pytest.approx(0.01, abs=1e-12)
    with pytest.raises(DataError):
        kmeans(cloud, 2, init=[[0.0, 0.0], [10.0, 0.0]])


def test_inertia_matches_recomputation():
    cloud = blob_cloud(seed=4, per=15)
    result = kmeans(cloud, 3, seed=1)
    recomputed = float(
        ((cloud.data - result.centroids[result.assignment.labels]) ** 2).sum()
    )
    assert result.inertia == pytest.approx(recomputed, rel=1e-12)


def test_inertia_history_nonincreasing():
    cloud = blob_cloud(seed=5, per=30)
    for seed in range(5):
        history = kmeans(cloud, 3, seed=seed).inertia_history
        assert len(history) >= 1
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier * (1 + 1e-9) + 1e-12


def test_empty_cluster_repair():
    # second start centroid is far from all data, so its cluster starts
    # empty and must be reseeded from the farthest point
    cloud = cloud_of([[0, 0], [0, 1], [1, 0], [10, 10]])
    result = kmeans(cloud, 2, init=[[0.5, 0.5], [1000.0, 1000.0]])
    assert result.reseeded
    assert result.assignment.k == 2
    assert sorted(result.assignment.sizes()) == [1, 3]

    # the farthest point is a singleton's only member: a cluster that keeps
    # another member gives one up instead, so no cluster is left empty
    result = kmeans(cloud_of([[4.0], [2.0], [-2.0]]), 3, init=[[-6.0], [-5.0], [3.0]], max_iter=1)
    np.testing.assert_array_equal(result.assignment.labels, [0, 2, 1])
    np.testing.assert_array_equal(result.centroids[:, 0], [4.0, -2.0, 2.0])
    assert result.inertia == 0.0 and result.reseeded

    # two empty clusters: the point the first takes is not taken again
    cloud = cloud_of([[-4.0], [-4.0], [-3.0], [2.0]])
    init = [[0.0], [5.0], [6.0]]
    once = kmeans(cloud, 3, init=init, max_iter=1)
    np.testing.assert_array_equal(once.assignment.labels, [1, 1, 2, 0])
    assert once.inertia == 6.25 and once.reseeded
    converged = kmeans(cloud, 3, init=init)
    np.testing.assert_array_equal(converged.assignment.labels, [1, 1, 2, 0])
    assert converged.inertia == 0.0


@st.composite
def clouds_with_init(draw):
    """Small integer clouds with repeated points, a valid k and any init."""
    dims = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    coords = st.lists(st.integers(-4, 4), min_size=dims, max_size=dims)
    distinct = draw(st.lists(coords, min_size=k, max_size=k + 3, unique_by=tuple))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=6))
    init = draw(st.lists(st.lists(st.integers(-8, 8), min_size=dims, max_size=dims), min_size=k, max_size=k))
    return distinct + repeats, k, init


@given(clouds_with_init(), st.sampled_from([1, 2, 300]))
def test_explicit_init_always_gives_k_nonempty_finite_clusters(case, max_iter):
    points, k, init = case
    cloud = cloud_of(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = kmeans(cloud, k, init=init, max_iter=max_iter)
    assert result.assignment.k == k
    assert min(result.assignment.sizes()) >= 1
    assert np.isfinite(result.centroids).all() and np.isfinite(result.inertia)
    labels = result.assignment.labels
    assert result.inertia == float(((cloud.data - result.centroids[labels]) ** 2).sum())


@st.composite
def offset_integer_clouds(draw):
    """Integer clouds with repeated points and a valid k, moved by an
    integer offset of up to 1e9 per axis, so every coordinate is exact."""
    dims = draw(st.integers(1, 3))
    k = draw(st.integers(2, 5))
    coords = st.lists(st.integers(-50, 50), min_size=dims, max_size=dims)
    distinct = draw(st.lists(coords, min_size=k + 6, max_size=k + 30, unique_by=tuple))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=10))
    # orders of magnitude up to 1e9 about equally often (Hypothesis's own
    # integer draws favour small values)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = rng.integers(-10**9, 10**9, size=dims, endpoint=True) // 10 ** rng.integers(0, 10)
    return np.asarray(distinct + repeats, dtype=float) + offset, k, draw(st.integers(0, 1000))


@given(offset_integer_clouds())
def test_converged_result_is_a_fixed_point(case):
    # Lloyd's iteration ends where recomputing the centroids changes nothing,
    # wherever the cloud sits relative to the origin
    data, k, seed = case
    result = kmeans(cloud_of(data), k, seed=seed)
    assume(result.n_iter < MAX_ITER and not result.reseeded)
    labels = result.assignment.labels
    means = np.zeros_like(result.centroids)
    np.add.at(means, labels, data)
    means /= np.bincount(labels, minlength=k)[:, None]
    np.testing.assert_array_equal(result.centroids, means)
    np.testing.assert_array_equal(labels, cdist(data, result.centroids, "sqeuclidean").argmin(axis=1))


def test_far_offset_cloud_converges_as_at_the_origin():
    # at x = 1e160 a centroid's norm overflows float64; no squared distance does
    y = [0.0, 1.0, 5.0, 6.0, 20.0, 21.0]
    runs = []
    for x in (1e160, 0.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs.append(kmeans(cloud_of([[x, v] for v in y]), 2, init=[[x, 0.0], [x, 1.0]]))
    far, origin = runs
    assert far.n_iter == origin.n_iter == 4
    assert far.inertia == origin.inertia == 26.5
    assert far.inertia_history == origin.inertia_history
    np.testing.assert_array_equal(far.assignment.labels, origin.assignment.labels)


def test_seeding_overflow_raises_without_warning():
    # 0.8e154 - (-0.8e154) squared is past float64: a seed that starts at an
    # extreme sums an infinite distance, the others seed around it
    cloud = cloud_of([[-0.8e154], [0.0], [0.8e154], [1.0]])
    for seed in range(6):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = kmeans(cloud, 3, seed=seed)
            except NumericError as exc:
                assert "k-means++ squared distances overflow" in str(exc)
            else:
                assert np.isfinite(result.inertia)


def test_seeding_falls_back_to_uniform_when_every_distance_underflows():
    # (1e-170)^2 underflows to 0: k-means++ has no weight to draw by and draws
    # the second centre uniformly; every point then ties to centre 0, so the
    # empty cluster is reseeded
    cloud = cloud_of([[0.0], [1e-170]])
    for seed in range(6):
        result = kmeans(cloud, 2, seed=seed)
        np.testing.assert_array_equal(result.assignment.labels, [1, 0])
        assert result.inertia == 0.0 and result.reseeded


def test_centroid_sum_overflow_raises_without_warning():
    # three coincident points at 0.6e308 sum past float64: the centroid
    # becomes inf, and the next iteration's inertia check catches it
    cloud = cloud_of([[0.6e308]] * 3 + [[0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="inertia inf is not finite at iteration 2"):
            kmeans(cloud, 2, init=[[0.6e308], [0.0]])


# integer ULP offsets from 1e9 (one ULP there is 2**-23): a spread this close to
# round-off makes Lloyd's inertia rise at iteration 5 under seeds 0 and 3
ROUNDOFF_OFFSETS = [[8, -19], [3, -2], [25, -36], [-40, -40], [-31, 9], [10, 39], [-8, -12], [-23, 19],
                    [-6, -24], [-28, -4], [-26, 37], [-4, -38], [-30, -15], [-6, 28], [13, -27], [10, 18],
                    [28, -31], [30, -5], [12, -39], [-23, -13], [-8, -2]]


def test_roundoff_inertia_increase_raises(tmp_path, capsys):
    cloud = cloud_of(1e9 + np.array(ROUNDOFF_OFFSETS) * 2**-23)
    message = "inertia increased from 1.6893864085432142e-10 to 1.7065815427486086e-10 at iteration 5"
    for seed in (0, 3):
        with pytest.raises(NumericError, match=message):
            kmeans(cloud, 2, seed=seed)
    for seed in (1, 2, 4, 5):
        assert np.isfinite(kmeans(cloud, 2, seed=seed).inertia)
    src = tmp_path / "roundoff.csv"
    write_cloud_csv(src, cloud)
    assert main(["cluster", "--input", str(src), "--kmeans", "2", "--seed", "0",
                 "--output", str(tmp_path / "c.csv")]) == 4
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["roundoff.csv"]


def test_max_iter_cap():
    cloud = blob_cloud(seed=6, per=40)
    result = kmeans(cloud, 3, seed=0, max_iter=1)
    assert result.n_iter == 1
    assert len(result.inertia_history) == 1


def test_all_clusters_nonempty_over_seeds():
    cloud = blob_cloud(seed=8, centers=((0, 0), (1, 1), (30, 30)), per=12)
    for seed in range(8):
        result = kmeans(cloud, 3, seed=seed)
        assert result.assignment.k == 3
        assert min(result.assignment.sizes()) >= 1
        assert len(result.assignment) == cloud.n_points
