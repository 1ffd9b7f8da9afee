import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from isoclust import DataError, NumericError, PointCloud, kmeans
from isoclust.kmeans import MAX_ITER


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


def test_deterministic_for_seed():
    cloud = blob_cloud(seed=1)
    a = kmeans(cloud, 3, seed=7)
    b = kmeans(cloud, 3, seed=7)
    np.testing.assert_array_equal(a.assignment.labels, b.assignment.labels)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia and a.n_iter == b.n_iter
    assert a.seed == 7


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
