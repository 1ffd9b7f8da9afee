import copy
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import distance

from isoclust import (
    ClusterAssignment,
    ClusterView,
    DataError,
    MetricReport,
    NumericError,
    PointCloud,
    center_and_scale,
    core,
    size_weighted_mean,
    split_clusters,
)
from isoclust.core import cdist, pairwise_sum, pdist


def test_point_cloud_basic():
    cloud = PointCloud([[1, 2], [3, 4], [5, 6]])
    assert cloud.n_points == 3
    assert cloud.n_dims == 2
    assert cloud.data.dtype == np.float64


def test_point_cloud_rejects_bad_input():
    with pytest.raises(DataError):
        PointCloud([1, 2, 3])  # 1-D
    with pytest.raises(DataError):
        PointCloud(np.empty((0, 2)))
    with pytest.raises(DataError):
        PointCloud([[1.0, np.nan]])
    with pytest.raises(DataError):
        PointCloud([[1.0, np.inf]])
    with pytest.raises(DataError):
        PointCloud([[1.0, 2.0]], columns=["only_one"])


def test_assignment_contiguous():
    a = ClusterAssignment([0, 1, 1, 2, 0])
    assert a.k == 3
    assert a.sizes().tolist() == [2, 2, 1]
    assert ClusterAssignment([0.0, 1.0, 1.0]).labels.tolist() == [0, 1, 1]


def test_assignment_rejects_gaps_and_negatives():
    with pytest.raises(DataError, match="non-contiguous"):
        ClusterAssignment([0, 2, 2])
    with pytest.raises(DataError):
        ClusterAssignment([-1, 0, 1])
    for labels in ([0.5], [0.5, 1.0]):
        with pytest.raises(DataError, match="labels must be integers"):
            ClusterAssignment(labels)
    with pytest.raises(DataError):
        ClusterAssignment([])


@pytest.mark.parametrize(
    "labels, named",
    [
        ([0.0, 1e30], "1e+30"),
        ([0.0, np.inf], "inf"),
        ([-1e30, 0.0], "-1e+30"),
        ([0.0, 2.0**63], "9.223372036854776e+18"),
        ([0, 2**64 - 1], "1.8446744073709552e+19"),
        (np.array([0, 2**64 - 1], dtype=np.uint64), "18446744073709551615"),
    ],
)
def test_assignment_names_a_label_past_int64(labels, named):
    # rejected before the cast to int64, which would wrap it (with a
    # RuntimeWarning for a float, an error under the suite's filter)
    with pytest.raises(DataError) as err:
        ClusterAssignment(labels)
    assert str(err.value) == f"label {named} is outside the int64 range"


def test_assignment_gap_error_names_ten_ids_at_most():
    # up to ten empty ids, each is named
    for labels, missing in (([0, 2, 2], [1]), ([3, 3], [0, 1, 2]), ([1, 12, 5, 12], [0, 2, 3, 4, 6, 7, 8, 9, 10, 11])):
        with pytest.raises(DataError) as err:
            ClusterAssignment(labels)
        assert str(err.value) == f"non-contiguous labels: ids {missing} are empty"
    with pytest.raises(DataError) as err:
        ClusterAssignment([0, 3, 5, 20])
    assert str(err.value) == "non-contiguous labels: 17 ids are empty, the first [1, 2, 4, 6, 7, 8, 9, 10, 11, 12]"
    # the error's cost follows the labels given, not the largest of them
    for largest in (10**12, 2**63 - 1):
        start = time.perf_counter()
        with pytest.raises(DataError, match=f"non-contiguous labels: {largest - 1} ids are empty") as err:
            ClusterAssignment([0, largest])
        assert time.perf_counter() - start < 0.5
        assert len(str(err.value)) < 100


def test_split_clusters_orders_by_id():
    cloud = PointCloud([[0, 0], [10, 0], [1, 0], [11, 0]])
    views = split_clusters(cloud, ClusterAssignment([0, 1, 0, 1]))
    assert [v.cluster_id for v in views] == [0, 1]
    assert views[0].points.tolist() == [[0, 0], [1, 0]]
    assert views[1].points.tolist() == [[10, 0], [11, 0]]


def test_split_clusters_gathers_the_rows_once():
    cloud = PointCloud(np.arange(12.0).reshape(6, 2))
    views = split_clusters(cloud, ClusterAssignment([2, 0, 1, 0, 2, 1]))
    assert all(v.points is v.points for v in views)
    # every view is a slice of one cluster-ordered copy, not of the input
    assert views.data.shape == cloud.data.shape
    assert not np.shares_memory(views.data, cloud.data)
    assert all(np.shares_memory(v.points, views.data) for v in views)
    np.testing.assert_array_equal(views.data, cloud.data[[1, 3, 2, 5, 0, 4]])


@st.composite
def labelled_clouds(draw):
    """Points in 1-3 dims with contiguous labels 0..k-1 in any row order."""
    dims = draw(st.integers(1, 3))
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 30))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = np.array(draw(st.permutations(list(range(k)) + extra)))
    coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    points = draw(st.lists(st.lists(coords, min_size=dims, max_size=dims), min_size=n, max_size=n))
    return PointCloud(points), labels


@given(labelled_clouds())
def test_split_clusters_owns_one_cluster_ordered_buffer(case):
    cloud, labels = case
    views = split_clusters(cloud, ClusterAssignment(labels))
    np.testing.assert_array_equal(views.data, cloud.data[np.argsort(labels, kind="stable")])
    np.testing.assert_array_equal(views.starts, [0, *np.cumsum(np.bincount(labels))])
    assert len(views) == len(views.starts) - 1
    for i, view in enumerate(views):
        lo, hi = views.starts[i], views.starts[i + 1]
        assert view.cluster_id == i
        assert view.points.shape == (hi - lo, cloud.n_dims)
        assert np.shares_memory(view.points, views.data[lo:hi])
        np.testing.assert_array_equal(view.points, views.data[lo:hi])


def test_a_clustering_copies_and_pickles_with_its_buffer():
    views = split_clusters(PointCloud(np.arange(12.0).reshape(6, 2)), ClusterAssignment([2, 0, 1, 0, 2, 1]))
    for clone in (copy.copy(views), copy.deepcopy(views), pickle.loads(pickle.dumps(views))):
        assert type(clone) is type(views) and [v.cluster_id for v in clone] == [0, 1, 2]
        np.testing.assert_array_equal(clone.data, views.data)
        np.testing.assert_array_equal(clone.starts, views.starts)
        assert all(np.shares_memory(v.points, clone.data) for v in clone)
    # a lone view, too, with its pdist_mean set
    view = views[0]
    assert view.pdist_mean is None
    view.pdist_mean = 1.5
    for clone in (copy.copy(view), copy.deepcopy(view), pickle.loads(pickle.dumps(view))):
        assert clone.cluster_id == 0 and clone.mu == view.mu and clone.pdist_mean == 1.5
        np.testing.assert_array_equal(clone.points, view.points)


def test_split_clusters_length_mismatch():
    cloud = PointCloud([[0, 0], [1, 1]])
    with pytest.raises(DataError):
        split_clusters(cloud, ClusterAssignment([0, 0, 0]))


def test_views_reference_parent_rows():
    # a view's points are its cloud's array: no copies
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    view = ClusterView(cloud)
    assert view.points is cloud.data
    assert (view.size, view.n_dims) == (3, 2)
    cloud.data[2, 0] = 5.0
    assert view.points[2, 0] == 5.0


def test_center_and_scale_hand_case():
    # cluster {(2,2),(4,2)}: centroid (3,2), mu = 1
    cloud = PointCloud([[2, 2], [4, 2]])
    view = ClusterView(cloud)
    np.testing.assert_allclose(center_and_scale(view, [4, 2]), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(
        center_and_scale(view, [[2, 2], [4, 2]]), [[-1, 0], [1, 0]], atol=1e-12
    )


def test_center_and_scale_zero_mean_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.normal(size=(rng.integers(2, 40), rng.integers(1, 6)))
        view = ClusterView(PointCloud(pts))
        scaled = center_and_scale(view, pts)
        assert np.abs(scaled.mean(axis=0)).max() < 1e-10
        # mean norm must be 1 after scaling
        assert abs(np.linalg.norm(scaled, axis=1).mean() - 1.0) < 1e-10


def test_center_and_scale_degenerate():
    cloud = PointCloud([[1, 1], [1, 1]])
    view = ClusterView(cloud)
    assert view.degenerate
    with pytest.raises(DataError, match="degenerate"):
        center_and_scale(view, [1, 1])


def test_center_and_scale_dim_mismatch():
    view = ClusterView(PointCloud([[0, 0], [1, 1]]))
    with pytest.raises(DataError):
        center_and_scale(view, [1, 2, 3])


def test_size_weighted_mean():
    # sizes (1, 3) and values (1.0, 0.5): (1*1 + 3*0.5) / 4
    assert size_weighted_mean([1.0, 0.5], [1, 3]) == pytest.approx(0.625, abs=1e-15)
    with pytest.raises(DataError):
        size_weighted_mean([1.0], [1, 2])
    with pytest.raises(DataError):
        size_weighted_mean([1.0, 1.0], [1, 0])


def test_metric_report_checks_bounds():
    MetricReport(per_cluster={"fa": [0.3, 1.0]}, overall={"i_g_vec": 0.9})
    with pytest.raises(NumericError):
        MetricReport(overall={"i_vec": 1.5})
    with pytest.raises(NumericError):
        MetricReport(per_cluster={"var_lambda": [0.3]})
    with pytest.raises(NumericError, match="not finite"):
        MetricReport(per_cluster={"mean_pairwise_dist": [1.0, float("inf")]})
    with pytest.raises(NumericError, match="not finite"):
        MetricReport(overall={"calinski_harabasz": float("nan")})
    with pytest.raises(DataError):
        MetricReport(per_cluster={"fa": [0.1], "i_vec": [0.1, 0.2]})


def test_metric_report_round_trip():
    report = MetricReport(
        per_cluster={"fa": [0.5]},
        overall={"fa_g": 0.5},
        degenerate=[0],
        metadata={"seed": 7},
    )
    doc = report.to_dict()
    assert doc["global"]["fa_g"] == 0.5
    assert doc["degenerate_clusters"] == [0]
    assert doc["metadata"]["seed"] == 7


# --- numpy's summation tree ---------------------------------------------------


@given(
    n=st.integers(1, 40_000),
    max_len=st.integers(128, 2_000),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_pairwise_sum_replays_numpy_bitwise(n, max_len, seed, scale):
    # the alarm if a numpy upgrade changes how np.add.reduce sums a
    # contiguous float64 array; budgets this small force several tree levels
    x = np.random.default_rng(seed).standard_t(3, n) * scale
    asked = []

    def values(lo, hi):
        asked.append(hi - lo)
        return x[lo:hi]

    total = pairwise_sum(n, values, max_len)
    assert type(total) is np.float64
    assert total.tobytes() == np.add.reduce(x).tobytes()
    assert sum(asked) == n and max(asked) <= max_len


def test_pairwise_sum_leaves_are_at_least_numpys_shortest_split():
    with pytest.raises(ValueError, match="at least 128"):
        pairwise_sum(1000, lambda lo, hi: np.zeros(hi - lo), 127)


# --- scipy's distance kernels ---------------------------------------------------


@st.composite
def point_pairs(draw):
    """Two point sets of one dimension, 1-row and 1-column ones included,
    with values up to 1e154, where a squared distance overflows to inf."""
    d = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-150, 1.0, 1e150, 1e154]))
    element = st.floats(-1.0, 1.0, allow_subnormal=False).map(lambda v: v * scale)
    x = draw(arrays(np.float64, (draw(st.integers(1, 12)), d), elements=element))
    y = draw(arrays(np.float64, (draw(st.integers(1, 12)), d), elements=element))
    return x, y


@given(point_pairs())
def test_distance_kernels_are_scipys_bitwise(pair):
    x, y = pair
    for metric in ("euclidean", "sqeuclidean"):
        assert cdist(x, y, metric).tobytes() == distance.cdist(x, y, metric).tobytes()
        # a row written into a longer buffer, as mean_pairwise_dist streams them
        buf = np.full(len(y) + 3, -1.0)
        row = buf[2:2 + len(y)].reshape(1, -1)
        assert cdist(x[-1:], y, metric, out=row) is row
        assert row.tobytes() == distance.cdist(x[-1:], y, metric).tobytes()
        assert buf[:2].tolist() == [-1.0, -1.0] and buf[-1] == -1.0
    assert cdist(x, y).tobytes() == distance.cdist(x, y).tobytes()
    assert pdist(x).tobytes() == distance.pdist(x).tobytes()


def test_distance_kernels_at_overflow_are_inf():
    x = np.array([[1e154, -1e154], [-1e154, 1e154]])
    assert np.isinf(cdist(x, x)[0, 1]) and np.isinf(distance.cdist(x, x)[0, 1])
    assert np.isinf(pdist(x)).all()


def test_the_installed_scipy_takes_the_direct_path():
    # scipy.spatial.distance's kernels are the ones loaded by themselves: the
    # extension is one module, whichever import loaded it first
    kernels = distance._distance_pybind
    assert core._CDIST == {"euclidean": kernels.cdist_euclidean, "sqeuclidean": kernels.cdist_sqeuclidean}
    assert core._PDIST is kernels.pdist_euclidean


# k-means and silhouette in a fresh interpreter; with argv[1] "fallback" the
# extension cannot be found, so scipy.spatial.distance's own cdist and pdist
# serve them
_KMEANS_AND_SILHOUETTE = """
import importlib.util
import json
import sys

if sys.argv[1] == "fallback":
    find_spec = importlib.util.find_spec

    def no_scipy(name, package=None):
        if name == "scipy":
            raise ImportError("the distance kernels cannot be found")
        return find_spec(name, package)

    importlib.util.find_spec = no_scipy
import numpy as np
from isoclust import core, kmeans, mean_pairwise_dist, silhouette, split_clusters, PointCloud

cloud = PointCloud(np.random.default_rng(11).standard_t(3, size=(600, 3)))
result = kmeans(cloud, 5, seed=3)
views = split_clusters(cloud, result.assignment)
print(json.dumps({
    "pdist": core._PDIST.__module__,
    "labels": result.assignment.labels.tolist(),
    "centroids": result.centroids.tobytes().hex(),
    "inertia": result.inertia.hex(),
    "silhouette": silhouette(views).hex(),
    "mean_pairwise_dist": [mean_pairwise_dist(v).hex() for v in views],
}))
"""


def test_the_fallback_gives_the_same_kmeans_and_silhouette():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    direct, fallback = (
        json.loads(subprocess.run([sys.executable, "-c", _KMEANS_AND_SILHOUETTE, path], env=env, check=True,
                                  capture_output=True, text=True, timeout=120).stdout)
        for path in ("direct", "fallback")
    )
    assert direct.pop("pdist") == "scipy.spatial._distance_pybind"
    assert fallback.pop("pdist") == "scipy.spatial.distance"
    assert direct == fallback
