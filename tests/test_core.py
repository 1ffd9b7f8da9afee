import numpy as np
import pytest

from isoclust import (
    ClusterAssignment,
    ClusterView,
    DataError,
    MetricReport,
    NumericError,
    PointCloud,
    center_and_scale,
    size_weighted_mean,
    split_clusters,
)


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


def test_assignment_rejects_gaps_and_negatives():
    with pytest.raises(DataError, match="non-contiguous"):
        ClusterAssignment([0, 2, 2])
    with pytest.raises(DataError):
        ClusterAssignment([-1, 0, 1])
    with pytest.raises(DataError):
        ClusterAssignment([0.5, 1.0])
    with pytest.raises(DataError):
        ClusterAssignment([])


def test_split_clusters_orders_by_id():
    cloud = PointCloud([[0, 0], [10, 0], [1, 0], [11, 0]])
    views = split_clusters(cloud, ClusterAssignment([0, 1, 0, 1]))
    assert [v.cluster_id for v in views] == [0, 1]
    assert views[0].indices.tolist() == [0, 2]
    assert views[1].indices.tolist() == [1, 3]


def test_split_clusters_length_mismatch():
    cloud = PointCloud([[0, 0], [1, 1]])
    with pytest.raises(DataError):
        split_clusters(cloud, ClusterAssignment([0, 0, 0]))


def test_views_reference_parent_rows():
    # a view must observe later changes to the parent cloud: no copies
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    view = ClusterView(cloud, [0, 2])
    cloud.data[2, 0] = 5.0
    assert view.points[1, 0] == 5.0


def test_center_and_scale_hand_case():
    # cluster {(2,2),(4,2)}: centroid (3,2), mu = 1
    cloud = PointCloud([[2, 2], [4, 2]])
    view = ClusterView(cloud, [0, 1])
    np.testing.assert_allclose(center_and_scale(view, [4, 2]), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(
        center_and_scale(view, [[2, 2], [4, 2]]), [[-1, 0], [1, 0]], atol=1e-12
    )


def test_center_and_scale_zero_mean_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.normal(size=(rng.integers(2, 40), rng.integers(1, 6)))
        view = ClusterView(PointCloud(pts), np.arange(len(pts)))
        scaled = center_and_scale(view, pts)
        assert np.abs(scaled.mean(axis=0)).max() < 1e-10
        # mean norm must be 1 after scaling
        assert abs(np.linalg.norm(scaled, axis=1).mean() - 1.0) < 1e-10


def test_center_and_scale_degenerate():
    cloud = PointCloud([[1, 1], [1, 1]])
    view = ClusterView(cloud, [0, 1])
    assert view.degenerate
    with pytest.raises(DataError, match="degenerate"):
        center_and_scale(view, [1, 1])


def test_center_and_scale_dim_mismatch():
    view = ClusterView(PointCloud([[0, 0], [1, 1]]), [0, 1])
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
