import json

import numpy as np
import pytest

from isoclust import (
    DataError,
    PointCloud,
    RbfMap,
    minmax_apply,
    minmax_scale,
    pca_project,
    rbf_fit,
    rbf_transform,
)


def cloud_of(points, columns=None) -> PointCloud:
    return PointCloud(np.asarray(points, dtype=float), columns=columns)


# --- min-max scaling ----------------------------------------------------------


def test_minmax_hand_values():
    scaled, record = minmax_scale(cloud_of([[0], [5], [10]]))
    np.testing.assert_allclose(scaled.data[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)
    assert record.col_min[0] == 0.0 and record.col_max[0] == 10.0
    assert not record.constant[0]

    scaled, _ = minmax_scale(cloud_of([[0], [5], [10]]), lo=0.0, hi=1.0)
    np.testing.assert_allclose(scaled.data[:, 0], [0.0, 0.5, 1.0], atol=1e-15)


def test_minmax_range_validation():
    with pytest.raises(DataError):
        minmax_scale(cloud_of([[0], [1]]), lo=1.0, hi=1.0)
    with pytest.raises(DataError):
        minmax_scale(cloud_of([[0], [1]]), lo=2.0, hi=-2.0)


def test_minmax_constant_column_goes_to_midpoint():
    scaled, record = minmax_scale(cloud_of([[7, 0], [7, 2]]), lo=-1.0, hi=1.0)
    assert record.constant.tolist() == [True, False]
    np.testing.assert_allclose(scaled.data[:, 0], [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(scaled.data[:, 1], [-1.0, 1.0], atol=1e-15)


def test_minmax_idempotent_on_own_output():
    rng = np.random.default_rng(5)
    cloud = cloud_of(rng.normal(size=(40, 3)) * [1, 10, 100])
    scaled, _ = minmax_scale(cloud, lo=-1.0, hi=1.0)
    again, record2 = minmax_scale(scaled, lo=-1.0, hi=1.0)
    np.testing.assert_allclose(again.data, scaled.data, atol=1e-12)
    np.testing.assert_allclose(record2.col_min, -1.0, atol=1e-12)
    np.testing.assert_allclose(record2.col_max, 1.0, atol=1e-12)


def test_minmax_apply_extrapolates_with_fitted_bounds():
    _, record = minmax_scale(cloud_of([[0], [10]]))
    out = minmax_apply(record, cloud_of([[20], [5]]))
    np.testing.assert_allclose(out.data[:, 0], [3.0, 0.0], atol=1e-15)
    with pytest.raises(DataError):
        minmax_apply(record, cloud_of([[1, 2]]))


def test_minmax_record_round_trip_dict():
    _, record = minmax_scale(cloud_of([[1, 4], [3, 4]]))
    assert record.col_min.tolist() == [1.0, 4.0]
    assert record.col_max.tolist() == [3.0, 4.0]
    assert record.constant.tolist() == [False, True]
    assert record.lo == -1.0 and record.hi == 1.0


def test_minmax_preserves_column_names():
    scaled, _ = minmax_scale(cloud_of([[0, 1], [2, 3]], columns=["u", "v"]))
    assert scaled.columns == ["u", "v"]


# --- random Fourier features --------------------------------------------------


def test_rbf_fit_deterministic():
    a = rbf_fit(3, 16, gamma=0.5, seed=11)
    b = rbf_fit(3, 16, gamma=0.5, seed=11)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.offsets, b.offsets)
    c = rbf_fit(3, 16, gamma=0.5, seed=12)
    assert not np.array_equal(a.weights, c.weights)


def test_rbf_fit_validation():
    with pytest.raises(DataError):
        rbf_fit(0, 8, gamma=0.5, seed=0)
    with pytest.raises(DataError):
        rbf_fit(3, 0, gamma=0.5, seed=0)
    with pytest.raises(DataError):
        rbf_fit(3, 8, gamma=0.0, seed=0)
    with pytest.raises(DataError):
        RbfMap(weights=np.zeros((2, 4)), offsets=np.zeros(3), gamma=1.0, seed=0)


def test_rbf_transform_closed_forms():
    n_out = 8
    zeros = np.zeros((2, n_out))
    flat = RbfMap(weights=zeros, offsets=np.zeros(n_out), gamma=1.0, seed=0)
    out = rbf_transform(flat, cloud_of([[1, 2], [3, 4]]))
    np.testing.assert_allclose(out.data, np.sqrt(2.0) / np.sqrt(n_out), atol=1e-15)

    dark = RbfMap(weights=zeros, offsets=np.full(n_out, np.pi / 2), gamma=1.0, seed=0)
    out = rbf_transform(dark, cloud_of([[1, 2], [3, 4]]))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    assert out.columns == [f"rbf_{j}" for j in range(n_out)]
    with pytest.raises(DataError):
        rbf_transform(flat, cloud_of([[1, 2, 3]]))


def test_rbf_kernel_approximation():
    gamma = 0.5
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 10)) * 0.5
    y = rng.normal(size=(50, 10)) * 0.5
    fmap = rbf_fit(10, 2048, gamma=gamma, seed=3)
    fx = rbf_transform(fmap, cloud_of(x)).data
    fy = rbf_transform(fmap, cloud_of(y)).data
    approx = (fx * fy).sum(axis=1)
    exact = np.exp(-gamma * ((x - y) ** 2).sum(axis=1))
    assert np.median(np.abs(approx - exact)) < 0.05


def test_rbf_feature_norm_near_one():
    rng = np.random.default_rng(6)
    cloud = cloud_of(rng.normal(size=(200, 5)))
    feats = rbf_transform(rbf_fit(5, 1024, gamma=1.0, seed=1), cloud).data
    assert np.mean((feats**2).sum(axis=1)) == pytest.approx(1.0, rel=0.05)


def test_rbf_map_json_round_trip():
    fmap = rbf_fit(4, 32, gamma=0.25, seed=9)
    text = fmap.to_json()
    back = RbfMap.from_json(text)
    np.testing.assert_array_equal(back.weights, fmap.weights)
    np.testing.assert_array_equal(back.offsets, fmap.offsets)
    assert back.gamma == fmap.gamma and back.seed == fmap.seed
    assert back.to_json() == text
    with pytest.raises(DataError):
        RbfMap.from_json("{\"kind\": \"other\"}")
    doc = json.loads(text)
    for bad in (
        text[:-1],
        "[1, 2]",
        json.dumps({k: v for k, v in doc.items() if k != "offsets"}),
        json.dumps({**doc, "seed": "nine"}),
        json.dumps({**doc, "weights": [[None] * 32] * 4}),
        json.dumps({**doc, "weights": [[1.0, 2.0], [3.0]]}),
    ):
        with pytest.raises(DataError, match="RBF map|finite"):
            RbfMap.from_json(bad)


# --- PCA projection -----------------------------------------------------------


def test_pca_columns_and_variance_order():
    rng = np.random.default_rng(12)
    base = rng.normal(size=(100, 2)) @ np.array([[3.0, 0.0], [0.0, 0.5]])
    rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    cloud = cloud_of(base @ rot.T + [5, -2], columns=["x", "y"])
    proj = pca_project(cloud, 2)
    assert proj.columns == ["pc1", "pc2"]
    np.testing.assert_allclose(proj.data.mean(axis=0), 0.0, atol=1e-10)
    variances = proj.data.var(axis=0)
    assert variances[0] > variances[1]


def test_pca_full_rank_is_rigid():
    # full-dimensional projection is an orthogonal map of centered data,
    # so pairwise distances are preserved
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(30, 4))
    proj = pca_project(cloud_of(pts), 4)
    from scipy.spatial.distance import pdist

    np.testing.assert_allclose(pdist(proj.data), pdist(pts), atol=1e-10)


def test_pca_deterministic_sign():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(50, 3))
    a = pca_project(cloud_of(pts), 2)
    b = pca_project(cloud_of(pts.copy()), 2)
    np.testing.assert_array_equal(a.data, b.data)
    # the convention itself: each axis's largest-magnitude loading is
    # positive, so pc1 of an elongated x-axis cloud increases with x
    line = cloud_of(np.column_stack([np.linspace(0, 9, 10), np.zeros(10)]))
    proj = pca_project(line, 1)
    assert proj.data[-1, 0] > proj.data[0, 0]


def test_pca_dims_validation():
    cloud = cloud_of(np.random.default_rng(0).normal(size=(8, 3)))
    with pytest.raises(DataError):
        pca_project(cloud, 0)
    with pytest.raises(DataError):
        pca_project(cloud, 4)
    # N centered points span at most N - 1 axes: one point has none, two one
    for rows, dims in [(1, 1), (2, 2)]:
        with pytest.raises(DataError, match=rf"min\(points - 1, dims\) = {rows - 1} axes"):
            pca_project(cloud_of(np.arange(rows * 3.0).reshape(rows, 3) ** 2), dims)
    assert pca_project(cloud_of([[1, 2, 3], [4, 8, 5]]), 1).data.shape == (2, 1)
