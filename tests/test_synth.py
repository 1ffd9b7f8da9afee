import numpy as np
import pytest

from isoclust import (
    ClusterView,
    DataError,
    L_ARM_WIDTH,
    SHAPE_KINDS,
    anisotropic_gaussian,
    gaussian_cluster,
    isotropy_rnd,
    isotropy_vec,
    shape_cluster,
)


def as_view(cloud) -> ClusterView:
    return ClusterView(cloud)


def test_gaussian_cluster_shape_and_determinism():
    a = gaussian_cluster(5, 100, seed=3)
    assert a.data.shape == (100, 5)
    b = gaussian_cluster(5, 100, seed=3)
    np.testing.assert_array_equal(a.data, b.data)
    c = gaussian_cluster(5, 100, seed=4)
    assert not np.array_equal(a.data, c.data)


def test_gaussian_cluster_moments():
    cloud = gaussian_cluster(3, 20000, mean=2.0, std=0.5, seed=0)
    assert cloud.data.mean() == pytest.approx(2.0, abs=0.02)
    assert cloud.data.std() == pytest.approx(0.5, rel=0.05)


def test_gaussian_cluster_validation():
    with pytest.raises(DataError):
        gaussian_cluster(0, 10)
    with pytest.raises(DataError):
        gaussian_cluster(3, 0)
    with pytest.raises(DataError):
        gaussian_cluster(3, 10, std=0.0)


def test_anisotropic_gaussian_per_axis_stds():
    stds = [3.0, 1.0, 0.2]
    cloud = anisotropic_gaussian(3, 20000, stds, seed=1)
    np.testing.assert_allclose(cloud.data.std(axis=0), stds, rtol=0.05)
    np.testing.assert_allclose(cloud.data.mean(axis=0), 0.0, atol=0.1)


def test_anisotropic_gaussian_validation():
    with pytest.raises(DataError):
        anisotropic_gaussian(3, 10, [1.0, 2.0])  # wrong length
    with pytest.raises(DataError):
        anisotropic_gaussian(2, 10, [1.0, 0.0])
    with pytest.raises(DataError):
        anisotropic_gaussian(2, 0, [1.0, 1.0])


def test_shape_cluster_validation():
    assert SHAPE_KINDS == ("s_curve", "l_shape")
    with pytest.raises(DataError):
        shape_cluster("ring", 10)
    with pytest.raises(DataError):
        shape_cluster("s_curve", 0)
    with pytest.raises(DataError):
        shape_cluster("s_curve", 10, noise=-0.1)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: gaussian_cluster(3, 10, mean=np.nan), "mean"),
        (lambda: gaussian_cluster(3, 10, mean=-np.inf), "mean"),
        (lambda: gaussian_cluster(3, 10, std=np.nan), "std"),
        (lambda: gaussian_cluster(3, 10, std=np.inf), "std"),
        (lambda: anisotropic_gaussian(2, 10, [1.0, np.nan]), "stds"),
        (lambda: anisotropic_gaussian(2, 10, [np.inf, 1.0]), "stds"),
        (lambda: shape_cluster("s_curve", 10, noise=np.nan), "noise"),
        (lambda: shape_cluster("l_shape", 10, noise=np.inf), "noise"),
    ],
)
def test_generators_name_a_parameter_that_is_not_finite(make, name):
    # a NaN noise compares False with 0 either way, and once drew no noise at all
    with pytest.raises(DataError, match=f"^{name} must be finite"):
        make()


def test_shape_cluster_deterministic():
    for kind in SHAPE_KINDS:
        a = shape_cluster(kind, 200, seed=9)
        b = shape_cluster(kind, 200, seed=9)
        np.testing.assert_array_equal(a.data, b.data)
        assert a.data.shape == (200, 2)


def test_s_curve_points_lie_on_curve():
    cloud = shape_cluster("s_curve", 300, noise=0.0, seed=2)
    t = np.linspace(-1.5 * np.pi, 1.5 * np.pi, 300001)
    curve = np.column_stack([np.sin(t), np.sign(t) * (np.cos(t) - 1.0)])
    for p in cloud.data:
        d = np.min(np.linalg.norm(curve - p, axis=1))
        assert d < 1e-3
    assert np.all(np.abs(cloud.data[:, 0]) <= 1.0 + 1e-12)
    assert np.all(np.abs(cloud.data[:, 1]) <= 2.0 + 1e-12)


def test_s_curve_noise_spreads_points():
    clean = shape_cluster("s_curve", 500, noise=0.0, seed=3)
    noisy = shape_cluster("s_curve", 500, noise=0.05, seed=3)
    assert not np.array_equal(clean.data, noisy.data)
    # displacement is Gaussian with deviation 0.05 per axis
    rms = np.sqrt(np.mean((noisy.data - clean.data) ** 2))
    assert rms == pytest.approx(0.05, rel=0.15)


def test_l_shape_region_membership():
    cloud = shape_cluster("l_shape", 1000, seed=4)
    x, y = cloud.data[:, 0], cloud.data[:, 1]
    assert np.all((x >= 0) & (x <= 1) & (y >= 0) & (y <= 1))
    assert np.all((x <= L_ARM_WIDTH) | (y <= L_ARM_WIDTH))
    # both arms are populated
    assert np.any((x <= L_ARM_WIDTH) & (y > 2 * L_ARM_WIDTH))
    assert np.any((y <= L_ARM_WIDTH) & (x > 2 * L_ARM_WIDTH))


def test_l_shape_random_probes_beat_eigenvector_probes():
    # the L's eigenvectors sit along the diagonal symmetry axes and miss
    # the arm directions, so dense random probing finds a smaller ratio
    for seed in range(5):
        view = as_view(shape_cluster("l_shape", 400, seed=seed))
        assert isotropy_rnd(view, count=1000, seed=seed) < isotropy_vec(view)
