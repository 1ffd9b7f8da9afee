import numpy as np
import pytest

from isoclust import (
    ClusterView,
    DataError,
    PointCloud,
    fractional_anisotropy,
    spectral_summary,
    var_lambda,
)


def view_of(points) -> ClusterView:
    pts = np.asarray(points, dtype=float)
    return ClusterView(PointCloud(pts))


CROSS = [[1, 0], [-1, 0], [0, 1], [0, -1]]
COLLINEAR = [[1, 0], [-1, 0]]


def test_cross_spectrum():
    s = spectral_summary(view_of(CROSS))
    np.testing.assert_allclose(s.eigenvalues, [2.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(s.lambdas, [0.5, 0.5], atol=1e-12)
    assert not s.degenerate


def test_collinear_spectrum():
    s = spectral_summary(view_of(COLLINEAR))
    np.testing.assert_allclose(s.eigenvalues, [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(s.lambdas, [1.0, 0.0], atol=1e-12)


def test_eigenvalues_sorted_and_normalized():
    rng = np.random.default_rng(5)
    for _ in range(25):
        pts = rng.normal(size=(rng.integers(2, 30), rng.integers(1, 8)))
        s = spectral_summary(view_of(pts))
        assert np.all(np.diff(s.eigenvalues) <= 1e-12)
        assert np.all(s.eigenvalues >= 0)
        assert abs(s.lambdas.sum() - 1.0) < 1e-12


def test_gram_route_matches_direct_scatter():
    # more dims than points: the small Gram matrix must reproduce the
    # scatter spectrum, zero-padded to n
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(20, 50))
    s = spectral_summary(view_of(pts))
    centered = pts - pts.mean(axis=0)
    direct = np.linalg.eigvalsh(centered.T @ centered)[::-1]
    assert s.eigenvalues.size == 50
    np.testing.assert_allclose(s.eigenvalues, np.clip(direct, 0, None), atol=1e-8)
    assert np.all(s.eigenvalues[20:] == 0.0)


def test_eigenvectors_orthonormal_and_consistent():
    rng = np.random.default_rng(13)
    for shape in [(30, 4), (10, 25)]:  # scatter route and Gram route
        pts = rng.normal(size=shape)
        view = view_of(pts)
        s = spectral_summary(view)
        vecs = s.vectors
        n = shape[1]
        assert vecs.shape == (n, n)
        np.testing.assert_allclose(vecs @ vecs.T, np.eye(n), atol=1e-8)
        centered = pts - pts.mean(axis=0)
        scatter = centered.T @ centered
        for i in range(n):
            residual = scatter @ vecs[i] - s.eigenvalues[i] * vecs[i]
            assert np.linalg.norm(residual) < 1e-6 * max(1.0, s.eigenvalues[0])


def test_single_point_degenerate():
    # var_lambda is exactly its sentinel 0, although the float variance of
    # the uniform 1/n spectrum is not for every n (n = 7 is the first)
    for n in (2, 7, 3000):
        s = spectral_summary(view_of([np.arange(3.0, 3.0 + n)]))
        assert s.degenerate
        np.testing.assert_array_equal(s.eigenvalues, np.zeros(n))
        np.testing.assert_allclose(s.lambdas, np.full(n, 1 / n))
        assert fractional_anisotropy(s) == 0.0
        assert var_lambda(s) == 0.0
        np.testing.assert_array_equal(s.vectors, np.eye(n))


def test_clipped_eigenvalues_are_counted():
    # points on a line in 3-D (scatter side) and 5 points in 8-D (Gram side):
    # the zero eigenvalues come out of the solver as round-off of either sign
    rng = np.random.default_rng(0)
    line = rng.normal(size=(10, 1)) * rng.normal(size=(1, 3))
    wide = np.random.default_rng(0).normal(size=(5, 8))
    # (points, eigenvalues that are zero in exact arithmetic and may come out negative)
    for pts, null in ((line, 2), (wide, 1)):
        s = spectral_summary(view_of(pts))
        assert 0 < s.clipped <= null
        assert 0.0 < s.clipped_largest < 1e-12 * s.eigenvalues[0]
        assert np.all(s.eigenvalues >= 0)
    exact = spectral_summary(view_of(CROSS))
    assert exact.clipped == 0 and exact.clipped_largest == 0.0


def test_var_lambda_hand_values():
    assert var_lambda(np.array([0.6, 0.3, 0.1])) == pytest.approx(0.042222222222222, abs=1e-12)
    assert var_lambda(np.array([1.0, 0.0])) == pytest.approx(0.25, abs=1e-15)
    for n in range(1, 9):
        assert var_lambda(np.full(n, 1 / n)) == pytest.approx(0.0, abs=1e-15)


def test_var_lambda_batch_and_bounds():
    rng = np.random.default_rng(3)
    lam = rng.dirichlet(np.ones(6), size=500)
    out = var_lambda(lam)
    assert out.shape == (500,)
    assert np.all(out >= 0) and np.all(out <= 0.25)


def test_var_lambda_rejects_unnormalized():
    with pytest.raises(DataError):
        var_lambda(np.array([0.5, 0.2]))
    with pytest.raises(DataError):
        var_lambda(np.array([1.5, -0.5]))
    with pytest.raises(DataError, match="empty eigenvalue set"):
        var_lambda(np.array([]))


def test_fa_hand_values():
    assert fractional_anisotropy(np.array([1.0, 0.0])) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert fractional_anisotropy(np.array([1.0, 0.0]), normalized=True) == pytest.approx(1.0, abs=1e-12)
    # sqrt(1 - (1/3)^2 / (0.38/3)), worked by hand
    assert fractional_anisotropy(np.array([0.5, 0.3, 0.2])) == pytest.approx(0.3504383220252315, abs=1e-12)
    # 1/n is not exactly representable for n = 3 or 7, so the uniform
    # spectrum lands within an ulp of 0 rather than on it
    for n in (2, 3, 7):
        assert fractional_anisotropy(np.full(n, 1 / n)) == pytest.approx(0.0, abs=1e-15)


def test_fa_rejects_a_batch():
    with pytest.raises(DataError, match="expects a single eigenvalue set"):
        fractional_anisotropy(np.array([[1.0, 0.0], [0.5, 0.5]]))


def test_fa_one_hot_caps():
    for n in (2, 3, 10):
        lam = np.zeros(n)
        lam[0] = 1.0
        assert fractional_anisotropy(lam) == pytest.approx(np.sqrt(1 - 1 / n), abs=1e-12)
        assert fractional_anisotropy(lam, normalized=True) == pytest.approx(1.0, abs=1e-12)


def test_fa_normalized_one_dimensional_cluster_is_zero():
    # one eigenvalue: sqrt(n / (n - 1)) has no value at n = 1
    summary = spectral_summary(view_of([[0.0], [1.0], [3.0]]))
    assert fractional_anisotropy(summary, normalized=True) == 0.0


def test_fa_bounds_random():
    rng = np.random.default_rng(21)
    for _ in range(200):
        lam = rng.dirichlet(np.ones(rng.integers(2, 12)))
        raw = fractional_anisotropy(lam)
        norm = fractional_anisotropy(lam, normalized=True)
        assert 0.0 <= raw <= norm <= 1.0


def test_spectrum_invariant_to_rigid_motion_and_scale():
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = rng.integers(2, 7)
        pts = rng.normal(size=(40, n))
        base = spectral_summary(view_of(pts))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        alpha = rng.uniform(0.1, 10)
        moved = alpha * pts @ q.T + rng.normal(size=n)
        other = spectral_summary(view_of(moved))
        np.testing.assert_allclose(other.lambdas, base.lambdas, atol=1e-8)
        assert fractional_anisotropy(other) == pytest.approx(fractional_anisotropy(base), abs=1e-8)
        assert var_lambda(other) == pytest.approx(var_lambda(base), abs=1e-8)

