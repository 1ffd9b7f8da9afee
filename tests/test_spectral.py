import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from isoclust import (
    ClusterView,
    DataError,
    PointCloud,
    fractional_anisotropy,
    spectral_summary,
    var_lambda,
)
from isoclust import core
from isoclust.zmeasure import DirectionSet, isotropy_given_b, isotropy_vec


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


@st.composite
def eigen_clusters(draw):
    """A non-degenerate cluster on either side of n = |C|: Gaussian or t3
    draws, of full rank or not, with members duplicated or not, rescaled
    by a power of ten."""
    size, dims = draw(st.integers(2, 24)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.standard_t(3, size=(size, dims)) if draw(st.booleans()) else rng.normal(size=(size, dims))
    rank = draw(st.integers(1, dims))
    if rank < dims:
        pts = pts[:, :rank] @ rng.normal(size=(rank, dims))
    copies = draw(st.integers(0, size))
    pts = np.vstack([pts, pts[:copies]]) * 10.0 ** draw(st.integers(-100, 100))
    view = view_of(pts)
    assume(not view.degenerate)
    return view


def numpy_oracle(view):
    """The summary's eigenvalues (clipped) and eigenvectors, straight from
    ``np.linalg.eigh`` and, on the Gram side, ``eigvalsh``."""
    centered = view.points - view.centroid
    vals, vecs = np.linalg.eigh(centered.T @ centered)
    if view.n_dims > view.size:
        vals = np.zeros(view.n_dims)
        vals[view.n_dims - view.size:] = np.linalg.eigvalsh(centered @ centered.T)
    return np.clip(vals[::-1], 0.0, None), vecs[:, ::-1].T


@pytest.mark.parametrize("kernel", ["in_place", "numpy_linalg"])
@given(view=eigen_clusters())
def test_eigenbasis_is_numpys_bitwise(kernel, view):
    with pytest.MonkeyPatch.context() as mp:
        if kernel == "numpy_linalg":
            mp.setattr(core, "_DSYEVD", None)
        s = spectral_summary(view)
        vectors = s.vectors
        i_vec = isotropy_vec(view, s)
    values, oracle_vectors = numpy_oracle(view)
    np.testing.assert_array_equal(s.eigenvalues, values)
    np.testing.assert_array_equal(vectors, oracle_vectors)
    # the probe product rounds by its operand's layout, not only its values
    assert i_vec == isotropy_given_b(view, DirectionSet(oracle_vectors))


def test_eigh_rejects_what_lapack_cannot_read_in_place():
    for bad in (np.eye(3)[:, :2].copy(), np.asfortranarray(np.ones((3, 3)) + np.eye(3)[::-1]),
                np.eye(3, dtype=np.float32), np.eye(4)[::2, ::2]):
        with pytest.raises(ValueError, match="square, C-contiguous, writable float64"):
            core.eigh(bad)


EIGENBASIS_GROWTH = """
import sys
import numpy as np
from isoclust import ClusterView, PointCloud, spectral_summary

def status(key):
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key))

n = int(sys.argv[1])
spectral_summary(ClusterView(PointCloud(np.random.default_rng(1).normal(size=(5, 30))))).vectors
summary = spectral_summary(ClusterView(PointCloud(np.random.default_rng(0).normal(size=(20, n)))))
before = status("VmRSS:")
summary.vectors
print(status("VmHWM:") - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the Linux peak resident set")
def test_an_eigenbasis_holds_three_n_squared_floats_in_flight():
    # the scatter, LAPACK's 2 n^2 workspace and no copy of either:
    # np.linalg.eigh adds its own copy in and its eigenvectors out, 5 n^2
    n = 1500
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", EIGENBASIS_GROWTH, str(n)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 4 * n * n * 8
