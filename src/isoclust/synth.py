"""Synthetic cluster generators for experiments and tests."""

from __future__ import annotations

import numpy as np

from .core import DataError, PointCloud

SHAPE_KINDS = ("s_curve", "l_shape")

# Arm width of the L shape; arms have unit length.  Thin arms keep the
# L geometry that separates eigenvector probing from random probing.
L_ARM_WIDTH = 0.2


def check_cluster_shape(n_dims: int, count: int) -> None:
    """A sampled cluster needs ``count >= 1`` points in ``n_dims >= 1``
    dimensions; anything else is a ``DataError``."""
    if count < 1 or n_dims < 1:
        raise DataError(f"need count >= 1 and n_dims >= 1, got ({count}, {n_dims})")


def gaussian_cluster(
    n_dims: int, count: int, mean: float = 0.0, std: float = 1.0, seed: int = 0
) -> PointCloud:
    """Isotropic Gaussian cluster: count points, a finite mean and a finite per-axis deviation std > 0."""
    check_cluster_shape(n_dims, count)
    if not np.isfinite(mean):
        raise DataError(f"mean must be finite, got {mean}")
    if not 0 < std < np.inf:
        raise DataError(f"std must be finite and > 0, got {std}")
    rng = np.random.default_rng(seed)
    return PointCloud(rng.normal(mean, std, size=(count, n_dims)))


def anisotropic_gaussian(n_dims: int, count: int, stds, seed: int = 0) -> PointCloud:
    """Axis-aligned Gaussian cluster with one finite deviation > 0 per axis."""
    check_cluster_shape(n_dims, count)
    stds = np.asarray(stds, dtype=np.float64)
    if stds.shape != (n_dims,):
        raise DataError(f"need one std per axis: got shape {stds.shape} for {n_dims} dims")
    if not np.all((0 < stds) & (stds < np.inf)):
        raise DataError(f"stds must be finite and > 0, got {stds.tolist()}")
    rng = np.random.default_rng(seed)
    return PointCloud(rng.standard_normal((count, n_dims)) * stds)


def _s_curve(count: int, rng: np.random.Generator) -> np.ndarray:
    t = rng.uniform(-1.5 * np.pi, 1.5 * np.pi, size=count)
    return np.column_stack([np.sin(t), np.sign(t) * (np.cos(t) - 1.0)])


def _l_shape(count: int, rng: np.random.Generator) -> np.ndarray:
    # Uniform over the union of two unit-length arms meeting at the
    # origin, via rejection from the unit square.
    pts = np.empty((count, 2))
    have = 0
    while have < count:
        cand = rng.uniform(0.0, 1.0, size=(2 * (count - have) + 8, 2))
        keep = cand[(cand[:, 0] <= L_ARM_WIDTH) | (cand[:, 1] <= L_ARM_WIDTH)]
        take = min(len(keep), count - have)
        pts[have : have + take] = keep[:take]
        have += take
    return pts


def shape_cluster(kind: str, count: int, noise: float = 0.0, seed: int = 0) -> PointCloud:
    """2-D benchmark shapes: "s_curve" or "l_shape".

    s_curve samples (sin t, sign(t)(cos t - 1)) uniformly in
    t over [-3 pi / 2, 3 pi / 2]; l_shape samples uniformly over two
    axis-aligned unit arms meeting at the origin.  Gaussian noise of
    the given deviation (finite, >= 0) is added when noise > 0.
    """
    if kind not in SHAPE_KINDS:
        raise DataError(f"unknown shape {kind!r}, expected one of {SHAPE_KINDS}")
    check_cluster_shape(2, count)
    if not 0 <= noise < np.inf:
        raise DataError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    pts = _s_curve(count, rng) if kind == "s_curve" else _l_shape(count, rng)
    if noise > 0:
        pts = pts + rng.normal(0.0, noise, size=pts.shape)
    return PointCloud(pts)
