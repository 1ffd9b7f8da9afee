"""Deterministic Lloyd k-means with k-means++ seeding.

Written in-repo rather than wrapped from a library because the
contracts here are strict: byte-reproducible results for a seed,
nearest-centroid ties broken by lowest id, an empty cluster repaired
by taking the point farthest from its centroid among clusters that keep
another member (and flagged), and the per-iteration inertia sequence
exposed and checked to be finite and nonincreasing.

Lloyd's iteration stops at its exact fixed point, where recomputing the
centroids leaves every value unchanged, or after ``max_iter``
iterations; with no tolerance, where the origin lies does not matter.

Besides the data and the N x k distances, a run holds one N x d array
at a time: the copy whose rows are sorted to count the distinct points,
the squares of the k-means++ distances (one buffer for every centre)
and the squares of the final inertia, formed in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import ClusterAssignment, DataError, NumericError, PointCloud

MAX_ITER = 300


@dataclass
class KMeansResult:
    assignment: ClusterAssignment
    centroids: np.ndarray
    inertia: float
    n_iter: int
    reseeded: bool
    inertia_history: list[float]


def _squares(data: np.ndarray, centre: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(data - centre) ** 2`` written into ``out``, which may be ``centre``."""
    np.subtract(data, centre, out=out)
    return np.multiply(out, out, out=out)


def _plus_plus_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(data)
    centroids = np.empty((k, data.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = data[first]
    squares = np.empty_like(data)
    # an overflowing squared distance becomes inf; only a non-finite sum,
    # checked below, is an error
    with np.errstate(over="ignore"):
        d2 = _squares(data, centroids[0], squares).sum(axis=1)
        for i in range(1, k):
            total = d2.sum()
            if not np.isfinite(total):
                raise NumericError("k-means++ squared distances overflow float64")
            if total > 0:
                probs = d2 / total
                choice = int(rng.choice(n, p=probs))
            else:
                choice = int(rng.integers(n))
            centroids[i] = data[choice]
            np.minimum(d2, _squares(data, centroids[i], squares).sum(axis=1), out=d2)
    return centroids


def _count_distinct_rows(data: np.ndarray) -> int:
    """The number of distinct rows, as ``np.unique(data, axis=0)`` counts
    them, from one copy: each row's bytes sorted as one void value.
    Adding +0.0 turns -0.0 into 0.0, which compares equal to it but has
    other bytes; every other finite value has bytes of its own."""
    rows = np.add(data, 0.0, order="C")
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def _assign(data: np.ndarray, centroids: np.ndarray):
    """Nearest-centroid labels, squared distances, sizes and a reseed flag;
    a reseeded cluster's centroid moves in place onto the point it takes."""
    d2 = cdist(data, centroids, "sqeuclidean")
    labels = d2.argmin(axis=1)  # argmin takes the lowest id on ties
    point_d2 = d2[np.arange(len(data)), labels]
    counts = np.bincount(labels, minlength=len(centroids))
    empty = np.flatnonzero(counts == 0)
    for cluster in empty:
        far = int(np.where(counts[labels] > 1, point_d2, -1.0).argmax())
        counts[labels[far]] -= 1
        counts[cluster] = 1
        centroids[cluster] = data[far]
        labels[far] = cluster
        point_d2[far] = 0.0
    return labels, point_d2, counts, empty.size > 0


def kmeans(
    cloud: PointCloud,
    k: int,
    seed: int = 0,
    max_iter: int = MAX_ITER,
    init=None,
) -> KMeansResult:
    """Cluster a cloud into k parts.

    ``init`` may be an explicit (k, n_dims) centroid array; by default
    k-means++ seeding is used.  Deterministic for fixed inputs and
    seed.  The result's label ids are contiguous 0..k-1 and every
    cluster is non-empty (see the module's reseed rule).  A result
    that stopped before ``max_iter`` without a reseed has centroids
    equal to its clusters' means and labels equal to its
    nearest-centroid assignment.  Where the spread is about 1e-15 of the
    offset, points a few dozen ULPs apart, the rounded means need not
    lower the inertia: the loop can cycle until ``max_iter`` or raise
    the nonincreasing-inertia ``NumericError``.  An inertia
    that overflows float64 is a ``NumericError``, and so are k-means++
    squared distances whose sum overflows.  That sum depends on the
    first, seeded centre, so the outcome can depend on the seed: on the
    points -0.8e154, 0, 0.8e154, 1 with k = 3, seeds 0-3 start away from
    an extreme and reach inertia 0.5, while seeds 4-5 start at one and
    raise.  ``max_iter`` below 1 is a ``DataError``.
    """
    data = cloud.data
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if max_iter < 1:
        raise DataError(f"max_iter must be >= 1, got {max_iter}")
    if k > cloud.n_points:
        raise DataError(f"k = {k} exceeds the number of points ({cloud.n_points})")
    n_distinct = _count_distinct_rows(data)
    if k > n_distinct:
        raise DataError(f"k = {k} exceeds the number of distinct points ({n_distinct})")

    rng = np.random.default_rng(seed)
    if init is None:
        centroids = _plus_plus_init(data, k, rng)
    else:
        centroids = np.asarray(init, dtype=np.float64).copy()
        if centroids.shape != (k, cloud.n_dims):
            raise DataError(f"init centroids must have shape ({k}, {cloud.n_dims})")

    reseeded = False
    history: list[float] = []
    for iteration in range(1, max_iter + 1):
        labels, point_d2, counts, moved = _assign(data, centroids)
        reseeded |= moved

        inertia = float(point_d2.sum())
        if not np.isfinite(inertia):
            raise NumericError(f"inertia {inertia} is not finite at iteration {iteration}")
        if history and inertia > history[-1] * (1 + 1e-9) + 1e-12:
            raise NumericError(
                f"inertia increased from {history[-1]} to {inertia} at iteration {iteration}"
            )
        history.append(inertia)

        # each column summed in point order from +0.0: the same rounding as np.add.at
        new_centroids = np.stack(
            [np.bincount(labels, weights=data[:, j], minlength=k) for j in range(data.shape[1])], axis=1
        )
        new_centroids /= counts[:, None]

        converged = np.array_equal(new_centroids, centroids)
        centroids = new_centroids
        if converged:
            break

    labels, _, _, moved = _assign(data, centroids)
    reseeded |= moved
    diff = centroids[labels]
    inertia = float(_squares(data, diff, diff).sum())

    return KMeansResult(
        assignment=ClusterAssignment(labels),
        centroids=centroids,
        inertia=inertia,
        n_iter=iteration,
        reseeded=reseeded,
        inertia_history=history,
    )
