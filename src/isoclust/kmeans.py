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

Besides the data and the N x k distances, a run holds one block of
about 256 KiB, never an N x d array: the distinct points are counted
block by block and only up to k, and the squares behind the k-means++
distances and the final inertia are formed a block of rows at a time.
The final inertia is bitwise the sum of the whole N x d array of
squares, because ``core.pairwise_sum`` replays numpy's summation tree.
The squared distances come from ``core.cdist``, scipy's compiled
``sqeuclidean`` kernel, which ``core`` loads by itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClusterAssignment, DataError, NumericError, PointCloud, block_rows, cdist, pairwise_sum

MAX_ITER = 300
# Byte budget of one block of rows (or of squares): what a run holds besides
# the data, its N x k distances and its N-long vectors.
_BLOCK_BYTES = 256 * 2**10


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


def _row_squares(data: np.ndarray, centre: np.ndarray):
    """Each block of rows' start and its rows' squared distances to
    ``centre``.  ``sum(axis=1)`` reduces each row alone, so the values are
    those of the whole N x d array of squares."""
    rows = block_rows(data.shape[1], _BLOCK_BYTES)
    buf = np.empty((min(rows, len(data)), data.shape[1]))
    for lo in range(0, len(data), rows):
        block = data[lo:lo + rows]
        yield lo, _squares(block, centre, buf[:len(block)]).sum(axis=1)


def _plus_plus_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(data)
    centroids = np.empty((k, data.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = data[first]
    d2 = np.empty(n)
    # an overflowing squared distance becomes inf; only a non-finite sum,
    # checked below, is an error
    with np.errstate(over="ignore"):
        for lo, sums in _row_squares(data, centroids[0]):
            d2[lo:lo + len(sums)] = sums
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
            for lo, sums in _row_squares(data, centroids[i]):
                nearest = d2[lo:lo + len(sums)]
                np.minimum(nearest, sums, out=nearest)
    return centroids


def _count_distinct_rows(data: np.ndarray, at_most: int) -> int:
    """The number of distinct rows, as ``np.unique(data, axis=0)`` counts
    them, or ``at_most`` if there are at least that many.

    Reads a block of rows at a time and keeps the distinct rows seen so
    far (fewer than ``at_most``) as sorted byte keys.  Adding +0.0 turns
    -0.0 into 0.0, so two finite rows have equal keys exactly when they
    are ``==``.
    """
    width = np.dtype((np.void, 8 * data.shape[1]))
    rows = block_rows(data.shape[1], _BLOCK_BYTES)
    seen = np.empty(0, dtype=width)
    for lo in range(0, len(data), rows):
        block = np.add(data[lo:lo + rows], 0.0, order="C").view(width).ravel()
        keys = np.concatenate([seen, block])
        keys.sort()
        seen = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        if len(seen) >= at_most:
            return at_most
    return len(seen)


def _inertia(data: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    """``((data - centroids[labels]) ** 2).sum()``, bitwise, from one block
    of squares at a time (see ``core.pairwise_sum``)."""
    n_dims = data.shape[1]
    leaf = _BLOCK_BYTES // 8
    # a run of ``leaf`` flat entries touches at most this many rows
    buf = np.empty((min(leaf // n_dims + 2, len(data)), n_dims))

    def squares(lo: int, hi: int) -> np.ndarray:
        r0, r1 = lo // n_dims, -(-hi // n_dims)
        # mode="clip" writes straight into out; "raise" would buffer a copy
        block = np.take(centroids, labels[r0:r1], axis=0, out=buf[:r1 - r0], mode="clip")
        return _squares(data[r0:r1], block, block).ravel()[lo - r0 * n_dims:hi - r0 * n_dims]

    return float(pairwise_sum(data.size, squares, leaf))


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
    n_distinct = _count_distinct_rows(data, at_most=k)
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
    inertia = _inertia(data, centroids, labels)

    return KMeansResult(
        assignment=ClusterAssignment(labels),
        centroids=centroids,
        inertia=inertia,
        n_iter=iteration,
        reseeded=reseeded,
        inertia_history=history,
    )
