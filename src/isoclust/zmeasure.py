"""Directional isotropy measures.

For a cluster C with centroid c and dispersion scale mu (mean member
distance to the centroid), the centered exponential functional along a
direction a is

    Z'(a) = sum_{d in C} exp(a . (d - c) / mu)

Centering and scaling make Z' invariant to translation and uniform
scaling of the cluster, which the raw functional
Z(a) = sum exp(a . d) is not (z_raw is kept only to demonstrate that).

The isotropy of the cluster given a finite direction set B is

    I_c|B = min_b Z'(b) / max_b Z'(b)   in (0, 1],

an upper bound on the true sphere infimum ratio; enlarging B can only
tighten it.  Every direction is evaluated in both orientations (+b and
-b): Z' is not symmetric under negation and eigenvector signs are
arbitrary, so this removes sign nondeterminism at twice the cost.

Two canonical choices of B:

* ``isotropy_vec``: the n eigenvectors of the centered scatter matrix,
  including those with zero eigenvalue.
* ``isotropy_rnd``: ``count`` seeded random unit vectors; converges to
  the true value from above as the count grows.

Z' is evaluated in log space, so heavy-tailed clusters cannot overflow,
and ratios are formed there too.  ``_log_sum_exp`` is the formula of
scipy 1.17's ``logsumexp`` for real, finite input, written out so that
reports do not move with whichever scipy (``>= 1.9``) is installed.
Along each column of x, with m its maximum and k the number of entries
equal to m,

    s = sum_{x != m} exp(x - m),   log sum exp(x) = log1p(s / k) + log k + m

(s / k is taken only where s != 0).  Probing a cluster C with a direction
set B holds one |C| x |B| float64 product, 8 bytes per entry, plus one
work block of about 1 MiB: the exponentials and the mask of the maxima
are formed a block of rows at a time, and the column sums carried from
block to block add the rows in the order one sum over the whole product
would.  A 1-D product (``z_prime``'s) is one column, and one column is
one block: numpy sums it pairwise, which carried sums would not repeat.

``run_sweep`` compares the two choices, on value and cost, across
dimensionalities of fresh Gaussian clusters.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from .core import ClusterView, DataError, NumericError, block_rows, center_and_scale, check_bounds, timed
from .spectral import SpectralSummary, spectral_summary
from .synth import check_cluster_shape, gaussian_cluster

DEFAULT_RND_COUNT = 1000
# Byte budget of one block of rows streamed through a work buffer: the
# probes' exponentials and the norms of a random direction draw.
_WORK_BYTES = 2**20


@dataclass
class DirectionSet:
    """A non-empty set of unit vectors (rows); unit norm is enforced within 1e-10."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim == 1:
            v = v[None, :]
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DataError(f"direction set must be a non-empty 2-D array, got shape {v.shape}")
        norms = np.sqrt(np.einsum("ij,ij->i", v, v))  # no |B| x n temporary
        # written as "all within" so that a NaN norm fails it
        if not np.all(np.abs(norms - 1.0) <= 1e-10):
            raise DataError("direction set contains non-unit vectors")
        self.vectors = v

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_dims(self) -> int:
        return self.vectors.shape[1]

    def union(self, other: "DirectionSet") -> "DirectionSet":
        if other.n_dims != self.n_dims:
            raise DataError("direction sets have mismatched dimensions")
        return DirectionSet(np.vstack([self.vectors, other.vectors]))


def check_direction_count(count: int) -> None:
    """A random direction set needs ``count >= 2``: a min/max ratio needs
    at least two candidates.  Fewer is a ``DataError``."""
    if count < 2:
        raise DataError(f"count must be >= 2, got {count}")


def random_unit_vectors(n_dims: int, count: int, seed: int) -> DirectionSet:
    """``count`` uniform random unit vectors in R^n, Gaussian-normalized.

    Deterministic for a given 64-bit seed.  Sets drawn with the same
    seed are prefix-nested across counts (the generator fills row by
    row), so enlarging the count refines the same set.  count >= 2 is
    required (``check_direction_count``).
    """
    if n_dims < 1:
        raise DataError(f"n_dims must be >= 1, got {n_dims}")
    check_direction_count(count)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, n_dims))
    # a row's norm reduces that row alone, so blocks of rows give the same
    # bits without a count x n temporary of squares
    step = block_rows(n_dims, _WORK_BYTES)
    for r0 in range(0, count, step):
        block = raw[r0 : r0 + step]
        block /= np.linalg.norm(block, axis=1)[:, None]
    return DirectionSet(raw)


def z_raw(view: ClusterView, a) -> float:
    """Raw exponential functional sum exp(a . d) over the cluster's points.

    Not translation invariant; kept as the counterexample subject.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (view.n_dims,):
        raise DataError(f"direction has shape {a.shape}, cluster has {view.n_dims} dims")
    return float(np.exp(view.points @ a).sum())


def z_prime(view: ClusterView, a) -> float:
    """Centered functional sum exp(a . (d - centroid) / mu); always > 0."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (view.n_dims,):
        raise DataError(f"direction has shape {a.shape}, cluster has {view.n_dims} dims")
    x = center_and_scale(view, view.points) @ a
    return float(np.exp(_log_sum_exp(x)))


def _log_sum_exp(e: np.ndarray) -> np.ndarray:
    """log sum exp(e) along axis 0; ``e`` is left as it was.

    The value is bitwise that of scipy's ``logsumexp(e, axis=0)``
    for finite ``e``, which a probe's exponents are: a scaled member lies
    at most |C| from the origin, its distance to the centroid being at
    most the sum of all |C| of them.  scipy's fallback for a non-finite
    result and its sign handling cannot act then: the maximum m is
    finite, at least one entry equals it (k >= 1), and each other entry
    adds at most 1 to s, so s / k lies in [0, len(e) - 1] and both
    logarithms take a finite argument of at least 1.

    ``e`` is C-contiguous, as a product is, and a 1-D ``e`` is one
    column.  It is streamed through one work block of ``_WORK_BYTES`` of
    rows plus a row 0 that carries the column sums: numpy's sum along
    axis 0 of an array of at least 2 columns adds whole rows in order, so
    summing the carried row with the next block's exponentials continues
    that one sum.  A single column is summed pairwise along its length
    instead, which blocks would not repeat, so it is one block.  The first
    block sums its own rows alone, as one sum over ``e`` starts there.
    """
    x = e.reshape(len(e), -1)
    amax = x.max(0)
    step = len(x) if x.shape[1] == 1 else min(block_rows(x.shape[1], _WORK_BYTES), len(x))
    work = np.empty((step + 1, x.shape[1]))
    ties = np.empty((step, x.shape[1]), dtype=bool)
    cnt, s = np.zeros(x.shape[1]), np.empty(x.shape[1])
    for r0 in range(0, len(x), step):
        block = x[r0 : r0 + step]
        rows, tied = work[1 : len(block) + 1], ties[: len(block)]
        np.equal(block, amax, out=tied)
        cnt += tied.sum(0)
        np.subtract(block, amax, out=rows)
        rows[tied] = -np.inf
        np.exp(rows, out=rows)
        (work[: len(block) + 1] if r0 else rows).sum(0, out=s)
        work[0] = s
    s = np.where(s == 0, s, s / cnt)
    return (np.log1p(s) + np.log(cnt) + amax).reshape(e.shape[1:])


def _log_z_both(scaled: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """log Z' for every direction, then for every negated direction, from
    one product: -B negates the product in place."""
    e = scaled @ vectors.T
    plus = _log_sum_exp(e)
    np.negative(e, out=e)
    return np.concatenate([plus, _log_sum_exp(e)])


def isotropy_given_b(view: ClusterView, b: DirectionSet) -> float:
    """min/max ratio of Z' over B and -B, in (0, 1].

    1 means the cluster looks equally spread along every probed
    direction.  A degenerate cluster reports the sentinel 1.0.
    """
    if b.n_dims != view.n_dims:
        raise DataError(f"direction set in {b.n_dims} dims, cluster in {view.n_dims}")
    if view.degenerate:
        return 1.0
    logs = _log_z_both(center_and_scale(view, view.points), b.vectors)
    return float(np.exp(logs.min() - logs.max()))


def isotropy_vec(view: ClusterView, summary: SpectralSummary | None = None) -> float:
    """Isotropy over the scatter matrix eigenvector directions.

    All n eigenvectors participate, including zero-eigenvalue ones;
    both orientations of each are evaluated.  A caller holding the view's
    spectral summary passes it as ``summary``; a degenerate view returns
    the sentinel 1.0 before any eigenbasis is built.
    """
    if view.degenerate:
        return 1.0
    if summary is None:
        summary = spectral_summary(view)
    return isotropy_given_b(view, DirectionSet(summary.vectors))


def isotropy_rnd(view: ClusterView, count: int = DEFAULT_RND_COUNT, seed: int = 0) -> float:
    """Isotropy over ``count`` seeded random unit directions."""
    return isotropy_given_b(view, random_unit_vectors(view.n_dims, count, seed))


def run_sweep(dims, points: int, repeats: int, counts, seed: int) -> list[dict]:
    """Mean isotropy and wall-clock per (dimension, method) over fresh
    Gaussian clusters.  Methods: eigenvector probing plus random
    probing at each requested direction count, one row per probe in
    request order (a repeated count gives a repeated row).  The whole
    grid is checked before the first cluster is sampled: a bad repeat
    count, direction count, dimension or point count is a ``DataError``.
    A mean isotropy outside [0, 1] raises ``NumericError``."""
    if repeats < 1:
        raise DataError(f"repeats must be >= 1, got {repeats}")
    probes = [("vec", None)] + [("rnd", count) for count in counts]
    for _, count in probes[1:]:
        check_direction_count(count)
    for dim in dims:
        check_cluster_shape(dim, points)
    master = np.random.default_rng(seed)
    data_seeds = master.integers(2**63, size=(len(dims), repeats))
    dir_seeds = master.integers(2**63, size=(len(dims), repeats))
    rows = []
    for i, dim in enumerate(dims):
        values = [[] for _ in probes]
        times = [[] for _ in probes]
        # timing medians need >= 3 samples even when repeats < 3; passes
        # past the last repeat rerun its cluster and feed the medians only
        for r in range(max(repeats, 3)):
            if r < repeats:
                view = ClusterView(gaussian_cluster(dim, points, seed=int(data_seeds[i, r])))
            dir_seed = int(dir_seeds[i, min(r, repeats - 1)])
            for j, (_, count) in enumerate(probes):
                value, seconds = timed(isotropy_vec, view) if count is None else timed(isotropy_rnd, view, count, dir_seed)
                values[j].append(value)
                times[j].append(seconds)
        for (method, count), vals, secs in zip(probes, values, times):
            mean = sum(vals[:repeats]) / repeats
            try:
                check_bounds(f"i_{method}", mean)
            except NumericError as exc:
                raise NumericError(f"dim={dim}, vectors={count}: {exc}") from None
            rows.append(
                {
                    "dim": dim,
                    "method": method,
                    "vectors": count,
                    "repeats": repeats,
                    "mean_isotropy": mean,
                    "mean_seconds": sum(secs[:repeats]) / repeats,
                    "median_seconds": statistics.median(secs),
                }
            )
    return rows
