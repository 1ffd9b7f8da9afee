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

Z' is evaluated through a log-sum-exp shift so heavy-tailed clusters
cannot overflow; ratios are formed in log space.

``run_sweep`` compares the two choices, on value and cost, across
dimensionalities of fresh Gaussian clusters.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core import ClusterView, DataError, center_and_scale, timed
from .spectral import spectral_summary
from .synth import gaussian_cluster

DEFAULT_RND_COUNT = 1000


@dataclass
class DirectionSet:
    """A non-empty set of unit vectors (rows), with provenance.

    provenance is "user", "eigenvector", "random(seed=S, count=K)" or
    "union".  Unit norm is enforced within 1e-10.
    """

    vectors: np.ndarray
    provenance: str = "user"

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim == 1:
            v = v[None, :]
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DataError(f"direction set must be a non-empty 2-D array, got shape {v.shape}")
        norms = np.linalg.norm(v, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-10):
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
        return DirectionSet(np.vstack([self.vectors, other.vectors]), provenance="union")


def random_unit_vectors(n_dims: int, count: int, seed: int) -> DirectionSet:
    """``count`` uniform random unit vectors in R^n, Gaussian-normalized.

    Deterministic for a given 64-bit seed.  Sets drawn with the same
    seed are prefix-nested across counts (the generator fills row by
    row), so enlarging the count refines the same set.  count >= 2 is
    required: a min/max ratio needs at least two candidates.
    """
    if n_dims < 1:
        raise DataError(f"n_dims must be >= 1, got {n_dims}")
    if count < 2:
        raise DataError(f"count must be >= 2, got {count}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, n_dims))
    norms = np.linalg.norm(raw, axis=1)
    # a zero draw has probability ~0; keep the constructor happy anyway
    bad = norms < 1e-300
    if np.any(bad):
        raw[bad] = 0.0
        raw[bad, 0] = 1.0
        norms[bad] = 1.0
    return DirectionSet(raw / norms[:, None], provenance=f"random(seed={seed}, count={count})")


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
    return float(np.exp(logsumexp(center_and_scale(view, view.points) @ a)))


def _log_z_both(scaled: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """log Z' for every direction and its negation, one matmul."""
    exponents = scaled @ vectors.T
    return np.concatenate([logsumexp(exponents, axis=0), logsumexp(-exponents, axis=0)])


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
    return min(1.0, float(np.exp(logs.min() - logs.max())))


def isotropy_vec(view: ClusterView) -> float:
    """Isotropy over the scatter matrix eigenvector directions.

    All n eigenvectors participate, including zero-eigenvalue ones;
    both orientations of each are evaluated.
    """
    if view.degenerate:
        return 1.0
    summary = spectral_summary(view)
    return isotropy_given_b(view, DirectionSet(summary.vectors, provenance="eigenvector"))


def isotropy_rnd(view: ClusterView, count: int = DEFAULT_RND_COUNT, seed: int = 0) -> float:
    """Isotropy over ``count`` seeded random unit directions."""
    if view.degenerate:
        return 1.0
    return isotropy_given_b(view, random_unit_vectors(view.n_dims, count, seed))


def run_sweep(dims, points: int, repeats: int, counts, seed: int) -> list[dict]:
    """Mean isotropy and wall-clock per (dimension, method) over fresh
    Gaussian clusters.  Methods: eigenvector probing plus random
    probing at each requested direction count, one row per probe in
    request order (a repeated count gives a repeated row)."""
    if repeats < 1:
        raise DataError(f"repeats must be >= 1, got {repeats}")
    master = np.random.default_rng(seed)
    data_seeds = master.integers(2**63, size=(len(dims), repeats))
    dir_seeds = master.integers(2**63, size=(len(dims), repeats))
    probes = [("vec", None)] + [("rnd", count) for count in counts]
    rows = []
    for i, dim in enumerate(dims):
        values = [[] for _ in probes]
        times = [[] for _ in probes]
        # timing medians need >= 3 samples even when repeats < 3; passes
        # past the last repeat rerun its cluster and feed the medians only
        for r in range(max(repeats, 3)):
            if r < repeats:
                view = ClusterView(gaussian_cluster(dim, points, seed=int(data_seeds[i, r])), np.arange(points))
            dir_seed = int(dir_seeds[i, min(r, repeats - 1)])
            for j, (_, count) in enumerate(probes):
                value, seconds = timed(isotropy_vec, view) if count is None else timed(isotropy_rnd, view, count, dir_seed)
                values[j].append(value)
                times[j].append(seconds)
        for (method, count), vals, secs in zip(probes, values, times):
            rows.append(
                {
                    "dim": dim,
                    "method": method,
                    "vectors": count,
                    "repeats": repeats,
                    "mean_isotropy": sum(vals[:repeats]) / repeats,
                    "mean_seconds": sum(secs[:repeats]) / repeats,
                    "median_seconds": statistics.median(secs),
                }
            )
    return rows
