"""Domain types shared by every other module.

A :class:`PointCloud` is an immutable-by-convention matrix of points
(rows) with float64 entries.  A :class:`ClusterAssignment` maps each
point to one of k contiguous cluster ids.  A :class:`ClusterView` is a
window onto the rows of a parent cloud belonging to one cluster; it
keeps the member indices and the centroid and dispersion scale mu (the
mean distance of members to the centroid), computed once from a copy of
the member rows that is not kept, and every ``points`` access returns a
fresh copy of those rows.  :func:`timed` is the package's one clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class DataError(ValueError):
    """Invalid input data: shapes, labels, non-finite values, bad parameters."""


class NumericError(RuntimeError):
    """A numeric procedure failed or produced an out-of-contract value."""


class PointCloud:
    """A set of points in R^n stored as a (n_points, n_dims) float64 array.

    Parameters
    ----------
    data : array-like, shape (n_points, n_dims)
        Point coordinates.  Must be finite and non-empty.
    columns : sequence of str, optional
        Names for the dimensions, kept for CSV round trips.
    """

    def __init__(self, data, columns: Sequence[str] | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise DataError(f"point cloud must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError(f"point cloud must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError("point cloud contains non-finite values")
        if columns is not None:
            columns = list(columns)
            if len(columns) != arr.shape[1]:
                raise DataError(
                    f"{len(columns)} column names for {arr.shape[1]} dimensions"
                )
        self.data = arr
        self.columns = columns

    @property
    def n_points(self) -> int:
        return self.data.shape[0]

    @property
    def n_dims(self) -> int:
        return self.data.shape[1]

    def __repr__(self) -> str:
        return f"PointCloud(n_points={self.n_points}, n_dims={self.n_dims})"


class ClusterAssignment:
    """Cluster labels for every point of a cloud.

    Labels must be integers covering 0..k-1 with every id present
    (rejected otherwise with a "non-contiguous labels" error).
    """

    def __init__(self, labels):
        arr = np.asarray(labels)
        if arr.ndim != 1 or arr.size < 1:
            raise DataError(f"labels must be a non-empty 1-D sequence, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            flt = np.asarray(labels, dtype=np.float64)
            if not np.all(flt == np.floor(flt)):
                raise DataError("labels must be integers")
            arr = flt.astype(np.int64)
        arr = arr.astype(np.int64)
        if arr.min() < 0:
            raise DataError(f"negative label {arr.min()}")
        k = int(arr.max()) + 1
        present = np.unique(arr)
        if len(present) != k:
            missing = sorted(set(range(k)) - set(present.tolist()))
            raise DataError(f"non-contiguous labels: ids {missing} are empty")
        self.labels = arr
        self.k = k

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)

    def __len__(self) -> int:
        return len(self.labels)


class ClusterView:
    """The members of one cluster, referencing rows of the parent cloud.

    Construction copies the member rows once to compute the centroid and
    the dispersion scale ``mu`` (mean member distance to the centroid),
    which are cached; the copy is not kept.  Each ``points`` access
    returns a fresh copy of the member rows.  ``mu == 0`` marks a
    degenerate cluster (a single point or coincident points).  A cluster
    whose total squared distance to the centroid overflows float64 (so
    its scatter would) raises ``NumericError``.
    """

    def __init__(self, parent: PointCloud, indices, cluster_id: int = 0):
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size < 1:
            raise DataError("cluster view needs at least one member index")
        if idx.min() < 0 or idx.max() >= parent.n_points:
            raise DataError(f"out-of-range member index for cloud of {parent.n_points} points")
        self.parent = parent
        self.indices = idx
        self.cluster_id = int(cluster_id)
        members = parent.data[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            self.centroid = members.mean(axis=0)
            deviations = members - self.centroid
            sq_dist = (deviations * deviations).sum(axis=1)
            # the total bounds every scatter and Gram matrix entry
            if not np.isfinite(sq_dist.sum()):
                raise NumericError(f"cluster {self.cluster_id}: squared dispersion overflows float64")
            self.mu = float(np.sqrt(sq_dist).mean())

    @property
    def points(self) -> np.ndarray:
        return self.parent.data[self.indices]

    @property
    def size(self) -> int:
        return int(self.indices.size)

    @property
    def n_dims(self) -> int:
        return self.parent.n_dims

    @property
    def degenerate(self) -> bool:
        return self.mu == 0.0

    def __repr__(self) -> str:
        return f"ClusterView(id={self.cluster_id}, size={self.size}, n_dims={self.n_dims})"


def split_clusters(cloud: PointCloud, assignment: ClusterAssignment) -> list[ClusterView]:
    """Split a cloud into per-cluster views, ordered by cluster id."""
    if len(assignment) != cloud.n_points:
        raise DataError(
            f"{len(assignment)} labels for {cloud.n_points} points"
        )
    order = np.argsort(assignment.labels, kind="stable")
    bounds = np.searchsorted(assignment.labels[order], np.arange(assignment.k + 1))
    return [
        ClusterView(cloud, order[bounds[i]:bounds[i + 1]], cluster_id=i)
        for i in range(assignment.k)
    ]


def center_and_scale(view: ClusterView, point) -> np.ndarray:
    """Map a point (or a stack of points) into a cluster's centered frame.

    Returns ``(point - centroid) / mu``.  Raises on a degenerate
    cluster, where the scale mu is zero.
    """
    p = np.asarray(point, dtype=np.float64)
    if p.shape[-1] != view.n_dims:
        raise DataError(f"point has {p.shape[-1]} dims, cluster has {view.n_dims}")
    if view.degenerate:
        raise DataError("degenerate cluster: dispersion scale mu is zero")
    return (p - view.centroid) / view.mu


def size_weighted_mean(values, sizes) -> float:
    """Mean of per-cluster values weighted by cluster sizes.

    This is the aggregation behind every global measure: with weights
    |C| and total |E| = sum |C|, it returns sum(|C| * value) / |E|.
    """
    v = np.asarray(values, dtype=np.float64)
    s = np.asarray(sizes, dtype=np.float64)
    if v.shape != s.shape or v.ndim != 1 or v.size < 1:
        raise DataError("values and sizes must be matching non-empty 1-D sequences")
    if np.any(s <= 0):
        raise DataError("cluster sizes must be positive")
    return float((v * s).sum() / s.sum())


def timed(fn, *args):
    """Call ``fn(*args)``; return its result and the wall-clock seconds it took."""
    clock = time.perf_counter
    start = clock()
    return fn(*args), clock() - start


# Bounds used to sanity-check reported metric values, keyed by prefix.
_METRIC_BOUNDS = {
    "var_lambda": (0.0, 0.25),
    "fa": (0.0, 1.0),
    "i_": (0.0, 1.0),
    "silhouette": (-1.0, 1.0),
}
_BOUND_SLACK = 1e-9


def _check_bounds(name: str, value: float) -> None:
    for prefix, (lo, hi) in _METRIC_BOUNDS.items():
        if name == prefix or name.startswith(prefix):
            if not (lo - _BOUND_SLACK <= value <= hi + _BOUND_SLACK):
                raise NumericError(f"{name} = {value} outside documented bound [{lo}, {hi}]")
            return
    if not np.isfinite(value):
        raise NumericError(f"{name} = {value} is not finite")


@dataclass
class MetricReport:
    """Per-cluster and global metric values plus run metadata.

    ``per_cluster`` maps a metric name to one value per cluster id;
    ``overall`` maps a metric name to a single value; ``degenerate``
    lists ids of clusters that hit the degenerate sentinel; ``skipped``
    maps a metric that does not apply to the reason.  On construction
    every bounded metric is checked against its documented range and
    every other metric for finiteness.  ``metadata`` carries seeds,
    counts and timings and is excluded from determinism guarantees.
    """

    per_cluster: dict[str, list[float]] = field(default_factory=dict)
    overall: dict[str, float] = field(default_factory=dict)
    degenerate: list[int] = field(default_factory=list)
    skipped: dict[str, str] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        sizes = {len(v) for v in self.per_cluster.values()}
        if len(sizes) > 1:
            raise DataError(f"per-cluster metric lists disagree on k: {sorted(sizes)}")
        for name, vals in self.per_cluster.items():
            for v in vals:
                _check_bounds(name, float(v))
        for name, v in self.overall.items():
            _check_bounds(name, float(v))

    def to_dict(self) -> dict:
        return {
            "per_cluster": {k: [float(x) for x in v] for k, v in self.per_cluster.items()},
            "global": {k: float(v) for k, v in self.overall.items()},
            "degenerate_clusters": list(self.degenerate),
            "skipped_metrics": dict(self.skipped),
            "metadata": dict(self.metadata),
        }
