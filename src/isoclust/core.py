"""Domain types shared by every other module.

A :class:`PointCloud` is an immutable-by-convention matrix of points
(rows) with float64 entries.  A :class:`ClusterAssignment` maps each
point to one of k contiguous cluster ids.  A :class:`ClusterView` is one
cluster whose members are a cloud's points; ``points`` is that cloud's
array, never a copy.  :func:`split_clusters` gathers a clustering's rows
once, in cluster order, into a :class:`Clustering`: the cluster views,
each a slice of that one buffer, which the whole-clustering indices read
as it is.  :func:`timed` is the package's one clock.

:func:`pairwise_split` is where ``np.add.reduce`` halves a run of values
it sums, so that a sum assembled from halves' sums, as
:func:`pairwise_sum` and silhouette's tiles assemble theirs, is bitwise
numpy's.

:func:`cdist` and :func:`pdist` are scipy's compiled Euclidean distance
kernels, the C functions behind ``scipy.spatial.distance.cdist`` and
``pdist`` for these metrics, so every distance is bitwise scipy's.  The
extension that holds them is loaded by itself, under its own dotted
name, without running ``scipy.spatial``'s ``__init__``: that import takes
about 0.4 s and 29 MB of resident memory (kd-trees, qhull,
``scipy.sparse``, ``scipy.linalg``), and the package imports no scipy
module at all.  Where the extension or one of its functions is missing,
they are ``scipy.spatial.distance``'s own, at that import's cost.

:func:`eigh` is ``np.linalg.eigh`` and ``eigvalsh``, bitwise, computed
in the caller's matrix: the LAPACK routine numpy calls, loaded from
numpy's own bundled library, so an eigenbasis holds no copy of its
matrix in or of its eigenvectors out.  Where that library is missing,
it calls ``numpy.linalg``.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np
import numpy.random  # numpy 2 loads it on first use: load it with the package, not inside a timed run


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


# the most empty ids a "non-contiguous labels" error names
_NAMED_MISSING = 10


class ClusterAssignment:
    """Cluster labels for every point of a cloud.

    Labels must be integers covering 0..k-1 with every id present
    (rejected otherwise with a "non-contiguous labels" error, which
    names at most ten of the empty ids).  A label that int64 cannot
    hold is rejected by value.
    """

    def __init__(self, labels):
        arr = np.asarray(labels)
        if arr.ndim != 1 or arr.size < 1:
            raise DataError(f"labels must be a non-empty 1-D sequence, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            flt = np.asarray(labels, dtype=np.float64)
            if not np.all(flt == np.floor(flt)):
                raise DataError("labels must be integers")
            arr = flt
        if not np.can_cast(arr.dtype, np.int64):
            # a float or uint64 label past int64 would wrap in the cast
            outside = arr[(arr < -(2**63)) | (arr >= 2**63)]
            if outside.size:
                raise DataError(f"label {outside[0]} is outside the int64 range")
        arr = arr.astype(np.int64)
        if arr.min() < 0:
            raise DataError(f"negative label {arr.min()}")
        k = int(arr.max()) + 1
        ids = np.concatenate([[-1], np.sort(arr)])
        steps = np.diff(ids)
        gaps = np.flatnonzero(steps > 1)
        if gaps.size:
            # a gap holds the ids strictly between two present ones (or below the least)
            missing = []
            for lo, hi in zip(ids[gaps] + 1, ids[gaps + 1]):
                missing.extend(range(lo, min(hi, lo + _NAMED_MISSING - len(missing))))
                if len(missing) == _NAMED_MISSING:
                    break
            total = k - int(np.count_nonzero(steps))
            if total <= _NAMED_MISSING:
                raise DataError(f"non-contiguous labels: ids {missing} are empty")
            raise DataError(f"non-contiguous labels: {total} ids are empty, the first {missing}")
        self.labels = arr
        self.k = k

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)

    def __len__(self) -> int:
        return len(self.labels)


class ClusterView:
    """One cluster, whose members are the points of ``cloud``.

    Construction computes the centroid and the dispersion scale ``mu``
    (mean member distance to the centroid) once.  ``points`` is the
    cloud's array itself, not a copy.  ``mu == 0`` marks a degenerate
    cluster (a single point or coincident points).  A cluster whose
    total squared distance to the centroid overflows float64 (so its
    scatter would) raises ``NumericError``.

    ``pdist_mean`` is None, or the mean of the cluster's own pairwise
    distances, which silhouette computes on its way and leaves here for
    ``mean_pairwise_dist`` to report.
    """

    def __init__(self, cloud: PointCloud, cluster_id: int = 0):
        self.cloud = cloud
        self.cluster_id = int(cluster_id)
        self.pdist_mean = None
        with np.errstate(over="ignore", invalid="ignore"):
            self.centroid = cloud.data.mean(axis=0)
            deviations = cloud.data - self.centroid
            sq_dist = (deviations * deviations).sum(axis=1)
            # the total bounds every scatter and Gram matrix entry
            if not np.isfinite(sq_dist.sum()):
                raise NumericError(f"cluster {self.cluster_id}: squared dispersion overflows float64")
            self.mu = float(np.sqrt(sq_dist).mean())

    @property
    def points(self) -> np.ndarray:
        return self.cloud.data

    @property
    def size(self) -> int:
        return self.cloud.n_points

    @property
    def n_dims(self) -> int:
        return self.cloud.n_dims

    @property
    def degenerate(self) -> bool:
        return self.mu == 0.0

    def __repr__(self) -> str:
        return f"ClusterView(id={self.cluster_id}, size={self.size}, n_dims={self.n_dims})"


class Clustering(tuple):
    """The views of one clustering, in cluster-id order, and the buffer
    they share: ``data`` holds every point in cluster order, and cluster
    i owns rows ``starts[i]:starts[i + 1]``, which are its view's points.

    ``run`` is how the whole-clustering indices run their independent
    tasks, called as ``run(fn, tasks)`` like builtin ``map``, which it is
    unless set to a thread pool's ``map`` (as ``run_measure`` does while
    it holds one).
    """

    run = map

    def __new__(cls, data: np.ndarray, starts: np.ndarray):
        bounds = enumerate(zip(starts, starts[1:]))
        self = super().__new__(cls, (ClusterView(PointCloud(data[lo:hi]), cluster_id=i) for i, (lo, hi) in bounds))
        self.data = data
        self.starts = starts
        return self

    def __getnewargs__(self):  # copy and pickle rebuild the views over the copied buffer
        return self.data, self.starts


def split_clusters(cloud: PointCloud, assignment: ClusterAssignment) -> Clustering:
    """Split a cloud into its clusters: one copy of the rows, gathered in
    cluster order, that each cluster's view slices."""
    if len(assignment) != cloud.n_points:
        raise DataError(
            f"{len(assignment)} labels for {cloud.n_points} points"
        )
    order = np.argsort(assignment.labels, kind="stable")
    starts = np.concatenate([[0], np.cumsum(assignment.sizes())])
    return Clustering(cloud.data[order], starts)


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


def block_rows(n_cols: int, budget: int) -> int:
    """Rows of ``n_cols`` float64 values that fit in ``budget`` bytes, at least one."""
    return max(1, budget // (8 * n_cols))


# numpy's PW_BLOCKSIZE: np.add.reduce sums a stretch this short without splitting it
PAIRWISE_LEAF = 128


def pairwise_split(n: int) -> int:
    """Where ``np.add.reduce`` splits a contiguous run of ``n`` > 128
    float64 values: at half its length rounded down to a multiple of 8.
    The run's sum is the first part's sum plus the rest's."""
    half = n // 2
    return half - half % 8


def pairwise_sum(n: int, values, max_len: int) -> np.float64:
    """``np.add.reduce`` of a contiguous float64 array of ``n`` values,
    without ever holding more than ``max_len`` (at least 128) of them.

    A run longer than ``max_len`` is split at ``pairwise_split`` and its
    parts' sums are added, as numpy adds them; ``values(lo, hi)`` returns
    entries ``lo:hi`` of a run that is not split, as a contiguous 1-D
    array, asked for left to right.  The result is bitwise numpy's.
    Parts are added as ``np.float64``, so an overflow warns as numpy's
    would.  Nothing refers to ``values`` once the call returns, so the
    buffer behind its runs is freed then, not at a later garbage collection.
    """
    if max_len < PAIRWISE_LEAF:
        raise ValueError(f"max_len must be at least {PAIRWISE_LEAF}, got {max_len}")
    return _pairwise_run(values, 0, n, max_len)


def _pairwise_run(values, lo: int, hi: int, max_len: int) -> np.float64:
    if hi - lo <= max_len:
        return np.add.reduce(values(lo, hi))
    mid = lo + pairwise_split(hi - lo)
    return _pairwise_run(values, lo, mid, max_len) + _pairwise_run(values, mid, hi, max_len)


_DISTANCE_MODULE = "scipy.spatial._distance_pybind"


def _distance_kernels():
    """scipy's compiled ``cdist`` kernels by metric, and its ``pdist`` kernel.

    The extension is found in scipy's directory (``find_spec`` imports
    nothing) and loaded under its real dotted name, from which CPython
    derives its ``PyInit_`` symbol and by which a later ``import
    scipy.spatial`` in the same process shares the loaded module.  If
    scipy's directory, the file or one of the three functions is
    missing, they are ``scipy.spatial.distance``'s.
    """
    try:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        stem = os.path.join(scipy_dir, "spatial", "_distance_pybind")
        path = next(filter(os.path.isfile, (stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES)), None)
        if path is None:
            raise ImportError(f"no {_DISTANCE_MODULE} extension in {os.path.dirname(stem)}")
        spec = importlib.util.spec_from_file_location(_DISTANCE_MODULE, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return {"euclidean": module.cdist_euclidean, "sqeuclidean": module.cdist_sqeuclidean}, module.pdist_euclidean
    except (ImportError, AttributeError):
        from scipy.spatial import distance

        return {metric: partial(distance.cdist, metric=metric) for metric in ("euclidean", "sqeuclidean")}, distance.pdist


_CDIST, _PDIST = _distance_kernels()


def cdist(x, y, metric: str = "euclidean", *, out=None) -> np.ndarray:
    """``scipy.spatial.distance.cdist(x, y, metric, out=out)`` for the
    ``"euclidean"`` and ``"sqeuclidean"`` metrics, bitwise."""
    return _CDIST[metric](x, y, out=out)


def pdist(x) -> np.ndarray:
    """``scipy.spatial.distance.pdist(x)``, Euclidean, bitwise."""
    return _PDIST(x)


_EIGEN_SYMBOL = "scipy_dsyevd_64_"


def _eigen_kernel():
    """The LAPACK ``dsyevd`` behind ``np.linalg.eigh`` and ``eigvalsh``,
    and the name a report gives it.

    A numpy wheel bundles its OpenBLAS as ``numpy.libs/libscipy_openblas64_*``,
    already loaded by numpy's own import, and ``numpy.linalg`` calls this
    very symbol in it, with 64-bit integers.  Where the file or the symbol
    is missing, there is no kernel and :func:`eigh` calls ``numpy.linalg``.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            kernel = getattr(ctypes.CDLL(path), _EIGEN_SYMBOL)
        except (OSError, AttributeError):
            continue
        char, integer = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64)
        kernel.argtypes = [char, char, integer, ctypes.c_void_p, integer, ctypes.c_void_p,
                           ctypes.c_void_p, integer, ctypes.c_void_p, integer, integer]
        kernel.restype = None
        return kernel, f"{os.path.basename(path)}:{_EIGEN_SYMBOL}"
    return None, "numpy.linalg"


_DSYEVD, EIGEN_KERNEL = _eigen_kernel()


def eigh(a: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """``np.linalg.eigh(a)``, or ``eigvalsh(a)`` without ``vectors``,
    bitwise, computed in ``a`` itself.

    ``a`` is an exactly symmetric, C-contiguous, writable float64 matrix,
    such as a fresh ``x.T @ x`` (numpy computes that product on one
    triangle and mirrors it).  Returns the ascending eigenvalues and, with
    ``vectors``, one unit eigenvector per row in the same order (``a``
    itself, overwritten), else None, ``a`` destroyed.  The call is
    numpy's: LAPACK ``dsyevd`` with JOBZ ``'V'`` or ``'N'``, UPLO
    ``'L'`` and the workspace LAPACK's own size query asks for, only
    without numpy's copy of ``a`` in and of the eigenvectors out, so an
    eigenbasis holds 3 n² float64 in flight where ``np.linalg.eigh``
    holds 5 n².  A decomposition that does not converge raises
    ``NumericError``.
    """
    n = a.shape[0]
    if a.dtype != np.float64 or a.shape != (n, n) or not (a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"eigh needs a square, C-contiguous, writable float64 matrix, got {a.dtype} {a.shape}")
    if _DSYEVD is None:
        try:
            if vectors:
                w, v = np.linalg.eigh(a)
                return w, v.T
            return np.linalg.eigvalsh(a), None
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigendecomposition of a {n} x {n} matrix failed: {exc}") from None
    # a is its own transpose, so LAPACK's column-major view of it is a
    w = np.empty(n)
    jobz = b"V" if vectors else b"N"
    size, lda, info = ctypes.c_int64(n), ctypes.c_int64(max(n, 1)), ctypes.c_int64(0)

    def dsyevd(work, lwork, iwork, liwork):
        _DSYEVD(jobz, b"L", size, a.ctypes.data, lda, w.ctypes.data,
                work.ctypes.data, ctypes.c_int64(lwork), iwork.ctypes.data, ctypes.c_int64(liwork), info)
        if info.value:
            raise NumericError(f"eigendecomposition of a {n} x {n} matrix failed: LAPACK dsyevd info {info.value}")

    # LAPACK's own workspace query first, as numpy makes it: dsytrd's blocking follows LWORK
    lwork, liwork = np.empty(1), np.empty(1, dtype=np.int64)
    dsyevd(lwork, -1, liwork, -1)
    lwork, liwork = int(lwork[0]), int(liwork[0])
    dsyevd(np.empty(lwork), lwork, np.empty(liwork, dtype=np.int64), liwork)
    return w, a if vectors else None


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


def check_bounds(name: str, value: float) -> None:
    """Raise ``NumericError`` unless the value of metric ``name`` lies in
    its documented bound (within a 1e-9 slack), or, for a metric with
    no bound, is finite."""
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
                check_bounds(name, float(v))
        for name, v in self.overall.items():
            check_bounds(name, float(v))

    def to_dict(self) -> dict:
        return {
            "per_cluster": {k: [float(x) for x in v] for k, v in self.per_cluster.items()},
            "global": {k: float(v) for k, v in self.overall.items()},
            "degenerate_clusters": list(self.degenerate),
            "skipped_metrics": dict(self.skipped),
            "metadata": dict(self.metadata),
        }
